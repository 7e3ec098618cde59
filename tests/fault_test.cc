// Deterministic fault injection (src/support/fault.h) against the engine
// family's crash-safety contract: every injected fault ends in a clean
// structured FaultInjectedError, the engine stays reusable afterwards, and
// resuming from the last round-boundary checkpoint recovers a run that is
// bit-identical to the uninterrupted one. Also covers the structured
// non-convergence error (MaxRoundsExceededError) on every engine.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/rake_compress.h"
#include "src/graph/generators.h"
#include "src/graph/graph.h"
#include "src/local/network.h"
#include "src/local/parallel_network.h"
#include "src/local/reference_network.h"
#include "src/local/snapshot.h"
#include "src/support/fault.h"
#include "src/support/rng.h"

namespace treelocal {
namespace {

using local::Algorithm;
using local::MaxRoundsExceededError;
using local::Network;
using local::NetworkOptions;
using local::NodeContext;
using local::ParallelNetwork;
using local::ReferenceNetwork;
using support::FaultInjectedError;
using support::FaultInjector;

constexpr int kMaxRounds = 1000;

// A workload that never halts: every node rebroadcasts a round-dependent
// word forever, so the digest chain keeps evolving and max_rounds always
// trips.
class NeverHaltAlg : public Algorithm {
 public:
  size_t StateBytes() const override { return 0; }
  void OnRound(NodeContext& ctx) override {
    ctx.Broadcast(local::Message::Of(7 * 1000003 + ctx.round()));
  }
};

std::string CheckpointBytes(const local::Engine& net) {
  std::ostringstream out;
  net.Checkpoint(out);
  return out.str();
}

void ResumeBytes(local::Engine& net, const std::string& bytes) {
  std::istringstream in(bytes);
  net.Resume(in);
}

// Injects `fault` into a fresh engine built by `make(options)`, expects the
// structured error at the predicted site, then proves the engine object is
// still usable: a plain re-Run must reproduce the clean run's transcript.
template <typename MakeEngine>
void ExpectFaultThenReuse(const Graph& g, int k, FaultInjector& fault,
                          FaultInjectedError::Site want_site, int want_round,
                          MakeEngine make, const std::string& label) {
  SCOPED_TRACE(label);
  NetworkOptions clean_opt;
  auto clean = make(clean_opt);
  auto clean_alg = MakeRakeCompressAlgorithm(k);
  const int clean_rounds = clean->Run(*clean_alg, kMaxRounds);
  const uint64_t clean_digest = clean->last_digest();

  NetworkOptions opt;
  opt.fault = &fault;
  auto net = make(opt);
  auto alg = MakeRakeCompressAlgorithm(k);
  try {
    net->Run(*alg, kMaxRounds);
    FAIL() << "expected FaultInjectedError";
  } catch (const FaultInjectedError& e) {
    EXPECT_EQ(e.site(), want_site);
    if (want_round >= 0) EXPECT_EQ(e.round(), want_round);
    EXPECT_TRUE(fault.fired());
  }
  // The injector stays fired, so the SAME engine object re-runs cleanly
  // from scratch and must land on the clean transcript.
  auto alg2 = MakeRakeCompressAlgorithm(k);
  EXPECT_EQ(net->Run(*alg2, kMaxRounds), clean_rounds);
  EXPECT_EQ(net->last_digest(), clean_digest);
  EXPECT_TRUE(net->finished());
}

TEST(FaultTest, RoundBoundaryKillIsStructuredAndEngineReusable) {
  const int n = 200, k = 2;
  const Graph g = UniformRandomTree(n, 11);
  const auto ids = DefaultIds(n, 12);
  auto run_case = [&](auto make, const std::string& label) {
    FaultInjector fault = FaultInjector::KillAtRoundBoundary(2);
    ExpectFaultThenReuse(g, k, fault,
                         FaultInjectedError::Site::kRoundBoundary, 2, make,
                         label);
  };
  run_case([&](const NetworkOptions& o) {
    return std::make_unique<Network>(g, ids, o);
  }, "Network");
  run_case([&](const NetworkOptions& o) {
    return std::make_unique<ParallelNetwork>(g, ids, 4, o);
  }, "ParallelNetwork T=4");
  run_case([&](const NetworkOptions& o) {
    return std::make_unique<ReferenceNetwork>(g, ids, o);
  }, "ReferenceNetwork");
}

TEST(FaultTest, MidRoundVisitThrowIsStructuredAndEngineReusable) {
  const int n = 200, k = 2;
  const Graph g = UniformRandomTree(n, 21);
  const auto ids = DefaultIds(n, 22);
  // Visit n + 5 lands in round 1 (round 0 visits all n live nodes); the
  // exact thrower under sharding is unspecified, the round is not.
  auto run_case = [&](auto make, const std::string& label) {
    FaultInjector fault = FaultInjector::ThrowAtVisit(n + 5);
    ExpectFaultThenReuse(g, k, fault, FaultInjectedError::Site::kVisit, 1,
                         make, label);
  };
  run_case([&](const NetworkOptions& o) {
    return std::make_unique<Network>(g, ids, o);
  }, "Network");
  run_case([&](const NetworkOptions& o) {
    return std::make_unique<ParallelNetwork>(g, ids, 4, o);
  }, "ParallelNetwork T=4");
  run_case([&](const NetworkOptions& o) {
    return std::make_unique<ReferenceNetwork>(g, ids, o);
  }, "ReferenceNetwork");
}

TEST(FaultTest, FromSeedIsDeterministic) {
  for (uint64_t seed = 0; seed < 32; ++seed) {
    FaultInjector a = FaultInjector::FromSeed(seed, 9, 400);
    FaultInjector b = FaultInjector::FromSeed(seed, 9, 400);
    EXPECT_EQ(a.kill_round(), b.kill_round());
    EXPECT_EQ(a.kill_visit(), b.kill_visit());
    // Exactly one of the two sites is armed.
    EXPECT_NE(a.kill_round() >= 0, a.kill_visit() >= 1);
  }
}

// The full recovery drill, seeded: checkpoint at every round boundary of a
// clean run, then for each seed crash a fresh run at a derived point, catch
// the structured error, resume from the last checkpoint at or before the
// crash, and require the recovered final transcript to be byte-identical
// to the uninterrupted one.
TEST(FaultTest, SeededCrashRecoveryIsBitIdentical) {
  const int n = 160, k = 2;
  const Graph g = UniformRandomTree(n, 47);
  const auto ids = DefaultIds(n, 48);

  // Clean pass: per-round checkpoints + totals. One engine, one algorithm
  // object, pausing at every successive boundary.
  Network clean(g, ids);
  auto clean_alg = MakeRakeCompressAlgorithm(k);
  std::vector<std::string> at_round;  // at_round[r]: checkpoint at round r
  int64_t total_visits = 0;
  int pause = 0;
  while (true) {
    clean.RunUntil(*clean_alg, kMaxRounds, pause);
    if (!clean.paused()) break;
    at_round.push_back(CheckpointBytes(clean));
    ++pause;
  }
  const int clean_rounds = static_cast<int>(clean.round_stats().size());
  // visits is exactly what FaultInjector::OnVisit counts.
  for (const auto& rs : clean.round_stats()) total_visits += rs.visits;
  const std::string want = CheckpointBytes(clean);
  ASSERT_EQ(static_cast<int>(at_round.size()), clean_rounds);

  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    FaultInjector fault =
        FaultInjector::FromSeed(seed, clean_rounds, total_visits);
    NetworkOptions opt;
    opt.fault = &fault;
    Network net(g, ids, opt);
    auto alg = MakeRakeCompressAlgorithm(k);
    int crash_round = -1;
    try {
      net.Run(*alg, kMaxRounds);
      FAIL() << "in-range seeded fault did not fire";
    } catch (const FaultInjectedError& e) {
      crash_round = e.round();
    }
    ASSERT_GE(crash_round, 0);
    ASSERT_LT(crash_round, clean_rounds);
    // Recover on a fresh process-equivalent engine from the boundary
    // checkpoint at (for a boundary kill) or before (for a mid-round
    // throw) the crash point.
    Network recovered(g, ids);
    auto ralg = MakeRakeCompressAlgorithm(k);
    ResumeBytes(recovered, at_round[crash_round]);
    EXPECT_EQ(recovered.Run(*ralg, kMaxRounds), clean_rounds);
    EXPECT_EQ(CheckpointBytes(recovered), want);
  }
}

// Satellite: structured non-convergence. Hitting max_rounds is a typed
// error carrying the round reached, the live-node count, and the digest
// chain value — the triage trio — on every engine.
TEST(FaultTest, MaxRoundsErrorCarriesDiagnostics) {
  const int n = 64;
  const Graph g = UniformRandomTree(n, 77);
  const auto ids = DefaultIds(n, 78);
  NeverHaltAlg alg;

  // The expected digest after 5 rounds, from a paused clean engine.
  Network probe(g, ids);
  NeverHaltAlg probe_alg;
  probe.RunUntil(probe_alg, kMaxRounds, 5);
  ASSERT_TRUE(probe.paused());
  const uint64_t digest_at_5 = probe.last_digest();

  auto expect_diag = [&](auto run, const std::string& label) {
    SCOPED_TRACE(label);
    try {
      run();
      FAIL() << "expected MaxRoundsExceededError";
    } catch (const MaxRoundsExceededError& e) {
      EXPECT_EQ(e.round(), 5);
      EXPECT_EQ(e.active_nodes(), n);
      EXPECT_EQ(e.last_digest(), digest_at_5);
      EXPECT_NE(std::string(e.what()).find("max_rounds"), std::string::npos);
    }
  };
  expect_diag([&] {
    Network net(g, ids);
    net.Run(alg, 5);
  }, "Network");
  expect_diag([&] {
    ParallelNetwork net(g, ids, 4);
    net.Run(alg, 5);
  }, "ParallelNetwork");
  expect_diag([&] {
    ReferenceNetwork net(g, ids);
    net.Run(alg, 5);
  }, "ReferenceNetwork");

  // The old catch sites still work: the typed error is a runtime_error.
  Network net(g, ids);
  EXPECT_THROW(net.Run(alg, 5), std::runtime_error);
}

TEST(FaultTest, CorruptionHelpersBehave) {
  const std::string bytes = "treelocal snapshot bytes";
  EXPECT_EQ(support::TruncateBytes(bytes, 9), bytes.substr(0, 9));
  EXPECT_EQ(support::TruncateBytes(bytes, 1000), bytes);
  const std::string flipped = support::FlipBit(bytes, 8 * 3 + 2);
  EXPECT_EQ(flipped.size(), bytes.size());
  EXPECT_EQ(flipped[3], static_cast<char>(bytes[3] ^ 0x04));
  EXPECT_EQ(support::FlipBit(bytes, 8 * 3 + 2).compare(flipped), 0);
}

}  // namespace
}  // namespace treelocal
