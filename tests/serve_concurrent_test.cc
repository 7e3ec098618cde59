// Concurrent-serving correctness for treelocald: N client threads firing
// mixed problems at one in-process daemon must each get results
// bit-identical to a solo engine run of their workload — batch = concurrent
// users is only sound if coalescing is transcript-invisible. Also pins
// queue-level cancellation (a cancelled request leaves its batch-mates
// untouched), per-request round budgets, coalescing statistics, and the
// bad-request surface.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/decomposition.h"
#include "src/core/rake_compress.h"
#include "src/core/transform_edge.h"
#include "src/core/transform_node.h"
#include "src/graph/generators.h"
#include "src/graph/graph.h"
#include "src/local/network.h"
#include "src/problems/coloring.h"
#include "src/problems/edge_coloring.h"
#include "src/problems/matching.h"
#include "src/problems/mis.h"
#include "src/serve/client.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"
#include "src/support/digest.h"
#include "src/support/fault.h"

namespace treelocal::serve {
namespace {

uint64_t FoldDigest(const std::vector<local::RoundStats>& stats) {
  uint64_t d = support::kDigestSeed;
  for (const auto& rs : stats) {
    d = support::ChainDigest(d, rs.active_nodes, rs.messages_sent, 0);
  }
  return d;
}

std::vector<int64_t> IotaIds(int n) {
  std::vector<int64_t> ids(n);
  for (int i = 0; i < n; ++i) ids[i] = i;
  return ids;
}

// What the daemon must answer for one request, computed from the solo
// library entry points at T = 1 (which the engine bit-identity tests pin
// against Network::Run). The daemon assigns iota ids, so the id space is n.
SolveResult SoloResult(const Graph& g, const SolveSpec& spec) {
  const std::vector<int64_t> ids = IotaIds(g.NumNodes());
  const int64_t id_space = g.NumNodes();
  SolveResult res;
  res.kind = spec.kind;
  switch (spec.kind) {
    case SolveKind::kRakeCompress: {
      const RakeCompressResult r = RunRakeCompress(g, ids, spec.k);
      res.engine_rounds = res.total_rounds = (uint32_t)r.engine_rounds;
      res.messages = r.messages;
      res.digest = FoldDigest(r.round_stats);
      res.iterations = (uint32_t)r.num_iterations;
      break;
    }
    case SolveKind::kThm12Node: {
      std::unique_ptr<NodeProblem> problem;
      if (spec.problem == ProblemId::kMis) {
        problem = std::make_unique<MisProblem>();
      } else {
        problem = std::make_unique<ColoringProblem>(
            ColoringProblem::Mode::kDeltaPlusOne, g.MaxDegree());
      }
      const Thm12Result r =
          SolveNodeProblemOnTree(*problem, g, ids, id_space, spec.k);
      res.valid = r.valid ? 1 : 0;
      res.engine_rounds = (uint32_t)r.rake_compress.engine_rounds;
      res.total_rounds = (uint32_t)r.rounds_total;
      res.messages = r.engine_messages;
      res.digest = FoldDigest(r.rake_compress.round_stats);
      res.iterations = (uint32_t)r.rake_compress.num_iterations;
      break;
    }
    case SolveKind::kThm15Edge: {
      std::unique_ptr<EdgeProblem> problem;
      if (spec.problem == ProblemId::kMatching) {
        problem = std::make_unique<MatchingProblem>();
      } else {
        problem = std::make_unique<EdgeColoringProblem>(
            EdgeColoringProblem::Mode::kTwoDeltaMinusOne, g.MaxDegree());
      }
      const Thm15Result r = SolveEdgeProblemBoundedArboricity(
          *problem, g, ids, id_space, spec.a, spec.k);
      res.valid = r.valid ? 1 : 0;
      res.engine_rounds = (uint32_t)r.rounds_decomposition;
      res.total_rounds = (uint32_t)r.rounds_total;
      res.messages = r.engine_messages;
      res.digest = FoldDigest(r.decomposition.round_stats);
      res.iterations = (uint32_t)r.decomposition.num_layers;
      break;
    }
    case SolveKind::kDecomposition: {
      const DecompositionResult r =
          RunDecomposition(g, ids, spec.a, 2 * spec.a, spec.k);
      res.engine_rounds = res.total_rounds = (uint32_t)r.engine_rounds;
      res.messages = r.messages;
      res.digest = FoldDigest(r.round_stats);
      res.iterations = (uint32_t)r.num_layers;
      break;
    }
  }
  return res;
}

// The engine-level fields most tests compare.
struct Expected {
  uint32_t engine_rounds = 0;
  int64_t messages = 0;
  uint64_t digest = 0;
};

Expected ExpectSolo(const Graph& g, const SolveSpec& spec) {
  const SolveResult r = SoloResult(g, spec);
  EXPECT_EQ(r.valid, 1);
  return {r.engine_rounds, r.messages, r.digest};
}

Expected ExpectRake(const Graph& g, int k) {
  return ExpectSolo(g, {SolveKind::kRakeCompress, ProblemId::kNone, k, 1, 0});
}

Expected ExpectThm12(const Graph& g, int k) {
  return ExpectSolo(
      g, {SolveKind::kThm12Node, ProblemId::kColoringDeltaPlusOne, k, 1, 0});
}

Expected ExpectDecomp(const Graph& g, int a, int k) {
  return ExpectSolo(g, {SolveKind::kDecomposition, ProblemId::kNone, k, a, 0});
}

// A daemon answer must equal the solo run of its request field for field.
void ExpectSoloAnswer(const Graph& g, const SolveSpec& spec,
                      const SolveResult& got) {
  SCOPED_TRACE("kind=" + std::to_string((int)spec.kind) +
               " k=" + std::to_string(spec.k));
  const SolveResult want = SoloResult(g, spec);
  EXPECT_EQ(want.valid, 1);
  EXPECT_EQ(got.kind, want.kind);
  EXPECT_EQ(got.valid, want.valid);
  EXPECT_EQ(got.digest, want.digest);
  EXPECT_EQ(got.engine_rounds, want.engine_rounds);
  EXPECT_EQ(got.total_rounds, want.total_rounds);
  EXPECT_EQ(got.messages, want.messages);
  EXPECT_EQ(got.iterations, want.iterations);
}

// One request of each kind, in the order the interleaving tests replay on
// one graph's engine: rake-compress, Thm15, Thm12, decomposition, and
// rake-compress again with another k.
const std::vector<SolveSpec> kAllKinds = {
    {SolveKind::kRakeCompress, ProblemId::kNone, 2, 1, 0},
    {SolveKind::kThm15Edge, ProblemId::kEdgeColoringTwoDeltaMinusOne, 5, 1,
     0},
    {SolveKind::kThm12Node, ProblemId::kColoringDeltaPlusOne, 3, 1, 0},
    {SolveKind::kDecomposition, ProblemId::kNone, 5, 1, 0},
    {SolveKind::kRakeCompress, ProblemId::kNone, 3, 1, 0},
};

class ServeConcurrentTest : public ::testing::Test {
 protected:
  void StartServer(const Server::Options& opt) {
    server_ = std::make_unique<Server>(opt);
    std::string error;
    ASSERT_TRUE(server_->Start(&error)) << error;
  }

  std::unique_ptr<Client> Connect() {
    auto c = std::make_unique<Client>();
    std::string error;
    EXPECT_TRUE(c->Connect("127.0.0.1", server_->port(), &error)) << error;
    return c;
  }

  uint64_t Register(Client& c, const Graph& g) {
    uint64_t key = 0;
    bool fresh = false;
    std::string error;
    EXPECT_TRUE(c.RegisterGraph(g, {}, &key, &fresh, &error)) << error;
    return key;
  }

  // Solves every spec of kAllKinds in turn on `key` (each its own pass)
  // and checks each answer against its solo run on `g`.
  void SolveAllKindsInTurn(Client& c, uint64_t key, const Graph& g) {
    for (const SolveSpec& spec : kAllKinds) {
      SolveResult result;
      std::string error;
      ASSERT_TRUE(c.SolveAndWait(key, spec, &result, &error)) << error;
      ExpectSoloAnswer(g, spec, result);
    }
  }

  std::unique_ptr<Server> server_;
};

// Eight closed-loop client threads, mixed kinds and parameters, two
// resident graphs. Every response must match the solo-run expectation
// exactly: rounds, messages, and digest chain.
TEST_F(ServeConcurrentTest, EightClientsMixedProblemsBitIdentical) {
  StartServer({});
  const Graph tree1 = UniformRandomTree(257, 11);
  const Graph tree2 = UniformRandomTree(180, 23);

  // (graph index, kind, k) -> expected.
  std::map<std::tuple<int, SolveKind, int>, Expected> want;
  const std::vector<int> rake_ks = {2, 3, 4, 8};
  for (int gi = 0; gi < 2; ++gi) {
    const Graph& g = gi == 0 ? tree1 : tree2;
    for (int k : rake_ks) {
      want[{gi, SolveKind::kRakeCompress, k}] = ExpectRake(g, k);
    }
    want[{gi, SolveKind::kThm12Node, 3}] = ExpectThm12(g, 3);
    want[{gi, SolveKind::kDecomposition, 5}] = ExpectDecomp(g, 1, 5);
  }

  constexpr int kThreads = 8;
  constexpr int kRequestsPerThread = 6;
  std::vector<std::string> failures(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto c = Connect();
      if (!c->connected()) {
        failures[t] = "connect failed";
        return;
      }
      const uint64_t keys[2] = {Register(*c, tree1), Register(*c, tree2)};
      for (int i = 0; i < kRequestsPerThread; ++i) {
        const int gi = (t + i) % 2;
        SolveSpec spec;
        switch ((t + i) % 4) {
          case 0:
          case 1:
            spec.kind = SolveKind::kRakeCompress;
            spec.k = rake_ks[(t * kRequestsPerThread + i) % rake_ks.size()];
            break;
          case 2:
            spec.kind = SolveKind::kThm12Node;
            spec.problem = ProblemId::kColoringDeltaPlusOne;
            spec.k = 3;
            break;
          case 3:
            spec.kind = SolveKind::kDecomposition;
            spec.a = 1;
            spec.k = 5;
            break;
        }
        SolveResult result;
        std::string error;
        if (!c->SolveAndWait(keys[gi], spec, &result, &error)) {
          failures[t] = error;
          return;
        }
        const Expected& e = want.at({gi, spec.kind, spec.k});
        if (result.engine_rounds != e.engine_rounds ||
            result.messages != e.messages || result.digest != e.digest) {
          failures[t] = "mismatch vs solo run (kind " +
                        std::to_string((int)spec.kind) + " k " +
                        std::to_string(spec.k) + ")";
          return;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], "") << "thread " << t;
  }

  auto c = Connect();
  ServerStats stats;
  std::string error;
  ASSERT_TRUE(c->Stats(&stats, &error)) << error;
  EXPECT_EQ(stats.requests, (uint64_t)kThreads * kRequestsPerThread);
  EXPECT_EQ(stats.completed, stats.requests);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.inflight, 0u);
  EXPECT_EQ(stats.graphs, 2u);  // 16 registrations coalesced onto 2 keys
  server_->Stop();
}

// Deterministic coalescing: a long-running head request occupies the
// dispatcher while six compatible requests pile up behind it; when the
// head finishes, the sweep must take all six in ONE engine pass, and every
// result must still equal its solo run.
TEST_F(ServeConcurrentTest, QueuedRequestsCoalesceIntoOnePass) {
  StartServer({});
  const Graph big = UniformRandomTree(200000, 3);
  const Graph small = UniformRandomTree(123, 7);
  const std::vector<int> ks = {2, 3, 4, 5, 6, 12};
  std::map<int, Expected> want;
  for (int k : ks) want[k] = ExpectRake(small, k);

  auto c = Connect();
  const uint64_t big_key = Register(*c, big);
  const uint64_t small_key = Register(*c, small);

  SolveSpec head;
  head.k = 2;
  uint64_t head_ticket = 0;
  std::string error;
  ASSERT_TRUE(c->Solve(big_key, head, &head_ticket, &error)) << error;

  std::vector<uint64_t> tickets;
  for (int k : ks) {
    SolveSpec spec;
    spec.k = k;
    uint64_t ticket = 0;
    ASSERT_TRUE(c->Solve(small_key, spec, &ticket, &error)) << error;
    tickets.push_back(ticket);
  }

  for (size_t i = 0; i < ks.size(); ++i) {
    TicketState state;
    SolveResult result;
    std::string why;
    ASSERT_TRUE(
        c->Fetch(tickets[i], /*block=*/true, &state, &result, &why, &error))
        << error;
    ASSERT_EQ(state, TicketState::kDone) << why;
    const Expected& e = want.at(ks[i]);
    EXPECT_EQ(result.engine_rounds, e.engine_rounds) << "k=" << ks[i];
    EXPECT_EQ(result.messages, e.messages) << "k=" << ks[i];
    EXPECT_EQ(result.digest, e.digest) << "k=" << ks[i];
  }

  ServerStats stats;
  ASSERT_TRUE(c->Stats(&stats, &error)) << error;
  // The head either ran alone before the six arrived (2 passes) or some of
  // the six arrived first; in every schedule the sweep bound holds:
  EXPECT_LE(stats.batches, 1 + ks.size());
  EXPECT_GE(stats.max_batch, 2u);
  server_->Stop();
}

// A rake-compress response reports the solo run's iteration count, whether
// its request ran alone or in a coalesced pass (the pass derives it from
// the instance's round count).
TEST_F(ServeConcurrentTest, RakeCompressIterationsMatchSolo) {
  StartServer({});
  const Graph big = UniformRandomTree(200000, 13);
  const Graph small = UniformRandomTree(309, 17);
  const std::vector<int> ks = {2, 3, 4, 8};
  std::map<int, uint32_t> want;
  for (int k : ks) {
    want[k] = (uint32_t)RunRakeCompress(small, IotaIds(small.NumNodes()), k)
                  .num_iterations;
  }

  auto c = Connect();
  const uint64_t big_key = Register(*c, big);
  const uint64_t small_key = Register(*c, small);
  std::string error;

  // Solo: each request is the only member of its pass.
  for (int k : ks) {
    SolveSpec spec;
    spec.k = k;
    SolveResult result;
    ASSERT_TRUE(c->SolveAndWait(small_key, spec, &result, &error)) << error;
    EXPECT_EQ(result.iterations, want.at(k)) << "solo k=" << k;
  }

  // Coalesced: the four pile up behind a long head and share one pass.
  SolveSpec head;
  head.k = 2;
  uint64_t head_ticket = 0;
  ASSERT_TRUE(c->Solve(big_key, head, &head_ticket, &error)) << error;
  std::vector<uint64_t> tickets;
  for (int k : ks) {
    SolveSpec spec;
    spec.k = k;
    uint64_t ticket = 0;
    ASSERT_TRUE(c->Solve(small_key, spec, &ticket, &error)) << error;
    tickets.push_back(ticket);
  }
  for (size_t i = 0; i < ks.size(); ++i) {
    TicketState state;
    SolveResult result;
    std::string why;
    ASSERT_TRUE(
        c->Fetch(tickets[i], /*block=*/true, &state, &result, &why, &error))
        << error;
    ASSERT_EQ(state, TicketState::kDone) << why;
    EXPECT_EQ(result.iterations, want.at(ks[i])) << "coalesced k=" << ks[i];
  }
  ServerStats stats;
  ASSERT_TRUE(c->Stats(&stats, &error)) << error;
  EXPECT_GE(stats.max_batch, 2u);
  server_->Stop();
}

// Cancelling a queued member of a forming batch completes it immediately
// as kCancelled and must leave the surviving members' transcripts
// untouched.
TEST_F(ServeConcurrentTest, CancelledMemberLeavesBatchMatesUntouched) {
  StartServer({});
  const Graph big = UniformRandomTree(200000, 5);
  const Graph small = UniformRandomTree(211, 9);
  const Expected keep2 = ExpectRake(small, 2);
  const Expected keep5 = ExpectRake(small, 5);

  auto c = Connect();
  const uint64_t big_key = Register(*c, big);
  const uint64_t small_key = Register(*c, small);

  SolveSpec head;
  head.k = 2;
  uint64_t head_ticket = 0;
  std::string error;
  ASSERT_TRUE(c->Solve(big_key, head, &head_ticket, &error)) << error;

  uint64_t keep_ticket = 0, dead_ticket = 0, keep5_ticket = 0;
  SolveSpec spec;
  spec.k = 2;
  ASSERT_TRUE(c->Solve(small_key, spec, &keep_ticket, &error)) << error;
  spec.k = 3;
  ASSERT_TRUE(c->Solve(small_key, spec, &dead_ticket, &error)) << error;
  spec.k = 5;
  ASSERT_TRUE(c->Solve(small_key, spec, &keep5_ticket, &error)) << error;

  TicketState state;
  ASSERT_TRUE(c->Cancel(dead_ticket, &state, &error)) << error;
  // Queued at cancel time (the big head is still running), so the cancel
  // completes the ticket immediately.
  EXPECT_EQ(state, TicketState::kCancelled);

  SolveResult result;
  std::string why;
  ASSERT_TRUE(
      c->Fetch(keep_ticket, /*block=*/true, &state, &result, &why, &error))
      << error;
  ASSERT_EQ(state, TicketState::kDone) << why;
  EXPECT_EQ(result.digest, keep2.digest);
  EXPECT_EQ(result.engine_rounds, keep2.engine_rounds);
  ASSERT_TRUE(
      c->Fetch(keep5_ticket, /*block=*/true, &state, &result, &why, &error))
      << error;
  ASSERT_EQ(state, TicketState::kDone) << why;
  EXPECT_EQ(result.digest, keep5.digest);
  EXPECT_EQ(result.engine_rounds, keep5.engine_rounds);

  ASSERT_TRUE(
      c->Fetch(dead_ticket, /*block=*/false, &state, &result, &why, &error))
      << error;
  EXPECT_EQ(state, TicketState::kCancelled);
  server_->Stop();
}

// Cancelling a RUNNING solve halts it at the next slice boundary (the
// mid-run-halt path). A tight slice makes the window easy to hit; if the
// run still wins the race the ticket lands kDone — either way it reaches a
// terminal state and the daemon drains.
TEST_F(ServeConcurrentTest, CancelMidRunReachesTerminalStateAndDrains) {
  Server::Options opt;
  opt.slice_rounds = 2;
  StartServer(opt);
  const Graph big = UniformRandomTree(300000, 13);
  auto c = Connect();
  const uint64_t key = Register(*c, big);

  SolveSpec spec;
  spec.k = 2;
  uint64_t ticket = 0;
  std::string error;
  ASSERT_TRUE(c->Solve(key, spec, &ticket, &error)) << error;
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  TicketState state;
  ASSERT_TRUE(c->Cancel(ticket, &state, &error)) << error;

  SolveResult result;
  std::string why;
  ASSERT_TRUE(c->Fetch(ticket, /*block=*/true, &state, &result, &why, &error))
      << error;
  EXPECT_TRUE(state == TicketState::kCancelled || state == TicketState::kDone)
      << TicketStateName(state);

  ServerStats stats;
  ASSERT_TRUE(c->Stats(&stats, &error)) << error;
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.inflight, 0u);
  server_->Stop();
}

// Per-request round budgets surface as kFailed with a reason, through the
// engine's MaxRoundsExceededError path.
TEST_F(ServeConcurrentTest, RoundBudgetExceededFails) {
  StartServer({});
  const Graph tree = UniformRandomTree(4096, 17);
  auto c = Connect();
  const uint64_t key = Register(*c, tree);

  SolveSpec spec;
  spec.k = 2;
  spec.max_rounds = 1;
  uint64_t ticket = 0;
  std::string error;
  ASSERT_TRUE(c->Solve(key, spec, &ticket, &error)) << error;
  TicketState state;
  SolveResult result;
  std::string why;
  ASSERT_TRUE(c->Fetch(ticket, /*block=*/true, &state, &result, &why, &error))
      << error;
  EXPECT_EQ(state, TicketState::kFailed);
  EXPECT_NE(why.find("round"), std::string::npos) << why;
  server_->Stop();
}

// The validation surface: non-forest graphs reject tree-only kinds, bad
// parameters reject, unknown keys and tickets reject — all as structured
// errors, never as dead connections.
TEST_F(ServeConcurrentTest, BadRequestsAreStructured) {
  StartServer({});
  auto c = Connect();

  // A triangle is not a forest.
  const Graph triangle = Graph::FromEdges(3, {{0, 1}, {1, 2}, {0, 2}});
  const uint64_t tri_key = Register(*c, triangle);
  SolveSpec spec;
  spec.kind = SolveKind::kRakeCompress;
  spec.k = 2;
  uint64_t ticket = 0;
  std::string error;
  EXPECT_FALSE(c->Solve(tri_key, spec, &ticket, &error));
  EXPECT_NE(error.find("forest"), std::string::npos) << error;

  // But the decomposition kinds accept it.
  spec.kind = SolveKind::kDecomposition;
  spec.a = 1;
  spec.k = 5;
  SolveResult result;
  EXPECT_TRUE(c->SolveAndWait(tri_key, spec, &result, &error)) << error;

  // k < 5a rejects.
  spec.k = 4;
  EXPECT_FALSE(c->Solve(tri_key, spec, &ticket, &error));
  EXPECT_NE(error.find("5a"), std::string::npos) << error;

  // Unknown graph key.
  spec.k = 5;
  EXPECT_FALSE(c->Solve(0xdeadbeefull, spec, &ticket, &error));
  EXPECT_NE(error.find("unknown-graph"), std::string::npos) << error;

  // Unknown ticket.
  TicketState state;
  std::string why;
  EXPECT_FALSE(c->Fetch(999999, false, &state, &result, &why, &error));
  EXPECT_NE(error.find("unknown-ticket"), std::string::npos) << error;

  // Duplicate ids reject at admission.
  uint64_t key = 0;
  bool fresh = false;
  const Graph path = Graph::FromEdges(3, {{0, 1}, {1, 2}});
  EXPECT_FALSE(c->RegisterGraph(path, {5, 5, 6}, &key, &fresh, &error));
  EXPECT_NE(error.find("duplicate"), std::string::npos) << error;

  // The connection survived every rejection.
  uint32_t version = 0;
  EXPECT_TRUE(c->Ping(&version, &error)) << error;
  server_->Stop();
}

// A zero admission cap bounces every solve with the structured kRejected
// status (never a dead connection, never a queue slot), and the rejection
// is visible in stats without perturbing the request counters.
TEST_F(ServeConcurrentTest, ZeroCapacityQueueRejectsAllSolves) {
  Server::Options opt;
  opt.max_queue = 0;
  StartServer(opt);
  const Graph tree = UniformRandomTree(64, 3);
  auto c = Connect();
  const uint64_t key = Register(*c, tree);

  SolveSpec spec;
  spec.k = 2;
  uint64_t ticket = 0;
  std::string error;
  for (int i = 0; i < 3; ++i) {
    error.clear();
    EXPECT_FALSE(c->Solve(key, spec, &ticket, &error));
    EXPECT_NE(error.find("rejected"), std::string::npos) << error;
    EXPECT_NE(error.find("retry"), std::string::npos) << error;
  }

  ServerStats stats;
  ASSERT_TRUE(c->Stats(&stats, &error)) << error;
  EXPECT_EQ(stats.rejected, 3u);
  EXPECT_EQ(stats.requests, 0u);  // rejected solves are never admitted
  EXPECT_EQ(stats.queue_depth, 0u);

  // The connection survived every rejection.
  uint32_t version = 0;
  EXPECT_TRUE(c->Ping(&version, &error)) << error;
  server_->Stop();
}

// A finite cap under load: while a long head solve occupies the dispatcher,
// floods past the cap bounce with kRejected; the admitted requests still
// finish bit-identical to their solo runs, and once the queue drains new
// submissions are accepted again (backpressure, not lockout).
TEST_F(ServeConcurrentTest, FullQueueRejectsThenDrainsAndAccepts) {
  Server::Options opt;
  opt.max_queue = 2;
  StartServer(opt);
  const Graph big = UniformRandomTree(300000, 19);
  const Graph small = UniformRandomTree(97, 21);
  const Expected want = ExpectRake(small, 2);

  auto c = Connect();
  const uint64_t big_key = Register(*c, big);
  const uint64_t small_key = Register(*c, small);

  SolveSpec head;
  head.k = 2;
  uint64_t head_ticket = 0;
  std::string error;
  ASSERT_TRUE(c->Solve(big_key, head, &head_ticket, &error)) << error;

  // Flood while the head runs. The queue admits at most max_queue = 2; the
  // dispatcher may or may not have popped the head yet, so accepted is 1 or
  // 2 and everything beyond the cap must come back kRejected.
  constexpr int kFlood = 5;
  std::vector<uint64_t> accepted;
  int rejected = 0;
  for (int i = 0; i < kFlood; ++i) {
    SolveSpec spec;
    spec.k = 2;
    uint64_t ticket = 0;
    error.clear();
    if (c->Solve(small_key, spec, &ticket, &error)) {
      accepted.push_back(ticket);
    } else {
      EXPECT_NE(error.find("rejected"), std::string::npos) << error;
      ++rejected;
    }
  }
  EXPECT_GE(accepted.size(), 1u);
  EXPECT_LE(accepted.size(), 2u);
  EXPECT_EQ(rejected, kFlood - static_cast<int>(accepted.size()));

  // Admitted tickets are untouched by the rejections around them: each
  // result is still bit-identical to the solo run.
  for (uint64_t ticket : accepted) {
    TicketState state;
    SolveResult result;
    std::string why;
    ASSERT_TRUE(
        c->Fetch(ticket, /*block=*/true, &state, &result, &why, &error))
        << error;
    ASSERT_EQ(state, TicketState::kDone) << why;
    EXPECT_EQ(result.engine_rounds, want.engine_rounds);
    EXPECT_EQ(result.messages, want.messages);
    EXPECT_EQ(result.digest, want.digest);
  }

  // Drained queue: admission works again.
  SolveSpec spec;
  spec.k = 2;
  SolveResult result;
  ASSERT_TRUE(c->SolveAndWait(small_key, spec, &result, &error)) << error;
  EXPECT_EQ(result.digest, want.digest);

  ServerStats stats;
  ASSERT_TRUE(c->Stats(&stats, &error)) << error;
  EXPECT_EQ(stats.rejected, static_cast<uint64_t>(rejected));
  EXPECT_EQ(stats.requests, 2 + accepted.size());  // head + admitted + drain
  EXPECT_EQ(stats.queue_depth, 0u);
  server_->Stop();
}

// Every kind runs on the resident graph's one engine, so each run must
// leave nothing behind for the next: the four kinds interleaved on one
// graph, one pass each and then all queued at once, each equal to a fresh
// solo run.
TEST_F(ServeConcurrentTest, AllKindsInterleavedOnOneEngineMatchSolo) {
  StartServer({});
  const Graph tree = UniformRandomTree(3000, 31);
  auto c = Connect();
  const uint64_t key = Register(*c, tree);
  SolveAllKindsInTurn(*c, key, tree);

  std::vector<uint64_t> tickets(kAllKinds.size());
  std::string error;
  for (size_t i = 0; i < kAllKinds.size(); ++i) {
    ASSERT_TRUE(c->Solve(key, kAllKinds[i], &tickets[i], &error)) << error;
  }
  for (size_t i = 0; i < kAllKinds.size(); ++i) {
    TicketState state;
    SolveResult result;
    std::string why;
    ASSERT_TRUE(c->Fetch(tickets[i], true, &state, &result, &why, &error))
        << error;
    ASSERT_EQ(state, TicketState::kDone) << why;
    ExpectSoloAnswer(tree, kAllKinds[i], result);
  }
  server_->Stop();
}

// A pass whose only member is cancelled mid-run abandons its paused run;
// the graph's engine must start the next request fresh, whatever its kind.
// Each attempt cancels a running rake-compress solve; the run can win the
// race and land kDone, so attempts repeat until one is cancelled mid-run.
TEST_F(ServeConcurrentTest, RequestAfterAbandonedPassMatchesSolo) {
  Server::Options opt;
  opt.slice_rounds = 1;
  StartServer(opt);
  const Graph tree = UniformRandomTree(100000, 37);
  auto c = Connect();
  const uint64_t key = Register(*c, tree);

  bool abandoned = false;
  for (int attempt = 0; attempt < 20 && !abandoned; ++attempt) {
    SolveSpec spec;
    spec.k = 2;
    uint64_t ticket = 0;
    std::string error;
    ASSERT_TRUE(c->Solve(key, spec, &ticket, &error)) << error;
    TicketState state = TicketState::kQueued;
    SolveResult result;
    std::string why;
    while (state == TicketState::kQueued) {
      ASSERT_TRUE(c->Fetch(ticket, false, &state, &result, &why, &error))
          << error;
    }
    ASSERT_TRUE(c->Cancel(ticket, &state, &error)) << error;
    ASSERT_TRUE(c->Fetch(ticket, true, &state, &result, &why, &error))
        << error;
    ASSERT_TRUE(state == TicketState::kCancelled ||
                state == TicketState::kDone)
        << TicketStateName(state);
    abandoned = state == TicketState::kCancelled;
  }
  ASSERT_TRUE(abandoned) << "no attempt was cancelled mid-run";
  SolveAllKindsInTurn(*c, key, tree);
  server_->Stop();
}

// An injected mid-round fault fails its request and leaves the graph's
// engine reusable: every later request on the same graph matches solo.
TEST_F(ServeConcurrentTest, RequestAfterFaultedPassMatchesSolo) {
  support::FaultInjector fault = support::FaultInjector::ThrowAtVisit(1500);
  Server::Options opt;
  opt.fault = &fault;
  StartServer(opt);
  const Graph tree = UniformRandomTree(3000, 41);
  auto c = Connect();
  const uint64_t key = Register(*c, tree);

  SolveSpec spec;
  spec.k = 2;
  uint64_t ticket = 0;
  std::string error;
  ASSERT_TRUE(c->Solve(key, spec, &ticket, &error)) << error;
  TicketState state;
  SolveResult result;
  std::string why;
  ASSERT_TRUE(c->Fetch(ticket, true, &state, &result, &why, &error)) << error;
  EXPECT_EQ(state, TicketState::kFailed);
  EXPECT_NE(why.find("fault"), std::string::npos) << why;
  EXPECT_TRUE(fault.fired());

  SolveAllKindsInTurn(*c, key, tree);
  server_->Stop();
}

// engine_threads > 1 must not change any answer. It sizes every resident
// graph's engine, on which all kinds run; each solve kind is checked field
// for field against its T = 1 library run.
TEST_F(ServeConcurrentTest, ShardedEngineBitIdentical) {
  Server::Options opt;
  opt.engine_threads = 3;
  StartServer(opt);
  const Graph tree = UniformRandomTree(300, 29);
  const std::vector<SolveSpec> specs = {
      {SolveKind::kRakeCompress, ProblemId::kNone, 2, 1, 0},
      {SolveKind::kRakeCompress, ProblemId::kNone, 7, 1, 0},
      {SolveKind::kThm12Node, ProblemId::kMis, 3, 1, 0},
      {SolveKind::kThm12Node, ProblemId::kMis, 5, 1, 0},
      {SolveKind::kThm12Node, ProblemId::kColoringDeltaPlusOne, 4, 1, 0},
      {SolveKind::kThm15Edge, ProblemId::kEdgeColoringTwoDeltaMinusOne, 5, 1,
       0},
      {SolveKind::kThm15Edge, ProblemId::kMatching, 10, 2, 0},
      {SolveKind::kDecomposition, ProblemId::kNone, 5, 1, 0},
      {SolveKind::kDecomposition, ProblemId::kNone, 10, 2, 0},
  };

  auto c = Connect();
  const uint64_t key = Register(*c, tree);
  // Submit everything before fetching, so same-kind requests may coalesce.
  std::vector<uint64_t> tickets(specs.size());
  std::string error;
  for (size_t i = 0; i < specs.size(); ++i) {
    ASSERT_TRUE(c->Solve(key, specs[i], &tickets[i], &error)) << error;
  }
  for (size_t i = 0; i < specs.size(); ++i) {
    TicketState state;
    SolveResult result;
    std::string why;
    ASSERT_TRUE(c->Fetch(tickets[i], true, &state, &result, &why, &error))
        << error;
    ASSERT_EQ(state, TicketState::kDone) << why;
    ExpectSoloAnswer(tree, specs[i], result);
  }
  server_->Stop();
}

}  // namespace
}  // namespace treelocal::serve
