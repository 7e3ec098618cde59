// Determinism suite for the sharded engine: ParallelNetwork (worklist
// shards) must be bit-identical to the serial Network — outputs, executed
// rounds, message counts, and per-round RoundStats — for every thread
// count, across uneven worklist sizes (n not divisible by T, n < T, empty
// shards) and mid-run halting patterns that reshuffle the shard boundaries
// every round. Plus bit-identity with the ReferenceNetwork oracle on the
// caller's labels, engine reuse, exception propagation out of sharded
// rounds, and the pipeline-level parallel overloads (rake-compress,
// Linial, Cole-Vishkin, distributed sweep, Theorem 12).
#include "src/local/parallel_network.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "src/algos/cole_vishkin.h"
#include "src/algos/linial.h"
#include "src/core/rake_compress.h"
#include "src/core/transform_node.h"
#include "src/graph/generators.h"
#include "src/local/network.h"
#include "src/local/reference_network.h"
#include "src/problems/mis.h"
#include "src/support/rng.h"
#include "tests/oracle/host_oracle.h"

namespace treelocal {
namespace {

using local::Algorithm;
using local::Message;
using local::Network;
using local::NodeContext;
using local::ParallelNetwork;
using local::RoundStats;

// Message-dependent transcript with staggered, id-dependent halts (nodes
// drop out mid-run, so shard boundaries move every round) and a
// last-write-wins double-send to exercise the per-shard counter dedup.
class DigestAlgorithm : public Algorithm {
 public:
  DigestAlgorithm(const Graph& g, const std::vector<int64_t>& ids)
      : g_(&g), ids_(&ids), digest_(g.NumNodes(), 0) {}

  void OnRound(NodeContext& ctx) override {
    const int v = ctx.node();
    uint64_t d = digest_[v] * 1000003ULL + 17;
    d += static_cast<uint64_t>(ctx.id());
    for (int p = 0; p < ctx.degree(); ++p) {
      const Message& m = ctx.Recv(p);
      if (m.present()) {
        d = d * 31 + static_cast<uint64_t>(m.word0) + m.size;
      }
      d += static_cast<uint64_t>((*ids_)[g_->Neighbors(v)[p]]);
    }
    digest_[v] = d;
    const int halt_round = static_cast<int>(ctx.id() % 11) + 1;
    if (ctx.round() >= halt_round) {
      ctx.Halt();
      return;
    }
    // The digest and the sender in one word.
    ctx.Broadcast(
        Message::Of(static_cast<int64_t>((d & 0x7fffffff) * 1000003 + v)));
    if (ctx.degree() > 0) {
      ctx.Send(0, Message::Of(static_cast<int64_t>(d % 97)));
    }
  }

  const Graph* g_;
  const std::vector<int64_t>* ids_;
  std::vector<uint64_t> digest_;
};

// Leaves peel off round by round: the worklist collapses from the outside
// in, the hard case for the stitched compaction.
class PeelLeaves : public Algorithm {
 public:
  explicit PeelLeaves(const Graph& g)
      : live_degree_(g.NumNodes()), mark_round_(g.NumNodes(), -1) {
    for (int v = 0; v < g.NumNodes(); ++v) live_degree_[v] = g.Degree(v);
  }

  void OnRound(NodeContext& ctx) override {
    const int v = ctx.node();
    for (int p = 0; p < ctx.degree(); ++p) {
      if (ctx.Recv(p).present()) --live_degree_[v];
    }
    if (live_degree_[v] <= 1) {
      mark_round_[v] = ctx.round();
      ctx.Broadcast(Message::Of(1));
      ctx.Halt();
    }
  }

  std::vector<int> live_degree_;
  std::vector<int> mark_round_;
};

struct RunOutcome {
  int rounds = 0;
  int64_t messages = 0;
  std::vector<RoundStats> stats;
};

template <typename Engine, typename Alg>
RunOutcome RunOn(Engine& net, Alg& alg, int max_rounds) {
  RunOutcome out;
  out.rounds = net.Run(alg, max_rounds);
  out.messages = net.messages_delivered();
  out.stats = net.round_stats();
  return out;
}

// The T-sweep stress: serial Network vs ParallelNetwork at every T, same
// algorithm state and transcript required.
template <typename AlgFactory>
void ExpectParallelMatchesSerial(const Graph& g,
                                 const std::vector<int64_t>& ids,
                                 AlgFactory make_alg, int max_rounds) {
  auto serial_alg = make_alg();
  Network serial(g, ids);
  const RunOutcome want = RunOn(serial, *serial_alg, max_rounds);
  for (int threads : {1, 2, 3, 8}) {
    auto par_alg = make_alg();
    ParallelNetwork par(g, ids, threads);
    const RunOutcome got = RunOn(par, *par_alg, max_rounds);
    EXPECT_EQ(got.rounds, want.rounds) << "T=" << threads;
    EXPECT_EQ(got.messages, want.messages) << "T=" << threads;
    EXPECT_EQ(got.stats, want.stats) << "T=" << threads;
    EXPECT_EQ(par_alg->State(), serial_alg->State()) << "T=" << threads;
  }
}

struct DigestRunner : DigestAlgorithm {
  using DigestAlgorithm::DigestAlgorithm;
  const std::vector<uint64_t>& State() const { return digest_; }
};
struct PeelRunner : PeelLeaves {
  using PeelLeaves::PeelLeaves;
  const std::vector<int>& State() const { return mark_round_; }
};

TEST(ParallelNetworkTest, DigestStressUnevenSizes) {
  // n deliberately not divisible by the swept thread counts, including
  // n < T (empty shards) and n == 1.
  for (int n : {1, 2, 3, 5, 7, 97, 230, 1001}) {
    Graph g = UniformRandomTree(n, 3000 + n);
    auto ids = DefaultIds(n, 3100 + n);
    ExpectParallelMatchesSerial(
        g, ids, [&] { return std::make_unique<DigestRunner>(g, ids); }, 64);
  }
}

TEST(ParallelNetworkTest, PeelStressMidRunHalts) {
  for (int n : {3, 41, 97, 513}) {
    Graph g = UniformRandomTree(n, 3200 + n);
    auto ids = DefaultIds(n, 3300 + n);
    ExpectParallelMatchesSerial(
        g, ids, [&] { return std::make_unique<PeelRunner>(g); }, 4 * n + 8);
  }
  // Star and path: the extreme degree distributions (one shard holds the
  // hub; per-shard work is maximally skewed).
  for (int n : {2, 50}) {
    for (int shape = 0; shape < 2; ++shape) {
      Graph g = shape == 0 ? Star(n) : Path(n);
      auto ids = DefaultIds(n, 3400 + n + shape);
      ExpectParallelMatchesSerial(
          g, ids, [&] { return std::make_unique<PeelRunner>(g); }, 4 * n + 8);
    }
  }
}

TEST(ParallelNetworkTest, RakeCompressBitIdenticalAllT) {
  for (int trial = 0; trial < 3; ++trial) {
    const int n = 100 + trial * 157;
    Graph tree = UniformRandomTree(n, 3500 + trial);
    auto ids = DefaultIds(n, 3600 + trial);
    for (int k : {2, 8}) {
      RakeCompressResult want = RunRakeCompress(tree, ids, k);
      for (int threads : {1, 2, 4, 8}) {
        ParallelNetwork net(tree, ids, threads);
        RakeCompressResult got = RunRakeCompress(net, k);
        EXPECT_EQ(got.iteration, want.iteration);
        EXPECT_EQ(got.compressed, want.compressed);
        EXPECT_EQ(got.engine_rounds, want.engine_rounds);
        EXPECT_EQ(got.messages, want.messages);
        EXPECT_EQ(got.round_stats, want.round_stats);
      }
    }
  }
}

TEST(ParallelNetworkTest, ReuseMatchesFreshEngine) {
  const int n = 200;
  Graph g = UniformRandomTree(n, 77);
  auto ids = DefaultIds(n, 78);
  ParallelNetwork reused(g, ids, 4);

  DigestRunner first(g, ids);
  const RunOutcome a = RunOn(reused, first, 64);
  {
    PeelRunner peel(g);  // dirty the mailboxes with a different transcript
    reused.Run(peel, 4 * n + 8);
  }
  DigestRunner again(g, ids);
  const RunOutcome b = RunOn(reused, again, 64);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.stats, b.stats);
  EXPECT_EQ(first.digest_, again.digest_);
}

TEST(ParallelNetworkTest, MaxRoundsThrowsAndEngineSurvives) {
  class Forever : public Algorithm {
   public:
    void OnRound(NodeContext& ctx) override { ctx.Broadcast(Message::Of(1)); }
  };
  const int n = 64;
  Graph g = UniformRandomTree(n, 11);
  auto ids = DefaultIds(n, 12);
  ParallelNetwork net(g, ids, 3);
  Forever forever;
  EXPECT_THROW(net.Run(forever, 5), std::runtime_error);
  // The engine re-initializes per Run: a normal algorithm still works.
  DigestRunner digest(g, ids);
  Network serial(g, ids);
  DigestRunner serial_digest(g, ids);
  EXPECT_EQ(net.Run(digest, 64), serial.Run(serial_digest, 64));
  EXPECT_EQ(digest.digest_, serial_digest.digest_);
}

TEST(ParallelNetworkTest, OnRoundExceptionPropagates) {
  class ThrowsAtRound2 : public Algorithm {
   public:
    void OnRound(NodeContext& ctx) override {
      if (ctx.round() == 2 && ctx.node() % 37 == 5) {
        throw std::domain_error("algorithm failure");
      }
      ctx.Broadcast(Message::Of(ctx.round()));
      if (ctx.round() >= 6) ctx.Halt();
    }
  };
  const int n = 120;
  Graph g = UniformRandomTree(n, 21);
  auto ids = DefaultIds(n, 22);
  ParallelNetwork net(g, ids, 4);
  ThrowsAtRound2 bad;
  EXPECT_THROW(net.Run(bad, 100), std::domain_error);
  DigestRunner ok(g, ids);
  EXPECT_GT(net.Run(ok, 64), 0);  // usable after the aborted run
}

// The BFS-laid-out engine must be transcript-identical to the
// ReferenceNetwork oracle on the caller's labels, serially and sharded.
TEST(ParallelNetworkTest, RelabelBitIdentical) {
  for (int n : {1, 2, 57, 400}) {
    Graph g = UniformRandomTree(n, 4000 + n);
    auto ids = DefaultIds(n, 4100 + n);

    DigestRunner reference_alg(g, ids);
    local::ReferenceNetwork reference(g, ids);
    const RunOutcome want = RunOn(reference, reference_alg, 64);

    for (int threads : {1, 2, 3}) {
      DigestRunner alg(g, ids);
      ParallelNetwork net(g, ids, threads);
      const RunOutcome got = RunOn(net, alg, 64);
      EXPECT_EQ(got.rounds, want.rounds) << "T=" << threads;
      EXPECT_EQ(got.messages, want.messages) << "T=" << threads;
      EXPECT_EQ(got.stats, want.stats) << "T=" << threads;
      EXPECT_EQ(alg.digest_, reference_alg.digest_) << "T=" << threads;
    }
  }
}

TEST(ParallelNetworkTest, RelabelRakeCompressOnForestUnion) {
  // Multi-component graphs exercise the BFS restart path.
  Graph g = ForestUnion(300, 1, 31);  // a = 1: a real (multi-component) forest
  auto ids = DefaultIds(g.NumNodes(), 32);
  local::ReferenceNetwork reference(g, ids);
  RakeCompressResult want = RunRakeCompress(reference, 4);
  Network net(g, ids);
  RakeCompressResult got = RunRakeCompress(net, 4);
  EXPECT_EQ(got.iteration, want.iteration);
  EXPECT_EQ(got.compressed, want.compressed);
  EXPECT_EQ(got.messages, want.messages);
  EXPECT_EQ(got.round_stats, want.round_stats);
}

// Pipeline entry points on a T > 1 engine: same results as on a T = 1
// engine.
TEST(ParallelNetworkTest, PipelineOverloadsMatchSerial) {
  const int n = 150;
  Graph g = UniformRandomTree(n, 6000);
  auto ids = DefaultIds(n, 6001);
  const int64_t space = int64_t{n} * n * n;

  local::Network net(g, ids);
  local::Network net3(g, ids, 3, local::NetworkOptions{});
  LinialResult lin = RunLinial(net, space);
  LinialResult lin_p = RunLinial(net3, space);
  EXPECT_EQ(lin_p.colors, lin.colors);
  EXPECT_EQ(lin_p.rounds, lin.rounds);
  EXPECT_EQ(lin_p.messages, lin.messages);
  EXPECT_EQ(lin_p.round_stats, lin.round_stats);

  std::vector<int> parent(n, -1);
  {
    std::vector<char> seen(n, 0);
    std::vector<int> order = {0};
    seen[0] = 1;
    for (size_t i = 0; i < order.size(); ++i) {
      for (int u : g.Neighbors(order[i])) {
        if (!seen[u]) {
          seen[u] = 1;
          parent[u] = order[i];
          order.push_back(u);
        }
      }
    }
  }
  local::Network net4(g, ids, 4, local::NetworkOptions{});
  ColeVishkinResult cv = ColeVishkin3Color(net, parent, space);
  ColeVishkinResult cv_p = ColeVishkin3Color(net4, parent, space);
  EXPECT_EQ(cv_p.colors, cv.colors);
  EXPECT_EQ(cv_p.rounds, cv.rounds);
  EXPECT_EQ(cv_p.messages, cv.messages);
  EXPECT_EQ(cv_p.round_stats, cv.round_stats);

  MisProblem mis;
  oracle::DistributedSweepResult sweep = oracle::RunDistributedNodeSweep(
      mis, g, ids, lin.colors, lin.num_colors);
  oracle::DistributedSweepResult sweep_p = oracle::RunDistributedNodeSweep(
      mis, g, ids, lin.colors, lin.num_colors, 2);
  EXPECT_EQ(sweep_p.rounds, sweep.rounds);
  EXPECT_EQ(sweep_p.messages, sweep.messages);
  EXPECT_EQ(sweep_p.round_stats, sweep.round_stats);
  for (int e = 0; e < g.NumEdges(); ++e) {
    ASSERT_EQ(sweep_p.labeling.GetSlot(e, 0), sweep.labeling.GetSlot(e, 0));
    ASSERT_EQ(sweep_p.labeling.GetSlot(e, 1), sweep.labeling.GetSlot(e, 1));
  }

  Thm12Result thm = SolveNodeProblemOnTree(mis, g, ids, space, 4);
  Thm12Result thm_p = SolveNodeProblemOnTree(mis, g, ids, space, 4, 3);
  EXPECT_TRUE(thm_p.valid);
  EXPECT_EQ(thm_p.rounds_total, thm.rounds_total);
  EXPECT_EQ(thm_p.engine_messages, thm.engine_messages);
  EXPECT_EQ(thm_p.rake_compress.iteration, thm.rake_compress.iteration);
  for (int e = 0; e < g.NumEdges(); ++e) {
    ASSERT_EQ(thm_p.labeling.GetSlot(e, 0), thm.labeling.GetSlot(e, 0));
    ASSERT_EQ(thm_p.labeling.GetSlot(e, 1), thm.labeling.GetSlot(e, 1));
  }

  std::vector<Thm12Result> sweep_batch =
      SolveNodeProblemOnTreeBatch(mis, g, ids, space, {2, 4, 9}, 2);
  Thm12Result want_k9 = SolveNodeProblemOnTree(mis, g, ids, space, 9);
  EXPECT_EQ(sweep_batch[2].rounds_total, want_k9.rounds_total);
  EXPECT_EQ(sweep_batch[2].engine_messages, want_k9.engine_messages);
}

// Epoch wrap guard parity with Network: a run started near INT32_MAX
// re-arms and still produces the right transcript.
TEST(ParallelNetworkTest, EpochWrapRearm) {
  const int n = 90;
  Graph g = UniformRandomTree(n, 7000);
  auto ids = DefaultIds(n, 7001);
  Network serial(g, ids);
  DigestRunner want(g, ids);
  serial.Run(want, 64);

  ParallelNetwork par(g, ids, 3);
  par.set_epoch_for_testing(INT32_MAX - 3);  // forces the pre-run re-arm
  DigestRunner got(g, ids);
  par.Run(got, 64);
  EXPECT_EQ(got.digest_, want.digest_);
  EXPECT_EQ(par.messages_delivered(), serial.messages_delivered());
}

}  // namespace
}  // namespace treelocal
