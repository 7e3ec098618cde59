// Differential tests: the optimized epoch-stamped/worklist engine
// (local::Network) must be bit-identical to the naive reference engine
// (local::ReferenceNetwork) — same rounds, same message counts, same
// per-round counters, same algorithm outputs — across random trees and
// bounded-degree graphs. Plus regressions for the worklist: halted nodes
// are never re-invoked and their channels fall silent; and for engine
// reuse: repeated Run calls on one Network reproduce fresh-engine results.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/rake_compress.h"
#include "src/graph/generators.h"
#include "src/local/network.h"
#include "src/local/reference_network.h"
#include "src/support/rng.h"

namespace treelocal {
namespace {

using local::Algorithm;
using local::Message;
using local::Network;
using local::NodeContext;
using local::ReferenceNetwork;

// Exercises the full NodeContext API with a deterministic, message-dependent
// transcript: every round each node folds its inbox into a running digest,
// re-broadcasts it, and sends an extra (overwriting) message on port 0 to
// exercise last-write-wins accounting. Node v halts at a staggered,
// id-dependent round, so the active set shrinks gradually.
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
      // Double-send on port 0: only the last message may count.
      ctx.Send(0, Message::Of(static_cast<int64_t>(d % 97)));
    }
  }

  const Graph* g_;
  const std::vector<int64_t>* ids_;
  std::vector<uint64_t> digest_;
};

// Rake-compress-shaped halting: leaves mark themselves and fall silent, so
// the active set collapses from the outside in — the worklist's hard case.
class PeelLeaves : public Algorithm {
 public:
  explicit PeelLeaves(const Graph& g) : live_degree_(g.NumNodes()), mark_round_(g.NumNodes(), -1) {
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
  std::vector<local::RoundStats> stats;
};

template <typename AlgFactory>
void ExpectEnginesAgree(const Graph& g, const std::vector<int64_t>& ids,
                        AlgFactory make_alg, int max_rounds) {
  auto fast_alg = make_alg();
  auto ref_alg = make_alg();
  Network fast(g, ids);
  ReferenceNetwork ref(g, ids);
  RunOutcome a{fast.Run(*fast_alg, max_rounds), fast.messages_delivered(),
               fast.round_stats()};
  RunOutcome b{ref.Run(*ref_alg, max_rounds), ref.messages_delivered(),
               ref.round_stats()};
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.stats, b.stats);
  EXPECT_EQ(fast_alg->State(), ref_alg->State());
}

// Wrappers giving both algorithms a uniform State() accessor.
struct DigestRunner : DigestAlgorithm {
  using DigestAlgorithm::DigestAlgorithm;
  const std::vector<uint64_t>& State() const { return digest_; }
};
struct PeelRunner : PeelLeaves {
  using PeelLeaves::PeelLeaves;
  const std::vector<int>& State() const { return mark_round_; }
};

TEST(EngineDifferentialTest, DigestOnRandomTrees) {
  for (int trial = 0; trial < 12; ++trial) {
    const int n = 2 + trial * 17;
    Graph g = UniformRandomTree(n, 100 + trial);
    auto ids = DefaultIds(n, 200 + trial);
    ExpectEnginesAgree(
        g, ids, [&] { return std::make_unique<DigestRunner>(g, ids); }, 64);
  }
}

TEST(EngineDifferentialTest, DigestOnBoundedDegreeGraphs) {
  for (int trial = 0; trial < 8; ++trial) {
    const int n = 64 + trial * 33;
    Graph g = BoundedDegreeRandomTree(n, 3 + trial % 6, 300 + trial);
    auto ids = DefaultIds(n, 400 + trial);
    ExpectEnginesAgree(
        g, ids, [&] { return std::make_unique<DigestRunner>(g, ids); }, 64);
  }
}

TEST(EngineDifferentialTest, DigestOnForestUnions) {
  for (int trial = 0; trial < 6; ++trial) {
    Graph g = ForestUnion(128, 2 + trial % 3, 500 + trial);
    auto ids = DefaultIds(g.NumNodes(), 600 + trial);
    ExpectEnginesAgree(
        g, ids, [&] { return std::make_unique<DigestRunner>(g, ids); },
        64);
  }
}

TEST(EngineDifferentialTest, PeelLeavesOnTrees) {
  for (int trial = 0; trial < 10; ++trial) {
    const int n = 3 + trial * 41;
    Graph g = UniformRandomTree(n, 700 + trial);
    auto ids = DefaultIds(n, 800 + trial);
    ExpectEnginesAgree(
        g, ids, [&] { return std::make_unique<PeelRunner>(g); }, 4 * n + 8);
  }
}

// The production pipeline head-to-head: the real rake-and-compress process
// must produce identical markings, rounds, message counts, and per-round
// trajectories on both engines across tree families and k.
TEST(EngineDifferentialTest, RakeCompressBitIdentical) {
  for (int trial = 0; trial < 6; ++trial) {
    const int n = 16 + trial * 113;
    Graph tree = trial % 2 == 0 ? UniformRandomTree(n, 900 + trial)
                                : BoundedDegreeRandomTree(n, 4, 900 + trial);
    auto ids = DefaultIds(n, 950 + trial);
    for (int k : {2, 4, 16}) {
      ReferenceNetwork ref_net(tree, ids);
      RakeCompressResult fast = RunRakeCompress(tree, ids, k);
      RakeCompressResult ref = RunRakeCompress(ref_net, k);
      EXPECT_EQ(fast.engine_rounds, ref.engine_rounds);
      EXPECT_EQ(fast.messages, ref.messages);
      EXPECT_EQ(fast.num_iterations, ref.num_iterations);
      EXPECT_EQ(fast.iteration, ref.iteration);
      EXPECT_EQ(fast.compressed, ref.compressed);
      EXPECT_EQ(fast.round_stats, ref.round_stats);
    }
  }
}

TEST(EngineDifferentialTest, SingleNodeAndEmptyGraphs) {
  Graph empty = Graph::FromEdges(0, {});
  const std::vector<int64_t> no_ids;
  Network net0(empty, no_ids);
  DigestRunner alg0(empty, no_ids);
  EXPECT_EQ(net0.Run(alg0, 4), 0);
  EXPECT_EQ(net0.messages_delivered(), 0);

  Graph one = Graph::FromEdges(1, {});
  auto ids = DefaultIds(1, 1);
  ExpectEnginesAgree(
      one, ids, [&] { return std::make_unique<DigestRunner>(one, ids); }, 64);
}

// Regression: a halted node's OnRound must never run again, on either
// engine, and the per-round active counts must match the halting schedule.
TEST(EngineDifferentialTest, HaltedNodesNeverReinvoked) {
  class CountCalls : public Algorithm {
   public:
    explicit CountCalls(int n) : calls_(n, 0), halted_at_(n, -1) {}
    void OnRound(NodeContext& ctx) override {
      const int v = ctx.node();
      ++calls_[v];
      ASSERT_EQ(halted_at_[v], -1) << "OnRound after Halt for node " << v;
      if (ctx.round() >= v % 5) {
        halted_at_[v] = ctx.round();
        ctx.Halt();
      }
    }
    std::vector<int> calls_;
    std::vector<int> halted_at_;
    const std::vector<int>& State() const { return calls_; }
  };
  const int n = 50;
  Graph g = UniformRandomTree(n, 42);
  auto ids = DefaultIds(n, 43);
  for (int engine = 0; engine < 2; ++engine) {
    CountCalls alg(n);
    int rounds;
    std::vector<local::RoundStats> stats;
    if (engine == 0) {
      Network net(g, ids);
      rounds = net.Run(alg, 100);
      stats = net.round_stats();
    } else {
      ReferenceNetwork net(g, ids);
      rounds = net.Run(alg, 100);
      stats = net.round_stats();
    }
    EXPECT_EQ(rounds, 5);
    ASSERT_EQ(stats.size(), 5u);
    for (int v = 0; v < n; ++v) {
      EXPECT_EQ(alg.calls_[v], v % 5 + 1) << "node " << v;
    }
    // Round r runs exactly the nodes with v % 5 >= r.
    for (int r = 0; r < 5; ++r) {
      int expect_active = 0;
      for (int v = 0; v < n; ++v) {
        if (v % 5 >= r) ++expect_active;
      }
      EXPECT_EQ(stats[r].active_nodes, expect_active) << "round " << r;
    }
  }
}

// Regression: after a node halts, its channels fall silent — receivers see
// no message even though the halted node's last payload is still physically
// in the (never-cleared) mailbox of the optimized engine.
TEST(EngineDifferentialTest, HaltedChannelsFallSilent) {
  class SilenceProbe : public Algorithm {
   public:
    void OnRound(NodeContext& ctx) override {
      if (ctx.node() == 0) {
        // Sends a payload every round until halting at round 1.
        ctx.Broadcast(Message::Of(77));
        if (ctx.round() >= 1) ctx.Halt();
        return;
      }
      if (ctx.round() >= 1) {
        received_.push_back(ctx.Recv(0).present());
      }
      if (ctx.round() >= 4) ctx.Halt();
    }
    std::vector<bool> received_;
  };
  Graph g = Path(2);
  auto ids = DefaultIds(2, 9);
  Network net(g, ids);
  SilenceProbe alg;
  net.Run(alg, 10);
  // Rounds 1 and 2 deliver (sent in rounds 0 and 1); rounds 3, 4 silent.
  ASSERT_EQ(alg.received_.size(), 4u);
  EXPECT_TRUE(alg.received_[0]);
  EXPECT_TRUE(alg.received_[1]);
  EXPECT_FALSE(alg.received_[2]);
  EXPECT_FALSE(alg.received_[3]);
}

// Regression: one Network object is reusable across runs (no stale state
// leaks between runs; mailboxes are invalidated by epoch, not cleared).
TEST(EngineDifferentialTest, NetworkReuseMatchesFreshEngine) {
  const int n = 200;
  Graph g = UniformRandomTree(n, 77);
  auto ids = DefaultIds(n, 78);
  Network reused(g, ids);

  RunOutcome first;
  {
    DigestRunner alg(g, ids);
    first.rounds = reused.Run(alg, 64);
    first.messages = reused.messages_delivered();
    first.stats = reused.round_stats();
  }
  // Interleave a different algorithm to dirty the mailboxes.
  {
    PeelRunner alg(g);
    reused.Run(alg, 4 * n + 8);
  }
  // Re-running the first algorithm must reproduce the first outcome and
  // match a fresh engine bit-for-bit.
  DigestRunner again(g, ids);
  RunOutcome second{reused.Run(again, 64), reused.messages_delivered(),
                    reused.round_stats()};
  EXPECT_EQ(first.rounds, second.rounds);
  EXPECT_EQ(first.messages, second.messages);
  EXPECT_EQ(first.stats, second.stats);

  Network fresh(g, ids);
  DigestRunner fresh_alg(g, ids);
  fresh.Run(fresh_alg, 64);
  EXPECT_EQ(fresh_alg.digest_, again.digest_);
  EXPECT_EQ(fresh.messages_delivered(), second.messages);
}

// The per-round message counter matches a hand-count: star center
// broadcasts (n-1 messages) while each leaf sends one message per round.
TEST(EngineDifferentialTest, RoundStatsCountMessages) {
  const int n = 6;
  class TwoRounds : public Algorithm {
   public:
    void OnRound(NodeContext& ctx) override {
      if (ctx.round() == 1) {
        ctx.Halt();
        return;
      }
      ctx.Broadcast(Message::Of(5));
    }
  };
  Graph g = Star(n);
  Network net(g, DefaultIds(n, 3));
  TwoRounds alg;
  EXPECT_EQ(net.Run(alg, 5), 2);
  ASSERT_EQ(net.round_stats().size(), 2u);
  // Round 0: center sends n-1, each of n-1 leaves sends 1.
  EXPECT_EQ(net.round_stats()[0].active_nodes, n);
  EXPECT_EQ(net.round_stats()[0].messages_sent, 2 * (n - 1));
  EXPECT_EQ(net.round_stats()[1].active_nodes, n);
  EXPECT_EQ(net.round_stats()[1].messages_sent, 0);
  EXPECT_EQ(net.messages_delivered(), 2 * (n - 1));
}

}  // namespace
}  // namespace treelocal
