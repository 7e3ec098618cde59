#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <stdexcept>

#include "src/core/rake_compress.h"
#include "src/graph/generators.h"
#include "src/local/network.h"
#include "src/local/parallel_network.h"
#include "src/local/reference_network.h"
#include "src/support/rng.h"

namespace treelocal {
namespace {

using local::Algorithm;
using local::Message;
using local::Network;
using local::NodeContext;

// Halts immediately; 1 round total.
class HaltNow : public Algorithm {
 public:
  void OnRound(NodeContext& ctx) override { ctx.Halt(); }
};

// Every node broadcasts its ID, collects neighbor IDs next round, halts.
class CollectNeighborIds : public Algorithm {
 public:
  explicit CollectNeighborIds(int n) : collected_(n) {}
  void OnRound(NodeContext& ctx) override {
    if (ctx.round() == 0) {
      ctx.Broadcast(Message::Of(ctx.id()));
      return;
    }
    for (int p = 0; p < ctx.degree(); ++p) {
      collected_[ctx.node()].push_back(ctx.Recv(p).word0);
    }
    ctx.Halt();
  }
  std::vector<std::vector<int64_t>> collected_;
};

// Counts rounds until a token starting at node 0 reaches everyone (BFS
// flood); each node halts one round after it first holds the token.
class Flood : public Algorithm {
 public:
  explicit Flood(int n) : has_token_(n, false) {}
  void OnRound(NodeContext& ctx) override {
    int v = ctx.node();
    if (!has_token_[v]) {
      if (v == 0 && ctx.round() == 0) {
        has_token_[v] = true;
      } else {
        for (int p = 0; p < ctx.degree(); ++p) {
          if (ctx.Recv(p).present()) has_token_[v] = true;
        }
      }
    }
    if (has_token_[v]) {
      ctx.Broadcast(Message::Of(1));
      ctx.Halt();
    }
  }
  std::vector<bool> has_token_;
};

TEST(NetworkTest, HaltNowRunsOneRound) {
  Graph g = Path(5);
  Network net(g, DefaultIds(5, 1));
  HaltNow alg;
  EXPECT_EQ(net.Run(alg, 10), 1);
}

TEST(NetworkTest, MessageDeliveryToCorrectPorts) {
  Graph g = Star(5);
  auto ids = DefaultIds(5, 2);
  Network net(g, ids);
  CollectNeighborIds alg(5);
  EXPECT_EQ(net.Run(alg, 10), 2);
  // Center got all leaf IDs; leaves got the center ID.
  ASSERT_EQ(alg.collected_[0].size(), 4u);
  std::multiset<int64_t> got(alg.collected_[0].begin(),
                             alg.collected_[0].end());
  std::multiset<int64_t> want(ids.begin() + 1, ids.end());
  EXPECT_EQ(got, want);
  for (int leaf = 1; leaf < 5; ++leaf) {
    ASSERT_EQ(alg.collected_[leaf].size(), 1u);
    EXPECT_EQ(alg.collected_[leaf][0], ids[0]);
  }
}

TEST(NetworkTest, FloodTakesEccentricityRounds) {
  // On a path rooted at an end, the token needs n-1 hops; every node halts
  // the round it receives it, so total rounds = n.
  const int n = 9;
  Graph g = Path(n);
  Network net(g, DefaultIds(n, 3));
  Flood alg(n);
  EXPECT_EQ(net.Run(alg, 100), n);
}

TEST(NetworkTest, MessagesCounted) {
  Graph g = Path(3);
  Network net(g, DefaultIds(3, 4));
  CollectNeighborIds alg(3);
  net.Run(alg, 10);
  // Round 0: each of 3 nodes broadcasts on its ports: 2 + 2 = 4 directed
  // messages total.
  EXPECT_EQ(net.messages_delivered(), 4);
}

TEST(NetworkTest, ThrowsWhenMaxRoundsExceeded) {
  class NeverHalt : public Algorithm {
   public:
    void OnRound(NodeContext&) override {}
  };
  Graph g = Path(3);
  Network net(g, DefaultIds(3, 5));
  NeverHalt alg;
  EXPECT_THROW(net.Run(alg, 5), std::runtime_error);
}

TEST(NetworkTest, HaltedNodesFallSilent) {
  // Node 0 halts at round 0 after broadcasting; node 1 checks that the
  // channel is empty from round 2 on.
  class SilenceCheck : public Algorithm {
   public:
    void OnRound(NodeContext& ctx) override {
      if (ctx.node() == 0) {
        ctx.Broadcast(Message::Of(99));
        ctx.Halt();
        return;
      }
      if (ctx.round() == 1) {
        saw_message = ctx.Recv(0).present();
      } else if (ctx.round() == 2) {
        silent_after_halt = !ctx.Recv(0).present();
        ctx.Halt();
      }
    }
    bool saw_message = false;
    bool silent_after_halt = false;
  };
  Graph g = Path(2);
  Network net(g, DefaultIds(2, 6));
  SilenceCheck alg;
  net.Run(alg, 10);
  EXPECT_TRUE(alg.saw_message);
  EXPECT_TRUE(alg.silent_after_halt);
}

TEST(NetworkTest, DeterministicTranscript) {
  Graph g = UniformRandomTree(64, 10);
  auto ids = DefaultIds(64, 11);
  Network net1(g, ids), net2(g, ids);
  CollectNeighborIds a1(64), a2(64);
  EXPECT_EQ(net1.Run(a1, 10), net2.Run(a2, 10));
  EXPECT_EQ(a1.collected_, a2.collected_);
  EXPECT_EQ(net1.messages_delivered(), net2.messages_delivered());
}

TEST(NetworkTest, ContextExposesModelKnowledge) {
  class Probe : public Algorithm {
   public:
    void OnRound(NodeContext& ctx) override {
      if (ctx.node() == 0) {
        n = ctx.n();
        delta = ctx.max_degree();
        deg = ctx.degree();
      }
      ctx.Halt();
    }
    int n = 0, delta = 0, deg = 0;
  };
  Graph g = Star(7);
  Network net(g, DefaultIds(7, 12));
  Probe alg;
  net.Run(alg, 5);
  EXPECT_EQ(alg.n, 7);
  EXPECT_EQ(alg.delta, 6);
  EXPECT_EQ(alg.deg, 6);
}

// Regression for the epoch wrap guard: with the epoch stamped to just below
// INT32_MAX, a Run must re-arm the mailboxes once and still deliver messages
// correctly (the old 32-bit guard `INT32_MAX - max_rounds - 4` went negative
// for max_rounds near INT32_MAX, and after a re-arm a maximal run could push
// the stamp past INT32_MAX mid-run).
TEST(NetworkTest, EpochNearWrapRearmsAndStaysCorrect) {
  const int n = 64;
  Graph g = UniformRandomTree(n, 5);
  auto ids = DefaultIds(n, 6);

  // Ground truth from a fresh engine.
  Network fresh(g, ids);
  CollectNeighborIds expect(n);
  int expect_rounds = fresh.Run(expect, 10);

  Network net(g, ids);
  // Dirty the mailboxes with real payloads first, then push the epoch to the
  // brink: the run crosses the wrap threshold mid-run, so the per-round
  // rebase must fire — preserving the in-flight round's messages while none
  // of the stale payloads (stamps far below the epoch) leak.
  CollectNeighborIds warm(n);
  net.Run(warm, 10);
  net.set_epoch_for_testing(INT32_MAX - 5);
  CollectNeighborIds alg(n);
  EXPECT_EQ(net.Run(alg, 10), expect_rounds);
  EXPECT_EQ(alg.collected_, expect.collected_);
  EXPECT_EQ(net.messages_delivered(), fresh.messages_delivered());
  // Re-armed: the epoch restarted near 1 instead of marching past the
  // brink. The invariant is max_rounds-independent: the pre-run guard
  // re-arms at INT32_MAX - 4, and the per-round rebase fires at
  // INT32_MAX - 2, so a live stamp never exceeds INT32_MAX - 3.
  EXPECT_LT(net.epoch_for_testing(), 100);
}

// A huge max_rounds must neither trip the guard into re-arming on every call
// (the old negative-threshold bug) nor be able to overflow the stamp: the
// wrap checks are independent of max_rounds.
TEST(NetworkTest, HugeMaxRoundsIsSafe) {
  const int n = 32;
  Graph g = UniformRandomTree(n, 7);
  auto ids = DefaultIds(n, 8);
  Network net(g, ids);

  CollectNeighborIds a1(n);
  net.Run(a1, INT32_MAX);
  const int32_t epoch_after_first = net.epoch_for_testing();
  CollectNeighborIds a2(n);
  net.Run(a2, INT32_MAX);
  // Epochs advance monotonically across runs (no spurious re-arm resetting
  // them to 1 every call), and the transcripts stay correct.
  EXPECT_GT(net.epoch_for_testing(), epoch_after_first);
  EXPECT_EQ(a1.collected_, a2.collected_);

  // From an epoch where a full-length clamped run would overflow, the guard
  // must re-arm first; afterwards a run is still correct.
  net.set_epoch_for_testing(INT32_MAX - 1);
  CollectNeighborIds a3(n);
  net.Run(a3, INT32_MAX);
  EXPECT_EQ(a3.collected_, a1.collected_);
  EXPECT_LT(net.epoch_for_testing(), 100);
}

// Runs do not nest: every round forks on the engine's thread pool and the
// pool rejects a fork from inside any pool task, so a Run started inside
// another engine's OnRound throws std::logic_error at every thread count,
// T = 1 included. Both engines stay reusable afterwards.
TEST(NetworkTest, NestedRunThrowsAndEnginesStayReusable) {
  class RunsInner : public Algorithm {
   public:
    explicit RunsInner(Network& inner) : inner_(inner) {}
    void OnRound(NodeContext& ctx) override {
      if (ctx.node() == 0) {
        HaltNow alg;
        inner_.Run(alg, 10);
      }
      ctx.Halt();
    }

   private:
    Network& inner_;
  };
  const int n = 40;
  const Graph g = UniformRandomTree(n, 12);
  const auto ids = DefaultIds(n, 13);
  Network fresh(g, ids);
  CollectNeighborIds want(n);
  fresh.Run(want, 10);
  for (const int outer_threads : {1, 3}) {
    for (const int inner_threads : {1, 2}) {
      SCOPED_TRACE("outer T=" + std::to_string(outer_threads) +
                   " inner T=" + std::to_string(inner_threads));
      Network outer(g, ids, outer_threads, local::NetworkOptions{});
      Network inner(g, ids, inner_threads, local::NetworkOptions{});
      RunsInner nested(inner);
      EXPECT_THROW(outer.Run(nested, 10), std::logic_error);
      EXPECT_FALSE(outer.finished());
      EXPECT_FALSE(inner.finished());
      for (Network* net : {&outer, &inner}) {
        CollectNeighborIds alg(n);
        EXPECT_EQ(net->Run(alg, 10), 2);
        EXPECT_EQ(alg.collected_, want.collected_);
        EXPECT_EQ(net->round_digests(), fresh.round_digests());
      }
    }
  }
}

// A paused run that its caller stops driving must not leak into the
// engine's next run: after AbandonRun the next RunUntil starts fresh, with
// any algorithm, and its transcript equals a fresh engine's. Also drops a
// snapshot armed by Resume. Covers relabel on, as treelocald's engines run.
// Builds the engine a parametrized test runs on: the solo Network at T
// lanes (relabel optional), or the ReferenceNetwork oracle (threads == 0).
std::unique_ptr<local::Engine> MakeEngine(const Graph& g,
                                          const std::vector<int64_t>& ids,
                                          int threads, bool relabel = false) {
  local::NetworkOptions opt;
  opt.relabel = relabel;
  if (threads == 0) {
    return std::make_unique<local::ReferenceNetwork>(g, ids, opt);
  }
  return std::make_unique<Network>(g, ids, threads, opt);
}

TEST(NetworkTest, AbandonRunStartsNextRunFresh) {
  const int n = 60;
  const Graph path = Path(n);
  const auto ids = DefaultIds(n, 14);
  for (const auto& [threads, relabel] :
       {std::pair{1, false}, std::pair{1, true}, std::pair{0, false}}) {
    SCOPED_TRACE(threads == 0 ? "reference"
                              : (relabel ? "relabel" : "no relabel"));
    const std::unique_ptr<local::Engine> fresh =
        MakeEngine(path, ids, threads, relabel);
    CollectNeighborIds want_collect(n);
    const int collect_rounds = fresh->Run(want_collect, 10);
    const std::vector<uint64_t> collect_digests = fresh->round_digests();
    const std::vector<local::RoundStats> collect_stats = fresh->round_stats();
    const int64_t collect_messages = fresh->messages_delivered();
    Flood want_flood(n);
    const int flood_rounds = fresh->Run(want_flood, 2 * n);
    const std::vector<uint64_t> flood_digests = fresh->round_digests();

    const std::unique_ptr<local::Engine> engine =
        MakeEngine(path, ids, threads, relabel);
    local::Engine& net = *engine;
    Flood abandoned(n);
    EXPECT_EQ(net.RunUntil(abandoned, 2 * n, 5), 5);
    ASSERT_TRUE(net.paused());
    net.AbandonRun();
    EXPECT_FALSE(net.paused());
    EXPECT_FALSE(net.finished());
    CollectNeighborIds collect(n);
    EXPECT_EQ(net.RunUntil(collect, 10, 64), collect_rounds);
    EXPECT_TRUE(net.finished());
    EXPECT_EQ(collect.collected_, want_collect.collected_);
    EXPECT_EQ(net.round_digests(), collect_digests);
    EXPECT_EQ(net.round_stats(), collect_stats);
    EXPECT_EQ(net.messages_delivered(), collect_messages);

    // The same algorithm kind again: a fresh run, not the abandoned one's
    // continuation.
    Flood paused_again(n);
    net.RunUntil(paused_again, 2 * n, 7);
    ASSERT_TRUE(net.paused());
    net.AbandonRun();
    Flood flood(n);
    EXPECT_EQ(net.Run(flood, 2 * n), flood_rounds);
    EXPECT_EQ(flood.has_token_, want_flood.has_token_);
    EXPECT_EQ(net.round_digests(), flood_digests);

    // A snapshot armed by Resume is dropped too.
    Flood recorded(n);
    net.RunUntil(recorded, 2 * n, 9);
    std::stringstream snap;
    net.Checkpoint(snap);
    net.AbandonRun();
    net.Resume(snap);
    net.AbandonRun();
    Flood after_resume(n);
    EXPECT_EQ(net.Run(after_resume, 2 * n), flood_rounds);
    EXPECT_EQ(net.round_digests(), flood_digests);
  }
}

// The opt-in round timer, on every engine: off, the log stays empty; on,
// it holds one entry per round the last run executed (a paused run's
// continuation appends to it), and a run resumed from a checkpoint times
// only the rounds it executes itself.
TEST(NetworkTest, RoundTimesCoverExecutedRounds) {
  const int n = 300;
  const Graph tree = UniformRandomTree(n, 16);
  const auto ids = DefaultIds(n, 17);
  for (const int threads : {1, 3, 0}) {
    SCOPED_TRACE(threads == 0 ? "reference" : "T=" + std::to_string(threads));
    auto alg = MakeRakeCompressAlgorithm(2);
    const std::unique_ptr<local::Engine> net = MakeEngine(tree, ids, threads);
    EXPECT_FALSE(net->record_round_times());
    const int rounds = net->Run(*alg, 1000);
    ASSERT_GT(rounds, 3);
    EXPECT_TRUE(net->round_seconds().empty());

    net->set_record_round_times(true);
    EXPECT_EQ(net->Run(*alg, 1000), rounds);
    EXPECT_EQ(net->round_seconds().size(), static_cast<size_t>(rounds));
    for (const double s : net->round_seconds()) EXPECT_GE(s, 0.0);

    EXPECT_EQ(net->RunUntil(*alg, 1000, 3), 3);
    EXPECT_EQ(net->round_seconds().size(), 3u);
    std::stringstream snap;
    net->Checkpoint(snap);
    EXPECT_EQ(net->Run(*alg, 1000), rounds);
    EXPECT_EQ(net->round_seconds().size(), static_cast<size_t>(rounds));

    const std::unique_ptr<local::Engine> resumed =
        MakeEngine(tree, ids, threads);
    resumed->set_record_round_times(true);
    resumed->Resume(snap);
    EXPECT_EQ(resumed->Run(*alg, 1000), rounds);
    EXPECT_EQ(resumed->round_seconds().size(),
              static_cast<size_t>(rounds - 3));

    net->set_record_round_times(false);
    EXPECT_EQ(net->Run(*alg, 1000), rounds);
    EXPECT_TRUE(net->round_seconds().empty());
  }
}

// Sleeps every node until round node % 3, counts its visits in its state
// slot, then halts: arms the state plane and the wake tables.
class StaggeredHalt : public Algorithm {
 public:
  size_t StateBytes() const override { return sizeof(int64_t); }
  int InitialWakeRound(int node) const override { return node % 3; }
  void OnRound(NodeContext& ctx) override {
    ++ctx.State<int64_t>();
    ctx.Halt();
  }
};

// EngineMemory's parts add up to its total, and the parts construction
// allocates have their closed-form sizes: the mailboxes are two 2m-slot
// Message arrays. The state plane and wake tables appear with the first
// run that needs them.
TEST(NetworkTest, EngineMemoryPartsSumToTotal) {
  const int n = 500;
  const Graph g = UniformRandomTree(n, 15);
  const size_t m = static_cast<size_t>(g.NumEdges());
  const auto sum = [](const local::EngineBytes& b) {
    return b.channel_tables + b.degree_table + b.mailboxes + b.worklist +
           b.ids + b.state_plane + b.wake_tables + b.run_log;
  };
  for (const bool relabel : {false, true}) {
    SCOPED_TRACE(relabel ? "relabel" : "no relabel");
    local::NetworkOptions opt;
    opt.relabel = relabel;
    Network net(g, DefaultIds(n, 16), opt);
    local::EngineBytes b = net.EngineMemory();
    EXPECT_EQ(sum(b), b.total());
    EXPECT_EQ(b.mailboxes, 2 * 2 * m * sizeof(Message));
    EXPECT_EQ(b.channel_tables, (n + 1 + 2 * m) * sizeof(int));
    EXPECT_EQ(b.degree_table, n * sizeof(int));
    EXPECT_EQ(b.ids, n * sizeof(int64_t));
    EXPECT_GE(b.worklist, n * (sizeof(int) + sizeof(char) + sizeof(int)));
    EXPECT_EQ(b.state_plane, 0u);
    EXPECT_EQ(b.wake_tables, 0u);

    StaggeredHalt alg;
    EXPECT_EQ(net.Run(alg, 10), 3);
    b = net.EngineMemory();
    EXPECT_EQ(sum(b), b.total());
    EXPECT_EQ(b.mailboxes, 2 * 2 * m * sizeof(Message));
    EXPECT_EQ(b.state_plane, n * sizeof(int64_t));
    EXPECT_GT(b.wake_tables, 0u);
    EXPECT_GT(b.run_log, 0u);
  }
}

// Node 0 broadcasts in round 0 and halts; every other node parks until a
// message arrives, then passes it on and halts: a wave that visits each
// node exactly once, all but node 0 by message wake.
class ParkedFlood : public Algorithm {
 public:
  int InitialWakeRound(int node) const override {
    return node == 0 ? 0 : local::kNoWakeRound;
  }
  void OnRound(NodeContext& ctx) override {
    ctx.Broadcast(Message::Of(1));
    ctx.Halt();
  }
};

// Every run walks the wake calendar, but the message-wake tables (a
// channel-owner entry per channel plus a notify stamp per node) are built
// only by the first run that parks a node: a dense run such as
// rake-compress holds just the per-node wake rounds and bucket stamps, and
// visits every live node every round. Once built, the tables are reused by
// later runs without growing.
TEST(NetworkTest, MessageWakeTablesArmOnlyWhenANodeParks) {
  const int n = 2000;
  const Graph g = UniformRandomTree(n, 21);
  const auto ids = DefaultIds(n, 22);
  const size_t calendar_bytes = 2 * n * sizeof(int32_t);
  const size_t owner_bytes = 2 * static_cast<size_t>(g.NumEdges()) *
                             sizeof(int);
  for (const int threads : {1, 3}) {
    SCOPED_TRACE("T=" + std::to_string(threads));
    Network net(g, ids, threads, local::NetworkOptions{});
    RunRakeCompress(net, 2);
    ASSERT_FALSE(net.round_stats().empty());
    for (const local::RoundStats& rs : net.round_stats()) {
      EXPECT_EQ(rs.visits, rs.active_nodes);
    }
    EXPECT_EQ(net.wakes(), 0);
    EXPECT_EQ(net.EngineMemory().wake_tables, calendar_bytes);

    ParkedFlood flood;
    net.Run(flood, n + 1);
    int64_t visits = 0;
    for (const local::RoundStats& rs : net.round_stats()) visits += rs.visits;
    EXPECT_EQ(visits, n);
    EXPECT_EQ(net.wakes(), n - 1);
    const size_t armed = net.EngineMemory().wake_tables;
    EXPECT_GE(armed, calendar_bytes + owner_bytes + n * sizeof(int32_t));

    ParkedFlood again;
    net.Run(again, n + 1);
    EXPECT_EQ(net.wakes(), n - 1);
    EXPECT_EQ(net.EngineMemory().wake_tables, armed);
    RunRakeCompress(net, 2);
    EXPECT_EQ(net.EngineMemory().wake_tables, armed);
  }
}

}  // namespace
}  // namespace treelocal
