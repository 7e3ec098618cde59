#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <stdexcept>

#include "src/core/rake_compress.h"
#include "src/graph/compact_graph.h"
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
  // Dirty the mailboxes with real payloads first, then push the epoch past
  // the wrap threshold: the pre-run guard must re-arm every stamp so that
  // none of the stale payloads (stamps far below the epoch) leak.
  CollectNeighborIds warm(n);
  net.Run(warm, 10);
  net.set_epoch_for_testing(INT32_MAX - 5);
  CollectNeighborIds alg(n);
  EXPECT_EQ(net.Run(alg, 10), expect_rounds);
  EXPECT_EQ(alg.collected_, expect.collected_);
  EXPECT_EQ(net.messages_delivered(), fresh.messages_delivered());
  // Re-armed: the epoch restarted near 1 instead of marching past the
  // brink. INT32_MAX - 5 lies above the packed-slot limit
  // local::internal::kMaxEpoch, so this only exercises that region: the
  // pre-run guard re-arms at kMaxEpoch - 4 and the per-round rebase fires
  // at kMaxEpoch - 2, so a live stamp never exceeds kMaxEpoch - 3.
  // EpochWrapAtPackedLimit tests the guards at the limit itself.
  EXPECT_LT(net.epoch_for_testing(), 100);
}

// Every node sends a message on every port for `rounds` rounds, its
// (negative) word varying by sender, round and port, and logs everything
// it receives: a transcript that shows any lost, stale or misplaced word.
class RelayWords : public Algorithm {
 public:
  RelayWords(int n, int rounds) : log_(n), rounds_(rounds) {}
  void OnRound(NodeContext& ctx) override {
    const int r = ctx.round();
    for (int p = 0; p < ctx.degree(); ++p) {
      const Message m = ctx.Recv(p);
      log_[ctx.node()].push_back({r, p, m.word0, m.size});
    }
    if (r == rounds_) {
      ctx.Halt();
      return;
    }
    for (int p = 0; p < ctx.degree(); ++p) {
      // Round 1 sends nothing on even ports, so an empty slot must also
      // survive the wrap as an empty one.
      if (r == 1 && p % 2 == 0) continue;
      ctx.Send(p, Message::Of(-((ctx.id() * 100 + r) * 1000 + r * 10 + p)));
    }
  }
  struct Entry {
    int round, port;
    int64_t word0;
    uint8_t size;
    friend bool operator==(const Entry&, const Entry&) = default;
  };
  std::vector<std::vector<Entry>> log_;

 private:
  int rounds_;
};

// The packed mailbox slot holds the epoch in 30 bits (stamp * 4 + size), so
// the wrap guards act at local::internal::kMaxEpoch: the pre-run re-arm at
// kMaxEpoch - 4 and the mid-run rebase at kMaxEpoch - 2. Starting a run on
// each epoch around those points, with mailboxes dirty from an earlier
// run, must deliver exactly the transcript of a fresh engine — words,
// sizes and digests — and leave the epoch below the limit.
TEST(NetworkTest, EpochWrapAtPackedLimit) {
  const int n = 80;
  const Graph g = UniformRandomTree(n, 9);
  const auto ids = DefaultIds(n, 10);
  constexpr int kRounds = 6;
  local::NetworkOptions opt;
  opt.digest_messages = true;
  Network fresh(g, ids, opt);
  RelayWords expect(n, kRounds);
  const int expect_rounds = fresh.Run(expect, 100);
  constexpr int32_t kMax = local::internal::kMaxEpoch;
  for (const int32_t start : {kMax - 8, kMax - 6, kMax - 5, kMax - 4,
                              kMax - 3}) {
    SCOPED_TRACE("start epoch kMaxEpoch - " + std::to_string(kMax - start));
    Network net(g, ids, opt);
    RelayWords warm(n, kRounds);
    net.Run(warm, 100);
    net.set_epoch_for_testing(start);
    RelayWords alg(n, kRounds);
    EXPECT_EQ(net.Run(alg, 100), expect_rounds);
    EXPECT_EQ(alg.log_, expect.log_);
    EXPECT_EQ(net.round_digests(), fresh.round_digests());
    EXPECT_EQ(net.messages_delivered(), fresh.messages_delivered());
    // kMaxEpoch - 4 and above re-arm before round 0; below it the run
    // crosses kMaxEpoch - 2 mid-run and rebases there. Either way the
    // epoch restarted near 1.
    EXPECT_LT(net.epoch_for_testing(), 100);
  }
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
// snapshot armed by Resume.
// Builds the engine a parametrized test runs on: the solo Network at T
// lanes, or the ReferenceNetwork oracle (threads == 0).
std::unique_ptr<local::Engine> MakeEngine(const Graph& g,
                                          const std::vector<int64_t>& ids,
                                          int threads) {
  if (threads == 0) return std::make_unique<local::ReferenceNetwork>(g, ids);
  return std::make_unique<Network>(g, ids, threads, local::NetworkOptions{});
}

TEST(NetworkTest, AbandonRunStartsNextRunFresh) {
  const int n = 60;
  const Graph path = Path(n);
  const auto ids = DefaultIds(n, 14);
  for (const int threads : {1, 0}) {
    SCOPED_TRACE(threads == 0 ? "reference" : "network");
    const std::unique_ptr<local::Engine> fresh = MakeEngine(path, ids, threads);
    CollectNeighborIds want_collect(n);
    const int collect_rounds = fresh->Run(want_collect, 10);
    const std::vector<uint64_t> collect_digests = fresh->round_digests();
    const std::vector<local::RoundStats> collect_stats = fresh->round_stats();
    const int64_t collect_messages = fresh->messages_delivered();
    Flood want_flood(n);
    const int flood_rounds = fresh->Run(want_flood, 2 * n);
    const std::vector<uint64_t> flood_digests = fresh->round_digests();

    const std::unique_ptr<local::Engine> engine =
        MakeEngine(path, ids, threads);
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

// Counts every node's visits in its state slot and halts it in round
// node % 3: arms the state plane.
class StaggeredHalt : public Algorithm {
 public:
  size_t StateBytes() const override { return sizeof(int64_t); }
  void OnRound(NodeContext& ctx) override {
    ++ctx.State<int64_t>();
    if (ctx.round() >= ctx.node() % 3) ctx.Halt();
  }
};

// The rank-ordered channel tables, checked against the graph itself: rank
// i's block holds node order[i]'s ports (so first[i + 1] - first[i] is its
// degree), send_chan pairs every half-edge with its reverse (an involution
// landing in the neighbor's block at the neighbor's port back), and the
// ranks are the BFS visit order (roots in increasing external index,
// neighbors in port order). Both backends build identical tables.
TEST(NetworkTest, RankOrderedChannelTables) {
  const std::vector<Graph> graphs = {UniformRandomTree(300, 3), Star(40),
                                     ForestUnion(200, 2, 5), Graph::FromEdges(
                                         5, {{3, 4}})};
  for (const Graph& g : graphs) {
    const int n = g.NumNodes();
    const CompactGraph compact = CompactGraph::FromGraph(g);
    SCOPED_TRACE("n=" + std::to_string(n));
    const local::internal::ChannelTables t =
        local::internal::BuildChannelTables(g);
    const local::internal::ChannelTables tc =
        local::internal::BuildChannelTables(compact);
    EXPECT_EQ(tc.first, t.first);
    EXPECT_EQ(tc.send_chan, t.send_chan);
    EXPECT_EQ(tc.order, t.order);
    EXPECT_EQ(tc.perm, t.perm);
    ASSERT_EQ(t.first.size(), static_cast<size_t>(n) + 1);
    ASSERT_EQ(t.send_chan.size(), 2 * static_cast<size_t>(g.NumEdges()));
    ASSERT_EQ(t.perm.size(), static_cast<size_t>(n));

    // BFS order, replayed from its definition.
    std::vector<int> want;
    std::vector<char> seen(n, 0);
    for (int root = 0; root < n; ++root) {
      if (seen[root]) continue;
      seen[root] = 1;
      want.push_back(root);
      for (size_t h = want.size() - 1; h < want.size(); ++h) {
        for (const int u : g.Neighbors(want[h])) {
          if (!seen[u]) {
            seen[u] = 1;
            want.push_back(u);
          }
        }
      }
    }
    ASSERT_EQ(t.order, want);

    std::vector<int> owner(t.send_chan.size());
    for (int i = 0; i < n; ++i) {
      const int v = t.order[i];
      ASSERT_EQ(t.perm[v], i);
      ASSERT_EQ(t.first[i + 1] - t.first[i], g.Degree(v)) << "rank " << i;
      for (int c = t.first[i]; c < t.first[i + 1]; ++c) owner[c] = i;
    }
    for (int i = 0; i < n; ++i) {
      const int v = t.order[i];
      for (int p = 0; p < g.Degree(v); ++p) {
        const int u = g.Neighbors(v)[p];
        const int c = t.send_chan[t.first[i] + p];
        ASSERT_EQ(t.send_chan[c], t.first[i] + p);
        ASSERT_EQ(owner[c], t.perm[u]);
        ASSERT_EQ(c - t.first[t.perm[u]], g.PortOf(u, v));
      }
    }
  }
}

// EngineMemory's parts add up to its total, and every part but the run
// log has its closed-form size: the channel tables are one rank-ordered CSR
// (n + 1 offsets, whose differences are the degrees, and 2m send
// channels), the mailboxes are two 2m-slot arrays of 12-byte slots (48
// B/edge), and the worklist holds the live ranks, halt flags, rank order
// and its inverse, and one cache line per lane. The state plane appears
// with the first run that declares one. Nothing else grows with a run,
// whatever the algorithm.
TEST(NetworkTest, EngineMemoryPartsSumToTotal) {
  const int n = 500;
  const Graph g = UniformRandomTree(n, 15);
  const size_t m = static_cast<size_t>(g.NumEdges());
  const auto sum = [](const local::EngineBytes& b) {
    return b.channel_tables + b.mailboxes + b.worklist + b.ids +
           b.state_plane + b.run_log;
  };
  for (const int threads : {1, 3}) {
    SCOPED_TRACE("T=" + std::to_string(threads));
    Network net(g, DefaultIds(n, 16), threads, local::NetworkOptions{});
    const size_t worklist =
        n * (sizeof(int) + sizeof(char) + 2 * sizeof(int)) + 64 * threads;
    local::EngineBytes b = net.EngineMemory();
    EXPECT_EQ(sum(b), b.total());
    EXPECT_EQ(b.mailboxes, 2 * 2 * m * 12);
    EXPECT_EQ(b.channel_tables, (n + 1 + 2 * m) * sizeof(int));
    EXPECT_EQ(b.ids, n * sizeof(int64_t));
    EXPECT_EQ(b.worklist, worklist);
    EXPECT_EQ(b.state_plane, 0u);
    EXPECT_EQ(b.run_log, 0u);

    StaggeredHalt alg;
    EXPECT_EQ(net.Run(alg, 10), 3);
    for (int v = 0; v < n; ++v) {
      EXPECT_EQ(net.StateAt<int64_t>(v), v % 3 + 1) << "node " << v;
    }
    b = net.EngineMemory();
    EXPECT_EQ(sum(b), b.total());
    EXPECT_EQ(b.state_plane, n * sizeof(int64_t));
    EXPECT_GT(b.run_log, 0u);

    // A relay run and a rake-compress leave every closed-form part as it
    // was.
    RelayWords relay(n, 4);
    net.Run(relay, 10);
    RunRakeCompress(net, 2);
    b = net.EngineMemory();
    EXPECT_EQ(sum(b), b.total());
    EXPECT_EQ(b.mailboxes, 2 * 2 * m * 12);
    EXPECT_EQ(b.channel_tables, (n + 1 + 2 * m) * sizeof(int));
    EXPECT_EQ(b.worklist, worklist);
  }
}

// Node 0 broadcasts in round 0 and halts; every other node waits for a
// message, then passes it on and halts. Stateless, so it runs sharded
// without shared writes (Flood's bit vector is not).
class FloodWave : public Algorithm {
 public:
  void OnRound(NodeContext& ctx) override {
    bool heard = ctx.node() == 0;
    for (int p = 0; p < ctx.degree() && !heard; ++p) {
      heard = ctx.Recv(p).present();
    }
    if (!heard) return;
    ctx.Broadcast(Message::Of(1));
    ctx.Halt();
  }
};

// Every live node runs in every round: visits equal active_nodes in every
// round, for a dense algorithm (rake-compress) and for one whose nodes
// mostly wait (a flood), at every thread count and on both engines.
TEST(NetworkTest, EveryLiveNodeRunsEveryRound) {
  const int n = 2000;
  const Graph g = UniformRandomTree(n, 21);
  const auto ids = DefaultIds(n, 22);
  const auto check = [&](local::Engine& net, const std::string& label) {
    SCOPED_TRACE(label);
    RunRakeCompress(net, 2);
    ASSERT_FALSE(net.round_stats().empty());
    for (const local::RoundStats& rs : net.round_stats()) {
      EXPECT_EQ(rs.visits, rs.active_nodes);
    }
    FloodWave flood;
    const int rounds = net.Run(flood, n + 1);
    EXPECT_GT(rounds, 2);
    int64_t decisions = 0;
    for (const local::RoundStats& rs : net.round_stats()) {
      EXPECT_EQ(rs.visits, rs.active_nodes);
      decisions += rs.decisions;
    }
    EXPECT_EQ(decisions, n);  // each node acts once, when it halts
    EXPECT_EQ(net.round_stats().front().active_nodes, n);
  };
  for (const int threads : {1, 3}) {
    Network net(g, ids, threads, local::NetworkOptions{});
    check(net, "Network T=" + std::to_string(threads));
  }
  local::ReferenceNetwork reference(g, ids);
  check(reference, "ReferenceNetwork");
}

}  // namespace
}  // namespace treelocal
