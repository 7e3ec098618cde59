// Differential tests for the batched multi-instance engine: a BatchNetwork
// running B instances over one shared topology must be bit-identical, per
// instance, to B sequential Network::Run calls — same outputs, same
// per-instance round counts, same message counts, same per-round RoundStats
// — including instances that halt at very different times and drop out of
// the batch independently.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "src/core/rake_compress.h"
#include "src/graph/generators.h"
#include "src/local/network.h"
#include "src/support/rng.h"

namespace treelocal {
namespace {

using local::Algorithm;
using local::BatchNetwork;
using local::Message;
using local::Network;
using local::NetworkOptions;
using local::NodeContext;
using local::RoundStats;

// Message-dependent transcript with a per-instance salt: every round each
// node folds its inbox into a running digest, re-broadcasts it, and
// double-sends on port 0 (exercising last-write-wins accounting); the halt
// round depends on (id, salt), so differently-salted instances produce
// genuinely different transcripts and halting schedules.
class SaltedDigest : public Algorithm {
 public:
  SaltedDigest(int n, uint64_t salt) : salt_(salt), digest_(n, 0) {}

  void OnRound(NodeContext& ctx) override {
    const int v = ctx.node();
    uint64_t d = digest_[v] * 1000003ULL + 17 + salt_;
    d += static_cast<uint64_t>(ctx.id());
    for (int p = 0; p < ctx.degree(); ++p) {
      const Message& m = ctx.Recv(p);
      if (m.present()) {
        d = d * 31 + static_cast<uint64_t>(m.word0) +
            3 * static_cast<uint64_t>(m.word1) + m.size;
      }
    }
    digest_[v] = d;
    const int halt_round =
        static_cast<int>((static_cast<uint64_t>(ctx.id()) + salt_) % 11) + 1;
    if (ctx.round() >= halt_round) {
      ctx.Halt();
      return;
    }
    ctx.Broadcast(Message::Of(static_cast<int64_t>(d & 0x7fffffff), v));
    if (ctx.degree() > 0) {
      ctx.Send(0, Message::Of(static_cast<int64_t>(d % 97)));
    }
  }

  const uint64_t salt_;
  std::vector<uint64_t> digest_;
};

struct SoloOutcome {
  int rounds = 0;
  int64_t messages = 0;
  std::vector<RoundStats> stats;
};

// Runs B salted-digest instances batched and solo and asserts bit-identity.
void ExpectBatchMatchesSequential(const Graph& g,
                                  const std::vector<int64_t>& ids, int batch,
                                  int max_rounds) {
  const int n = g.NumNodes();
  std::vector<std::unique_ptr<SaltedDigest>> batch_algs, solo_algs;
  std::vector<Algorithm*> ptrs;
  for (int b = 0; b < batch; ++b) {
    batch_algs.push_back(std::make_unique<SaltedDigest>(n, 1000003u * b));
    solo_algs.push_back(std::make_unique<SaltedDigest>(n, 1000003u * b));
    ptrs.push_back(batch_algs.back().get());
  }

  BatchNetwork bnet(g, ids, batch);
  std::vector<int> rounds = bnet.Run(ptrs, max_rounds);

  Network solo(g, ids);
  for (int b = 0; b < batch; ++b) {
    SoloOutcome want{solo.Run(*solo_algs[b], max_rounds),
                     solo.messages_delivered(), solo.round_stats()};
    EXPECT_EQ(rounds[b], want.rounds) << "instance " << b;
    EXPECT_EQ(bnet.messages_delivered(b), want.messages) << "instance " << b;
    EXPECT_EQ(bnet.round_stats(b), want.stats) << "instance " << b;
    EXPECT_EQ(batch_algs[b]->digest_, solo_algs[b]->digest_)
        << "instance " << b;
  }
}

TEST(BatchNetworkTest, DigestBatchOf2MatchesSequential) {
  for (int trial = 0; trial < 8; ++trial) {
    const int n = 2 + trial * 29;
    Graph g = UniformRandomTree(n, 1100 + trial);
    auto ids = DefaultIds(n, 1200 + trial);
    ExpectBatchMatchesSequential(g, ids, 2, 64);
  }
}

TEST(BatchNetworkTest, DigestBatchOf8MatchesSequential) {
  for (int trial = 0; trial < 6; ++trial) {
    const int n = 32 + trial * 47;
    Graph g = trial % 2 == 0 ? UniformRandomTree(n, 1300 + trial)
                             : BoundedDegreeRandomTree(n, 3 + trial, 1300 + trial);
    auto ids = DefaultIds(n, 1400 + trial);
    ExpectBatchMatchesSequential(g, ids, 8, 64);
  }
}

// The production workload (acceptance criterion): a batched k-sweep of the
// real rake-compress process, B in {2, 5, 8}, bit-identical per instance to
// sequential RunRakeCompress — outputs, per-instance round counts, message
// counts, and per-round trajectories.
TEST(BatchNetworkTest, RakeCompressBatchBitIdentical) {
  const std::vector<std::vector<int>> sweeps = {
      {2, 16},                        // B = 2
      {2, 3, 2, 16, 5},               // B = 5: repeated k, uneven dropout
      {2, 3, 4, 6, 8, 12, 16, 24}};   // B = 8
  for (int trial = 0; trial < 4; ++trial) {
    const int n = 24 + trial * 131;
    Graph tree = trial % 2 == 0 ? UniformRandomTree(n, 1500 + trial)
                                : BoundedDegreeRandomTree(n, 4, 1500 + trial);
    auto ids = DefaultIds(n, 1600 + trial);
    for (const auto& ks : sweeps) {
      BatchNetwork bnet(tree, ids, static_cast<int>(ks.size()));
      std::vector<RakeCompressResult> batched = RunRakeCompressBatch(bnet, ks);
      for (size_t b = 0; b < ks.size(); ++b) {
        RakeCompressResult solo = RunRakeCompress(tree, ids, ks[b]);
        EXPECT_EQ(batched[b].engine_rounds, solo.engine_rounds);
        EXPECT_EQ(batched[b].messages, solo.messages);
        EXPECT_EQ(batched[b].num_iterations, solo.num_iterations);
        EXPECT_EQ(batched[b].iteration, solo.iteration);
        EXPECT_EQ(batched[b].compressed, solo.compressed);
        EXPECT_EQ(batched[b].round_stats, solo.round_stats);
      }
    }
  }
}

// An instance that finishes drops out of the batch while the others keep
// running: its round_stats freeze at its own round count and the remaining
// instances' counters are unaffected.
TEST(BatchNetworkTest, FinishedInstanceDropsOutIndependently) {
  class HaltAtRound : public Algorithm {
   public:
    explicit HaltAtRound(int round) : round_(round) {}
    void OnRound(NodeContext& ctx) override {
      ctx.Broadcast(Message::Of(ctx.round()));
      if (ctx.round() >= round_) ctx.Halt();
    }
    const int round_;
  };
  const int n = 40;
  Graph g = UniformRandomTree(n, 77);
  auto ids = DefaultIds(n, 78);
  HaltAtRound fast(1), mid(4), slow(9);
  std::vector<Algorithm*> algs = {&fast, &mid, &slow};
  BatchNetwork bnet(g, ids, 3);
  std::vector<int> rounds = bnet.Run(algs, 64);
  EXPECT_EQ(rounds, (std::vector<int>{2, 5, 10}));
  for (int b = 0; b < 3; ++b) {
    ASSERT_EQ(bnet.round_stats(b).size(), static_cast<size_t>(rounds[b]));
    for (const RoundStats& rs : bnet.round_stats(b)) {
      EXPECT_EQ(rs.active_nodes, n);  // everyone runs until the common halt
    }
  }
  // Messages: every node broadcasts every round it runs.
  int64_t per_round = 2 * static_cast<int64_t>(g.NumEdges());
  EXPECT_EQ(bnet.messages_delivered(0), 2 * per_round);
  EXPECT_EQ(bnet.messages_delivered(2), 10 * per_round);
}

// One BatchNetwork is reusable across Runs (epoch invalidation, no stale
// messages), matching fresh-engine results, and survives an epoch re-arm.
TEST(BatchNetworkTest, BatchReuseAndEpochRearm) {
  const int n = 120;
  Graph g = UniformRandomTree(n, 88);
  auto ids = DefaultIds(n, 89);
  BatchNetwork reused(g, ids, 4);

  auto run_once = [&](BatchNetwork& net) {
    std::vector<std::unique_ptr<SaltedDigest>> algs;
    std::vector<Algorithm*> ptrs;
    for (int b = 0; b < 4; ++b) {
      algs.push_back(std::make_unique<SaltedDigest>(n, 7u * b));
      ptrs.push_back(algs.back().get());
    }
    std::vector<int> rounds = net.Run(ptrs, 64);
    std::vector<std::vector<uint64_t>> digests;
    for (auto& a : algs) digests.push_back(a->digest_);
    return std::make_pair(rounds, digests);
  };

  auto first = run_once(reused);
  auto second = run_once(reused);
  EXPECT_EQ(first, second);

  // Near-wrap epoch: the guard must re-arm once and stay bit-identical.
  reused.set_epoch_for_testing(INT32_MAX - 5);
  auto rearmed = run_once(reused);
  EXPECT_EQ(first, rearmed);
  EXPECT_LT(reused.epoch_for_testing(), 100);

  BatchNetwork fresh(g, ids, 4);
  EXPECT_EQ(run_once(fresh), first);
}

// NodeContext::instance() lets one shared Algorithm object keep per-instance
// state; under solo engines it is always 0.
TEST(BatchNetworkTest, InstanceIndexExposed) {
  class RecordInstance : public Algorithm {
   public:
    void OnRound(NodeContext& ctx) override {
      seen_.push_back(ctx.instance());
      ctx.Halt();
    }
    std::vector<int> seen_;
  };
  Graph g = Path(2);
  auto ids = DefaultIds(2, 9);
  RecordInstance shared;
  std::vector<Algorithm*> algs = {&shared, &shared, &shared};
  BatchNetwork bnet(g, ids, 3);
  bnet.Run(algs, 4);
  // The cache-blocked round pass sweeps a node chunk per instance slice:
  // within a chunk, instance 0 visits all nodes, then instance 1, etc.
  EXPECT_EQ(shared.seen_, (std::vector<int>{0, 0, 1, 1, 2, 2}));

  RecordInstance solo_alg;
  Network solo(g, ids);
  solo.Run(solo_alg, 4);
  EXPECT_EQ(solo_alg.seen_, (std::vector<int>{0, 0}));
}

TEST(BatchNetworkTest, EmptyAndTinyGraphs) {
  Graph empty = Graph::FromEdges(0, {});
  BatchNetwork net0(empty, {}, 2);
  SaltedDigest a(0, 0), b(0, 1);
  std::vector<Algorithm*> algs = {&a, &b};
  EXPECT_EQ(net0.Run(algs, 4), (std::vector<int>{0, 0}));
  EXPECT_EQ(net0.messages_delivered(0), 0);
  EXPECT_EQ(net0.messages_delivered(1), 0);

  Graph one = Graph::FromEdges(1, {});
  auto ids = DefaultIds(1, 1);
  ExpectBatchMatchesSequential(one, ids, 2, 64);

  EXPECT_THROW(BatchNetwork(one, ids, 0), std::invalid_argument);
  BatchNetwork net1(one, ids, 1);
  SaltedDigest c(1, 0), c_solo(1, 0);
  std::vector<Algorithm*> just_c = {&c};
  EXPECT_THROW(net1.Run(algs, 4), std::invalid_argument);
  Network solo(one, ids);
  EXPECT_EQ(net1.Run(just_c, 64)[0], solo.Run(c_solo, 64));
  EXPECT_EQ(c.digest_, c_solo.digest_);
}

// ---------------------------------------------------------------------------
// NetworkOptions::relabel on the batch engine: BFS channel clusters and
// rank-indexed state planes must be invisible in every transcript surface —
// per-instance round counts, message counts, RoundStats, digest chains,
// algorithm outputs, StateAt read-back, and checkpoints.
// ---------------------------------------------------------------------------

// Relabeled batch vs plain batch, per instance, on message-dependent
// transcripts: every observable surface identical.
void ExpectRelabelBatchBitIdentical(const Graph& g,
                                    const std::vector<int64_t>& ids,
                                    int batch) {
  const int n = g.NumNodes();
  NetworkOptions plain, relabel;
  relabel.relabel = true;

  auto run = [&](const NetworkOptions& opt) {
    std::vector<std::unique_ptr<SaltedDigest>> algs;
    std::vector<Algorithm*> ptrs;
    for (int b = 0; b < batch; ++b) {
      algs.push_back(std::make_unique<SaltedDigest>(n, 1000003u * b));
      ptrs.push_back(algs.back().get());
    }
    BatchNetwork net(g, ids, batch, opt);
    std::vector<int> rounds = net.Run(ptrs, 64);
    struct Got {
      std::vector<int> rounds;
      std::vector<int64_t> messages;
      std::vector<std::vector<RoundStats>> stats;
      std::vector<std::vector<uint64_t>> chains;
      std::vector<std::vector<uint64_t>> outputs;
    } got;
    got.rounds = rounds;
    for (int b = 0; b < batch; ++b) {
      got.messages.push_back(net.messages_delivered(b));
      got.stats.push_back(net.round_stats(b));
      got.chains.push_back(net.round_digests(b));
      got.outputs.push_back(algs[b]->digest_);
    }
    return std::make_tuple(got.rounds, got.messages, got.stats, got.chains,
                           got.outputs);
  };

  EXPECT_EQ(run(relabel), run(plain)) << "batch=" << batch;
}

TEST(BatchNetworkRelabel, SaltedDigestBitIdentical) {
  {
    const int n = 173;
    Graph g = UniformRandomTree(n, 2000);
    ExpectRelabelBatchBitIdentical(g, DefaultIds(n, 2001), 2);
    ExpectRelabelBatchBitIdentical(g, DefaultIds(n, 2001), 8);
  }
  {
    // Multi-component forest: BFS restarts cross component seams.
    Graph g = ForestUnion(240, 1, 2002);
    ExpectRelabelBatchBitIdentical(g, DefaultIds(g.NumNodes(), 2003), 8);
  }
  {
    Graph g = Star(50);
    ExpectRelabelBatchBitIdentical(g, DefaultIds(50, 2004), 4);
  }
}

// The relabel win needs rank-indexed state planes; RunRakeCompressBatch
// reads results back through StateAt, so this pins the external->rank
// translation end to end against solo plain runs.
TEST(BatchNetworkRelabel, RakeCompressStateReadBackBitIdentical) {
  const std::vector<int> ks = {2, 3, 4, 6, 8, 12, 16, 24};
  for (int trial = 0; trial < 3; ++trial) {
    const int n = 90 + trial * 113;
    Graph tree = trial == 1 ? BoundedDegreeRandomTree(n, 4, 2100 + trial)
                            : UniformRandomTree(n, 2100 + trial);
    auto ids = DefaultIds(n, 2200 + trial);
    NetworkOptions relabel;
    relabel.relabel = true;
    BatchNetwork bnet(tree, ids, static_cast<int>(ks.size()), relabel);
    std::vector<RakeCompressResult> batched = RunRakeCompressBatch(bnet, ks);
    for (size_t b = 0; b < ks.size(); ++b) {
      RakeCompressResult solo = RunRakeCompress(tree, ids, ks[b]);
      EXPECT_EQ(batched[b].engine_rounds, solo.engine_rounds);
      EXPECT_EQ(batched[b].messages, solo.messages);
      EXPECT_EQ(batched[b].iteration, solo.iteration);
      EXPECT_EQ(batched[b].compressed, solo.compressed);
      EXPECT_EQ(batched[b].round_stats, solo.round_stats);
    }
  }
}

// Staged broadcast sweep opting into wake scheduling (per-rank action
// rounds, sleeps, message wakes) — the scheduled sparse path does its own
// state addressing, so relabel x scheduling is pinned separately. Same
// algorithm as the wake-scheduler suite's StagedSweep.
class StagedSweepAlg : public Algorithm {
 public:
  StagedSweepAlg(int num_rounds, int mult) : k_(num_rounds), mult_(mult) {}
  bool WakeScheduled() const override { return true; }
  int InitialWakeRound(int node) const override { return Rank(node); }
  size_t StateBytes() const override { return sizeof(int64_t); }
  void InitState(int node, void* state) override {
    *static_cast<int64_t*>(state) = node;
  }
  void OnRound(NodeContext& ctx) override {
    const int rank = Rank(ctx.node());
    const int r = ctx.round();
    int64_t& acc = ctx.State<int64_t>();
    for (int p = 0; p < ctx.degree(); ++p) {
      const Message& m = ctx.Recv(p);
      if (m.present()) acc = acc * 31 + m.word0;
    }
    if (r == rank) ctx.Broadcast(Message::Of(ctx.id()));
    if (r >= k_ - 1) {
      ctx.Halt();
      return;
    }
    ctx.SleepUntil(r < rank ? rank : k_ - 1);
  }

 private:
  int Rank(int node) const { return (node * mult_) % k_; }
  const int k_;
  const int mult_;
};

TEST(BatchNetworkRelabel, WakeScheduledBitIdentical) {
  const int n = 160;
  Graph g = UniformRandomTree(n, 2300);
  auto ids = DefaultIds(n, 2301);
  const std::vector<int> mults = {1, 3, 5};

  auto run = [&](bool relabel_on, bool scheduled_on) {
    NetworkOptions opt;
    opt.relabel = relabel_on;
    opt.wake_scheduling = scheduled_on;
    std::vector<std::unique_ptr<StagedSweepAlg>> algs;
    std::vector<Algorithm*> ptrs;
    for (int m : mults) {
      algs.push_back(std::make_unique<StagedSweepAlg>(9, m));
      ptrs.push_back(algs.back().get());
    }
    BatchNetwork net(g, ids, static_cast<int>(mults.size()), opt);
    net.Run(ptrs, 64);
    std::vector<std::vector<uint64_t>> chains;
    std::vector<std::vector<int64_t>> states;
    std::vector<int64_t> visits;
    for (size_t b = 0; b < mults.size(); ++b) {
      chains.push_back(net.round_digests(static_cast<int>(b)));
      std::vector<int64_t> st(n);
      for (int v = 0; v < n; ++v) {
        st[v] = net.StateAt<int64_t>(static_cast<int>(b), v);
      }
      states.push_back(std::move(st));
      int64_t vis = 0;
      for (const RoundStats& rs : net.round_stats(static_cast<int>(b))) {
        vis += rs.visits;
      }
      visits.push_back(vis);
    }
    return std::make_tuple(chains, states, visits);
  };

  const auto want = run(false, false);
  for (bool scheduled : {false, true}) {
    const auto got = run(true, scheduled);
    // Transcripts and outputs identical; under scheduling only visits may
    // shrink (and must match the non-relabeled scheduled run exactly).
    EXPECT_EQ(std::get<0>(got), std::get<0>(want)) << "scheduled=" << scheduled;
    EXPECT_EQ(std::get<1>(got), std::get<1>(want)) << "scheduled=" << scheduled;
    const auto want_visits = scheduled ? run(false, true) : want;
    EXPECT_EQ(std::get<2>(got), std::get<2>(want_visits))
        << "scheduled=" << scheduled;
  }
}

// Checkpoints cross the relabel boundary in both directions: a snapshot is
// canonically external-indexed, so a relabeled batch's checkpoint resumed
// on a plain batch (and vice versa) must finish bit-identically to the
// uninterrupted plain run — this pins the Checkpoint gather, the
// ApplySnapshot scatter, and the rank-order worklist rebuild.
TEST(BatchNetworkRelabel, CheckpointCrossesRelabelBoundary) {
  const int n = 220;
  const std::vector<int> ks = {2, 5, 3};
  Graph tree = UniformRandomTree(n, 2400);
  auto ids = DefaultIds(n, 2401);
  const int B = static_cast<int>(ks.size());
  constexpr int kMaxRounds = 1000;

  auto make_algs = [&](std::vector<std::unique_ptr<Algorithm>>& own) {
    std::vector<Algorithm*> ptrs;
    for (int k : ks) {
      own.push_back(MakeRakeCompressAlgorithm(k));
      ptrs.push_back(own.back().get());
    }
    return ptrs;
  };

  // Uninterrupted plain-batch reference transcript.
  std::vector<uint64_t> want_digests;
  std::vector<int> want_rounds;
  std::vector<int64_t> want_messages;
  {
    std::vector<std::unique_ptr<Algorithm>> own;
    BatchNetwork net(tree, ids, B);
    want_rounds = net.Run(make_algs(own), kMaxRounds);
    for (int b = 0; b < B; ++b) {
      want_digests.push_back(net.last_digest(b));
      want_messages.push_back(net.messages_delivered(b));
    }
  }

  NetworkOptions plain, relabel;
  relabel.relabel = true;
  for (int pause : {1, 4}) {
    for (bool src_relabel : {false, true}) {
      SCOPED_TRACE("pause=" + std::to_string(pause) +
                   " src_relabel=" + std::to_string(src_relabel));
      std::string bytes;
      {
        std::vector<std::unique_ptr<Algorithm>> own;
        BatchNetwork src(tree, ids, B, src_relabel ? relabel : plain);
        src.RunUntil(make_algs(own), kMaxRounds, pause);
        ASSERT_TRUE(src.paused());
        std::ostringstream out;
        src.Checkpoint(out);
        bytes = out.str();
      }
      std::vector<std::unique_ptr<Algorithm>> own;
      BatchNetwork dst(tree, ids, B, src_relabel ? plain : relabel);
      std::istringstream in(bytes);
      dst.Resume(in);
      EXPECT_EQ(dst.Run(make_algs(own), kMaxRounds), want_rounds);
      for (int b = 0; b < B; ++b) {
        EXPECT_EQ(dst.last_digest(b), want_digests[b]) << "instance " << b;
        EXPECT_EQ(dst.messages_delivered(b), want_messages[b])
            << "instance " << b;
      }
    }
  }
}

}  // namespace
}  // namespace treelocal
