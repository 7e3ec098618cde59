// State-plane bit-identity matrix (the engine-managed algorithm state
// contract): an Algorithm keeping its per-node state in the engine's plane
// (StateBytes / InitState / NodeContext::State) must produce bit-identical
// transcripts — extracted state, executed rounds, message counts, per-round
// RoundStats — across every engine (ReferenceNetwork, Network,
// ParallelNetwork), with NetworkOptions::relabel on and off, T in
// {1, 2, 8}, multi-component forests, mid-run halts (round-0 halts
// included), and engine reuse with re-armed planes (same and different
// slot sizes back to back).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

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
using local::NetworkOptions;
using local::NodeContext;
using local::ParallelNetwork;
using local::ReferenceNetwork;
using local::RoundStats;

// Message-dependent digest with all per-node state in the engine plane:
// mixes the inbox into a rolling hash, tracks a live-degree counter, and
// halts at an id-dependent round (possibly round 0, so some nodes never
// send) — the transcript is sensitive to any state slot mixup, lost
// re-init, or cross-engine layout bug.
struct DigestState {
  uint64_t digest = 0;
  int32_t live_degree = 0;
  int32_t halt_round = 0;
};

class StateDigest : public Algorithm {
 public:
  StateDigest(const Graph& g, const std::vector<int64_t>& ids)
      : g_(&g), ids_(&ids) {}

  size_t StateBytes() const override { return sizeof(DigestState); }
  void InitState(int node, void* state) override {
    auto* st = static_cast<DigestState*>(state);
    st->digest = static_cast<uint64_t>((*ids_)[node]) * 2654435761u;
    st->live_degree = g_->Degree(node);
    st->halt_round = static_cast<int32_t>((*ids_)[node] % 11);
  }

  void OnRound(NodeContext& ctx) override {
    DigestState& st = ctx.State<DigestState>();
    uint64_t d = st.digest * 1000003ULL + 17;
    d += static_cast<uint64_t>(ctx.id());
    for (int p = 0; p < ctx.degree(); ++p) {
      const Message& m = ctx.Recv(p);
      if (m.present()) {
        d = d * 31 + static_cast<uint64_t>(m.word0) +
            3 * static_cast<uint64_t>(m.word1) + m.size;
        --st.live_degree;
      }
      d += static_cast<uint64_t>(ctx.neighbor_id(p));
    }
    st.digest = d;
    if (ctx.round() >= st.halt_round || st.live_degree < -3) {
      ctx.Halt();
      return;
    }
    ctx.Broadcast(Message::Of(static_cast<int64_t>(d & 0x7fffffff),
                              static_cast<int64_t>(st.live_degree)));
    if (ctx.degree() > 0) {
      // Last-write-wins double send, as in the engine differential suites.
      ctx.Send(0, Message::Of(static_cast<int64_t>(d % 97)));
    }
  }

 private:
  const Graph* g_;
  const std::vector<int64_t>* ids_;
};

struct Outcome {
  std::vector<uint64_t> digests;
  int rounds = 0;
  int64_t messages = 0;
  std::vector<RoundStats> stats;

  friend bool operator==(const Outcome&, const Outcome&) = default;
};

constexpr int kMaxRounds = 64;

Outcome RunOn(local::Engine& net, const Graph& g,
              const std::vector<int64_t>& ids) {
  StateDigest alg(g, ids);
  Outcome out;
  out.rounds = net.Run(alg, kMaxRounds);
  out.messages = net.messages_delivered();
  out.stats = net.round_stats();
  out.digests.resize(g.NumNodes());
  for (int v = 0; v < g.NumNodes(); ++v) {
    out.digests[v] = net.StateAt<DigestState>(v).digest;
  }
  return out;
}

void ExpectMatrixMatches(const Graph& g, const std::vector<int64_t>& ids) {
  ReferenceNetwork ref(g, ids);
  const Outcome want = RunOn(ref, g, ids);

  for (bool relabel : {false, true}) {
    NetworkOptions opt;
    opt.relabel = relabel;
    Network net(g, ids, opt);
    EXPECT_EQ(RunOn(net, g, ids), want) << "Network relabel=" << relabel;
    for (int threads : {1, 2, 8}) {
      ParallelNetwork par(g, ids, threads, opt);
      EXPECT_EQ(RunOn(par, g, ids), want)
          << "ParallelNetwork T=" << threads << " relabel=" << relabel;
    }
  }
}

TEST(StatePlaneMatrix, UniformTree) {
  const int n = 197;
  Graph g = UniformRandomTree(n, 901);
  ExpectMatrixMatches(g, DefaultIds(n, 902));
}

TEST(StatePlaneMatrix, MultiComponentForest) {
  // A real multi-component forest: relabel's BFS restarts and shard
  // boundaries both cross component seams.
  Graph g = ForestUnion(300, 1, 31);
  ExpectMatrixMatches(g, DefaultIds(g.NumNodes(), 903));
}

TEST(StatePlaneMatrix, StarAndPath) {
  ExpectMatrixMatches(Star(40), DefaultIds(40, 904));
  ExpectMatrixMatches(Path(63), DefaultIds(63, 905));
}

TEST(StatePlaneMatrix, TinyGraphsAndFewerNodesThanThreads) {
  ExpectMatrixMatches(Path(5), DefaultIds(5, 906));  // n < T = 8
  ExpectMatrixMatches(Path(1), DefaultIds(1, 907));
  ExpectMatrixMatches(Path(2), DefaultIds(2, 908));
}

// A second algorithm with a different slot size, to force plane re-sizing
// between runs on a reused engine.
struct TinyState {
  int64_t sum = 0;
};

class TinyCounter : public Algorithm {
 public:
  size_t StateBytes() const override { return sizeof(TinyState); }
  void InitState(int node, void* state) override {
    static_cast<TinyState*>(state)->sum = node + 1;
  }
  void OnRound(NodeContext& ctx) override {
    TinyState& st = ctx.State<TinyState>();
    st.sum = st.sum * 3 + ctx.round();
    if (ctx.round() >= 2) {
      ctx.Halt();
      return;
    }
    ctx.Broadcast(Message::Of(st.sum));
  }
};

// Engine reuse must re-arm the plane every Run: same-size re-runs are
// bit-identical, a different-size algorithm in between re-sizes the plane,
// and a legacy StateBytes() == 0 algorithm in between drops it entirely —
// none of which may leak into the next run's transcript.
TEST(StatePlaneReuse, ReArmAcrossRunsAndSlotSizes) {
  const int n = 151;
  Graph g = UniformRandomTree(n, 910);
  auto ids = DefaultIds(n, 911);

  for (bool relabel : {false, true}) {
    NetworkOptions opt;
    opt.relabel = relabel;
    Network reused(g, ids, opt);
    const Outcome first = RunOn(reused, g, ids);

    // Different slot size (16 -> 8 bytes), fresh-engine comparison.
    TinyCounter tiny;
    const int tiny_rounds = reused.Run(tiny, kMaxRounds);
    std::vector<int64_t> tiny_sums(n);
    for (int v = 0; v < n; ++v) {
      tiny_sums[v] = reused.StateAt<TinyState>(v).sum;
    }
    {
      Network fresh(g, ids, opt);
      TinyCounter tiny2;
      EXPECT_EQ(fresh.Run(tiny2, kMaxRounds), tiny_rounds);
      for (int v = 0; v < n; ++v) {
        EXPECT_EQ(fresh.StateAt<TinyState>(v).sum, tiny_sums[v]);
      }
    }

    // A stateless legacy algorithm in between (plane shrinks to zero).
    struct HaltNow : Algorithm {
      void OnRound(NodeContext& ctx) override { ctx.Halt(); }
    } legacy;
    EXPECT_EQ(reused.Run(legacy, kMaxRounds), 1);

    // Back to the digest: bit-identical to the first run.
    EXPECT_EQ(RunOn(reused, g, ids), first) << "relabel=" << relabel;
  }
}

// The real pipeline on the full engine matrix: rake-compress (now
// state-plane based) must stay bit-identical across every engine and both
// layouts — the pipeline-level restatement of the contract.
TEST(StatePlaneMatrix, RakeCompressAcrossAllEngines) {
  Graph g = ForestUnion(260, 1, 33);
  auto ids = DefaultIds(g.NumNodes(), 930);
  for (int k : {2, 3}) {
    const RakeCompressResult want = RunRakeCompressReference(g, ids, k);
    auto same = [&](const RakeCompressResult& got) {
      EXPECT_EQ(got.iteration, want.iteration);
      EXPECT_EQ(got.compressed, want.compressed);
      EXPECT_EQ(got.engine_rounds, want.engine_rounds);
      EXPECT_EQ(got.messages, want.messages);
      EXPECT_EQ(got.round_stats, want.round_stats);
    };
    for (bool relabel : {false, true}) {
      NetworkOptions opt;
      opt.relabel = relabel;
      Network net(g, ids, opt);
      same(RunRakeCompress(net, k));
      for (int threads : {1, 2, 8}) {
        ParallelNetwork par(g, ids, threads, opt);
        same(RunRakeCompress(par, k));
      }
      for (const RakeCompressResult& got :
           RunRakeCompressDeduped(net, {k, k})) {
        same(got);
      }
    }
  }
}

}  // namespace
}  // namespace treelocal
