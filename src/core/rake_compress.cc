#include "src/core/rake_compress.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <stdexcept>

#include "src/local/network.h"
#include "src/local/reference_network.h"
#include "src/support/mathutil.h"

namespace treelocal {

namespace {

// Message tags on word0.
constexpr int64_t kDegree = 1;      // word1 = current unmarked-degree
constexpr int64_t kCompressed = 2;  // "I was just compressed"
constexpr int64_t kRaked = 3;       // "I was just raked"

// Per-node state, engine-managed (Algorithm::StateBytes): lives in the
// engine's internal-indexed plane, so it streams in worklist order under
// NetworkOptions::relabel.
struct RcState {
  int32_t unmarked_degree = 0;
  int32_t iteration = 0;  // 1-based; 0 = unmarked
  int8_t compressed = 0;
};

class RakeCompressAlgorithm : public local::Algorithm {
 public:
  explicit RakeCompressAlgorithm(int k) : k_(k) {}

  // The zeroed slot needs no InitState: every node is visited in round 0
  // and reads its degree there from the engine's table, which keeps the
  // per-Run set-up off the graph backend (a CompactGraph decodes its
  // stream for every Degree query).
  size_t StateBytes() const override { return sizeof(RcState); }

  void OnRound(local::NodeContext& ctx) override {
    RcState& st = ctx.State<RcState>();
    const int r = ctx.round();
    const int phase = r % 3;
    const int iter = r / 3 + 1;  // 1-based iteration
    if (r == 0) st.unmarked_degree = ctx.degree();
    if (phase == 0) {
      // Process rake announcements from the previous iteration, then
      // broadcast the current degree within the unmarked subgraph.
      ConsumeMarks(ctx, st);
      ctx.Broadcast(local::Message::Of(kDegree, st.unmarked_degree));
    } else if (phase == 1) {
      // Compress decision: deg <= k and every unmarked neighbor <= k.
      const int deg = ctx.degree();
      bool all_small = st.unmarked_degree <= k_;
      for (int p = 0; p < deg && all_small; ++p) {
        const local::Message& msg = ctx.Recv(p);
        if (msg.present() && msg.word0 == kDegree && msg.word1 > k_) {
          all_small = false;
        }
      }
      if (all_small) {
        st.iteration = iter;
        st.compressed = 1;
        ctx.Broadcast(local::Message::Of(kCompressed));
        ctx.Halt();
      }
    } else {
      // Rake decision: at most 1 unmarked, non-just-compressed neighbor.
      ConsumeMarks(ctx, st);
      if (st.unmarked_degree <= 1) {
        st.iteration = iter;
        st.compressed = 0;
        ctx.Broadcast(local::Message::Of(kRaked));
        ctx.Halt();
      }
    }
  }

 private:
  // Decrements the live-degree for every neighbor announcing a mark.
  void ConsumeMarks(local::NodeContext& ctx, RcState& st) {
    const int deg = ctx.degree();
    int marks = 0;
    for (int p = 0; p < deg; ++p) {
      const local::Message& msg = ctx.Recv(p);
      marks += msg.present() &&
               (msg.word0 == kCompressed || msg.word0 == kRaked);
    }
    st.unmarked_degree -= marks;
  }

  const int k_;
};

}  // namespace

int RakeCompressIterationBound(int64_t n, int k) {
  return CeilLogBase(n, k) + 1;
}

std::unique_ptr<local::Algorithm> MakeRakeCompressAlgorithm(int k) {
  if (k < 2) throw std::invalid_argument("rake-compress requires k >= 2");
  return std::make_unique<RakeCompressAlgorithm>(k);
}

int RakeCompressCanonicalK(int k, int max_degree) {
  // The transcript depends on k only below the max degree: with k >= Delta
  // every node passes the Compress predicate in iteration 1. The floor of 2
  // keeps the canon a valid parameter on low-degree forests (where every
  // valid k >= 2 >= Delta already shares one transcript).
  return std::min(k, std::max(max_degree, 2));
}

RakeCompressResult RunRakeCompress(GraphView tree,
                                   const std::vector<int64_t>& ids, int k) {
  if (tree.NumNodes() == 0) {
    if (k < 2) throw std::invalid_argument("rake-compress requires k >= 2");
    return RakeCompressResult{};
  }
  local::Network net(tree, ids);
  return RunRakeCompress(net, k);
}

RakeCompressResult RunRakeCompress(local::Engine& net, int k) {
  if (k < 2) throw std::invalid_argument("rake-compress requires k >= 2");
  const GraphView tree = net.view();
  RakeCompressResult result;
  if (tree.NumNodes() == 0) return result;
  RakeCompressAlgorithm alg(k);
  int bound = RakeCompressIterationBound(tree.NumNodes(), k);
  // Lemma 9 guarantees termination within `bound` iterations; allow slack so
  // a violation shows up as a test failure rather than an engine exception.
  result.engine_rounds = net.Run(alg, 3 * (2 * bound + 8));
  result.messages = net.messages_delivered();
  result.round_stats = net.round_stats();
  const int n = tree.NumNodes();
  result.iteration.resize(n);
  result.compressed.resize(n);
  for (int v = 0; v < n; ++v) {
    // Read back from the engine's state plane (external node indexing at
    // this boundary; the engine undoes any internal relabeling).
    const RcState& st = net.StateAt<RcState>(v);
    result.iteration[v] = st.iteration;
    result.compressed[v] = st.compressed;
    assert(result.iteration[v] > 0 && "all nodes must be marked (Lemma 9)");
    result.num_iterations =
        std::max(result.num_iterations, result.iteration[v]);
  }
  return result;
}

std::vector<RakeCompressResult> RunRakeCompressDeduped(
    local::Network& net, const std::vector<int>& ks) {
  for (int k : ks) {
    if (k < 2) throw std::invalid_argument("rake-compress requires k >= 2");
  }
  std::vector<RakeCompressResult> results(ks.size());
  const GraphView tree = net.view();
  if (ks.empty() || tree.NumNodes() == 0) return results;

  // Group by canonical parameter (see RakeCompressCanonicalK); the scan is
  // O(|ks|^2) on a handful of ints. One engine run per distinct canon.
  std::vector<int> unique_ks;
  std::vector<RakeCompressResult> unique_results;
  for (size_t i = 0; i < ks.size(); ++i) {
    const int canon = RakeCompressCanonicalK(ks[i], tree.MaxDegree());
    size_t j = 0;
    while (j < unique_ks.size() && unique_ks[j] != canon) ++j;
    if (j == unique_ks.size()) {
      unique_ks.push_back(canon);
      unique_results.push_back(RunRakeCompress(net, canon));
    }
    results[i] = unique_results[j];
  }
  return results;
}

RakeCompressResult RunRakeCompressReference(GraphView tree,
                                            const std::vector<int64_t>& ids,
                                            int k) {
  if (tree.NumNodes() == 0) {
    if (k < 2) throw std::invalid_argument("rake-compress requires k >= 2");
    return RakeCompressResult{};
  }
  local::ReferenceNetwork net(tree, ids);
  return RunRakeCompress(net, k);
}

}  // namespace treelocal
