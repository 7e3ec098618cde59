#include "src/core/decomposition.h"

#include <algorithm>

#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

#include "src/local/network.h"
#include "src/support/mathutil.h"

namespace treelocal {

namespace {

// Message tags in the low two bits of the one message word.
constexpr int64_t kDegree = 1;  // word0 = kDegree | unmarked-degree << 2
constexpr int64_t kMarked = 2;

// Per-node state, engine-managed (see Algorithm::StateBytes).
struct DecompState {
  int32_t layer = 0;  // 1-based; 0 = unmarked
  int32_t unmarked_degree = 0;
};

class DecompositionAlgorithm : public local::Algorithm {
 public:
  DecompositionAlgorithm(GraphView g, int b, int k) : g_(g), b_(b), k_(k) {}

  size_t StateBytes() const override { return sizeof(DecompState); }
  void InitState(int node, void* state) override {
    static_cast<DecompState*>(state)->unmarked_degree = g_.Degree(node);
  }

  void OnRound(local::NodeContext& ctx) override {
    DecompState& st = ctx.State<DecompState>();
    const int r = ctx.round();
    const int iter = r / 2 + 1;
    const int deg = ctx.degree();
    if (r % 2 == 0) {
      // Consume mark announcements from the previous iteration, then
      // broadcast the current degree in the unmarked subgraph.
      for (int p = 0; p < deg; ++p) {
        const local::Message msg = ctx.Recv(p);
        if (msg.present() && msg.word0 == kMarked) --st.unmarked_degree;
      }
      ctx.Broadcast(local::Message::Of(
          kDegree | int64_t{st.unmarked_degree} << 2));
    } else {
      // Compress(G[V_{i-1}], b, k): deg <= k and at most b large neighbors.
      if (st.unmarked_degree > k_) return;
      int large = 0;
      for (int p = 0; p < deg; ++p) {
        const local::Message msg = ctx.Recv(p);
        if (msg.present() && (msg.word0 & 3) == kDegree &&
            (msg.word0 >> 2) > k_) {
          ++large;
        }
      }
      if (large <= b_) {
        st.layer = iter;
        ctx.Broadcast(local::Message::Of(kMarked));
        ctx.Halt();
      }
    }
  }

 private:
  GraphView g_;
  const int b_;
  const int k_;
};

}  // namespace

int DecompositionIterationBound(int64_t n, int a, int k) {
  if (n <= 1) return 1;
  double base = static_cast<double>(k) / a;
  return static_cast<int>(
             std::ceil(10.0 * std::log(static_cast<double>(n)) /
                       std::log(base))) +
         1;
}

DecompositionResult RunDecomposition(GraphView g,
                                     const std::vector<int64_t>& ids, int a,
                                     int b, int k) {
  local::Network net(g, ids);  // constructs fine for 0 nodes
  return RunDecomposition(net, a, b, k);
}

DecompositionResult RunDecomposition(local::Network& net, int a, int b,
                                     int k) {
  if (a < 1) throw std::invalid_argument("arboricity must be >= 1");
  if (b <= a) throw std::invalid_argument("need b > a");
  if (k < 5 * a) throw std::invalid_argument("need k >= 5a");
  const GraphView g = net.view();
  const std::vector<int64_t>& ids = net.ids();
  DecompositionResult result;
  if (g.NumNodes() == 0) return result;

  DecompositionAlgorithm alg(g, b, k);
  const int bound = DecompositionIterationBound(g.NumNodes(), a, k);
  try {
    result.engine_rounds = net.Run(alg, 2 * (2 * bound + 8));
  } catch (const local::MaxRoundsExceededError& e) {
    // Lemma 13 marks every node within `bound` iterations on a graph of
    // arboricity at most a; the round cap leaves 8 iterations of slack, so
    // an overrun means the input broke the precondition.
    throw std::invalid_argument(
        "RunDecomposition: graph arboricity exceeds a=" + std::to_string(a) +
        ": " + std::to_string(e.active_nodes()) +
        " node(s) still unmarked after " + std::to_string(e.round() / 2) +
        " iterations, past the Lemma 13 bound of " + std::to_string(bound) +
        " iterations for a=" + std::to_string(a) +
        ", k=" + std::to_string(k));
  }
  result.messages = net.messages_delivered();
  result.round_stats = net.round_stats();
  result.layer.resize(g.NumNodes());
  for (int v = 0; v < g.NumNodes(); ++v) {
    result.layer[v] = net.StateAt<DecompState>(v).layer;
    assert(result.layer[v] > 0 && "all nodes must be marked (Lemma 13)");
    result.num_layers = std::max(result.num_layers, result.layer[v]);
  }

  // Edge classification (Section 4). deg_{G[V_{i-1}]}(w) equals the number
  // of neighbors of w in layers >= i; an edge is atypical iff the *higher*
  // endpoint still had degree > k when the lower endpoint was removed.
  // (This is a deterministic function of the layers; a distributed
  // implementation piggybacks the degree on the mark announcement at +0
  // rounds, which we fold into the accounting.)
  //
  // Each node's neighbor layers are sorted once so the per-edge query is a
  // binary search: O((n + m) log Delta) total. The naive per-edge neighbor
  // rescan was O(sum_e deg(hi)) — quadratic on hub-heavy graphs (a
  // half-million-degree hub made million-node star unions infeasible).
  result.atypical.assign(static_cast<size_t>(g.NumEdges()), 0);
  std::vector<int> sorted_layers;
  std::vector<int> offset(g.NumNodes() + 1, 0);
  sorted_layers.reserve(2 * static_cast<size_t>(g.NumEdges()));
  for (int v = 0; v < g.NumNodes(); ++v) {
    const size_t begin = sorted_layers.size();
    g.ForEachNeighbor(
        v, [&](int w) { sorted_layers.push_back(result.layer[w]); });
    std::sort(sorted_layers.begin() + begin, sorted_layers.end());
    offset[v + 1] = static_cast<int>(sorted_layers.size());
  }
  g.ForEachEdge([&](int64_t e, int x, int y) {
    const int lo = result.Lower(x, y, ids) ? x : y;
    const int hi = lo == x ? y : x;
    const int i = result.layer[lo];
    if (result.layer[hi] < i) return;
    // # neighbors of hi with layer >= i.
    auto begin = sorted_layers.begin() + offset[hi];
    auto end = sorted_layers.begin() + offset[hi + 1];
    const int degree_hi =
        static_cast<int>(end - std::lower_bound(begin, end, i));
    if (degree_hi > k) result.atypical[static_cast<size_t>(e)] = 1;
  });
  return result;
}

}  // namespace treelocal
