#ifndef TREELOCAL_CORE_DECOMPOSITION_H_
#define TREELOCAL_CORE_DECOMPOSITION_H_

#include <cstdint>
#include <vector>

#include "src/graph/graph.h"
#include "src/graph/graph_view.h"
#include "src/local/network.h"

namespace treelocal {

// The paper's new decomposition process (Algorithm 3), run as a LOCAL
// engine algorithm on a graph of arboricity <= a with parameters b and k
// (a < b, 5a <= k):
//   iteration i: Compress(G[V_{i-1}], b, k) marks u if deg(u) <= k and at
//   most b of u's neighbors have degree > k.
// Lemma 13 (b = 2a): all nodes are marked within ceil(10 log_{k/a} n) + 1
// iterations. Each iteration costs 2 engine rounds.
//
// The edge classification of Section 4: an edge e = {u,v} with lower
// endpoint u (layer order; ties by ID) removed in iteration i is *atypical*
// iff deg_{G[V_{i-1}]}(v) > k; E1 = atypical edges, E2 = typical edges.
// Lemma 14: Delta(G[E2]) <= k; each node has at most b atypical edges as
// the lower endpoint.
struct DecompositionResult {
  std::vector<int> layer;     // 1-based marking iteration per node
  std::vector<char> atypical;  // per edge: in E1?
  int num_layers = 0;
  int engine_rounds = 0;
  int64_t messages = 0;
  // Per-round active-node/message counters from the engine run.
  std::vector<local::RoundStats> round_stats;

  bool Lower(int u, int v, const std::vector<int64_t>& ids) const {
    if (layer[u] != layer[v]) return layer[u] < layer[v];
    return ids[u] < ids[v];
  }

  // The lower endpoint of edge e under the layer/ID order.
  int LowerEndpoint(const Graph& g, int e,
                    const std::vector<int64_t>& ids) const {
    auto [x, y] = g.Endpoints(e);
    return Lower(x, y, ids) ? x : y;
  }
};

// Accepts either graph backend via the implicit GraphView conversions.
// Note DecompositionResult::atypical is indexed by the backend's edge
// numbering (Graph: input order; CompactGraph: (min, max)-sorted).
DecompositionResult RunDecomposition(GraphView g,
                                     const std::vector<int64_t>& ids, int a,
                                     int b, int k);

// Same process on a caller-owned engine (net.view(), net.ids()), at the
// engine's thread count — bit-identical for every T. Lets the bench drivers
// reuse mailboxes across calls and opt into per-round timing
// (set_record_round_times) before the run, and the Thm 15 pipeline reuse
// one engine across all its phases.
//
// Both forms throw std::invalid_argument when the graph's arboricity
// exceeds a: the run then overruns its Lemma 13 round cap, and the message
// names a, k and DecompositionIterationBound.
DecompositionResult RunDecomposition(local::Network& net, int a, int b, int k);

// Lemma 13 bound on the number of iterations.
int DecompositionIterationBound(int64_t n, int a, int k);

}  // namespace treelocal

#endif  // TREELOCAL_CORE_DECOMPOSITION_H_
