#include "src/core/transform_edge.h"

#include <algorithm>

#include "src/graph/semigraph.h"
#include "src/local/network.h"

namespace treelocal {

// Engine-native phases 1-3 on one host engine (bit-identical transcripts
// for every thread count by the engine's determinism contract).
Thm15Result SolveEdgeProblemBoundedArboricity(const EdgeProblem& problem,
                                              local::Network& net,
                                              int64_t id_space, int a,
                                              int k) {
  const Graph& g = net.graph();
  Thm15Result result;
  result.a = a;
  result.k = k;
  result.labeling = HalfEdgeLabeling(g);

  // Phase 1: decomposition with b = 2a (Lemma 13), then classify the edges
  // into E1/E2.
  result.decomposition = RunDecomposition(net, a, 2 * a, k);
  result.rounds_decomposition = result.decomposition.engine_rounds;
  result.round_seconds_decomposition = net.round_seconds();

  std::vector<char> typical_mask(g.NumEdges(), 0);
  for (int e = 0; e < g.NumEdges(); ++e) {
    if (result.decomposition.atypical[e]) {
      ++result.num_atypical;
    } else {
      typical_mask[e] = 1;
      ++result.num_typical;
    }
  }

  // Phase 2: base algorithm A on G[E2] (Lemma 14: max degree <= k), class
  // sweep on the same host engine.
  SemiGraph e2 = SemiGraph::EdgeInduced(g, typical_mask);
  result.base_stats = RunEdgeBase(net, problem, e2, id_space,
                                  result.labeling);
  result.rounds_base = result.base_stats.rounds;
  result.round_seconds_base_sweep = net.round_seconds();

  // Phase 3: fused multi-forest Cole-Vishkin over the shared atypical-edge
  // structure, still on the same engine. The per-node edge coloring is 1
  // round; CV runs on all forests in parallel (unbounded messages), costing
  // the max.
  result.split = SplitAtypicalForests(net, result.decomposition, a, id_space);
  result.round_seconds_split = result.split.round_seconds;
  result.rounds_split = result.split.cv_rounds + 1;

  // Phase 4 (Algorithm 4): for each (i, j) stage, every star solves its Pi*
  // instance at the center — leaves send their constraints (1 round), the
  // center solves sequentially and replies (1 round). Stages run one after
  // the other: 2 rounds each, 6a stages.
  for (int f = 0; f < result.split.num_forests; ++f) {
    for (int j = 0; j < 3; ++j) {
      result.rounds_gather += 2;
      const std::vector<int>& star_edges = result.split.stars[f][j];
      if (star_edges.empty()) continue;
      // Stars within one stage are node-disjoint; sequential completion of
      // each star's edges implements the Lemma 16/17 labeling process.
      std::vector<int> ordered = star_edges;
      std::sort(ordered.begin(), ordered.end());
      problem.CompleteEdges(g, ordered, result.labeling);
    }
  }

  result.rounds_total = result.rounds_decomposition + result.rounds_base +
                        result.rounds_split + result.rounds_gather;
  result.engine_messages =
      result.decomposition.messages + result.base_stats.messages;
  result.valid = problem.ValidateGraph(g, result.labeling, &result.why);
  return result;
}

Thm15Result SolveEdgeProblemBoundedArboricity(const EdgeProblem& problem,
                                              const Graph& g,
                                              const std::vector<int64_t>& ids,
                                              int64_t id_space, int a, int k,
                                              int num_threads) {
  local::Network net(g, ids, num_threads, local::NetworkOptions{});
  return SolveEdgeProblemBoundedArboricity(problem, net, id_space, a, k);
}

}  // namespace treelocal
