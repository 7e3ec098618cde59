#include "src/core/transform_node.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/graph/algorithms.h"
#include "src/graph/semigraph.h"
#include "src/local/network.h"

namespace treelocal {

namespace {

// On a graph with cycles rake-and-compress never empties and the engine
// would run into its round cap; refused before any engine is built.
void RequireForest(const Graph& g) {
  if (IsForest(g)) return;
  int components = 0;
  ConnectedComponents(g, &components);
  throw std::invalid_argument(
      "Theorem 12 takes a forest: m=" + std::to_string(g.NumEdges()) +
      ", n=" + std::to_string(g.NumNodes()) +
      ", components=" + std::to_string(components));
}

// Phases 2-3 of the Theorem 12 pipeline, shared by the single-k and k-sweep
// entry points: takes a finished phase-1 decomposition (already stored in
// `result.rake_compress`) and completes the base run and the gather phase.
// `net` is the host engine over (tree, ids) — reused from phase 1, so the
// base's engine-native class sweep rides on the same mailboxes (no
// steady-state reallocation across phases or instances).
void FinishNodeProblem(const NodeProblem& problem, const Graph& tree,
                       const std::vector<int64_t>& ids, int64_t id_space,
                       local::Network& net, Thm12Result& result) {
  result.rounds_decomposition = result.rake_compress.engine_rounds;

  std::vector<char> raked_mask(tree.NumNodes(), 0);
  {
    std::vector<char> compressed_mask(tree.NumNodes(), 0);
    for (int v = 0; v < tree.NumNodes(); ++v) {
      if (result.rake_compress.compressed[v]) {
        compressed_mask[v] = 1;
        ++result.num_compressed;
      } else {
        raked_mask[v] = 1;
        ++result.num_raked;
      }
    }

    // Phase 2: base algorithm A on T_C (Lemma 10: max degree <= k). T_C
    // is freed before the gather below builds its component lists.
    SemiGraph tc = SemiGraph::NodeInduced(tree, compressed_mask);
    result.base_stats =
        RunNodeBase(net, problem, tc, id_space, result.labeling);
    result.rounds_base = result.base_stats.rounds;
  }

  // Phase 3: Algorithm 2 on T_R — gather each component at its highest node
  // (leader), solve the Pi^x instance sequentially, broadcast back. All
  // components run in parallel; the cost is 2*ecc+1 of the worst one.
  // Leader key = dense rank of (layer, ID) so the paper's "highest node"
  // wins; ranks (not layer * id_space + id) because the encoded form
  // overflows int64_t for the clamped million-node ID spaces.
  std::vector<int64_t> leader_key(tree.NumNodes(), 0);
  {
    std::vector<int> by_order(tree.NumNodes());
    for (int v = 0; v < tree.NumNodes(); ++v) by_order[v] = v;
    std::sort(by_order.begin(), by_order.end(), [&](int x, int y) {
      return result.rake_compress.Lower(x, y, ids);
    });
    for (int r = 0; r < tree.NumNodes(); ++r) leader_key[by_order[r]] = r;
  }
  std::vector<ComponentLeader> components =
      MaskedComponentLeaders(tree, raked_mask, leader_key);
  result.num_rake_components = static_cast<int>(components.size());
  for (const ComponentLeader& comp : components) {
    // Sequential completion in any adversarial order is legal for P1
    // problems; process in increasing (layer, ID) order.
    std::vector<int> order = comp.nodes;
    std::sort(order.begin(), order.end(), [&](int x, int y) {
      return leader_key[x] < leader_key[y];
    });
    problem.CompleteNodes(tree, order, result.labeling);
    result.rounds_gather =
        std::max(result.rounds_gather, 2 * comp.eccentricity + 1);
    result.max_rake_component_diameter =
        std::max(result.max_rake_component_diameter, comp.eccentricity);
  }

  result.rounds_total = result.rounds_decomposition + result.rounds_base +
                        result.rounds_gather;
  result.engine_messages =
      result.rake_compress.messages + result.base_stats.messages;
  result.valid = problem.ValidateGraph(tree, result.labeling, &result.why);
}

}  // namespace

Thm12Result SolveNodeProblemOnTree(const NodeProblem& problem,
                                   const Graph& tree,
                                   const std::vector<int64_t>& ids,
                                   int64_t id_space, int k, int num_threads) {
  return std::move(SolveNodeProblemOnTreeBatch(problem, tree, ids, id_space,
                                               {k}, num_threads)[0]);
}

Thm12Result SolveNodeProblemOnTree(const NodeProblem& problem,
                                   local::Network& net, int64_t id_space,
                                   int k) {
  const Graph& tree = net.graph();
  RequireForest(tree);
  Thm12Result result;
  result.k = k;
  result.labeling = HalfEdgeLabeling(tree);

  // Phase 1: decomposition; phases 2-3 reuse the same engine.
  result.rake_compress = RunRakeCompress(net, k);
  FinishNodeProblem(problem, tree, net.ids(), id_space, net, result);
  return result;
}

std::vector<Thm12Result> SolveNodeProblemOnTreeBatch(
    const NodeProblem& problem, const Graph& tree,
    const std::vector<int64_t>& ids, int64_t id_space,
    const std::vector<int>& ks, int num_threads) {
  std::vector<Thm12Result> results(ks.size());
  if (ks.empty()) return results;
  RequireForest(tree);

  // One engine on `num_threads` lanes runs every phase of every k, so its
  // mailboxes and state plane are reused across the whole sweep. Phase 1
  // first, deduped: sweep entries at or above the tree's max degree
  // provably share one transcript, so the engine runs only the distinct
  // decompositions and the results fan back out bit-identically (an empty
  // tree still validates every k, matching the single-k path).
  local::Network net(tree, ids, num_threads, local::NetworkOptions{});
  {
    std::vector<RakeCompressResult> decompositions =
        RunRakeCompressDeduped(net, ks);
    for (size_t b = 0; b < ks.size(); ++b) {
      results[b].rake_compress = std::move(decompositions[b]);
    }
  }
  for (size_t b = 0; b < ks.size(); ++b) {
    results[b].k = ks[b];
    results[b].labeling = HalfEdgeLabeling(tree);
    FinishNodeProblem(problem, tree, ids, id_space, net, results[b]);
  }
  return results;
}

}  // namespace treelocal
