#ifndef TREELOCAL_TESTS_ORACLE_HOST_ORACLE_H_
#define TREELOCAL_TESTS_ORACLE_HOST_ORACLE_H_

#include <cstdint>
#include <vector>

#include "src/algos/base_algorithms.h"
#include "src/core/decomposition.h"
#include "src/core/forest_split.h"
#include "src/core/transform_edge.h"
#include "src/graph/graph.h"
#include "src/graph/labeling.h"
#include "src/graph/semigraph.h"
#include "src/local/network.h"
#include "src/problems/problem.h"

// Host-side reference implementations of the pipeline phases that the
// library runs engine-native: the Theorem 12 base layer (Linial on a
// compacted underlying graph, then a sequential sweep in sorted class
// order), the per-forest Cole-Vishkin split and the Theorem 15 composition
// built from them. The parity tests and the edge bench drivers require the
// library's outputs to equal these bit for bit. Every function here has a
// counterpart of the same name in namespace treelocal with an identical or
// overlapping signature, so call them qualified (oracle::RunEdgeBase).
namespace treelocal::oracle {

// Color-class sweeps: given a proper coloring with colors in [0,
// num_colors) of the active nodes (or of the line graph for edge problems),
// process the color classes in increasing order, one LOCAL round per class.
// Within a class the elements form an independent set, so their 1-hop
// greedy decisions cannot interact and the sequential greedy is executed
// faithfully.
//
// Round accounting: nodes know the schedule length num_colors (a function
// of n, Delta they all know) but NOT which classes are globally empty, so
// every class burns a round — the honest LOCAL cost returned is
// `num_colors`, not the number of nonempty classes.
//
// `host_nodes[i]` is colored `colors[i]`; labels all their unset half-edges.
// Returns the number of sweep rounds (= num_colors).
int64_t SweepNodeClasses(const NodeProblem& problem, const Graph& host,
                         const std::vector<int>& host_nodes,
                         const std::vector<int64_t>& colors,
                         int64_t num_colors, HalfEdgeLabeling& h);

// Same for edge problems: `host_edges[i]` colored `colors[i]`.
int64_t SweepEdgeClasses(const EdgeProblem& problem, const Graph& host,
                         const std::vector<int>& host_edges,
                         const std::vector<int64_t>& colors,
                         int64_t num_colors, HalfEdgeLabeling& h);

// Literal engine execution of a node-problem color-class sweep: in round t,
// the nodes of color class t run the problem's 1-hop greedy against the
// labels they have *received* so far, then send each neighbor the label
// they chose on the shared edge. Every node halts after round
// num_colors - 1 (the schedule length is global knowledge). It is the
// message-level ground truth for SweepNodeClasses: identical labelings, at
// exactly the `num_colors` engine rounds the pipelines charge.
struct DistributedSweepResult {
  HalfEdgeLabeling labeling;
  int rounds = 0;
  int64_t messages = 0;
  std::vector<local::RoundStats> round_stats;
};

// `colors[v]` in [0, num_colors) for every node of `g`, a proper coloring;
// `ids` are the LOCAL identifiers. Labels every half-edge of `g`. Throws
// std::invalid_argument for an out-of-range color or an edge whose
// endpoints share a color. Runs on a `Network` with
// `num_threads` lanes.
DistributedSweepResult RunDistributedNodeSweep(
    const NodeProblem& problem, const Graph& g,
    const std::vector<int64_t>& ids, const std::vector<int64_t>& colors,
    int64_t num_colors, int num_threads = 1);

// Same run on the ReferenceNetwork.
DistributedSweepResult RunDistributedNodeSweepReference(
    const NodeProblem& problem, const Graph& g,
    const std::vector<int64_t>& ids, const std::vector<int64_t>& colors,
    int64_t num_colors);

// Line-graph IDs by a pair comparator: edge e gets the lexicographic rank
// (1-based) of its (min, max) endpoint-ID pair among all edges of `host`.
// The reference for the library's flat-key LineGraphIds.
std::vector<int64_t> LineGraphIds(const Graph& host,
                                  const std::vector<int64_t>& host_ids);

// The base algorithms A on a compacted Subgraph: Linial on its own engine,
// then the sequential sorted sweep above. Same contract and outputs as
// treelocal::RunNodeBase / RunEdgeBase; the sweep's engine counters
// (sweep_messages, *_round_stats) stay empty.
BaseRunStats RunNodeBase(const NodeProblem& problem, const SemiGraph& semi,
                         const std::vector<int64_t>& host_ids,
                         int64_t id_space, HalfEdgeLabeling& h);
BaseRunStats RunEdgeBase(const EdgeProblem& problem, const SemiGraph& semi,
                         const std::vector<int64_t>& host_ids,
                         int64_t id_space, HalfEdgeLabeling& h);

// Per-forest Cole-Vishkin on compacted forest subgraphs, one engine per
// forest. Same outputs as the fused engine-native split (forest_of_edge,
// star_class_of_edge, stars, cv_rounds); its engine counters stay empty.
ForestSplitResult SplitAtypicalForests(const Graph& g,
                                       const std::vector<int64_t>& ids,
                                       int64_t id_space,
                                       const DecompositionResult& decomp,
                                       int a);

// Theorem 15 from the pieces above: decomposition, oracle base on G[E2],
// oracle split, then the Algorithm 4 star stages.
Thm15Result SolveEdgeProblemBoundedArboricity(
    const EdgeProblem& problem, const Graph& g,
    const std::vector<int64_t>& ids, int64_t id_space, int a, int k);

}  // namespace treelocal::oracle

#endif  // TREELOCAL_TESTS_ORACLE_HOST_ORACLE_H_
