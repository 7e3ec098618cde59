#ifndef TREELOCAL_GRAPH_LINEGRAPH_H_
#define TREELOCAL_GRAPH_LINEGRAPH_H_

#include <span>

#include "src/graph/graph.h"

namespace treelocal {

// Line graph L(G): one node per edge of G, adjacency = edge adjacency in G.
// Running a vertex algorithm on L(G) solves the corresponding edge problem
// on G (maximal matching = MIS on L(G), (edge-degree+1)-edge coloring =
// (deg+1)-coloring on L(G)); one L(G) round is simulable in O(1) G rounds.
struct LineGraph {
  Graph graph;  // node i of `graph` corresponds to the i-th host edge
};

// The line graph of the subgraph formed by host edges `edges` (distinct
// ids): node i of the result is host edge edges[i], and two nodes are
// adjacent when their host edges share an endpoint. In a simple graph two
// distinct edges share at most one endpoint, so enumerating the incident
// pairs at each host node (in port order) emits every line-graph edge
// exactly once; no dedup pass is needed. Pass all host edges for L(G).
// The edge count, the sum over host nodes of C(subset degree, 2), is
// checked before anything is allocated: at the CSR limit (see
// internal::ValidateEdgeCount) it throws GraphLimitError naming the count.
LineGraph BuildLineGraph(const Graph& host, std::span<const int> edges);

// Deterministic distinct IDs for line-graph nodes derived from the host
// edges' endpoint IDs (so symmetry breaking on L(G) is legitimate LOCAL
// input): entry i is the lexicographic rank, dense in {1..edges.size()}, of
// host edge edges[i]'s (min, max) endpoint-ID pair among the subset. The
// base layer calls it on the semi-graph's edges without materializing the
// compacted underlying graph (the subset's pair order is the compacted
// graph's pair order). tests/oracle/ holds the pair-comparator reference.
std::vector<int64_t> LineGraphIds(const Graph& host,
                                  std::span<const int> edges,
                                  const std::vector<int64_t>& host_ids);

}  // namespace treelocal

#endif  // TREELOCAL_GRAPH_LINEGRAPH_H_
