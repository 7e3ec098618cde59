#ifndef TREELOCAL_GRAPH_ALGORITHMS_H_
#define TREELOCAL_GRAPH_ALGORITHMS_H_

#include <vector>

#include "src/graph/graph.h"

namespace treelocal {

// Centralized graph routines used for workload validation, component
// bookkeeping in the gather phases, and test oracles.

// BFS distances from `source`; unreachable nodes get -1.
std::vector<int> BfsDistances(const Graph& g, int source);

// Connected components; returns component id per node and sets *num_components.
std::vector<int> ConnectedComponents(const Graph& g, int* num_components);

// Connected components of the subgraph induced by nodes with mask[v] == true.
// Nodes outside the mask get component id -1.
std::vector<int> MaskedComponents(const Graph& g, const std::vector<char>& mask,
                                  int* num_components);

// Diameter of each masked component, by a double BFS *within the mask*: from
// the component's smallest node to the first farthest node found, then from
// there. Exact when every component is a tree (e.g. masked subgraphs of a
// tree or forest). All BFS runs share one workspace, so the whole call is
// O(n + m) regardless of the number of components.
// Returns a vector indexed by component id.
std::vector<int> MaskedTreeComponentDiameters(const Graph& g,
                                              const std::vector<char>& mask,
                                              const std::vector<int>& comp,
                                              int num_components);

// True if g is acyclic (a forest).
bool IsForest(const Graph& g);

// True if g is connected and acyclic.
bool IsTree(const Graph& g);

// Exact arboricity upper-bound check: verifies the edge set can be covered by
// `a` forests via a simple greedy (valid certificate only; used in tests on
// generator outputs where a greedy suffices). Returns true if greedy found a
// cover with <= a forests.
bool GreedyForestCover(const Graph& g, int a);

// For each masked component of a *tree* g: a (node, eccentricity-in-component)
// pair for the gather leader, where the leader is the node maximizing
// (key[v]) within the component (ties: the smallest node wins). `nodes` lists
// the component in increasing node order. Eccentricities are measured inside
// the mask by one BFS per component over a shared workspace: O(n + m) total.
struct ComponentLeader {
  int leader = -1;
  int eccentricity = 0;  // max distance from leader within component
  std::vector<int> nodes;
};
std::vector<ComponentLeader> MaskedComponentLeaders(
    const Graph& g, const std::vector<char>& mask,
    const std::vector<int64_t>& key);

}  // namespace treelocal

#endif  // TREELOCAL_GRAPH_ALGORITHMS_H_
