#ifndef TREELOCAL_CORE_BASELINE_H_
#define TREELOCAL_CORE_BASELINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/algos/base_algorithms.h"
#include "src/graph/graph.h"
#include "src/graph/labeling.h"
#include "src/local/network.h"
#include "src/problems/problem.h"

namespace treelocal {

// Baselines: run the truly local base algorithm A directly on the whole
// input graph, with no transformation. Costs O(f(Delta) + log* n) rounds
// with the *input* graph's Delta — the quantity the paper's transformation
// replaces by f(g(n)). Runs the engine-native base (see base_algorithms.h).
struct BaselineResult {
  HalfEdgeLabeling labeling;
  bool valid = false;
  std::string why;
  int rounds_total = 0;
  BaseRunStats stats;
};

BaselineResult RunNodeBaseline(const NodeProblem& problem, const Graph& g,
                               const std::vector<int64_t>& ids,
                               int64_t id_space);

BaselineResult RunEdgeBaseline(const EdgeProblem& problem, const Graph& g,
                               const std::vector<int64_t>& ids,
                               int64_t id_space);

// Same runs on a caller-owned engine over (g, ids) — the bench drivers arm
// per-round timing on it and reuse it across repetitions.
BaselineResult RunNodeBaseline(local::Network& net, const NodeProblem& problem,
                               int64_t id_space);
BaselineResult RunEdgeBaseline(local::Network& net, const EdgeProblem& problem,
                               int64_t id_space);

}  // namespace treelocal

#endif  // TREELOCAL_CORE_BASELINE_H_
