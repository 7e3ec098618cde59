#ifndef TREELOCAL_ALGOS_COLE_VISHKIN_H_
#define TREELOCAL_ALGOS_COLE_VISHKIN_H_

#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

#include "src/graph/graph.h"
#include "src/local/network.h"

namespace treelocal {

// Deterministic 3-coloring of a rooted forest in O(log* n) rounds
// [GPS87, Cole-Vishkin]: iterated bit-index color reduction to 6 colors,
// then three shift-down + recolor phases down to {0,1,2}.
struct ColeVishkinResult {
  std::vector<int> colors;  // in {0,1,2}
  int rounds = 0;
  int64_t messages = 0;  // engine messages delivered
  // Per-round engine counters (parity-checked against the reference engine).
  std::vector<local::RoundStats> round_stats;
};

// Runs on a caller-built engine of either class over a CSR forest
// (net.graph()) whose edges are exactly {v, parent[v]}. `parent[v]` is the
// parent node index or -1 for roots. The engine's ids (net.ids()) are
// distinct; `id_space` is an exclusive upper bound on them (the schedule
// length is a function of the ID space, which all nodes know).
// Bit-identical for every engine and thread count (engine parity tests).
ColeVishkinResult ColeVishkin3Color(local::Engine& net,
                                    const std::vector<int>& parent,
                                    int64_t id_space);

// Number of Cole-Vishkin iterations needed from an ID space of the given
// size until colors are in {0..5}: the step-round count of CvAlgorithm and
// of the fused multi-forest CV, and the log* term of the round bounds.
int ColeVishkinIterations(int64_t id_space);

// One Cole-Vishkin step: new color = 2*i + bit_i(mine), where i is the
// lowest bit index at which `mine` and `parent` differ (neighbor colors are
// distinct, so mine != parent). The step of CvAlgorithm and of the fused
// multi-forest CV in src/core/forest_split.cc.
inline int64_t ColeVishkinStep(int64_t mine, int64_t parent) {
  const uint64_t diff = static_cast<uint64_t>(mine ^ parent);
  assert(diff != 0);
  const int i = std::countr_zero(diff);
  return 2 * static_cast<int64_t>(i) + ((mine >> i) & 1);
}

}  // namespace treelocal

#endif  // TREELOCAL_ALGOS_COLE_VISHKIN_H_
