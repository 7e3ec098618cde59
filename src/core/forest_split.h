#ifndef TREELOCAL_CORE_FOREST_SPLIT_H_
#define TREELOCAL_CORE_FOREST_SPLIT_H_

#include <cstdint>
#include <vector>

#include "src/core/decomposition.h"
#include "src/local/network.h"

namespace treelocal {

// Splits the atypical edges E1 into 2a forests F_1..F_{2a} (each node colors
// its <= 2a atypical edges toward higher neighbors with distinct colors),
// then 3-colors each forest's nodes with Cole-Vishkin in O(log* n) rounds
// and partitions F_i into F_{i,1}, F_{i,2}, F_{i,3} by the color of the
// higher endpoint. Every connected component of G[F_{i,j}] is a star
// centered at its highest node (Section 4 of the paper).
struct ForestSplitResult {
  // stars[i][j] = host-edge ids of F_{i+1, j+1}.
  std::vector<std::vector<std::vector<int>>> stars;
  // Per-edge forest index (0-based) and star class (0..2); -1 for typical.
  std::vector<int> forest_of_edge;
  std::vector<int> star_class_of_edge;
  int cv_rounds = 0;  // max over the forests (run in parallel in LOCAL)
  int num_forests = 0;
  // Message count and per-round counters of the fused multi-forest
  // Cole-Vishkin pass. round_seconds is captured when the host engine had
  // per-round timing armed (the sub-engine over the atypical CSR inherits
  // the setting).
  int64_t messages = 0;
  std::vector<local::RoundStats> round_stats;
  std::vector<double> round_seconds;
};

// Engine-native: ONE pass of a fused multi-forest Cole-Vishkin on one
// Network over the compacted atypical-edge graph, which holds only the
// endpoints of atypical edges (nodes without an atypical edge are never
// in it). The caller-owned host engine supplies the graph, the ids, the
// thread count and the round-timer setting; it runs no rounds here. Every
// node keeps a 2a-wide slot array of per-forest colors in the engine's
// state plane and exchanges, per round, one color per port (each atypical
// edge belongs to exactly one forest, so the port IS the forest's
// channel). All 2a forests advance in lockstep through the shared CV
// schedule — no per-forest Subgraph, Graph, or Network is ever built.
// Outputs (forest_of_edge, star_class_of_edge, stars,
// cv_rounds) are bit-identical for every thread count, and to the
// per-forest host-side reference in tests/oracle/ (enforced by the parity
// tests): each forest's color evolution depends only on that forest's
// parent/child colors, which the fused pass reproduces exactly.
ForestSplitResult SplitAtypicalForests(local::Network& net,
                                       const DecompositionResult& decomp,
                                       int a, int64_t id_space);

}  // namespace treelocal

#endif  // TREELOCAL_CORE_FOREST_SPLIT_H_
