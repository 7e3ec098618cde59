#ifndef TREELOCAL_ALGOS_BASE_ALGORITHMS_H_
#define TREELOCAL_ALGOS_BASE_ALGORITHMS_H_

#include <cstdint>
#include <vector>

#include "src/graph/labeling.h"
#include "src/graph/semigraph.h"
#include "src/local/network.h"
#include "src/problems/problem.h"

namespace treelocal {

// The truly local base algorithms "A" required by Theorems 12 and 15: they
// solve Pi on a semi-graph S in O(f(Delta_S) + log* n) rounds, where
// Delta_S is the maximum degree of S's underlying graph.
//
// Construction: Linial color reduction on the underlying graph (node
// problems) or its line graph (edge problems) in O(log* n) rounds to
// m = O(Delta^2 log^2 Delta) colors, then an m-round color-class sweep of
// the problem's 1-hop greedy. Hence f(Delta) = Theta(Delta^2 log^2 Delta)
// here; the paper's Theorem 3 instead plugs in the polylog(Delta) algorithm
// of [BBKO22b], which we model separately (see core/complexity.h and
// DESIGN.md substitution #1).
//
// RunNodeBase / RunEdgeBase are engine-native: the symmetry breaking runs
// as an engine Algorithm over the host engine's induced ports (node case)
// or over the underlying graph's line graph (edge case), and the class
// sweep runs as an engine Algorithm on the HOST engine: in round t the
// class-t elements gather their 1-hop labels and decide locally, then
// announce the chosen labels on their channels. Elements drop out of the
// worklist right after their class round, so the engine executes O(sum of
// decision ranks) work — while the CHARGED LOCAL cost stays the honest
// num_colors rounds (nodes know the schedule length but not which classes
// are globally empty). The overloads taking an engine reuse the caller's
// mailboxes (no steady-state reallocation); the SemiGraph overloads
// construct a host engine internally. tests/oracle/ holds the host-side
// reference (compacted Subgraph + sequential sorted sweep) that the parity
// tests require these to match bit for bit.
struct BaseRunStats {
  int rounds = 0;         // total engine rounds charged to the base phase
  int linial_rounds = 0;  // symmetry-breaking part (the log* n term)
  int64_t num_classes = 0;  // sweep part (the f(Delta) term)
  int underlying_max_degree = 0;
  int64_t messages = 0;  // engine messages of the symmetry-breaking part
  // Messages and per-round counters of the class sweep's engine pass (the
  // sweep executes <= num_classes rounds; the tail beyond the last nonempty
  // class is charged but not simulated), plus the symmetry-breaking pass's
  // counters.
  int64_t sweep_messages = 0;
  std::vector<local::RoundStats> linial_round_stats;
  std::vector<local::RoundStats> sweep_round_stats;
};

// Solves a NodeProblem on semi-graph `semi`, labeling every present
// half-edge. `host_ids` are the LOCAL IDs on the host graph; `id_space` is
// their exclusive upper bound. Engine-native (constructs a host engine).
BaseRunStats RunNodeBase(const NodeProblem& problem, const SemiGraph& semi,
                         const std::vector<int64_t>& host_ids,
                         int64_t id_space, HalfEdgeLabeling& h);

// Engine-native on a caller-owned host engine over semi.host() with the
// host IDs (the engine's graph/ids are the source of truth), at the
// engine's thread count. Used by the pipelines to reuse one engine across
// phases and by the benches to arm per-round timing.
BaseRunStats RunNodeBase(local::Network& net, const NodeProblem& problem,
                         const SemiGraph& semi, int64_t id_space,
                         HalfEdgeLabeling& h);

// Solves an EdgeProblem on semi-graph `semi` (edge-induced; all ranks 2),
// labeling both half-edges of every contained edge. Symmetry breaking runs
// on the line graph; reported rounds include the factor-2 line-graph
// simulation overhead. Engine-native (constructs a host engine).
BaseRunStats RunEdgeBase(const EdgeProblem& problem, const SemiGraph& semi,
                         const std::vector<int64_t>& host_ids,
                         int64_t id_space, HalfEdgeLabeling& h);

// Engine-native on a caller-owned host engine (see RunNodeBase); the
// line-graph symmetry breaking runs on its own engine at the host's thread
// count.
BaseRunStats RunEdgeBase(local::Network& net, const EdgeProblem& problem,
                         const SemiGraph& semi, int64_t id_space,
                         HalfEdgeLabeling& h);

}  // namespace treelocal

#endif  // TREELOCAL_ALGOS_BASE_ALGORITHMS_H_
