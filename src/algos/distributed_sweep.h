#ifndef TREELOCAL_ALGOS_DISTRIBUTED_SWEEP_H_
#define TREELOCAL_ALGOS_DISTRIBUTED_SWEEP_H_

#include <cstdint>
#include <vector>

#include "src/graph/labeling.h"
#include "src/local/network.h"
#include "src/problems/problem.h"

namespace treelocal {

// Literal engine execution of a node-problem color-class sweep: in round t,
// the nodes of color class t run the problem's 1-hop greedy against the
// labels they have *received* so far, then send each neighbor the label
// they chose on the shared edge. Every node halts after round
// num_colors - 1 (the schedule length is global knowledge).
//
// This is the message-level ground truth for the accounted
// SweepNodeClasses helper: tests assert both produce identical labelings,
// and that the literal run costs exactly `num_colors` engine rounds —
// which is what the pipelines charge.
struct DistributedSweepResult {
  HalfEdgeLabeling labeling;
  int rounds = 0;
  int64_t messages = 0;
  // Per-round active-node/message counters from the engine run.
  std::vector<local::RoundStats> round_stats;
};

// `colors[v]` in [0, num_colors) for every node of `g`; `ids` are the LOCAL
// identifiers. Labels every half-edge of `g` (all nodes participate). Runs
// on an engine with `num_threads` lanes; bit-identical for every thread
// count (engine parity tests).
DistributedSweepResult RunDistributedNodeSweep(
    const NodeProblem& problem, const Graph& g,
    const std::vector<int64_t>& ids, const std::vector<int64_t>& colors,
    int64_t num_colors, int num_threads = 1);

// Same run on the naive ReferenceNetwork; bit-identical by contract and
// asserted so by the engine parity tests.
DistributedSweepResult RunDistributedNodeSweepReference(
    const NodeProblem& problem, const Graph& g,
    const std::vector<int64_t>& ids, const std::vector<int64_t>& colors,
    int64_t num_colors);

}  // namespace treelocal

#endif  // TREELOCAL_ALGOS_DISTRIBUTED_SWEEP_H_
