#ifndef TREELOCAL_CORE_TRANSFORM_NODE_H_
#define TREELOCAL_CORE_TRANSFORM_NODE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/algos/base_algorithms.h"
#include "src/core/rake_compress.h"
#include "src/graph/graph.h"
#include "src/graph/labeling.h"
#include "src/problems/problem.h"

namespace treelocal {

// Theorem 12 pipeline for node problems (class P1) on trees:
//   1. Rake-and-compress with parameter k (Algorithm 1), O(log_k n) rounds.
//   2. Run the base algorithm A on the semi-graph T_C induced by the
//      compressed nodes (max degree <= k by Lemma 10): O(f(k) + log* n).
//   3. Algorithm 2 ("edge-list solver"): per connected component of T_R
//      (diameter O(log_k n) by Lemma 11), the highest node gathers the
//      component, completes the partial solution (the Pi^x instance) with
//      the problem's sequential greedy, and broadcasts it back.
// With k = g(n), the total is O(f(g(n)) + log* n) rounds. The entry points
// refuse a non-forest with std::invalid_argument before any engine runs.
struct Thm12Result {
  HalfEdgeLabeling labeling;
  bool valid = false;
  std::string why;

  int k = 0;
  int rounds_total = 0;
  int rounds_decomposition = 0;
  int rounds_base = 0;
  int rounds_gather = 0;

  // Total engine messages across the measured phases (decomposition +
  // base symmetry-breaking); the per-message engine cost the throughput
  // benches track.
  int64_t engine_messages = 0;

  RakeCompressResult rake_compress;
  BaseRunStats base_stats;
  int num_rake_components = 0;
  int max_rake_component_diameter = 0;
  int64_t num_compressed = 0;
  int64_t num_raked = 0;
};

// A one-k SolveNodeProblemOnTreeBatch: every engine phase on one host
// engine with `num_threads` lanes, the result identical for every T (the
// transcripts are bit-identical for every T; the gather is engine-free).
Thm12Result SolveNodeProblemOnTree(const NodeProblem& problem,
                                   const Graph& tree,
                                   const std::vector<int64_t>& ids,
                                   int64_t id_space, int k,
                                   int num_threads = 1);

// The same pipeline on a caller-owned host engine over (tree, ids) —
// net.graph() and net.ids() — with every phase on it, at its thread count
// (same result for every count). Mirrors the Thm 15 engine
// overload: repeated solves, any k, reuse one engine's mailboxes, which is
// how treelocald serves Thm 12 requests from a resident graph's engine.
Thm12Result SolveNodeProblemOnTree(const NodeProblem& problem,
                                   local::Network& net, int64_t id_space,
                                   int k);

// k-sweep: solves the same problem instance for every k in `ks` on one
// Network with `num_threads` lanes, built once for the whole sweep. Phase 1
// runs deduped (RunRakeCompressDeduped: one decomposition per distinct
// canonical k); phases 2-3 are completed per k on the same engine.
// results[b] is identical to SolveNodeProblemOnTree(problem, tree, ids,
// id_space, ks[b]) for every thread count. This is the form the k-ablation
// sweep uses.
std::vector<Thm12Result> SolveNodeProblemOnTreeBatch(
    const NodeProblem& problem, const Graph& tree,
    const std::vector<int64_t>& ids, int64_t id_space,
    const std::vector<int>& ks, int num_threads = 1);

}  // namespace treelocal

#endif  // TREELOCAL_CORE_TRANSFORM_NODE_H_
