#ifndef TREELOCAL_CORE_TRANSFORM_EDGE_H_
#define TREELOCAL_CORE_TRANSFORM_EDGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/algos/base_algorithms.h"
#include "src/core/decomposition.h"
#include "src/core/forest_split.h"
#include "src/graph/graph.h"
#include "src/graph/labeling.h"
#include "src/local/network.h"
#include "src/problems/problem.h"

namespace treelocal {

// Theorem 15 pipeline for edge problems (class P2) on graphs of arboricity
// at most a:
//   1. Decomposition (Algorithm 3) with b = 2a and parameter k,
//      O(log_{k/a} n) rounds; classify edges into typical E2 / atypical E1.
//   2. Base algorithm A on the semi-graph G[E2] (max degree <= k by
//      Lemma 14): O(f(k) + log* n) rounds.
//   3. Split E1 into 2a forests and 3-color each (O(log* n)); every
//      G[F_{i,j}] component is a star.
//   4. Algorithm 4 ("node-list solver"): for (i,j) in order, solve the Pi*
//      instance on each star by gathering at the center (O(1) rounds per
//      stage, 6a stages total).
// With k = g(n)^rho, the total is O(a + rho*f(g^rho)/(rho - log_g a) +
// log* n) rounds; on trees (a=1) this is O(f(g(n)) + log* n).
//
// The pipeline is ENGINE-NATIVE: phases 1-3 all execute on ONE host
// LOCAL engine (the decomposition rounds, the base's class sweep, and the
// fused multi-forest Cole-Vishkin reuse the same channel tables and
// mailboxes, so repeated solves on one engine do no steady-state
// reallocation; only the base's line-graph symmetry breaking runs on its
// own small engine, since its topology is not the host's). Outputs are
// bit-identical to the host-side reference composition in tests/oracle/
// (tests/edge_pipeline_parity_test.cc).
struct Thm15Result {
  HalfEdgeLabeling labeling;
  bool valid = false;
  std::string why;

  int a = 0;
  int k = 0;
  int rounds_total = 0;
  int rounds_decomposition = 0;
  int rounds_base = 0;
  int rounds_split = 0;   // forest split + Cole-Vishkin
  int rounds_gather = 0;  // sum over the 6a star stages

  // Total engine messages across the measured phases (decomposition +
  // base symmetry-breaking).
  int64_t engine_messages = 0;

  DecompositionResult decomposition;
  BaseRunStats base_stats;
  ForestSplitResult split;
  int64_t num_typical = 0;
  int64_t num_atypical = 0;

  // Per-phase wall-clock round trajectories of the HOST engine, captured
  // when the caller armed set_record_round_times on a caller-owned engine
  // (empty otherwise; the engine-constructing entry points never time).
  std::vector<double> round_seconds_decomposition;
  std::vector<double> round_seconds_base_sweep;
  std::vector<double> round_seconds_split;
};

// Engine-native, constructs the host engine internally with `num_threads`
// lanes; bit-identical for every T.
Thm15Result SolveEdgeProblemBoundedArboricity(const EdgeProblem& problem,
                                              const Graph& g,
                                              const std::vector<int64_t>& ids,
                                              int64_t id_space, int a, int k,
                                              int num_threads = 1);

// Engine-native on a caller-owned host engine over (g, ids) — reused across
// all three engine phases and across repeated solves (bench drivers arm
// per-round timing on it).
Thm15Result SolveEdgeProblemBoundedArboricity(const EdgeProblem& problem,
                                              local::Network& net,
                                              int64_t id_space, int a, int k);

}  // namespace treelocal

#endif  // TREELOCAL_CORE_TRANSFORM_EDGE_H_
