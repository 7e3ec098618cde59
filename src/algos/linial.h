#ifndef TREELOCAL_ALGOS_LINIAL_H_
#define TREELOCAL_ALGOS_LINIAL_H_

#include <cstdint>
#include <vector>

#include "src/graph/graph.h"
#include "src/local/induced.h"
#include "src/local/network.h"

namespace treelocal {

// Linial's deterministic color reduction [Lin92] via polynomial set systems:
// starting from distinct IDs in [0, id_space), each step maps an m-coloring
// to a q^2-coloring where q is a prime with q > Delta*d and q^{d+1} >= m
// (each color becomes the point set {(x, P_c(x))}; a node picks a point not
// shared with any neighbor, which exists since two degree-<=d polynomials
// agree on at most d points). O(log* n) steps to O(Delta^2 log^2 Delta)
// colors; this is the O(f(Delta) + log* n) engine behind every base
// algorithm "A" in this repository.
struct LinialStep {
  int64_t q = 0;  // prime
  int d = 0;      // polynomial degree bound
};

struct LinialSchedule {
  std::vector<LinialStep> steps;
  int64_t final_colors = 0;  // m after the last step
};

// Deterministic schedule from (id_space, max_degree); identical at every
// node, which is what makes simultaneous termination legal in LOCAL.
LinialSchedule BuildLinialSchedule(int64_t id_space, int max_degree);

struct LinialResult {
  std::vector<int64_t> colors;  // proper coloring, values in [0, num_colors)
  int64_t num_colors = 0;
  int rounds = 0;
  int64_t messages = 0;  // engine messages delivered
  // Per-round engine counters (parity-checked against the reference engine).
  std::vector<local::RoundStats> round_stats;
};

// Runs Linial color reduction on a caller-built engine of either class
// over a CSR graph (net.graph()), starting from its distinct ids
// (net.ids(), each at most id_space). Bit-identical for every engine and
// thread count (asserted by the engine parity tests).
LinialResult RunLinial(local::Engine& net, int64_t id_space);

// Linial color reduction on a SUBSTRUCTURE of a caller-owned host engine:
// the nodes with participant[v] != 0 reduce colors over the induced port
// CSR `ports` (their edges within the substructure), everyone else halts in
// round 0. This is how the base layer runs its symmetry breaking on the
// semi-graph's underlying graph without compacting a Subgraph and building
// a second Network: the host engine's channel tables are reused, and the
// schedule is derived from ports.max_degree (the underlying graph's Delta),
// not the host's. Initial colors are net.ids(); result.colors is
// HOST-node-indexed (meaningful at participants). Outputs are bit-identical
// to RunLinial over the explicitly compacted underlying graph (enforced by
// the edge-pipeline parity tests), because a Linial step's chosen point
// depends only on the set of neighbor colors, never on their order.
// Precondition: every edge of `ports` has both endpoints participating.
LinialResult RunLinialInduced(local::Network& net,
                              const local::InducedPortCsr& ports,
                              const std::vector<char>& participant,
                              int64_t id_space);

}  // namespace treelocal

#endif  // TREELOCAL_ALGOS_LINIAL_H_
