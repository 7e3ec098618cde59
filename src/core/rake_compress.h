#ifndef TREELOCAL_CORE_RAKE_COMPRESS_H_
#define TREELOCAL_CORE_RAKE_COMPRESS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/graph/graph.h"
#include "src/graph/graph_view.h"
#include "src/local/network.h"

namespace treelocal {

// Rake-and-compress process of [CHL+19] (Algorithm 1 in the paper), run as a
// LOCAL engine algorithm on a tree with parameter k >= 2:
//   iteration i: Compress marks unmarked u if deg(u) <= k and every unmarked
//   neighbor has degree <= k; then Rake marks unmarked u if it has at most
//   one unmarked non-compressed neighbor left.
// Each iteration costs 3 engine rounds (degree exchange, compress
// announcements, rake announcements). Lemma 9 guarantees termination within
// ceil(log_k n) + 1 iterations.
struct RakeCompressResult {
  // 1-based iteration in which the node was marked.
  std::vector<int> iteration;
  // True if marked by Compress, false if by Rake.
  std::vector<char> compressed;
  int num_iterations = 0;  // iterations actually used
  int engine_rounds = 0;   // 3 * num_iterations
  int64_t messages = 0;
  // Engine trajectory: per-round active-node and message counters. Most of
  // the tree halts in early iterations, so active_nodes decays geometrically
  // — the benches check simulation cost tracks this, not n.
  std::vector<local::RoundStats> round_stats;

  // Total order of Algorithm 1's layers: C_1 < R_1 < C_2 < R_2 < ...
  // layer(v) = 2*(iteration-1) + (compressed ? 1 : 2).
  int Layer(int v) const {
    return 2 * (iteration[v] - 1) + (compressed[v] ? 1 : 2);
  }

  // Node total order: by layer, ties by ID (higher ID = higher node).
  bool Lower(int u, int v, const std::vector<int64_t>& ids) const {
    int lu = Layer(u), lv = Layer(v);
    if (lu != lv) return lu < lv;
    return ids[u] < ids[v];
  }
};

// `tree` must be a forest (every connected component is handled
// independently, matching the paper's per-tree statement). Accepts either
// graph backend via the implicit GraphView conversions.
RakeCompressResult RunRakeCompress(GraphView tree,
                                   const std::vector<int64_t>& ids, int k);

// Same process on a caller-owned engine of either class (net.view() must
// be a forest) — bit-identical for every engine and thread count. Repeated
// calls reuse the engine's mailboxes with no reallocation — the form the
// throughput benches use; the differential tests and engine benchmarks
// pass the naive ReferenceNetwork.
RakeCompressResult RunRakeCompress(local::Engine& net, int k);

// k-sweep with shared-transcript dedup on a caller-owned engine:
// parameters that PROVABLY produce identical transcripts share one run,
// and results are fanned back out. Two parameters are provably identical
// when they are equal, or both >= the forest's maximum degree Delta — with
// k >= Delta every node passes the Compress predicate in iteration 1 (all
// degrees <= Delta <= k), so the transcript no longer depends on k. The
// engine thus runs RunRakeCompress(net, k) once per distinct
// min(k, max(Delta, 2)) instead of once per k, one run after another;
// sweeps whose tails sit above Delta (Theorem 12's k-ablation is exactly
// such a sweep) save the rest. Every k is validated, deduped or not.
// results[i] is bit-identical to RunRakeCompress(net, ks[i]), enforced by
// tests.
std::vector<RakeCompressResult> RunRakeCompressDeduped(
    local::Network& net, const std::vector<int>& ks);

// The dedup's canonicalization rule, shared with the benches: two
// parameters are provably transcript-identical iff their canonical forms
// are equal (min(k, max_degree), floored at the smallest valid k = 2).
int RakeCompressCanonicalK(int k, int max_degree);

// Convenience form constructing the reference engine internally.
RakeCompressResult RunRakeCompressReference(GraphView tree,
                                            const std::vector<int64_t>& ids,
                                            int k);

// The bare engine Algorithm behind all of the drivers above (k >= 2). It
// needs no graph: every degree comes from the engine's NodeContext. For
// callers that need to drive the engine directly — the standalone
// transcript verifier replays checkpointed runs through this without any
// of the result plumbing.
std::unique_ptr<local::Algorithm> MakeRakeCompressAlgorithm(int k);

// Paper bound on iterations (Lemma 9 / Algorithm 1 loop count).
int RakeCompressIterationBound(int64_t n, int k);

}  // namespace treelocal

#endif  // TREELOCAL_CORE_RAKE_COMPRESS_H_
