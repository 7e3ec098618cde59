#ifndef TREELOCAL_LOCAL_BITPLANE_H_
#define TREELOCAL_LOCAL_BITPLANE_H_

#include <cstdint>
#include <vector>

#include "src/graph/graph.h"
#include "src/local/network.h"
#include "src/support/digest.h"

// Bit-plane batch execution: the batch dimension transposed into bit-planes
// so 64 instances advance per 64-bit word operation.
//
// Running B scalar instances, one after another or in one shared round
// loop, stays nearly flat (~1.1-1.3x for the shared loop) on dense
// broadcast rounds because each instance streams its own full-width state
// and 24-byte message slots — the regime is memory-bandwidth-bound. But
// the hot per-instance state of the round algorithms is tiny: Cole-Vishkin
// colors are 2-3 bits after one step, greedy forbidden sets are small
// masks, Linial membership is a bit test.
// This layer stores a batch's per-node algorithm state as BIT-PLANES:
// plane p holds bit p of all B instances for a node, packed into
// W = ceil(B/64) uint64_t words, laid out [node][plane][word]. Lane-major
// values enter and leave the planes through a 64x64 bit-matrix transpose at
// the load/store boundary; in between, every round is word-parallel — one
// AND/XOR/OR advances 64 instances at once, and bytes-per-instance-per-round
// drops from sizeof(state)+messages to (a few planes)/8.
//
// The determinism contract is non-negotiable: the runner SYNTHESIZES the
// full per-instance transcript (per-round RoundStats, message counts,
// level-0 digest chains) from the schedule it executes, and callers assert
// it bit-identical to scalar solo Network transcripts
// (ColeVishkin3ColorBatch; tests/bitplane_test.cc, bench_batch's identity
// gate). Message-content digest chains (NetworkOptions::digest_messages)
// are NOT supported here — hashing per-message content would reintroduce
// the per-instance scalar work the planes eliminate — so comparisons run
// at digest level 0, the engine default.
namespace treelocal::local::bitplane {

// In-place transpose of a 64x64 bit matrix: w[i] bit j  <->  w[j] bit i.
// The lane-major <-> plane-major conversion at the batch boundary.
void Transpose64(uint64_t w[64]);

// --- Cole-Vishkin word kernels -------------------------------------------

// One scalar Cole-Vishkin step: new color = 2*i + bit_i(mine) where i is
// the lowest bit index at which mine and parent differ. Exactly the step
// cole_vishkin.cc and the fused multi-forest CV apply; exposed as the
// scalar oracle of the word-parallel forms below.
int64_t CvStepScalar(int64_t mine, int64_t parent);

// Cole-Vishkin iteration count from an exclusive ID-space bound: the
// number of steps until colors are in {0..5}. Mirrors
// ColeVishkinIterations() in src/algos/cole_vishkin.cc (the two are pinned
// equal by tests/bitplane_test.cc; this copy keeps src/local free of
// src/algos includes).
int CvIterations(int64_t id_space);

// One CV step over `count` independent lanes: out[l] =
// CvStepScalar(mine[l], parent[l]) for every lane. Lanes with count >=
// kCvLanesPlaneThreshold are advanced through bit-planes (transpose,
// carry-chain lowest-differing-bit select, index re-encode, transpose
// back — 64 lanes per word-op); below the threshold a countr_zero scalar
// loop is cheaper than the fixed transpose cost. Both paths are
// bit-identical by construction and pinned so by tests. `out` may alias
// `mine`. Used by the fused multi-forest CV (src/core/forest_split.cc),
// whose lane dimension is the 2a forests a node participates in.
inline constexpr int kCvLanesPlaneThreshold = 32;
void CvStepLanes(const int64_t* mine, const int64_t* parent, int64_t* out,
                 int count);

// --- greedy first-fit mask scan ------------------------------------------

// Smallest color c >= 1 that does not appear in forbidden[0..count).
// Chunked 64-bit bitmask + countr_one first-zero scan instead of the
// sort + linear walk the greedy assigners used: first-fit always returns
// c <= count+1, so a mask of count+1 bits is complete and values outside
// [1, count+1] cannot affect the answer. This is the solo-path scan of
// EdgeColoringProblem::SequentialAssignEdge / ColoringProblem::
// SequentialAssign, and the scalar oracle for word-wide forbidden masks.
int FirstMissingColor(const int64_t* forbidden, int count);

// --- the bit-plane Cole-Vishkin batch runner ------------------------------

// Per-instance transcript, field-compatible with what a solo Network
// running CvAlgorithm reports: the identity gate compares every field.
struct CvInstanceTranscript {
  std::vector<int> colors;              // final colors, in {0,1,2}
  int rounds = 0;                       // engine rounds executed
  int64_t messages = 0;                 // messages delivered
  std::vector<RoundStats> round_stats;  // per-round {active, sent}
  std::vector<uint64_t> round_digests;  // level-0 digest chain
  uint64_t last_digest = support::kDigestSeed;
};

// Runs B instances of the exact CvAlgorithm round plan (src/algos/
// cole_vishkin.cc) over one shared rooted forest, instances as bit-plane
// lanes. Instance b runs with its own ID assignment ids[b] (values in
// [0, id_space[b])) and its own schedule length K_b = CvIterations(
// id_space[b]) — instances with shorter schedules halt and drop out while
// longer ones continue. Per-round plane counts follow the CV color-width
// schedule (width shrinks monotonically from BitLength(id_space-1) to 3),
// so late rounds touch 3 planes per node instead of full-width state.
//
// The object owns the plane buffers and is reusable: repeated Run calls
// (any batch width) reuse capacity, like the engines.
class BitplaneCvBatch {
 public:
  // `parent[v]` is v's orientation parent or -1 at roots; forest edges must
  // be exactly {v, parent[v]} (same contract as ColeVishkin3Color).
  BitplaneCvBatch(const Graph& forest, std::vector<int> parent);

  // ids.size() is the batch width B >= 1; ids[b].size() must equal
  // NumNodes() and id_space[b] must upper-bound ids[b] exclusively.
  // Returns one synthesized transcript per instance.
  std::vector<CvInstanceTranscript> Run(
      const std::vector<std::vector<int64_t>>& ids,
      const std::vector<int64_t>& id_space);

  const Graph& graph() const { return *graph_; }

 private:
  const Graph* graph_;
  std::vector<int> parent_;
  // Double-buffered color planes, [node][plane][word] with a per-round
  // stride; sized n * max_planes * W on first Run, reused afterwards.
  std::vector<uint64_t> prev_, next_;
};

// Convenience one-shot form.
std::vector<CvInstanceTranscript> RunColeVishkinBitplaneBatch(
    const Graph& forest, const std::vector<int>& parent,
    const std::vector<std::vector<int64_t>>& ids,
    const std::vector<int64_t>& id_space);

}  // namespace treelocal::local::bitplane

#endif  // TREELOCAL_LOCAL_BITPLANE_H_
