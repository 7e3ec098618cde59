#ifndef TREELOCAL_LOCAL_SNAPSHOT_H_
#define TREELOCAL_LOCAL_SNAPSHOT_H_

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/graph/graph.h"
#include "src/graph/graph_view.h"
#include "src/local/network.h"

namespace treelocal::local {

// Versioned binary snapshot of an engine run at a round boundary — the
// wire form of the determinism contract. A snapshot captures everything
// needed to resume the run in a fresh process-equivalent engine and
// continue bit-identically: the graph (full edge list, so the standalone
// verifier needs no original driver), IDs, per-instance halt flags,
// engine-managed state planes, the messages deliverable in the next round,
// the full per-round counter history, and the transcript digest chain.
//
// The image is CANONICAL: everything is keyed by external node ids and
// ports, never by engine-internal layout. One engine class serializes to
// the same bytes for the same run regardless of relabel or thread count,
// and different engine classes differ ONLY in the informational
// engine_kind header field — the payload sections are byte-identical.
// That is what lets a checkpoint taken by one engine configuration resume
// on another, and what makes "final snapshots identical up to the engine
// tag" the strongest form of the bit-identity gate (the tests normalize
// the tag and compare everything else).
//
// File layout (version 2, little-endian, fixed-width):
//   magic (8) | version (4) | flags (4) | engine_kind (4) | batch (4) |
//   round (4) | finished (4) | n (4) | m (8) | graph_hash (8) |
//   ids_hash (8) | edges (2m * 4) | ids (n * 8) | per-instance sections |
//   file FNV-1a over all preceding bytes (8)
// Per-instance section:
//   messages_delivered (8) | rounds_completed (4) | round_count (4) |
//   per round: active (4) | sent (8) | visits (8) | decisions (8) |
//   msg_acc (8) | digest (8) |
//   halted (n * 1) | wake (n * 4) | state_stride (4) | state (n * stride) |
//   deliverable_count (4) | per message: node (4) | port (4) | word0 (8) |
//   word1 (8) | size (1)
//
// Version history: v1 had no wake section and 28-byte round records
// (active | sent | msg_acc | digest). v2 adds the per-node wake plane and
// the visits/decisions observability counters. This build reads only its
// own version — older or newer payloads throw SnapshotVersionError naming
// both versions, never a silent misparse.
//
// The wake plane is canonical like everything else: external-indexed,
// halted nodes record 0, and live nodes record their wake round
// W >= snap.round (kNoWakeRound = parked until a message arrives).
// W == snap.round means "awake at the boundary", which is every live node
// of a dense run and of a run that ignores sleeps (wake_scheduling off). A
// resume that ignores sleeps wakes every live node at the boundary; any
// other resume rebuilds its calendar from the plane — so scheduling
// configuration, like engine class, is a resume-side choice, not a
// snapshot property.
//
// ReadSnapshot validates the trailing file hash first (any truncation or
// bit flip fails cleanly), then parses with bounds checks and validates
// structural invariants including the digest chain linkage. All failures
// throw SnapshotError with a descriptive message — never UB.

// Thrown on any snapshot serialization, parse, or validation failure, and
// by the engines' Checkpoint/Resume on contract violations (mismatched
// graph hash, wrong state stride, checkpoint of an unpaused engine, ...).
class SnapshotError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline constexpr uint64_t kSnapshotMagic = 0x315041'4e534c54ull;  // "TLSNAP01"
inline constexpr uint32_t kSnapshotVersion = 2;

// Thrown when a payload carries a version this build does not read —
// whether an old v1 file or a future format. Structured so callers can
// tell "wrong version" apart from corruption and report both numbers.
class SnapshotVersionError : public SnapshotError {
 public:
  SnapshotVersionError(uint32_t found, uint32_t expected)
      : SnapshotError("unsupported snapshot version " + std::to_string(found) +
                      " (this build reads version " + std::to_string(expected) +
                      " only)"),
        found_(found),
        expected_(expected) {}
  uint32_t found() const { return found_; }
  uint32_t expected() const { return expected_; }

 private:
  uint32_t found_;
  uint32_t expected_;
};

// flags bit 0: the digest chain folds full message contents
// (NetworkOptions::digest_messages); resume requires a matching setting.
inline constexpr uint32_t kSnapshotFlagDigestMessages = 1u << 0;

// Informational engine tag (not enforced on resume — the image is
// canonical, so any engine configuration can pick the run up). Network
// writes kNetwork at every thread count; ReferenceNetwork writes
// kReferenceNetwork. kParallelNetwork and kBatchNetwork are read-compat
// only: earlier builds wrote them (Network at more than one lane, and the
// retired batch engine) and no engine writes them now. Their files still
// parse, and a single-instance one resumes on Network like any other tag.
enum class SnapshotEngineKind : uint32_t {
  kNetwork = 0,
  kParallelNetwork = 1,
  kBatchNetwork = 2,
  kReferenceNetwork = 3,
};

// One message deliverable in the round the snapshot pauses before, keyed
// by the RECEIVER's external (node, port). Sorted by (node, port) in the
// canonical byte stream. size == 0 entries are legal (an explicitly sent
// empty message still stamps its channel).
struct SnapshotMessage {
  int32_t node = 0;
  int32_t port = 0;
  int64_t word0 = 0;
  int64_t word1 = 0;
  uint8_t size = 0;

  friend bool operator==(const SnapshotMessage&,
                         const SnapshotMessage&) = default;
};

// One round of transcript history: the RoundStats the engines already
// record, the round's message-content accumulator, and the chained digest
// (see src/support/digest.h — digest[r] = ChainDigest(digest[r-1],
// active, sent, msg_acc), seeded with support::kDigestSeed).
struct SnapshotRound {
  RoundStats stats;
  uint64_t msg_acc = 0;
  uint64_t digest = 0;

  friend bool operator==(const SnapshotRound&, const SnapshotRound&) = default;
};

// In-memory canonical image. Engines build/apply it; WriteSnapshot /
// ReadSnapshot move it to and from the versioned byte format.
struct SnapshotData {
  uint32_t version = kSnapshotVersion;
  SnapshotEngineKind engine_kind = SnapshotEngineKind::kNetwork;
  bool digest_messages = false;
  bool finished = false;   // all instances halted every node
  int32_t batch = 1;       // instance count; every engine writes and
                           // resumes 1 (old batch files may hold more)
  int32_t round = 0;       // rounds executed so far (resume continues here)
  int32_t n = 0;
  int64_t m = 0;
  uint64_t graph_hash = 0;
  uint64_t ids_hash = 0;
  std::vector<std::pair<int32_t, int32_t>> edges;  // canonical, see GraphHash
  std::vector<int64_t> ids;

  struct Instance {
    int64_t messages_delivered = 0;
    // The run's round count once it finished, 0 while live.
    int32_t rounds_completed = 0;
    std::vector<SnapshotRound> rounds;
    std::vector<char> halted;             // n entries, external-indexed
    // Canonical per-node wake rounds (n entries, external-indexed): 0 for
    // halted nodes, the node's wake round W >= snap.round (kNoWakeRound
    // for parked) for live ones. See the layout comment above.
    std::vector<int32_t> wake;
    uint32_t state_stride = 0;
    std::vector<unsigned char> state;     // n * state_stride bytes
    std::vector<SnapshotMessage> deliverable;

    friend bool operator==(const Instance&, const Instance&) = default;
  };
  std::vector<Instance> instances;  // exactly `batch` entries

  friend bool operator==(const SnapshotData&, const SnapshotData&) = default;
};

// Canonical hashes binding a snapshot to its inputs: FNV-1a over (n, m,
// the canonical edge list) and over the raw id words. The canonical edge
// list is every edge as (min, max), sorted ascending — the order-free form
// both backends share (Graph numbers edges in input order, CompactGraph by
// sorted (min, max)) and the snapshot's edge section. So the graph hash
// names the topology, not a backend's edge numbering, and a checkpoint
// taken over either backend resumes on the other. (Before the hash was canonical it
// followed the backend's edge order; checkpoints of Graph engines built
// from unsorted edge lists written then no longer validate.)
uint64_t GraphHash(GraphView g);
uint64_t IdsHash(const std::vector<int64_t>& ids);

// Serializes to the versioned byte format, appending the integrity hash.
void WriteSnapshot(std::ostream& out, const SnapshotData& snap);

// Parses and fully validates a snapshot: integrity hash, magic, version,
// section sizes, endpoint/port/halt ranges, digest chain linkage. Throws
// SnapshotError on any defect; a valid return is safe to hand to an
// engine's Resume or to ReconstructGraph.
SnapshotData ReadSnapshot(std::istream& in);

// Rebuilds the Graph a snapshot was taken over (validating endpoints via
// Graph::FromEdges) and checks it against the stored graph_hash. The
// standalone verifier replays from this — no original driver needed.
Graph ReconstructGraph(const SnapshotData& snap);

namespace internal {

// Fills the input sections every engine's snapshot shares: n, m, both
// hashes, the canonical edge list, and the ids.
void SetInputSections(GraphView g, const std::vector<int64_t>& ids,
                      SnapshotData& snap);

// Validates a parsed snapshot against the engine about to resume it:
// graph/ids hashes, a single instance (snap.batch == 1) with one round
// record per executed round, digest-messages flag, and per-message port
// ranges against the engine's actual degrees.
// Throws SnapshotError.
void ValidateForEngine(const SnapshotData& snap, GraphView g,
                       const std::vector<int64_t>& ids, bool digest_messages,
                       const char* engine_name);

}  // namespace internal

}  // namespace treelocal::local

#endif  // TREELOCAL_LOCAL_SNAPSHOT_H_
