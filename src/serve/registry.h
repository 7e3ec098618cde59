#ifndef TREELOCAL_SERVE_REGISTRY_H_
#define TREELOCAL_SERVE_REGISTRY_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/graph/graph.h"
#include "src/local/network.h"

namespace treelocal::serve {

// A graph admitted once and resident while the daemon keeps it. Admission
// is the expensive, validated step (Graph::FromEdges rejects bad edge
// lists); every subsequent solve against the key reuses the CSR graph and
// id assignment with zero per-request parsing. Admission also builds the
// graph's engine: one solo Network in the engine's default BFS layout, so
// the locality permutation and the channel tables are computed once per
// admitted graph, and every request of every kind runs on it. The engine
// dies with the entry.

struct ResidentGraph {
  uint64_t key = 0;
  Graph graph;
  std::vector<int64_t> ids;
  int64_t id_space = 0;  // strict upper bound on the ids
  bool is_forest = false;
  int max_degree = 0;
  // The quota accounting unit: CSR + id assignment + the engine's
  // EngineMemory() at admission. Besides the per-round run log, the only
  // bytes it leaves out are the state plane, n x StateBytes, which the
  // engine's first runs arm.
  size_t memory_bytes = 0;
  // Over `graph` and `ids` (declared after them, so destroyed first). Only
  // the dispatcher thread runs it; the pointer itself never changes, so a
  // shared const entry still hands out a mutable engine.
  std::unique_ptr<local::Network> engine;
};

// Thread-safe content-addressed graph store. The key is an FNV-1a hash of
// the canonicalized edge list and ids, so re-registering identical content
// from any connection returns the same key (and `fresh = false`) instead of
// a second copy.
//
// Residency is bounded by Options: when admitting a fresh graph would
// exceed max_graphs or max_bytes, idle entries (no outstanding
// shared_ptr reference — i.e. no queued or running solve) are evicted in
// least-recently-used order until it fits. If every resident graph is
// busy, admission fails with AdmitResult::kOverQuota and a message naming
// the counts — the caller surfaces it as a structured retry signal
// (Status::kRejected on the wire) rather than growing without bound.
// Entries are handed out as shared_ptr, so an eviction never invalidates
// an in-flight solve: the dispatcher's reference keeps the graph alive
// until its last ticket finishes, and the evicted key simply re-registers
// fresh next time.
class Registry {
 public:
  struct Options {
    size_t max_graphs = 0;  // 0 = unlimited
    size_t max_bytes = 0;   // 0 = unlimited; sum of ResidentGraph::memory_bytes
    // Lane count of every resident graph's engine (Network num_threads);
    // results are bit-identical for every value.
    int engine_threads = 1;
    // Deterministic fault injection into every resident graph's engine runs
    // (the bench's negative control: an injected fault must surface as
    // kFailed, never as a wrong digest). Non-owning; null = no faults.
    support::FaultInjector* fault = nullptr;
  };

  enum class AdmitResult : uint8_t {
    kAdmitted = 0,   // resident (fresh or coalesced onto existing content)
    kInvalid = 1,    // edge list / ids rejected at validation
    kOverQuota = 2,  // quota full and no idle graph to evict
  };

  Registry() = default;
  explicit Registry(const Options& options) : options_(options) {}

  // Validates and admits an edge list. `ids` empty means the server assigns
  // 0..n-1 (the transcript_verify record convention, so daemon digests are
  // directly comparable to recorded solo runs). Returns the resident entry,
  // or null with *result and *error set when the edge list or ids are
  // rejected (kInvalid) or the quota cannot admit it (kOverQuota).
  std::shared_ptr<const ResidentGraph> Register(
      int32_t n, std::vector<std::pair<int32_t, int32_t>> edges,
      std::vector<int64_t> ids, bool* fresh, AdmitResult* result,
      std::string* error);

  // Looks up an admitted graph (refreshing its LRU position); null if
  // unknown or already evicted.
  std::shared_ptr<const ResidentGraph> Find(uint64_t key);

  size_t size() const;
  size_t resident_bytes() const;
  uint64_t evictions() const;

 private:
  struct Entry {
    std::shared_ptr<const ResidentGraph> graph;
    uint64_t last_used = 0;
  };

  // Evicts idle LRU entries until `incoming_bytes` more fits under both
  // caps; false if the quota still cannot accommodate it. Caller holds mu_.
  bool MakeRoomLocked(size_t incoming_bytes, std::string* error);

  Options options_;
  mutable std::mutex mu_;
  uint64_t tick_ = 0;  // LRU clock, bumped on every touch
  size_t bytes_ = 0;
  uint64_t evictions_ = 0;
  std::unordered_map<uint64_t, Entry> graphs_;
};

}  // namespace treelocal::serve

#endif  // TREELOCAL_SERVE_REGISTRY_H_
