#include "src/serve/registry.h"

#include <algorithm>
#include <stdexcept>

#include "src/graph/algorithms.h"
#include "src/support/digest.h"

namespace treelocal::serve {
namespace {

// Content key over the canonicalized (sorted, endpoint-ordered) edge list
// and the id assignment. Canonicalizing first makes the key independent of
// the order the client happened to stream edges in, so two clients
// registering the same graph coalesce onto one resident entry.
uint64_t ContentKey(int32_t n,
                    const std::vector<std::pair<int32_t, int32_t>>& edges,
                    const std::vector<int64_t>& ids) {
  uint64_t h = support::Fnv1a64(&n, sizeof n);
  std::vector<std::pair<int32_t, int32_t>> canon(edges);
  for (auto& [u, v] : canon) {
    if (u > v) std::swap(u, v);
  }
  std::sort(canon.begin(), canon.end());
  if (!canon.empty()) {
    h = support::Fnv1a64(canon.data(),
                         canon.size() * sizeof(canon[0]), h);
  }
  if (!ids.empty()) {
    h = support::Fnv1a64(ids.data(), ids.size() * sizeof(ids[0]), h);
  }
  return h;
}

}  // namespace

bool Registry::MakeRoomLocked(size_t incoming_bytes, std::string* error) {
  const auto over = [&] {
    return (options_.max_graphs != 0 &&
            graphs_.size() + 1 > options_.max_graphs) ||
           (options_.max_bytes != 0 &&
            bytes_ + incoming_bytes > options_.max_bytes);
  };
  while (over()) {
    // Idle = the registry holds the only reference; a graph with a queued
    // or running ticket keeps a dispatcher-side shared_ptr and is skipped.
    auto victim = graphs_.end();
    for (auto it = graphs_.begin(); it != graphs_.end(); ++it) {
      if (it->second.graph.use_count() != 1) continue;
      if (victim == graphs_.end() ||
          it->second.last_used < victim->second.last_used) {
        victim = it;
      }
    }
    if (victim == graphs_.end()) {
      *error = "graph quota exceeded: " + std::to_string(graphs_.size()) +
               " resident (cap " + std::to_string(options_.max_graphs) +
               "), " + std::to_string(bytes_) + " bytes resident (cap " +
               std::to_string(options_.max_bytes) + "), incoming " +
               std::to_string(incoming_bytes) +
               " bytes, and no idle graph to evict";
      return false;
    }
    bytes_ -= victim->second.graph->memory_bytes;
    graphs_.erase(victim);
    ++evictions_;
  }
  return true;
}

std::shared_ptr<const ResidentGraph> Registry::Register(
    int32_t n, std::vector<std::pair<int32_t, int32_t>> edges,
    std::vector<int64_t> ids, bool* fresh, AdmitResult* result,
    std::string* error) {
  *result = AdmitResult::kInvalid;
  if (!ids.empty() && static_cast<int32_t>(ids.size()) != n) {
    *error = "ids size does not match node count";
    return nullptr;
  }
  if (ids.empty()) {
    ids.resize(n);
    for (int32_t i = 0; i < n; ++i) ids[i] = i;
  }
  // Ids must be distinct: the theorem pipelines break layer ties by id, and
  // duplicate ids would silently produce an invalid total order.
  {
    std::vector<int64_t> sorted(ids);
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
      *error = "duplicate node ids";
      return nullptr;
    }
  }
  const uint64_t key = ContentKey(n, edges, ids);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = graphs_.find(key);
    if (it != graphs_.end()) {
      it->second.last_used = ++tick_;
      *fresh = false;
      *result = AdmitResult::kAdmitted;
      return it->second.graph;
    }
  }
  // Build outside the lock: FromEdges and the engine are the expensive
  // steps.
  auto entry = std::make_shared<ResidentGraph>();
  entry->key = key;
  entry->ids = std::move(ids);
  try {
    std::vector<std::pair<int, int>> e(edges.begin(), edges.end());
    entry->graph = Graph::FromEdges(n, std::move(e));
    local::NetworkOptions engine_options;
    engine_options.fault = options_.fault;
    entry->engine = std::make_unique<local::Network>(
        entry->graph, entry->ids, options_.engine_threads, engine_options);
  } catch (const std::exception& ex) {
    *error = ex.what();
    return nullptr;
  }
  entry->id_space =
      entry->ids.empty()
          ? 1
          : *std::max_element(entry->ids.begin(), entry->ids.end()) + 1;
  entry->is_forest = IsForest(entry->graph);
  entry->max_degree = entry->graph.MaxDegree();
  entry->memory_bytes = entry->graph.MemoryBytes() +
                        entry->ids.size() * sizeof(int64_t) +
                        entry->engine->EngineMemory().total();

  std::lock_guard<std::mutex> lock(mu_);
  if (auto it = graphs_.find(key); it != graphs_.end()) {
    // A racing identical registration won; either entry is equivalent
    // (same content), so return the resident one.
    it->second.last_used = ++tick_;
    *fresh = false;
    *result = AdmitResult::kAdmitted;
    return it->second.graph;
  }
  if (!MakeRoomLocked(entry->memory_bytes, error)) {
    *result = AdmitResult::kOverQuota;
    return nullptr;
  }
  bytes_ += entry->memory_bytes;
  auto& slot = graphs_[key];
  slot.graph = std::move(entry);
  slot.last_used = ++tick_;
  *fresh = true;
  *result = AdmitResult::kAdmitted;
  return slot.graph;
}

std::shared_ptr<const ResidentGraph> Registry::Find(uint64_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = graphs_.find(key);
  if (it == graphs_.end()) return nullptr;
  it->second.last_used = ++tick_;
  return it->second.graph;
}

size_t Registry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return graphs_.size();
}

size_t Registry::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

uint64_t Registry::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

}  // namespace treelocal::serve
