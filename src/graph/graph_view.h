#ifndef TREELOCAL_GRAPH_GRAPH_VIEW_H_
#define TREELOCAL_GRAPH_GRAPH_VIEW_H_

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/graph/compact_graph.h"
#include "src/graph/graph.h"

namespace treelocal {

// Non-owning view over either graph backend — the narrow API subset the
// engines and pipelines actually touch. Both backends expose the same
// simple-undirected-graph contract (sorted adjacency, ports = positions
// in it), so an engine built over a GraphView produces bit-identical
// transcripts regardless of backend. Dispatch is a branch, not a vtable:
// the two concrete types are known and the hot calls inline.
//
// The view names edges only through ForEachEdge, and the ids it hands out
// differ between backends (Graph numbers edges in input order,
// CompactGraph canonically by sorted (min, max)); nothing
// transcript-bearing depends on edge ids, and snapshots hash and store the
// canonical edge set (see local::GraphHash), so checkpoints resume across
// backends whatever the input edge order.
class GraphView {
 public:
  GraphView(const Graph& g) : csr_(&g) {}              // NOLINT(runtime/explicit)
  GraphView(const CompactGraph& g) : compact_(&g) {}   // NOLINT(runtime/explicit)

  int NumNodes() const {
    return csr_ != nullptr ? csr_->NumNodes() : compact_->NumNodes();
  }
  int64_t NumEdges() const {
    return csr_ != nullptr ? csr_->NumEdges() : compact_->NumEdges();
  }
  int MaxDegree() const {
    return csr_ != nullptr ? csr_->MaxDegree() : compact_->MaxDegree();
  }
  int Degree(int v) const {
    return csr_ != nullptr ? csr_->Degree(v) : compact_->Degree(v);
  }
  int NeighborAt(int v, int p) const {
    return csr_ != nullptr ? csr_->Neighbors(v)[p] : compact_->NeighborAt(v, p);
  }
  // Neighbors of v ascending; f(int u).
  template <typename F>
  void ForEachNeighbor(int v, F&& f) const {
    if (csr_ != nullptr) {
      for (int u : csr_->Neighbors(v)) f(u);
    } else {
      compact_->ForEachNeighbor(v, std::forward<F>(f));
    }
  }
  int PortOf(int v, int u) const {
    return csr_ != nullptr ? csr_->PortOf(v, u) : compact_->PortOf(v, u);
  }
  // Every edge once, f(int64_t e, int u, int v): the backend's own edge
  // order (Graph: input order with u/v as given; CompactGraph: canonical
  // ascending (min, max) with u < v).
  template <typename F>
  void ForEachEdge(F&& f) const {
    if (csr_ != nullptr) {
      const int m = static_cast<int>(csr_->NumEdges());
      for (int e = 0; e < m; ++e) {
        f(static_cast<int64_t>(e), csr_->EdgeU(e), csr_->EdgeV(e));
      }
    } else {
      compact_->ForEachEdge(std::forward<F>(f));
    }
  }

  const Graph* csr() const { return csr_; }
  const CompactGraph* compact() const { return compact_; }

  // For pipelines still tied to the uncompressed backend (incidence
  // spans, endpoint slots): fail loudly rather than silently misbehave.
  const Graph& RequireCsr(const char* who) const {
    if (csr_ == nullptr) {
      throw std::logic_error(
          std::string(who) +
          " requires the uncompressed Graph backend; construct the engine "
          "from a Graph (not a CompactGraph) to use it");
    }
    return *csr_;
  }

 private:
  const Graph* csr_ = nullptr;
  const CompactGraph* compact_ = nullptr;
};

}  // namespace treelocal

#endif  // TREELOCAL_GRAPH_GRAPH_VIEW_H_
