#ifndef TREELOCAL_GRAPH_LABELING_H_
#define TREELOCAL_GRAPH_LABELING_H_

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "src/graph/graph.h"

namespace treelocal {

// Output label on a half-edge. Each concrete problem defines its own
// encoding (see src/problems/*). kUnsetLabel marks a not-yet-assigned
// half-edge during the staged pipelines.
using Label = int64_t;
inline constexpr Label kUnsetLabel = std::numeric_limits<int64_t>::min();

// A half-edge labeling h_out : H(G) -> Sigma over a host graph, with partial
// assignments (phases of the transformation write disjoint subsets).
//
// Layout: port-major. The 2m labels sit in one array in the host's CSR
// order, so node v's labels are one contiguous block, AtNode(v), whose
// entry p is the label of v's half of IncidentEdges(v)[p]. A 1-hop greedy
// reads a node's labels as one sequential scan. Access by (edge, slot) or
// (edge, node) goes through an (edge, slot) -> half-edge index that the
// constructor builds once: 2m ints, 8 B/edge, held here rather than by
// Graph, so the CSR's own footprint (Graph::MemoryBytes) is unchanged.
class HalfEdgeLabeling {
 public:
  HalfEdgeLabeling() = default;
  explicit HalfEdgeLabeling(const Graph& host);

  const Graph& host() const { return *host_; }

  // Position of half-edge (edge, slot) in the port-major array: its
  // endpoint's AdjacencyOffset plus the edge's port there.
  int HalfIndex(int edge, int slot) const { return half_of_[2 * edge + slot]; }

  Label GetSlot(int edge, int slot) const {
    return labels_[HalfIndex(edge, slot)];
  }
  void SetSlot(int edge, int slot, Label l) {
    labels_[HalfIndex(edge, slot)] = l;
  }

  // Access by (edge, incident node).
  Label Get(int edge, int node) const {
    return GetSlot(edge, host_->EndpointSlot(edge, node));
  }
  void Set(int edge, int node, Label l) {
    SetSlot(edge, host_->EndpointSlot(edge, node), l);
  }

  bool IsSet(int edge, int slot) const {
    return GetSlot(edge, slot) != kUnsetLabel;
  }
  bool IsSetAt(int edge, int node) const {
    return Get(edge, node) != kUnsetLabel;
  }

  // The labels of v's half-edges, in port order.
  std::span<Label> AtNode(int node) {
    return Halves().subspan(host_->AdjacencyOffset(node),
                            host_->Degree(node));
  }
  std::span<const Label> AtNode(int node) const {
    return Halves().subspan(host_->AdjacencyOffset(node),
                            host_->Degree(node));
  }

  // Every half-edge label, port-major (the concatenation of the AtNode
  // blocks in node order).
  std::span<Label> Halves() { return labels_; }
  std::span<const Label> Halves() const { return labels_; }

  // All assigned labels on half-edges incident to `node` (order: port order).
  std::vector<Label> AssignedAtNode(int node) const;

  // Number of assigned half-edges incident to `node`.
  int NumAssignedAtNode(int node) const;

  // True if every half-edge of the host graph is labeled.
  bool FullyAssigned() const;

  int64_t NumAssigned() const;

 private:
  const Graph* host_ = nullptr;
  std::vector<Label> labels_;  // port-major, 2m
  std::vector<int> half_of_;   // (edge, slot) -> index into labels_, 2m
};

}  // namespace treelocal

#endif  // TREELOCAL_GRAPH_LABELING_H_
