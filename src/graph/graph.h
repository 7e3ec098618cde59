#ifndef TREELOCAL_GRAPH_GRAPH_H_
#define TREELOCAL_GRAPH_GRAPH_H_

#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

namespace treelocal {

// Thrown when a graph exceeds a representation limit of a backend or
// engine (e.g. 2m no longer fits the int32 CSR/channel indices). The
// message names the offending count and the limit.
class GraphLimitError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

namespace internal {
// The uncompressed CSR stores 2m half-edges in int-indexed vectors with
// int32 offsets, so m must stay below 2^30. Separately callable so the
// boundary is testable without allocating a 2^30-edge list. Throws
// GraphLimitError naming the count.
void ValidateEdgeCount(int64_t n, int64_t m);
}  // namespace internal

// Immutable simple undirected graph in CSR form.
//
// Nodes are indices 0..NumNodes()-1; edges are indices 0..NumEdges()-1 with
// stable endpoint order (u(e) < v(e)). Per node, the incident edge list and
// neighbor list are parallel arrays ordered consistently, so "port p of v"
// simultaneously names neighbor Neighbors(v)[p] and edge IncidentEdges(v)[p],
// matching the LOCAL model's port numbering.
class Graph {
 public:
  Graph() = default;

  // Builds from an edge list. Endpoints must be in [0, n); self-loops and
  // duplicate edges are rejected (assert in debug, dedup check always on).
  static Graph FromEdges(int n, std::vector<std::pair<int, int>> edges);

  int NumNodes() const { return n_; }
  int NumEdges() const { return static_cast<int>(edge_u_.size()); }

  int Degree(int v) const { return offset_[v + 1] - offset_[v]; }
  int MaxDegree() const { return max_degree_; }

  std::span<const int> Neighbors(int v) const {
    return {nbr_.data() + offset_[v], static_cast<size_t>(Degree(v))};
  }
  std::span<const int> IncidentEdges(int v) const {
    return {inc_.data() + offset_[v], static_cast<size_t>(Degree(v))};
  }
  // Position of v's first port in the 2m-long port-major arrays: ports of
  // v occupy [AdjacencyOffset(v), AdjacencyOffset(v) + Degree(v)).
  int AdjacencyOffset(int v) const { return offset_[v]; }

  // Endpoints with u <= v ordering fixed at construction.
  std::pair<int, int> Endpoints(int e) const { return {edge_u_[e], edge_v_[e]}; }
  int EdgeU(int e) const { return edge_u_[e]; }
  int EdgeV(int e) const { return edge_v_[e]; }
  int OtherEndpoint(int e, int v) const {
    return edge_u_[e] == v ? edge_v_[e] : edge_u_[e];
  }
  // Endpoint slot of v on edge e: 0 if v == EdgeU(e), 1 if v == EdgeV(e).
  int EndpointSlot(int e, int v) const { return edge_u_[e] == v ? 0 : 1; }

  // Returns the edge id between u and v, or -1 if absent. Binary search in
  // the smaller endpoint's sorted adjacency: O(log min(deg u, deg v)).
  int EdgeBetween(int u, int v) const;

  // Port of neighbor u in v's adjacency, or -1. Binary search: O(log deg v).
  int PortOf(int v, int u) const;

  // edge-degree(e) = number of edges adjacent to e.
  int EdgeDegree(int e) const {
    return Degree(edge_u_[e]) + Degree(edge_v_[e]) - 2;
  }
  int MaxEdgeDegree() const;

  // Heap footprint of the CSR arrays (offset_ + nbr_ + inc_ + edge_u_ +
  // edge_v_) — the baseline the compressed backend is measured against.
  size_t MemoryBytes() const {
    return sizeof(int) * (offset_.size() + nbr_.size() + inc_.size() +
                          edge_u_.size() + edge_v_.size());
  }

 private:
  int n_ = 0;
  int max_degree_ = 0;
  std::vector<int> offset_;  // size n+1
  std::vector<int> nbr_;     // size 2m
  std::vector<int> inc_;     // size 2m, edge ids parallel to nbr_
  std::vector<int> edge_u_, edge_v_;
};

}  // namespace treelocal

#endif  // TREELOCAL_GRAPH_GRAPH_H_
