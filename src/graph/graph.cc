#include "src/graph/graph.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace treelocal {

namespace internal {

void ValidateEdgeCount(int64_t n, int64_t m) {
  // offset_/nbr_/inc_ hold 2m half-edges behind int32 offsets and int
  // indices; at m >= 2^30 the doubled count 2m overflows them.
  constexpr int64_t kMaxEdges = int64_t{1} << 30;
  if (m >= kMaxEdges) {
    throw GraphLimitError(
        "Graph: edge count " + std::to_string(m) + " (n = " +
        std::to_string(n) + ") exceeds the uncompressed CSR limit of " +
        std::to_string(kMaxEdges - 1) +
        " edges (2m must fit int32 offsets); use the CompactGraph backend");
  }
}

}  // namespace internal

Graph Graph::FromEdges(int n, std::vector<std::pair<int, int>> edges) {
  if (n < 0) {
    throw std::invalid_argument("Graph::FromEdges: node count " +
                                std::to_string(n) + " is negative");
  }
  internal::ValidateEdgeCount(n, static_cast<int64_t>(edges.size()));
  Graph g;
  g.n_ = n;
  g.edge_u_.reserve(edges.size());
  g.edge_v_.reserve(edges.size());
  for (auto& [a, b] : edges) {
    if (a == b) {
      throw std::invalid_argument("Graph::FromEdges: self-loop at node " +
                                  std::to_string(a));
    }
    if (a < 0 || b < 0 || a >= n || b >= n) {
      throw std::invalid_argument(
          "Graph::FromEdges: endpoint out of range [0, " + std::to_string(n) +
          ") in edge (" + std::to_string(a) + ", " + std::to_string(b) + ")");
    }
    if (a > b) std::swap(a, b);
    g.edge_u_.push_back(a);
    g.edge_v_.push_back(b);
  }
  const int m = static_cast<int>(g.edge_u_.size());
  g.offset_.assign(n + 1, 0);
  for (int e = 0; e < m; ++e) {
    ++g.offset_[g.edge_u_[e] + 1];
    ++g.offset_[g.edge_v_[e] + 1];
  }
  for (int v = 0; v < n; ++v) g.offset_[v + 1] += g.offset_[v];
  g.nbr_.resize(2 * static_cast<size_t>(m));
  g.inc_.resize(2 * static_cast<size_t>(m));
  std::vector<int> cursor(g.offset_.begin(), g.offset_.end() - 1);
  for (int e = 0; e < m; ++e) {
    int u = g.edge_u_[e], v = g.edge_v_[e];
    g.nbr_[cursor[u]] = v;
    g.inc_[cursor[u]++] = e;
    g.nbr_[cursor[v]] = u;
    g.inc_[cursor[v]++] = e;
  }
  // Sort each adjacency list by neighbor id (keeping inc_ parallel) so
  // EdgeBetween can binary-search and duplicate edges are detectable. One
  // buffer serves every node; a list of length <= 1 is already sorted.
  std::vector<std::pair<int, int>> tmp;
  for (int v = 0; v < n; ++v) {
    int lo = g.offset_[v], hi = g.offset_[v + 1];
    g.max_degree_ = std::max(g.max_degree_, hi - lo);
    if (hi - lo <= 1) continue;
    tmp.clear();
    for (int i = lo; i < hi; ++i) tmp.emplace_back(g.nbr_[i], g.inc_[i]);
    std::sort(tmp.begin(), tmp.end());
    for (int i = lo; i < hi; ++i) {
      if (i > lo && tmp[i - lo].first == tmp[i - lo - 1].first) {
        throw std::invalid_argument(
            "Graph::FromEdges: duplicate edge (" + std::to_string(v) + ", " +
            std::to_string(tmp[i - lo].first) + ")");
      }
      g.nbr_[i] = tmp[i - lo].first;
      g.inc_[i] = tmp[i - lo].second;
    }
  }
  return g;
}

int Graph::EdgeBetween(int u, int v) const {
  if (Degree(u) > Degree(v)) std::swap(u, v);
  auto nbrs = Neighbors(u);
  auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v);
  if (it == nbrs.end() || *it != v) return -1;
  return IncidentEdges(u)[it - nbrs.begin()];
}

int Graph::PortOf(int v, int u) const {
  auto nbrs = Neighbors(v);
  auto it = std::lower_bound(nbrs.begin(), nbrs.end(), u);
  if (it == nbrs.end() || *it != u) return -1;
  return static_cast<int>(it - nbrs.begin());
}

int Graph::MaxEdgeDegree() const {
  int best = 0;
  for (int e = 0; e < NumEdges(); ++e) best = std::max(best, EdgeDegree(e));
  return best;
}

}  // namespace treelocal
