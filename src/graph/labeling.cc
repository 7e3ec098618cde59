#include "src/graph/labeling.h"

#include <algorithm>

namespace treelocal {

HalfEdgeLabeling::HalfEdgeLabeling(const Graph& host)
    : host_(&host),
      labels_(2 * static_cast<size_t>(host.NumEdges()), kUnsetLabel),
      half_of_(2 * static_cast<size_t>(host.NumEdges())) {
  for (int v = 0; v < host.NumNodes(); ++v) {
    const int base = host.AdjacencyOffset(v);
    auto inc = host.IncidentEdges(v);
    auto nbr = host.Neighbors(v);
    for (int p = 0; p < static_cast<int>(inc.size()); ++p) {
      // EdgeU(e) < EdgeV(e), so v holds slot 0 iff its neighbor is larger.
      half_of_[2 * inc[p] + (v < nbr[p] ? 0 : 1)] = base + p;
    }
  }
}

std::vector<Label> HalfEdgeLabeling::AssignedAtNode(int node) const {
  std::vector<Label> out;
  for (Label l : AtNode(node)) {
    if (l != kUnsetLabel) out.push_back(l);
  }
  return out;
}

int HalfEdgeLabeling::NumAssignedAtNode(int node) const {
  auto at = AtNode(node);
  return static_cast<int>(
      std::count_if(at.begin(), at.end(),
                    [](Label l) { return l != kUnsetLabel; }));
}

bool HalfEdgeLabeling::FullyAssigned() const {
  for (Label l : labels_) {
    if (l == kUnsetLabel) return false;
  }
  return true;
}

int64_t HalfEdgeLabeling::NumAssigned() const {
  int64_t count = 0;
  for (Label l : labels_) {
    if (l != kUnsetLabel) ++count;
  }
  return count;
}

}  // namespace treelocal
