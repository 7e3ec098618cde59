#include "src/problems/list_coloring.h"

#include <algorithm>
#include <cassert>
#include <set>

namespace treelocal {

bool ListColoringProblem::NodeConfigOk(std::span<const Label> labels) const {
  if (labels.empty()) return true;
  Label c = labels[0];
  if (c < 1) return false;
  for (Label l : labels) {
    if (l != c) return false;
  }
  return true;
}

bool ListColoringProblem::NodeConfigOkAt(const Graph& g, int v,
                                         std::span<const Label> labels) const {
  (void)g;
  if (!NodeConfigOk(labels)) return false;
  if (labels.empty()) return true;
  const std::vector<int64_t>& list = lists_[v];
  return std::find(list.begin(), list.end(), labels[0]) != list.end();
}

bool ListColoringProblem::EdgeConfigOk(std::span<const Label> labels,
                                       int rank) const {
  if (static_cast<int>(labels.size()) != rank) return false;
  switch (rank) {
    case 0:
      return true;
    case 1:
      return labels[0] >= 1;
    case 2:
      return labels[0] >= 1 && labels[1] >= 1 && labels[0] != labels[1];
    default:
      return false;
  }
}

void ListColoringProblem::SequentialAssign(const Graph& g, int v,
                                           HalfEdgeLabeling& h) const {
  std::set<int64_t> forbidden;
  for (int e : g.IncidentEdges(v)) {
    int u = g.OtherEndpoint(e, v);
    Label l = h.Get(e, u);
    if (l != kUnsetLabel) forbidden.insert(l);
  }
  // |forbidden| <= deg(v) < |list(v)|: a free list color always exists.
  int64_t chosen = -1;
  for (int64_t c : lists_[v]) {
    if (!forbidden.count(c)) {
      chosen = c;
      break;
    }
  }
  assert(chosen >= 1 && "list too small: need |list(v)| >= deg(v)+1");
  for (Label& l : h.AtNode(v)) {
    if (l == kUnsetLabel) l = chosen;
  }
}

std::vector<std::vector<int64_t>> ListColoringProblem::RandomLists(
    const Graph& g, int slack, int64_t palette, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<int64_t>> lists(g.NumNodes());
  for (int v = 0; v < g.NumNodes(); ++v) {
    int need = g.Degree(v) + 1 + slack;
    assert(palette >= need);
    std::set<int64_t> chosen;
    while (static_cast<int>(chosen.size()) < need) {
      chosen.insert(rng.NextInRange(1, palette));
    }
    lists[v].assign(chosen.begin(), chosen.end());
  }
  return lists;
}

}  // namespace treelocal
