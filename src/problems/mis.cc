#include "src/problems/mis.h"

#include <algorithm>

namespace treelocal {

bool MisProblem::NodeConfigOk(std::span<const Label> labels) const {
  if (labels.empty()) return true;  // degree-0 node: vacuously in the MIS
  int num_m = 0, num_p = 0;
  for (Label l : labels) {
    if (l == kM) {
      ++num_m;
    } else if (l == kP) {
      ++num_p;
    } else if (l != kU) {
      return false;
    }
  }
  if (num_m == static_cast<int>(labels.size())) return true;  // in MIS
  return num_m == 0 && num_p >= 1;  // covered, with a truthful pointer
}

bool MisProblem::EdgeConfigOk(std::span<const Label> labels, int rank) const {
  if (static_cast<int>(labels.size()) != rank) return false;
  switch (rank) {
    case 0:
      return true;
    case 1:
      return labels[0] == kM || labels[0] == kU;
    case 2: {
      Label a = labels[0], b = labels[1];
      if (a > b) std::swap(a, b);
      return (a == kM && b == kU) || (a == kM && b == kP) ||
             (a == kU && b == kU);
    }
    default:
      return false;
  }
}

std::string MisProblem::LabelToString(Label l) const {
  switch (l) {
    case kM:
      return "M";
    case kP:
      return "P";
    case kU:
      return "U";
    default:
      return Problem::LabelToString(l);
  }
}

void MisProblem::SequentialAssign(const Graph& g, int v,
                                  HalfEdgeLabeling& h) const {
  // A neighbor is "in the MIS" iff its own half-edge toward us carries M.
  bool neighbor_in_mis = false;
  for (int e : g.IncidentEdges(v)) {
    int u = g.OtherEndpoint(e, v);
    if (h.Get(e, u) == kM) {
      neighbor_in_mis = true;
      break;
    }
  }
  std::span<Label> mine = h.AtNode(v);
  if (!neighbor_in_mis) {
    for (Label& l : mine) {
      if (l == kUnsetLabel) l = kM;
    }
    return;
  }
  // Covered: pick one pointer toward an MIS neighbor, U elsewhere. If some
  // half-edge of v was already labeled P in an earlier phase, that pointer
  // already certifies coverage.
  bool has_pointer =
      std::find(mine.begin(), mine.end(), kP) != mine.end();
  auto inc = g.IncidentEdges(v);
  for (size_t p = 0; p < inc.size(); ++p) {
    if (mine[p] != kUnsetLabel) continue;
    const int e = inc[p];
    if (!has_pointer && h.Get(e, g.OtherEndpoint(e, v)) == kM) {
      mine[p] = kP;
      has_pointer = true;
    } else {
      mine[p] = kU;
    }
  }
}

std::vector<char> MisProblem::ExtractSet(const Graph& g,
                                         const HalfEdgeLabeling& h) {
  std::vector<char> in_set(g.NumNodes(), 0);
  for (int v = 0; v < g.NumNodes(); ++v) {
    if (g.Degree(v) == 0) {
      in_set[v] = 1;  // isolated nodes are in the MIS by convention
      continue;
    }
    for (Label l : h.AtNode(v)) {
      if (l == kM) in_set[v] = 1;
    }
  }
  return in_set;
}

bool MisProblem::IsMaximalIndependentSet(const Graph& g,
                                         const std::vector<char>& in_set) {
  for (int e = 0; e < g.NumEdges(); ++e) {
    auto [u, v] = g.Endpoints(e);
    if (in_set[u] && in_set[v]) return false;  // not independent
  }
  for (int v = 0; v < g.NumNodes(); ++v) {
    if (in_set[v]) continue;
    bool covered = false;
    for (int u : g.Neighbors(v)) {
      if (in_set[u]) covered = true;
    }
    if (!covered) return false;  // not maximal
  }
  return true;
}

}  // namespace treelocal
