#include "src/problems/matching.h"

#include <algorithm>

namespace treelocal {

bool MatchingProblem::NodeConfigOk(std::span<const Label> labels) const {
  int num_m = 0;
  for (Label l : labels) {
    if (l == kM) {
      ++num_m;
    } else if (l != kP && l != kO && l != kD) {
      return false;
    }
  }
  if (num_m > 1) return false;
  if (num_m == 1) return true;  // one M, rest already checked in {P,O,D}
  // No M: P would be an untruthful "I am matched" claim.
  for (Label l : labels) {
    if (l == kP) return false;
  }
  return true;
}

bool MatchingProblem::EdgeConfigOk(std::span<const Label> labels,
                                   int rank) const {
  if (static_cast<int>(labels.size()) != rank) return false;
  switch (rank) {
    case 0:
      return true;
    case 1:
      return labels[0] == kD;
    case 2: {
      Label a = labels[0], b = labels[1];
      if (a > b) std::swap(a, b);
      return (a == kM && b == kM) || (a == kP && b == kP) ||
             (a == kP && b == kO);
    }
    default:
      return false;
  }
}

std::string MatchingProblem::LabelToString(Label l) const {
  switch (l) {
    case kM:
      return "M";
    case kP:
      return "P";
    case kO:
      return "O";
    case kD:
      return "D";
    default:
      return Problem::LabelToString(l);
  }
}

void MatchingProblem::AssignEdge(std::span<Label> at_u, int port_u,
                                 std::span<Label> at_v, int port_v) const {
  // An endpoint is matched iff one of its half-edges already carries M.
  const bool mu = std::find(at_u.begin(), at_u.end(), kM) != at_u.end();
  const bool mv = std::find(at_v.begin(), at_v.end(), kM) != at_v.end();
  if (!mu && !mv) {
    at_u[port_u] = kM;
    at_v[port_v] = kM;
  } else {
    at_u[port_u] = mu ? kP : kO;
    at_v[port_v] = mv ? kP : kO;
  }
}

std::vector<char> MatchingProblem::ExtractMatching(const Graph& g,
                                                   const HalfEdgeLabeling& h) {
  std::vector<char> matched(g.NumEdges(), 0);
  for (int e = 0; e < g.NumEdges(); ++e) {
    matched[e] = h.GetSlot(e, 0) == kM && h.GetSlot(e, 1) == kM;
  }
  return matched;
}

bool MatchingProblem::IsMaximalMatching(const Graph& g,
                                        const std::vector<char>& matched) {
  std::vector<char> node_matched(g.NumNodes(), 0);
  for (int e = 0; e < g.NumEdges(); ++e) {
    if (!matched[e]) continue;
    auto [u, v] = g.Endpoints(e);
    if (node_matched[u] || node_matched[v]) return false;  // not a matching
    node_matched[u] = 1;
    node_matched[v] = 1;
  }
  for (int e = 0; e < g.NumEdges(); ++e) {
    auto [u, v] = g.Endpoints(e);
    if (!node_matched[u] && !node_matched[v]) return false;  // not maximal
  }
  return true;
}

}  // namespace treelocal
