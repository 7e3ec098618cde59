#include "src/problems/edge_coloring.h"

#include <algorithm>
#include <vector>

#include "src/support/mathutil.h"

namespace treelocal {

bool EdgeColoringProblem::NodeConfigOk(std::span<const Label> labels) const {
  int64_t p = 0;
  for (Label l : labels) {
    if (IsPair(l)) ++p;
    else if (l != kD) return false;
  }
  // Color parts must be distinct: collect them, sort, and look for an
  // adjacent equal pair. The buffer is reused across calls (thread_local:
  // the class sweeps check nodes from concurrent engine shards).
  thread_local std::vector<int64_t> colors;
  colors.clear();
  for (Label l : labels) {
    if (!IsPair(l)) continue;
    int64_t a = DegreePart(l), b = ColorPart(l);
    if (a < 1 || b < 1) return false;
    if (mode_ == Mode::kEdgeDegreePlusOne && a > p) return false;
    if (mode_ == Mode::kTwoDeltaMinusOne && b > 2 * int64_t{delta_} - 1) {
      return false;
    }
    colors.push_back(b);
  }
  std::sort(colors.begin(), colors.end());
  return std::adjacent_find(colors.begin(), colors.end()) == colors.end();
}

bool EdgeColoringProblem::EdgeConfigOk(std::span<const Label> labels,
                                       int rank) const {
  if (static_cast<int>(labels.size()) != rank) return false;
  switch (rank) {
    case 0:
      return true;
    case 1:
      return labels[0] == kD;
    case 2: {
      if (!IsPair(labels[0]) || !IsPair(labels[1])) return false;
      int64_t a1 = DegreePart(labels[0]), b1 = ColorPart(labels[0]);
      int64_t a2 = DegreePart(labels[1]), b2 = ColorPart(labels[1]);
      if (b1 != b2) return false;
      if (mode_ == Mode::kEdgeDegreePlusOne) return a1 + a2 >= b1 + 1;
      return true;  // 2Delta-1 bound enforced at the nodes
    }
    default:
      return false;
  }
}

std::string EdgeColoringProblem::LabelToString(Label l) const {
  if (l == kD) return "D";
  if (l == kUnsetLabel) return "<unset>";
  return "(" + std::to_string(DegreePart(l)) + "," +
         std::to_string(ColorPart(l)) + ")";
}

namespace {

// Appends the colors already used on a node's half-edges (its port-major
// block) to `out` and returns how many were appended (the degree-part input
// of Lemma 16).
int AppendUsedColors(std::span<const Label> at, std::vector<int64_t>& out) {
  int appended = 0;
  for (Label l : at) {
    if (l != kUnsetLabel && EdgeColoringProblem::IsPair(l)) {
      out.push_back(EdgeColoringProblem::ColorPart(l));
      ++appended;
    }
  }
  return appended;
}

}  // namespace

void EdgeColoringProblem::AssignEdge(std::span<Label> at_u, int port_u,
                                     std::span<Label> at_v,
                                     int port_v) const {
  // This is the inner loop of every class sweep and star stage: one shared
  // buffer for both endpoints' used colors (the per-endpoint counts ride
  // along for the degree parts), reused across calls — thread_local, since
  // the edge sweep runs it from concurrent engine shards. Both ends are
  // treated alike, so the result is symmetric in them.
  thread_local std::vector<int64_t> forbidden;
  forbidden.clear();
  const int used_u = AppendUsedColors(at_u, forbidden);
  const int used_v = AppendUsedColors(at_v, forbidden);
  // First-fit via chunked bitmask + countr_one first-zero scan
  // (FirstMissingColor) — the sort + linear walk this replaces was the edge
  // sweeps' per-edge O(deg log deg) inner loop.
  const int64_t c =
      FirstMissingColor(forbidden.data(), static_cast<int>(forbidden.size()));
  // Lemma 16: c <= |used_u| + |used_v| + 1, so with a = |used| + 1 at each
  // end the edge constraint a_u + a_v >= c + 1 holds automatically. In the
  // 2Delta-1 mode the degree parts are unused (1); the bound b <= 2Delta-1
  // holds since |used_u| + |used_v| <= 2Delta-2.
  const bool degree_parts = mode_ == Mode::kEdgeDegreePlusOne;
  at_u[port_u] = Pack(degree_parts ? used_u + 1 : 1, c);
  at_v[port_v] = Pack(degree_parts ? used_v + 1 : 1, c);
}

std::vector<int64_t> EdgeColoringProblem::ExtractColors(
    const Graph& g, const HalfEdgeLabeling& h) {
  std::vector<int64_t> colors(g.NumEdges(), 0);
  for (int e = 0; e < g.NumEdges(); ++e) {
    Label l = h.GetSlot(e, 0);
    if (l != kUnsetLabel && IsPair(l)) colors[e] = ColorPart(l);
  }
  return colors;
}

bool EdgeColoringProblem::IsProperEdgeColoring(
    const Graph& g, const std::vector<int64_t>& colors) const {
  std::vector<int64_t> seen;  // reused across nodes
  for (int v = 0; v < g.NumNodes(); ++v) {
    seen.clear();
    for (int e : g.IncidentEdges(v)) seen.push_back(colors[e]);
    std::sort(seen.begin(), seen.end());
    if (std::adjacent_find(seen.begin(), seen.end()) != seen.end()) {
      return false;
    }
  }
  for (int e = 0; e < g.NumEdges(); ++e) {
    if (colors[e] < 1) return false;
    int64_t bound = (mode_ == Mode::kEdgeDegreePlusOne)
                        ? g.EdgeDegree(e) + 1
                        : 2 * int64_t{delta_} - 1;
    if (colors[e] > bound) return false;
  }
  return true;
}

}  // namespace treelocal
