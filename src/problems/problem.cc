#include "src/problems/problem.h"

#include <sstream>
#include <vector>

namespace treelocal {

std::string Problem::LabelToString(Label l) const {
  if (l == kUnsetLabel) return "<unset>";
  return std::to_string(l);
}

bool Problem::ValidateGraph(const Graph& g, const HalfEdgeLabeling& h,
                            std::string* why) const {
  auto fail = [&](const std::string& msg) {
    if (why) *why = msg;
    return false;
  };
  for (int e = 0; e < g.NumEdges(); ++e) {
    Label a = h.GetSlot(e, 0), b = h.GetSlot(e, 1);
    if (a == kUnsetLabel || b == kUnsetLabel) {
      return fail("edge " + std::to_string(e) + " has unassigned half-edge");
    }
    Label cfg[2] = {a, b};
    if (!EdgeConfigOk({cfg, 2}, 2)) {
      return fail("edge " + std::to_string(e) + " config invalid: {" +
                  LabelToString(a) + "," + LabelToString(b) + "}");
    }
  }
  // One label buffer for every node (cleared, never shrunk), so the
  // per-node check allocates nothing once it has grown to the max degree.
  std::vector<Label> labels;
  for (int v = 0; v < g.NumNodes(); ++v) {
    labels.clear();
    for (int e : g.IncidentEdges(v)) labels.push_back(h.Get(e, v));
    if (!NodeConfigOkAt(g, v, labels)) {
      std::ostringstream os;
      os << "node " << v << " config invalid: {";
      for (size_t i = 0; i < labels.size(); ++i) {
        if (i) os << ",";
        os << LabelToString(labels[i]);
      }
      os << "}";
      return fail(os.str());
    }
  }
  if (why) why->clear();
  return true;
}

bool Problem::ValidateSemiGraph(const SemiGraph& s, const HalfEdgeLabeling& h,
                                std::string* why) const {
  auto fail = [&](const std::string& msg) {
    if (why) *why = msg;
    return false;
  };
  const Graph& g = s.host();
  std::vector<Label> cfg;  // reused across edges
  for (int e = 0; e < g.NumEdges(); ++e) {
    if (!s.ContainsEdge(e)) continue;
    cfg.clear();
    for (int slot = 0; slot < 2; ++slot) {
      if (!s.HalfPresent(e, slot)) continue;
      Label l = h.GetSlot(e, slot);
      if (l == kUnsetLabel) {
        return fail("semi-edge " + std::to_string(e) +
                    " has unassigned present half-edge");
      }
      cfg.push_back(l);
    }
    if (!EdgeConfigOk(cfg, s.Rank(e))) {
      return fail("semi-edge " + std::to_string(e) + " config invalid");
    }
  }
  std::vector<Label> labels;  // reused across nodes, as in ValidateGraph
  for (int v = 0; v < g.NumNodes(); ++v) {
    if (!s.ContainsNode(v)) continue;
    labels.clear();
    for (int e : g.IncidentEdges(v)) {
      if (s.ContainsEdge(e) && s.HalfPresent(e, g.EndpointSlot(e, v))) {
        Label l = h.Get(e, v);
        if (l == kUnsetLabel) {
          return fail("semi-node " + std::to_string(v) +
                      " has unassigned half-edge");
        }
        labels.push_back(l);
      }
    }
    if (!NodeConfigOkAt(g, v, labels)) {
      return fail("semi-node " + std::to_string(v) + " config invalid");
    }
  }
  if (why) why->clear();
  return true;
}

void NodeProblem::CompleteNodes(const Graph& g, std::span<const int> nodes,
                                HalfEdgeLabeling& h) const {
  for (int v : nodes) SequentialAssign(g, v, h);
}

void EdgeProblem::CompleteEdges(const Graph& g, std::span<const int> edges,
                                HalfEdgeLabeling& h) const {
  for (int e : edges) SequentialAssignEdge(g, e, h);
}

}  // namespace treelocal
