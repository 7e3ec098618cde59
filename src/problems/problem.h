#ifndef TREELOCAL_PROBLEMS_PROBLEM_H_
#define TREELOCAL_PROBLEMS_PROBLEM_H_

#include <span>
#include <string>

#include "src/graph/graph.h"
#include "src/graph/labeling.h"
#include "src/graph/semigraph.h"

namespace treelocal {

// A node-edge-checkable problem Pi = (Sigma, N_Pi, E_Pi) per Definition 6.
// The collections N^i / E^i are infinite for the coloring problems, so they
// are exposed as membership predicates over label multisets rather than
// materialized sets. The list variants Pi* / Pi^x (Definitions 7 and 8) are
// implicit: by construction, a completion of a partial labeling is valid for
// the list variant iff the union of fixed and new labels satisfies these
// predicates at every node and edge — which is exactly what the sequential
// solvers below enforce.
class Problem {
 public:
  virtual ~Problem() = default;

  virtual std::string Name() const = 0;

  // chi in N^{|chi|}_Pi?
  virtual bool NodeConfigOk(std::span<const Label> labels) const = 0;

  // psi in E^{rank}_Pi? labels.size() must equal rank (0, 1 or 2).
  virtual bool EdgeConfigOk(std::span<const Label> labels, int rank) const = 0;

  // Node-aware variant used by the validators. Defaults to NodeConfigOk;
  // problems whose constraints depend on per-node *input* (e.g. color lists
  // in list coloring) override this.
  virtual bool NodeConfigOkAt(const Graph& g, int v,
                              std::span<const Label> labels) const {
    (void)g;
    (void)v;
    return NodeConfigOk(labels);
  }

  virtual std::string LabelToString(Label l) const;

  // Validates a complete solution on a plain graph (all edges rank 2).
  bool ValidateGraph(const Graph& g, const HalfEdgeLabeling& h,
                     std::string* why = nullptr) const;

  // Validates a standalone semi-graph solution: every half-edge of `s` must
  // be labeled; node configs are checked at semi-degrees and edge configs at
  // ranks, per Definition 6 on semi-graphs.
  bool ValidateSemiGraph(const SemiGraph& s, const HalfEdgeLabeling& h,
                         std::string* why = nullptr) const;
};

// Class P1 (Theorem 12): node-labeling problems solvable by a sequential
// 1-hop greedy that labels all half-edges of one node at a time, in any
// adversarial order, consistently with a correct partial solution.
class NodeProblem : public Problem {
 public:
  // Assigns labels to the yet-unassigned half-edges incident on v, reading
  // only v's 1-hop neighborhood in `g` (including labels chosen so far).
  virtual void SequentialAssign(const Graph& g, int v,
                                HalfEdgeLabeling& h) const = 0;

  // Processes the given nodes in order (the Pi^x component solver of
  // Algorithm 2 and the sequential baseline).
  void CompleteNodes(const Graph& g, std::span<const int> nodes,
                     HalfEdgeLabeling& h) const;
};

// Class P2 (Theorem 15): edge-labeling problems solvable by a sequential
// 1-hop-edge greedy that labels both half-edges of one edge at a time.
class EdgeProblem : public Problem {
 public:
  // The greedy on edge e = {u, v}, as a pure function of its two endpoint
  // blocks: at_u = h.AtNode(u) and at_v = h.AtNode(v) (port-major, see
  // HalfEdgeLabeling), with e at port_u of u and port_v of v. It reads only
  // these two blocks (including the labels chosen so far on every edge at u
  // and v) and writes exactly at_u[port_u] and at_v[port_v]. It must be
  // symmetric in its two ends: swapping (at_u, port_u) with (at_v, port_v)
  // writes the mirrored labels, so the result never depends on which
  // endpoint the caller names first.
  virtual void AssignEdge(std::span<Label> at_u, int port_u,
                          std::span<Label> at_v, int port_v) const = 0;

  // AssignEdge on host edge e of `g` (h.host() must be g), with u =
  // EdgeU(e) and v = EdgeV(e).
  void SequentialAssignEdge(const Graph& g, int e, HalfEdgeLabeling& h) const;

  // Processes the given edges in order (the Pi* component solver of
  // Algorithm 4 and the sequential baseline).
  void CompleteEdges(const Graph& g, std::span<const int> edges,
                     HalfEdgeLabeling& h) const;
};

}  // namespace treelocal

#endif  // TREELOCAL_PROBLEMS_PROBLEM_H_
