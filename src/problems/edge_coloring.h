#ifndef TREELOCAL_PROBLEMS_EDGE_COLORING_H_
#define TREELOCAL_PROBLEMS_EDGE_COLORING_H_

#include <vector>

#include "src/problems/problem.h"

namespace treelocal {

// Edge coloring in node-edge-checkable form, following Section 5.1 of the
// paper exactly for the (edge-degree+1) variant:
//   Sigma = {(a,b) : a,b > 0} u {D}
//   N^i = {(a_1,b_1),...,(a_p,b_p),D,...,D} with all a_k <= p and the b_l
//         pairwise distinct (p = number of non-D labels at the node),
//   E^0 = {{}},  E^1 = {{D}},
//   E^2 = {{(a_1,b),(a_2,b)} : a_1 + a_2 >= b + 1}.
// A valid solution induces a proper edge coloring with color(e) <=
// edge-degree(e) + 1 (b <= a1+a2-1 <= p1+p2-1 = deg(u)+deg(v)-1).
//
// The (2*Delta-1) variant replaces the degree-part bookkeeping with the
// global bound b <= 2*Delta-1 (labels are (1,b) pairs; the a-part is unused
// but kept so that both variants share one label encoding).
class EdgeColoringProblem : public EdgeProblem {
 public:
  enum class Mode { kEdgeDegreePlusOne, kTwoDeltaMinusOne };

  static constexpr Label kD = -1;

  // Packs a (degree-part, color-part) pair. Colors fit in 24 bits (an
  // (edge-degree+1)-coloring needs at most 2n-3 colors).
  static Label Pack(int64_t a, int64_t b) { return (a << 24) | b; }
  static int64_t DegreePart(Label l) { return l >> 24; }
  static int64_t ColorPart(Label l) { return l & ((int64_t{1} << 24) - 1); }
  static bool IsPair(Label l) { return l >= 0; }

  // `delta` is the maximum degree of the original input graph; used only in
  // kTwoDeltaMinusOne mode.
  EdgeColoringProblem(Mode mode, int delta) : mode_(mode), delta_(delta) {}

  std::string Name() const override {
    return mode_ == Mode::kEdgeDegreePlusOne ? "(edge-degree+1)-edge-coloring"
                                             : "(2Delta-1)-edge-coloring";
  }
  bool NodeConfigOk(std::span<const Label> labels) const override;
  bool EdgeConfigOk(std::span<const Label> labels, int rank) const override;
  std::string LabelToString(Label l) const override;

  // The labeling process of Lemma 16: pick the smallest color free at both
  // endpoints; degree parts = (#colors already present at the endpoint) + 1.
  void AssignEdge(std::span<Label> at_u, int port_u, std::span<Label> at_v,
                  int port_v) const override;

  Mode mode() const { return mode_; }
  int delta() const { return delta_; }

  // Color per edge (0 where uncolored).
  static std::vector<int64_t> ExtractColors(const Graph& g,
                                            const HalfEdgeLabeling& h);

  // Raw oracle: adjacent edges differ; color bound per mode.
  bool IsProperEdgeColoring(const Graph& g,
                            const std::vector<int64_t>& colors) const;

 private:
  Mode mode_;
  int delta_;
};

}  // namespace treelocal

#endif  // TREELOCAL_PROBLEMS_EDGE_COLORING_H_
