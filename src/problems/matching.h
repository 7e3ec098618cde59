#ifndef TREELOCAL_PROBLEMS_MATCHING_H_
#define TREELOCAL_PROBLEMS_MATCHING_H_

#include <vector>

#include "src/problems/problem.h"

namespace treelocal {

// Maximal matching in node-edge-checkable form, following Section 5.2:
//   Sigma = {M, P, O, D}
//   N^i: exactly one M and the rest in {P, O, D}, or no M and all in {O, D}.
//   E^0 = {{}},  E^1 = {{D}},  E^2 = {{P,O}, {M,M}, {P,P}}.
// M marks the matched edge at both halves; P marks "my endpoint is matched
// (elsewhere)"; O marks "my endpoint is unmatched". {O,O} not being in E^2
// enforces maximality.
class MatchingProblem : public EdgeProblem {
 public:
  static constexpr Label kM = 0;
  static constexpr Label kP = 1;
  static constexpr Label kO = 2;
  static constexpr Label kD = 3;

  std::string Name() const override { return "maximal-matching"; }
  bool NodeConfigOk(std::span<const Label> labels) const override;
  bool EdgeConfigOk(std::span<const Label> labels, int rank) const override;
  std::string LabelToString(Label l) const override;

  // The labeling process of Lemma 17: match the edge iff neither endpoint is
  // matched yet; otherwise P on matched endpoints, O on unmatched ones.
  void AssignEdge(std::span<Label> at_u, int port_u, std::span<Label> at_v,
                  int port_v) const override;

  // Matched-edge indicator from a labeling.
  static std::vector<char> ExtractMatching(const Graph& g,
                                           const HalfEdgeLabeling& h);

  // Raw combinatorial oracle.
  static bool IsMaximalMatching(const Graph& g,
                                const std::vector<char>& matched);
};

}  // namespace treelocal

#endif  // TREELOCAL_PROBLEMS_MATCHING_H_
