#include <gtest/gtest.h>

#include <vector>

#include "src/graph/generators.h"
#include "src/support/rng.h"
#include "src/problems/coloring.h"
#include "src/problems/edge_coloring.h"
#include "src/problems/matching.h"
#include "src/problems/mis.h"

namespace treelocal {
namespace {

// ---------- MIS configuration predicates ----------

TEST(MisConfigTest, NodeConfigs) {
  MisProblem mis;
  using L = std::vector<Label>;
  EXPECT_TRUE(mis.NodeConfigOk(L{}));
  EXPECT_TRUE(mis.NodeConfigOk(L{MisProblem::kM}));
  EXPECT_TRUE(mis.NodeConfigOk(L{MisProblem::kM, MisProblem::kM}));
  EXPECT_TRUE(mis.NodeConfigOk(L{MisProblem::kP}));
  EXPECT_TRUE(mis.NodeConfigOk(L{MisProblem::kP, MisProblem::kU}));
  EXPECT_TRUE(mis.NodeConfigOk(L{MisProblem::kP, MisProblem::kP}));
  // No pointer: not covered.
  EXPECT_FALSE(mis.NodeConfigOk(L{MisProblem::kU}));
  EXPECT_FALSE(mis.NodeConfigOk(L{MisProblem::kU, MisProblem::kU}));
  // Mixed M with non-M: incoherent node state.
  EXPECT_FALSE(mis.NodeConfigOk(L{MisProblem::kM, MisProblem::kU}));
  EXPECT_FALSE(mis.NodeConfigOk(L{MisProblem::kM, MisProblem::kP}));
  // Unknown label.
  EXPECT_FALSE(mis.NodeConfigOk(L{77}));
}

TEST(MisConfigTest, EdgeConfigs) {
  MisProblem mis;
  using L = std::vector<Label>;
  EXPECT_TRUE(mis.EdgeConfigOk(L{}, 0));
  EXPECT_TRUE(mis.EdgeConfigOk(L{MisProblem::kM}, 1));
  EXPECT_TRUE(mis.EdgeConfigOk(L{MisProblem::kU}, 1));
  EXPECT_FALSE(mis.EdgeConfigOk(L{MisProblem::kP}, 1));  // dangling pointer
  EXPECT_TRUE(mis.EdgeConfigOk(L{MisProblem::kM, MisProblem::kU}, 2));
  EXPECT_TRUE(mis.EdgeConfigOk(L{MisProblem::kM, MisProblem::kP}, 2));
  EXPECT_TRUE(mis.EdgeConfigOk(L{MisProblem::kU, MisProblem::kU}, 2));
  EXPECT_FALSE(mis.EdgeConfigOk(L{MisProblem::kM, MisProblem::kM}, 2));
  EXPECT_FALSE(mis.EdgeConfigOk(L{MisProblem::kP, MisProblem::kU}, 2));
  EXPECT_FALSE(mis.EdgeConfigOk(L{MisProblem::kP, MisProblem::kP}, 2));
  // Size/rank mismatch.
  EXPECT_FALSE(mis.EdgeConfigOk(L{MisProblem::kM}, 2));
}

TEST(MisTest, SequentialGreedyOnTreeIsValid) {
  Graph g = UniformRandomTree(200, 1);
  MisProblem mis;
  HalfEdgeLabeling h(g);
  std::vector<int> order(g.NumNodes());
  for (int v = 0; v < g.NumNodes(); ++v) order[v] = v;
  mis.CompleteNodes(g, order, h);
  std::string why;
  EXPECT_TRUE(mis.ValidateGraph(g, h, &why)) << why;
  EXPECT_TRUE(MisProblem::IsMaximalIndependentSet(g, MisProblem::ExtractSet(g, h)));
}

TEST(MisTest, ValidatorRejectsAdjacentMs) {
  Graph g = Path(2);
  MisProblem mis;
  HalfEdgeLabeling h(g);
  h.Set(0, 0, MisProblem::kM);
  h.Set(0, 1, MisProblem::kM);
  EXPECT_FALSE(mis.ValidateGraph(g, h));
}

TEST(MisTest, ValidatorRejectsUncoveredNode) {
  Graph g = Path(2);
  MisProblem mis;
  HalfEdgeLabeling h(g);
  h.Set(0, 0, MisProblem::kU);
  h.Set(0, 1, MisProblem::kU);
  EXPECT_FALSE(mis.ValidateGraph(g, h));
}

// ---------- Coloring ----------

TEST(ColoringConfigTest, NodeConfigs) {
  ColoringProblem delta_mode(ColoringProblem::Mode::kDeltaPlusOne, 3);
  using L = std::vector<Label>;
  EXPECT_TRUE(delta_mode.NodeConfigOk(L{2, 2, 2}));
  EXPECT_FALSE(delta_mode.NodeConfigOk(L{2, 3}));  // inconsistent halves
  EXPECT_FALSE(delta_mode.NodeConfigOk(L{5}));     // > Delta+1
  EXPECT_FALSE(delta_mode.NodeConfigOk(L{0}));     // colors are 1-based
  EXPECT_TRUE(delta_mode.NodeConfigOk(L{4}));      // == Delta+1

  ColoringProblem deg_mode(ColoringProblem::Mode::kDegPlusOne, 0);
  EXPECT_TRUE(deg_mode.NodeConfigOk(L{2}));    // deg 1, bound 2
  EXPECT_FALSE(deg_mode.NodeConfigOk(L{3}));   // deg 1, bound 2
  EXPECT_TRUE(deg_mode.NodeConfigOk(L{3, 3}));  // deg 2, bound 3
}

TEST(ColoringConfigTest, EdgeConfigs) {
  ColoringProblem c(ColoringProblem::Mode::kDeltaPlusOne, 3);
  using L = std::vector<Label>;
  EXPECT_TRUE(c.EdgeConfigOk(L{1, 2}, 2));
  EXPECT_FALSE(c.EdgeConfigOk(L{2, 2}, 2));  // monochromatic
  EXPECT_TRUE(c.EdgeConfigOk(L{7}, 1));
}

TEST(ColoringTest, GreedyProducesProperColoring) {
  Graph g = UniformRandomTree(300, 2);
  ColoringProblem problem(ColoringProblem::Mode::kDegPlusOne, g.MaxDegree());
  HalfEdgeLabeling h(g);
  std::vector<int> order(g.NumNodes());
  for (int v = 0; v < g.NumNodes(); ++v) order[v] = v;
  problem.CompleteNodes(g, order, h);
  std::string why;
  EXPECT_TRUE(problem.ValidateGraph(g, h, &why)) << why;
  EXPECT_TRUE(problem.IsProperlyColored(g, ColoringProblem::ExtractColors(g, h)));
}

TEST(ColoringTest, DeltaPlusOneRespectsGlobalBound) {
  Graph g = Star(30);
  ColoringProblem problem(ColoringProblem::Mode::kDeltaPlusOne, g.MaxDegree());
  HalfEdgeLabeling h(g);
  std::vector<int> order(g.NumNodes());
  for (int v = 0; v < g.NumNodes(); ++v) order[v] = v;
  problem.CompleteNodes(g, order, h);
  auto colors = ColoringProblem::ExtractColors(g, h);
  for (int v = 0; v < g.NumNodes(); ++v) {
    EXPECT_LE(colors[v], g.MaxDegree() + 1);
  }
  EXPECT_TRUE(problem.IsProperlyColored(g, colors));
}

// ---------- Edge coloring (Section 5.1 encoding) ----------

TEST(EdgeColoringConfigTest, PackUnpack) {
  Label l = EdgeColoringProblem::Pack(5, 9);
  EXPECT_TRUE(EdgeColoringProblem::IsPair(l));
  EXPECT_EQ(EdgeColoringProblem::DegreePart(l), 5);
  EXPECT_EQ(EdgeColoringProblem::ColorPart(l), 9);
  EXPECT_FALSE(EdgeColoringProblem::IsPair(EdgeColoringProblem::kD));
}

TEST(EdgeColoringConfigTest, NodeConfigs) {
  EdgeColoringProblem p(EdgeColoringProblem::Mode::kEdgeDegreePlusOne, 0);
  using L = std::vector<Label>;
  auto pair = [](int64_t a, int64_t b) {
    return EdgeColoringProblem::Pack(a, b);
  };
  // Two colored edges at the node: degree parts <= 2, distinct colors.
  EXPECT_TRUE(p.NodeConfigOk(L{pair(2, 1), pair(1, 3)}));
  EXPECT_FALSE(p.NodeConfigOk(L{pair(3, 1), pair(1, 3)}));  // a > p
  EXPECT_FALSE(p.NodeConfigOk(L{pair(1, 2), pair(1, 2)}));  // repeated color
  EXPECT_TRUE(p.NodeConfigOk(L{pair(1, 1), EdgeColoringProblem::kD}));
  EXPECT_TRUE(p.NodeConfigOk(L{}));
}

TEST(EdgeColoringConfigTest, EdgeConfigs) {
  EdgeColoringProblem p(EdgeColoringProblem::Mode::kEdgeDegreePlusOne, 0);
  using L = std::vector<Label>;
  auto pair = [](int64_t a, int64_t b) {
    return EdgeColoringProblem::Pack(a, b);
  };
  // a1 + a2 >= b + 1.
  EXPECT_TRUE(p.EdgeConfigOk(L{pair(2, 3), pair(2, 3)}, 2));
  EXPECT_FALSE(p.EdgeConfigOk(L{pair(1, 3), pair(1, 3)}, 2));  // 2 < 4
  EXPECT_FALSE(p.EdgeConfigOk(L{pair(2, 3), pair(2, 4)}, 2));  // colors differ
  EXPECT_TRUE(p.EdgeConfigOk(L{EdgeColoringProblem::kD}, 1));
  EXPECT_FALSE(p.EdgeConfigOk(L{pair(1, 1)}, 1));
  EXPECT_TRUE(p.EdgeConfigOk(L{}, 0));
}

TEST(EdgeColoringTest, Lemma16ProcessOnTree) {
  Graph g = UniformRandomTree(300, 3);
  EdgeColoringProblem problem(EdgeColoringProblem::Mode::kEdgeDegreePlusOne,
                              g.MaxDegree());
  HalfEdgeLabeling h(g);
  std::vector<int> order(g.NumEdges());
  for (int e = 0; e < g.NumEdges(); ++e) order[e] = e;
  problem.CompleteEdges(g, order, h);
  std::string why;
  EXPECT_TRUE(problem.ValidateGraph(g, h, &why)) << why;
  auto colors = EdgeColoringProblem::ExtractColors(g, h);
  EXPECT_TRUE(problem.IsProperEdgeColoring(g, colors));
  // The headline bound: color(e) <= edge-degree(e) + 1.
  for (int e = 0; e < g.NumEdges(); ++e) {
    EXPECT_LE(colors[e], g.EdgeDegree(e) + 1);
  }
}

TEST(EdgeColoringTest, TwoDeltaMinusOneModeOnGrid) {
  Graph g = Grid(10, 10);
  EdgeColoringProblem problem(EdgeColoringProblem::Mode::kTwoDeltaMinusOne,
                              g.MaxDegree());
  HalfEdgeLabeling h(g);
  std::vector<int> order(g.NumEdges());
  for (int e = 0; e < g.NumEdges(); ++e) order[e] = e;
  problem.CompleteEdges(g, order, h);
  std::string why;
  EXPECT_TRUE(problem.ValidateGraph(g, h, &why)) << why;
  auto colors = EdgeColoringProblem::ExtractColors(g, h);
  for (int e = 0; e < g.NumEdges(); ++e) {
    EXPECT_LE(colors[e], 2 * g.MaxDegree() - 1);
  }
}

// ---------- Matching (Section 5.2 encoding) ----------

TEST(MatchingConfigTest, NodeConfigs) {
  MatchingProblem p;
  using L = std::vector<Label>;
  EXPECT_TRUE(p.NodeConfigOk(L{MatchingProblem::kM, MatchingProblem::kP}));
  EXPECT_TRUE(p.NodeConfigOk(L{MatchingProblem::kM, MatchingProblem::kO,
                               MatchingProblem::kD}));
  EXPECT_TRUE(p.NodeConfigOk(L{MatchingProblem::kO, MatchingProblem::kO}));
  EXPECT_TRUE(p.NodeConfigOk(L{}));
  // Two Ms at one node: matched twice.
  EXPECT_FALSE(p.NodeConfigOk(L{MatchingProblem::kM, MatchingProblem::kM}));
  // P without M: untruthful "I am matched".
  EXPECT_FALSE(p.NodeConfigOk(L{MatchingProblem::kP, MatchingProblem::kO}));
}

TEST(MatchingConfigTest, EdgeConfigs) {
  MatchingProblem p;
  using L = std::vector<Label>;
  EXPECT_TRUE(p.EdgeConfigOk(L{MatchingProblem::kM, MatchingProblem::kM}, 2));
  EXPECT_TRUE(p.EdgeConfigOk(L{MatchingProblem::kP, MatchingProblem::kP}, 2));
  EXPECT_TRUE(p.EdgeConfigOk(L{MatchingProblem::kP, MatchingProblem::kO}, 2));
  // {O,O} violates maximality.
  EXPECT_FALSE(p.EdgeConfigOk(L{MatchingProblem::kO, MatchingProblem::kO}, 2));
  EXPECT_FALSE(p.EdgeConfigOk(L{MatchingProblem::kM, MatchingProblem::kP}, 2));
  EXPECT_TRUE(p.EdgeConfigOk(L{MatchingProblem::kD}, 1));
  EXPECT_FALSE(p.EdgeConfigOk(L{MatchingProblem::kM}, 1));
}

TEST(MatchingTest, Lemma17ProcessOnTree) {
  Graph g = UniformRandomTree(300, 4);
  MatchingProblem problem;
  HalfEdgeLabeling h(g);
  std::vector<int> order(g.NumEdges());
  for (int e = 0; e < g.NumEdges(); ++e) order[e] = e;
  problem.CompleteEdges(g, order, h);
  std::string why;
  EXPECT_TRUE(problem.ValidateGraph(g, h, &why)) << why;
  EXPECT_TRUE(MatchingProblem::IsMaximalMatching(
      g, MatchingProblem::ExtractMatching(g, h)));
}

TEST(MatchingTest, ValidatorRejectsNonMaximal) {
  // Single edge labeled {O,O}: a legal matching ({}) but not maximal.
  Graph g = Path(2);
  MatchingProblem p;
  HalfEdgeLabeling h(g);
  h.Set(0, 0, MatchingProblem::kO);
  h.Set(0, 1, MatchingProblem::kO);
  EXPECT_FALSE(p.ValidateGraph(g, h));
}

TEST(MatchingTest, ValidatorRejectsDoubleMatching) {
  // Path 0-1-2 with both edges matched: node 1 has two Ms.
  Graph g = Path(3);
  MatchingProblem p;
  HalfEdgeLabeling h(g);
  for (int e = 0; e < 2; ++e) {
    h.SetSlot(e, 0, MatchingProblem::kM);
    h.SetSlot(e, 1, MatchingProblem::kM);
  }
  EXPECT_FALSE(p.ValidateGraph(g, h));
}

// ---------- Cross-problem: sequential order robustness ----------

class OrderRobustnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OrderRobustnessTest, AnyAdversarialOrderWorks) {
  // Class P1/P2 demands the greedy work under adversarial processing order;
  // shuffle orders with different seeds.
  uint64_t seed = GetParam();
  Graph g = UniformRandomTree(150, seed);
  Rng rng(seed * 13 + 1);

  {
    MisProblem mis;
    HalfEdgeLabeling h(g);
    std::vector<int> order(g.NumNodes());
    for (int v = 0; v < g.NumNodes(); ++v) order[v] = v;
    rng.Shuffle(order);
    mis.CompleteNodes(g, order, h);
    EXPECT_TRUE(mis.ValidateGraph(g, h));
  }
  {
    MatchingProblem mm;
    HalfEdgeLabeling h(g);
    std::vector<int> order(g.NumEdges());
    for (int e = 0; e < g.NumEdges(); ++e) order[e] = e;
    rng.Shuffle(order);
    mm.CompleteEdges(g, order, h);
    EXPECT_TRUE(mm.ValidateGraph(g, h));
  }
  {
    EdgeColoringProblem ec(EdgeColoringProblem::Mode::kEdgeDegreePlusOne,
                           g.MaxDegree());
    HalfEdgeLabeling h(g);
    std::vector<int> order(g.NumEdges());
    for (int e = 0; e < g.NumEdges(); ++e) order[e] = e;
    rng.Shuffle(order);
    ec.CompleteEdges(g, order, h);
    EXPECT_TRUE(ec.ValidateGraph(g, h));
  }
  {
    ColoringProblem col(ColoringProblem::Mode::kDegPlusOne, g.MaxDegree());
    HalfEdgeLabeling h(g);
    std::vector<int> order(g.NumNodes());
    for (int v = 0; v < g.NumNodes(); ++v) order[v] = v;
    rng.Shuffle(order);
    col.CompleteNodes(g, order, h);
    EXPECT_TRUE(col.ValidateGraph(g, h));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrderRobustnessTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---------- AssignEdge symmetry ----------

// A random partial labeling: each half-edge independently unset, or a
// label drawn by `draw`.
template <typename Draw>
HalfEdgeLabeling RandomPartialLabeling(const Graph& g, Rng& rng, Draw draw) {
  HalfEdgeLabeling h(g);
  for (int e = 0; e < g.NumEdges(); ++e) {
    for (int slot = 0; slot < 2; ++slot) {
      if (rng.NextBelow(3) != 0) h.SetSlot(e, slot, draw());
    }
  }
  return h;
}

// For every edge, AssignEdge called with the ends in either order writes
// the same two labels (mirrored) and nothing else.
void ExpectSymmetric(const EdgeProblem& problem, const Graph& g,
                     const HalfEdgeLabeling& start) {
  for (int e = 0; e < g.NumEdges(); ++e) {
    const int u = g.EdgeU(e), v = g.EdgeV(e);
    const int pu = g.PortOf(u, v), pv = g.PortOf(v, u);
    HalfEdgeLabeling forward = start, backward = start;
    problem.AssignEdge(forward.AtNode(u), pu, forward.AtNode(v), pv);
    problem.AssignEdge(backward.AtNode(v), pv, backward.AtNode(u), pu);
    ASSERT_NE(forward.Get(e, u), kUnsetLabel);
    ASSERT_NE(forward.Get(e, v), kUnsetLabel);
    for (int f = 0; f < g.NumEdges(); ++f) {
      for (int slot = 0; slot < 2; ++slot) {
        ASSERT_EQ(forward.GetSlot(f, slot), backward.GetSlot(f, slot))
            << problem.Name() << " edge " << e << " half (" << f << ","
            << slot << ")";
        if (f != e) ASSERT_EQ(forward.GetSlot(f, slot), start.GetSlot(f, slot));
      }
    }
  }
}

TEST(AssignEdgeSymmetryTest, EdgeColoringBothModes) {
  Graph g = ForestUnion(60, 2, 11);
  Rng rng(5);
  for (auto mode : {EdgeColoringProblem::Mode::kEdgeDegreePlusOne,
                    EdgeColoringProblem::Mode::kTwoDeltaMinusOne}) {
    EdgeColoringProblem problem(mode, g.MaxDegree());
    for (int trial = 0; trial < 4; ++trial) {
      HalfEdgeLabeling start = RandomPartialLabeling(g, rng, [&] {
        if (rng.NextBelow(8) == 0) return EdgeColoringProblem::kD;
        return EdgeColoringProblem::Pack(rng.NextInRange(1, 6),
                                         rng.NextInRange(1, 12));
      });
      ExpectSymmetric(problem, g, start);
    }
    // And on the partial labelings the greedy itself produces.
    HalfEdgeLabeling greedy(g);
    for (int e = 0; e < g.NumEdges(); e += 2) {
      problem.SequentialAssignEdge(g, e, greedy);
    }
    ExpectSymmetric(problem, g, greedy);
  }
}

TEST(AssignEdgeSymmetryTest, Matching) {
  Graph g = ForestUnion(60, 2, 12);
  Rng rng(6);
  MatchingProblem problem;
  for (int trial = 0; trial < 4; ++trial) {
    HalfEdgeLabeling start = RandomPartialLabeling(g, rng, [&] {
      // Mostly P/O/D, so that many endpoints stay unmatched.
      return rng.NextBelow(6) == 0 ? MatchingProblem::kM
                                   : static_cast<Label>(rng.NextInRange(1, 3));
    });
    ExpectSymmetric(problem, g, start);
  }
  HalfEdgeLabeling greedy(g);
  for (int e = 0; e < g.NumEdges(); e += 3) {
    problem.SequentialAssignEdge(g, e, greedy);
  }
  ExpectSymmetric(problem, g, greedy);
}

}  // namespace
}  // namespace treelocal
