// Unit tests for the host-side color-class sweeps (tests/oracle/): class
// counting, ordering guarantees, and the independence precondition that
// makes a sweep a faithful execution of per-class LOCAL rounds.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/algos/linial.h"
#include "src/graph/generators.h"
#include "src/problems/coloring.h"
#include "src/problems/matching.h"
#include "src/problems/mis.h"
#include "src/support/rng.h"
#include "tests/oracle/host_oracle.h"

namespace treelocal {
namespace {

TEST(SweepTest, SweepChargesScheduleLength) {
  Graph g = Path(6);
  MisProblem mis;
  HalfEdgeLabeling h(g);
  std::vector<int> nodes = {0, 1, 2, 3, 4, 5};
  std::vector<int64_t> colors = {0, 1, 0, 1, 0, 1};
  int64_t classes = oracle::SweepNodeClasses(mis, g, nodes, colors, 2, h);
  EXPECT_EQ(classes, 2);
  EXPECT_TRUE(mis.ValidateGraph(g, h));
}

TEST(SweepTest, SingleClassOnIndependentSet) {
  // All of one side of a star can go in a single class.
  Graph g = Star(8);
  ColoringProblem col(ColoringProblem::Mode::kDegPlusOne, 0);
  HalfEdgeLabeling h(g);
  std::vector<int> nodes;
  std::vector<int64_t> colors;
  for (int v = 1; v < 8; ++v) {
    nodes.push_back(v);
    colors.push_back(0);
  }
  nodes.push_back(0);
  colors.push_back(1);
  int64_t classes = oracle::SweepNodeClasses(col, g, nodes, colors, 2, h);
  EXPECT_EQ(classes, 2);
  EXPECT_TRUE(col.ValidateGraph(g, h));
}

TEST(SweepTest, LowerClassesDecideFirstChargedFullSchedule) {
  // On an edge {0,1} with colors {5, 2}: node 1 (class 2) must be swept
  // before node 0 (class 5), so node 1 gets color 1 and node 0 color 2.
  Graph g = Path(2);
  ColoringProblem col(ColoringProblem::Mode::kDegPlusOne, 0);
  HalfEdgeLabeling h(g);
  int64_t classes = oracle::SweepNodeClasses(col, g, {0, 1}, {5, 2}, 6, h);
  EXPECT_EQ(classes, 6);  // schedule length, not #nonempty classes
  EXPECT_EQ(h.Get(0, 1), 1);
  EXPECT_EQ(h.Get(0, 0), 2);
}

TEST(SweepTest, EdgeSweepMatchesLineGraphColoring) {
  Graph g = UniformRandomTree(200, 3);
  auto ids = DefaultIds(200, 4);
  // Proper coloring of L(G) by hand: color edges greedily (centralized).
  std::vector<int64_t> colors(g.NumEdges(), -1);
  for (int e = 0; e < g.NumEdges(); ++e) {
    auto [u, v] = g.Endpoints(e);
    std::set<int64_t> used;
    for (int e2 : g.IncidentEdges(u)) {
      if (colors[e2] >= 0) used.insert(colors[e2]);
    }
    for (int e2 : g.IncidentEdges(v)) {
      if (colors[e2] >= 0) used.insert(colors[e2]);
    }
    int64_t c = 0;
    while (used.count(c)) ++c;
    colors[e] = c;
  }
  MatchingProblem mm;
  HalfEdgeLabeling h(g);
  std::vector<int> edges(g.NumEdges());
  for (int e = 0; e < g.NumEdges(); ++e) edges[e] = e;
  int64_t max_color = *std::max_element(colors.begin(), colors.end());
  oracle::SweepEdgeClasses(mm, g, edges, colors, max_color + 1, h);
  std::string why;
  EXPECT_TRUE(mm.ValidateGraph(g, h, &why)) << why;
}

TEST(SweepTest, SweepAfterLinialEqualsSequentialQuality) {
  // MIS computed via Linial+sweep and via plain sequential order must both
  // be valid (they generally differ as sets).
  Graph g = UniformRandomTree(300, 5);
  auto ids = DefaultIds(300, 6);
  local::Network net(g, ids);
  auto linial = RunLinial(net, 300LL * 300 * 300);
  MisProblem mis;

  HalfEdgeLabeling h_sweep(g);
  std::vector<int> nodes(g.NumNodes());
  for (int v = 0; v < g.NumNodes(); ++v) nodes[v] = v;
  oracle::SweepNodeClasses(mis, g, nodes, linial.colors, linial.num_colors,
                           h_sweep);
  EXPECT_TRUE(mis.ValidateGraph(g, h_sweep));

  HalfEdgeLabeling h_seq(g);
  mis.CompleteNodes(g, nodes, h_seq);
  EXPECT_TRUE(mis.ValidateGraph(g, h_seq));
}

TEST(SweepTest, IntraClassOrderIrrelevant) {
  // The justification for charging one LOCAL round per class: nodes of one
  // class are pairwise non-adjacent, so their simultaneous greedy decisions
  // cannot interact. Equivalent statement: permuting the processing order
  // *within* classes never changes the outcome.
  Graph g = UniformRandomTree(250, 7);
  auto ids = DefaultIds(250, 8);
  local::Network net(g, ids);
  auto linial = RunLinial(net, 250LL * 250 * 250);
  MisProblem mis;

  std::vector<int> nodes(g.NumNodes());
  for (int v = 0; v < g.NumNodes(); ++v) nodes[v] = v;

  HalfEdgeLabeling reference(g);
  oracle::SweepNodeClasses(mis, g, nodes, linial.colors, linial.num_colors,
                           reference);

  Rng rng(9);
  for (int trial = 0; trial < 5; ++trial) {
    // Shuffle globally; the sweep's stable sort then visits each class in a
    // random internal order.
    std::vector<int> shuffled = nodes;
    rng.Shuffle(shuffled);
    std::vector<int64_t> shuffled_colors(shuffled.size());
    for (size_t i = 0; i < shuffled.size(); ++i) {
      shuffled_colors[i] = linial.colors[shuffled[i]];
    }
    HalfEdgeLabeling h(g);
    oracle::SweepNodeClasses(mis, g, shuffled, shuffled_colors,
                             linial.num_colors, h);
    for (int e = 0; e < g.NumEdges(); ++e) {
      ASSERT_EQ(h.GetSlot(e, 0), reference.GetSlot(e, 0)) << "trial " << trial;
      ASSERT_EQ(h.GetSlot(e, 1), reference.GetSlot(e, 1)) << "trial " << trial;
    }
  }
}

TEST(SweepTest, IntraClassOrderIrrelevantForEdges) {
  Graph g = UniformRandomTree(200, 10);
  auto ids = DefaultIds(200, 11);
  // Centralized proper edge coloring as the class structure.
  std::vector<int64_t> colors(g.NumEdges(), -1);
  for (int e = 0; e < g.NumEdges(); ++e) {
    auto [u, v] = g.Endpoints(e);
    std::set<int64_t> used;
    for (int e2 : g.IncidentEdges(u)) {
      if (colors[e2] >= 0) used.insert(colors[e2]);
    }
    for (int e2 : g.IncidentEdges(v)) {
      if (colors[e2] >= 0) used.insert(colors[e2]);
    }
    int64_t c = 0;
    while (used.count(c)) ++c;
    colors[e] = c;
  }
  int64_t num_colors = *std::max_element(colors.begin(), colors.end()) + 1;
  MatchingProblem mm;

  std::vector<int> edges(g.NumEdges());
  for (int e = 0; e < g.NumEdges(); ++e) edges[e] = e;
  HalfEdgeLabeling reference(g);
  oracle::SweepEdgeClasses(mm, g, edges, colors, num_colors, reference);

  Rng rng(12);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<int> shuffled = edges;
    rng.Shuffle(shuffled);
    std::vector<int64_t> shuffled_colors(shuffled.size());
    for (size_t i = 0; i < shuffled.size(); ++i) {
      shuffled_colors[i] = colors[shuffled[i]];
    }
    HalfEdgeLabeling h(g);
    oracle::SweepEdgeClasses(mm, g, shuffled, shuffled_colors, num_colors, h);
    for (int e = 0; e < g.NumEdges(); ++e) {
      ASSERT_EQ(h.GetSlot(e, 0), reference.GetSlot(e, 0));
      ASSERT_EQ(h.GetSlot(e, 1), reference.GetSlot(e, 1));
    }
  }
}

}  // namespace
}  // namespace treelocal
