// Cross-validation of the accounted sweep (oracle::SweepNodeClasses) against
// a literal message-passing execution of the same algorithm on the engine:
// identical labelings, and engine rounds == the charged schedule length.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "src/algos/linial.h"
#include "src/graph/generators.h"
#include "src/problems/coloring.h"
#include "src/problems/list_coloring.h"
#include "src/problems/mis.h"
#include "src/support/rng.h"
#include "tests/oracle/host_oracle.h"

namespace treelocal {
namespace {

struct Fixture {
  Graph g;
  std::vector<int64_t> ids;
  LinialResult linial;
};

Fixture Make(int n, uint64_t seed) {
  Fixture f;
  f.g = UniformRandomTree(n, seed);
  f.ids = DefaultIds(n, seed + 1);
  local::Network net(f.g, f.ids);
  f.linial = RunLinial(net, int64_t{n} * n * n);
  return f;
}

TEST(DistributedSweepTest, MisMatchesAccountedSweep) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    Fixture s = Make(300, seed);
    MisProblem mis;

    HalfEdgeLabeling accounted(s.g);
    std::vector<int> nodes(s.g.NumNodes());
    for (int v = 0; v < s.g.NumNodes(); ++v) nodes[v] = v;
    int64_t charged = oracle::SweepNodeClasses(
        mis, s.g, nodes, s.linial.colors, s.linial.num_colors, accounted);

    auto literal = oracle::RunDistributedNodeSweep(
        mis, s.g, s.ids, s.linial.colors, s.linial.num_colors);
    EXPECT_EQ(literal.rounds, charged) << "seed " << seed;
    for (int e = 0; e < s.g.NumEdges(); ++e) {
      ASSERT_EQ(literal.labeling.GetSlot(e, 0), accounted.GetSlot(e, 0));
      ASSERT_EQ(literal.labeling.GetSlot(e, 1), accounted.GetSlot(e, 1));
    }
    EXPECT_TRUE(mis.ValidateGraph(s.g, literal.labeling));
  }
}

TEST(DistributedSweepTest, ColoringMatchesAccountedSweep) {
  Fixture s = Make(250, 7);
  ColoringProblem col(ColoringProblem::Mode::kDegPlusOne, 0);

  HalfEdgeLabeling accounted(s.g);
  std::vector<int> nodes(s.g.NumNodes());
  for (int v = 0; v < s.g.NumNodes(); ++v) nodes[v] = v;
  oracle::SweepNodeClasses(col, s.g, nodes, s.linial.colors,
                           s.linial.num_colors, accounted);

  auto literal = oracle::RunDistributedNodeSweep(
      col, s.g, s.ids, s.linial.colors, s.linial.num_colors);
  for (int e = 0; e < s.g.NumEdges(); ++e) {
    ASSERT_EQ(literal.labeling.GetSlot(e, 0), accounted.GetSlot(e, 0));
    ASSERT_EQ(literal.labeling.GetSlot(e, 1), accounted.GetSlot(e, 1));
  }
  EXPECT_TRUE(col.ValidateGraph(s.g, literal.labeling));
}

TEST(DistributedSweepTest, ListColoringMatchesAccountedSweep) {
  Fixture s = Make(200, 9);
  ListColoringProblem problem(
      ListColoringProblem::RandomLists(s.g, 0, 4000, 10));

  HalfEdgeLabeling accounted(s.g);
  std::vector<int> nodes(s.g.NumNodes());
  for (int v = 0; v < s.g.NumNodes(); ++v) nodes[v] = v;
  oracle::SweepNodeClasses(problem, s.g, nodes, s.linial.colors,
                           s.linial.num_colors, accounted);

  auto literal = oracle::RunDistributedNodeSweep(
      problem, s.g, s.ids, s.linial.colors, s.linial.num_colors);
  for (int e = 0; e < s.g.NumEdges(); ++e) {
    ASSERT_EQ(literal.labeling.GetSlot(e, 0), accounted.GetSlot(e, 0));
  }
  EXPECT_TRUE(problem.ValidateGraph(s.g, literal.labeling));
}

TEST(DistributedSweepTest, RoundsEqualScheduleLength) {
  // Even when most classes are empty, the literal run burns one round per
  // class — the point of charging num_colors rather than #nonempty.
  Graph g = Path(4);
  auto ids = DefaultIds(4, 11);
  std::vector<int64_t> colors = {0, 5, 0, 5};  // classes 1-4 empty
  MisProblem mis;
  auto literal = oracle::RunDistributedNodeSweep(mis, g, ids, colors, 10);
  EXPECT_EQ(literal.rounds, 10);
  EXPECT_TRUE(mis.ValidateGraph(g, literal.labeling));
}

TEST(DistributedSweepTest, MessageCountBounded) {
  // Each node sends exactly deg(v) messages (once, in its class round).
  Fixture s = Make(150, 13);
  MisProblem mis;
  auto literal = oracle::RunDistributedNodeSweep(
      mis, s.g, s.ids, s.linial.colors, s.linial.num_colors);
  EXPECT_EQ(literal.messages, 2 * s.g.NumEdges());
}

// The sweep's labeling is order-independent only on a proper coloring in
// range; anything else is refused on every engine before it runs.
TEST(DistributedSweepTest, RefusesBadColorings) {
  const int n = 1 << 13;
  const Graph g = UniformRandomTree(n, 5);
  const auto ids = DefaultIds(n, 6);
  MisProblem mis;
  std::vector<int64_t> improper(n);
  for (int v = 0; v < n; ++v) improper[v] = (37 * int64_t{v}) % 23;
  EXPECT_THROW(oracle::RunDistributedNodeSweep(mis, g, ids, improper, 23),
               std::invalid_argument);
  EXPECT_THROW(oracle::RunDistributedNodeSweep(mis, g, ids, improper, 23, 4),
               std::invalid_argument);
  EXPECT_THROW(
      oracle::RunDistributedNodeSweepReference(mis, g, ids, improper, 23),
      std::invalid_argument);

  Fixture s = Make(150, 14);
  std::vector<int64_t> out_of_range = s.linial.colors;
  out_of_range[7] = s.linial.num_colors;
  EXPECT_THROW(oracle::RunDistributedNodeSweep(mis, s.g, s.ids, out_of_range,
                                               s.linial.num_colors),
               std::invalid_argument);
}

}  // namespace
}  // namespace treelocal
