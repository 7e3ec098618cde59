#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "src/algos/linial.h"
#include "src/graph/generators.h"
#include "src/graph/linegraph.h"
#include "src/support/mathutil.h"
#include "src/support/rng.h"

namespace treelocal {
namespace {

void ExpectProper(const Graph& g, const std::vector<int64_t>& colors,
                  int64_t num_colors) {
  for (int e = 0; e < g.NumEdges(); ++e) {
    auto [u, v] = g.Endpoints(e);
    EXPECT_NE(colors[u], colors[v]);
  }
  for (int64_t c : colors) {
    EXPECT_GE(c, 0);
    EXPECT_LT(c, num_colors);
  }
}

TEST(LinialTest, ProperOnRandomTree) {
  const int n = 2000;
  Graph g = UniformRandomTree(n, 1);
  auto ids = DefaultIds(n, 2);
  int64_t space = static_cast<int64_t>(n) * n * n;
  local::Network net(g, ids);
  auto result = RunLinial(net, space);
  ExpectProper(g, result.colors, result.num_colors);
}

TEST(LinialTest, ProperOnGrid) {
  Graph g = Grid(30, 30);
  auto ids = DefaultIds(g.NumNodes(), 3);
  int64_t space = static_cast<int64_t>(g.NumNodes()) * g.NumNodes();
  local::Network net(g, ids);
  auto result = RunLinial(net, space);
  ExpectProper(g, result.colors, result.num_colors);
}

TEST(LinialTest, ProperOnHighDegreeStar) {
  Graph g = Star(500);
  auto ids = DefaultIds(500, 4);
  local::Network net(g, ids);
  auto result = RunLinial(net, 500LL * 500 * 500);
  ExpectProper(g, result.colors, result.num_colors);
}

TEST(LinialTest, FinalColorCountPolynomialInDelta) {
  // num_colors = q^2 with q = O(Delta log Delta); assert O(Delta^2 log^2).
  for (int delta : {2, 4, 8, 16}) {
    Graph g = BoundedDegreeRandomTree(3000, delta, 7);
    int real_delta = g.MaxDegree();
    auto ids = DefaultIds(3000, 8);
    local::Network net(g, ids);
    auto result = RunLinial(net, 3000LL * 3000 * 3000);
    ExpectProper(g, result.colors, result.num_colors);
    double bound = 64.0 * real_delta * real_delta *
                   (std::log2(real_delta) + 2) * (std::log2(real_delta) + 2);
    EXPECT_LE(result.num_colors, bound) << "delta=" << real_delta;
  }
}

TEST(LinialTest, RoundsAreLogStarLike) {
  // Schedule length is O(log* id_space): tiny even for big instances.
  for (int n : {100, 10000, 100000}) {
    int64_t space = static_cast<int64_t>(n) * n * n;
    LinialSchedule schedule = BuildLinialSchedule(space, 8);
    EXPECT_LE(static_cast<int>(schedule.steps.size()),
              LogStar(static_cast<double>(space)) + 4)
        << "n=" << n;
  }
}

TEST(LinialTest, ScheduleDeterministic) {
  LinialSchedule a = BuildLinialSchedule(1 << 30, 12);
  LinialSchedule b = BuildLinialSchedule(1 << 30, 12);
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(a.steps[i].q, b.steps[i].q);
    EXPECT_EQ(a.steps[i].d, b.steps[i].d);
  }
  EXPECT_EQ(a.final_colors, b.final_colors);
}

TEST(LinialTest, ScheduleStepsShrink) {
  LinialSchedule s = BuildLinialSchedule(int64_t{1} << 40, 6);
  int64_t m = int64_t{1} << 40;
  for (const LinialStep& step : s.steps) {
    EXPECT_GT(step.q, 6 * step.d) << "q must exceed Delta*d";
    int64_t next = step.q * step.q;
    EXPECT_LT(next, m) << "each step must make progress";
    m = next;
  }
  EXPECT_EQ(m, s.final_colors);
}

TEST(LinialTest, ZeroDegreeGraph) {
  Graph g = Graph::FromEdges(5, {});
  auto ids = DefaultIds(5, 9);
  local::Network net(g, ids);
  auto result = RunLinial(net, 1000);
  EXPECT_EQ(result.num_colors, 1);
  for (int64_t c : result.colors) EXPECT_EQ(c, 0);
}

TEST(LinialTest, ProperOnLineGraph) {
  // The edge-problem path: Linial on L(G).
  Graph g = UniformRandomTree(500, 10);
  auto host_ids = DefaultIds(500, 11);
  std::vector<int> all(g.NumEdges());
  std::iota(all.begin(), all.end(), 0);
  LineGraph lg = BuildLineGraph(g, all);
  auto line_ids = LineGraphIds(g, all, host_ids);
  int64_t space = 7LL * g.NumEdges() + 1;
  local::Network net(lg.graph, line_ids);
  auto result = RunLinial(net, space);
  ExpectProper(lg.graph, result.colors, result.num_colors);
}

TEST(LinialTest, DeterministicColors) {
  Graph g = UniformRandomTree(300, 12);
  auto ids = DefaultIds(300, 13);
  local::Network net(g, ids);
  auto r1 = RunLinial(net, 300LL * 300 * 300);
  local::Network net2(g, ids);
  auto r2 = RunLinial(net2, 300LL * 300 * 300);
  EXPECT_EQ(r1.colors, r2.colors);
  EXPECT_EQ(r1.rounds, r2.rounds);
}

class LinialDegreeSweep : public ::testing::TestWithParam<int> {};

TEST_P(LinialDegreeSweep, ProperAcrossDegrees) {
  int delta = GetParam();
  Graph g = BoundedDegreeRandomTree(1000, delta, 21);
  auto ids = DefaultIds(1000, 22);
  local::Network net(g, ids);
  auto result = RunLinial(net, 1000LL * 1000 * 1000);
  ExpectProper(g, result.colors, result.num_colors);
}

INSTANTIATE_TEST_SUITE_P(Degrees, LinialDegreeSweep,
                         ::testing::Values(2, 3, 4, 6, 10, 20, 40));

}  // namespace
}  // namespace treelocal
