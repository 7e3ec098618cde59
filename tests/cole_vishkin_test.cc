#include <gtest/gtest.h>

#include <cstdint>

#include "src/algos/cole_vishkin.h"
#include "src/graph/algorithms.h"
#include "src/graph/generators.h"
#include "src/support/mathutil.h"
#include "src/support/rng.h"

namespace treelocal {
namespace {

// Parent array for a tree rooted at `root` (BFS orientation).
std::vector<int> RootAt(const Graph& tree, int root) {
  std::vector<int> parent(tree.NumNodes(), -1);
  std::vector<int> order = {root};
  std::vector<char> seen(tree.NumNodes(), 0);
  seen[root] = 1;
  for (size_t i = 0; i < order.size(); ++i) {
    int v = order[i];
    for (int u : tree.Neighbors(v)) {
      if (!seen[u]) {
        seen[u] = 1;
        parent[u] = v;
        order.push_back(u);
      }
    }
  }
  return parent;
}

void ExpectProper3Coloring(const Graph& g, const std::vector<int>& colors) {
  for (int e = 0; e < g.NumEdges(); ++e) {
    auto [u, v] = g.Endpoints(e);
    EXPECT_NE(colors[u], colors[v]) << "edge " << u << "-" << v;
  }
  for (int c : colors) {
    EXPECT_GE(c, 0);
    EXPECT_LE(c, 2);
  }
}

TEST(ColeVishkinTest, PathIsProperly3Colored) {
  Graph g = Path(100);
  auto ids = DefaultIds(100, 1);
  local::Network net(g, ids);
  auto result = ColeVishkin3Color(net, RootAt(g, 0), 100LL * 100 * 100);
  ExpectProper3Coloring(g, result.colors);
}

TEST(ColeVishkinTest, StarIsProperly3Colored) {
  Graph g = Star(50);
  auto ids = DefaultIds(50, 2);
  local::Network net(g, ids);
  auto result = ColeVishkin3Color(net, RootAt(g, 0), 50LL * 50 * 50);
  ExpectProper3Coloring(g, result.colors);
}

TEST(ColeVishkinTest, SingletonColored) {
  Graph g = Path(1);
  local::Network net(g, {5});
  auto result = ColeVishkin3Color(net, {-1}, 100);
  ASSERT_EQ(result.colors.size(), 1u);
  EXPECT_GE(result.colors[0], 0);
  EXPECT_LE(result.colors[0], 2);
}

TEST(ColeVishkinTest, EmptyForest) {
  Graph g = Graph::FromEdges(0, {});
  local::Network net(g, {});
  auto result = ColeVishkin3Color(net, {}, 100);
  EXPECT_TRUE(result.colors.empty());
}

TEST(ColeVishkinTest, MultiComponentForest) {
  // Two disjoint paths.
  Graph g = Graph::FromEdges(8, {{0, 1}, {1, 2}, {2, 3}, {4, 5}, {5, 6},
                                 {6, 7}});
  auto ids = DefaultIds(8, 3);
  std::vector<int> parent = {-1, 0, 1, 2, -1, 4, 5, 6};
  local::Network net(g, ids);
  auto result = ColeVishkin3Color(net, parent, 8LL * 8 * 8);
  ExpectProper3Coloring(g, result.colors);
}

TEST(ColeVishkinTest, RoundsAreLogStarPlusConstant) {
  // Round count = K + 7 where K = ColeVishkinIterations(id_space); K is the
  // log* term. Check against a generous constant on a big tree.
  const int n = 1 << 14;
  Graph g = UniformRandomTree(n, 5);
  auto ids = DefaultIds(n, 6);
  int64_t space = static_cast<int64_t>(n) * n * n;
  local::Network net(g, ids);
  auto result = ColeVishkin3Color(net, RootAt(g, 0), space);
  ExpectProper3Coloring(g, result.colors);
  EXPECT_LE(result.rounds, ColeVishkinIterations(space) + 8);
  EXPECT_LE(result.rounds, LogStar(static_cast<double>(space)) + 16);
}

TEST(ColeVishkinTest, IterationScheduleIsTiny) {
  // The whole point of log*: even astronomically large ID spaces converge
  // in a handful of iterations.
  EXPECT_LE(ColeVishkinIterations(int64_t{1} << 62), 6);
  EXPECT_GE(ColeVishkinIterations(int64_t{1} << 62), 3);
  EXPECT_LE(ColeVishkinIterations(1000), 5);
}

// The step against its definition: i is the lowest bit index at which the
// two colors differ, found by a plain bit loop, and the new color is
// 2*i + bit_i(mine). Covers negative words and differences up to bit 63.
TEST(ColeVishkinTest, StepMatchesLowestDifferingBitDefinition) {
  auto by_definition = [](int64_t mine, int64_t parent) {
    const uint64_t a = static_cast<uint64_t>(mine);
    const uint64_t b = static_cast<uint64_t>(parent);
    int i = 0;
    while (((a >> i) & 1) == ((b >> i) & 1)) ++i;
    return 2 * static_cast<int64_t>(i) + static_cast<int64_t>((a >> i) & 1);
  };
  Rng rng(303);
  for (int trial = 0; trial < 4000; ++trial) {
    const int64_t mine = static_cast<int64_t>(rng.NextU64());
    // Flip one chosen bit (0..63) and randomize everything above it, so
    // every bit index is the lowest differing one in some trial.
    const int bit = trial % 64;
    const uint64_t above = bit == 63 ? 0 : rng.NextU64() << (bit + 1);
    const int64_t parent = static_cast<int64_t>(
        static_cast<uint64_t>(mine) ^ (uint64_t{1} << bit) ^ above);
    ASSERT_EQ(ColeVishkinStep(mine, parent), by_definition(mine, parent))
        << "mine " << mine << " parent " << parent;
  }
  EXPECT_EQ(ColeVishkinStep(0, 1), 0);
  EXPECT_EQ(ColeVishkinStep(1, 0), 1);
  EXPECT_EQ(ColeVishkinStep(-1, 0), 1);
  EXPECT_EQ(ColeVishkinStep(0, INT64_MIN), 126);
  EXPECT_EQ(ColeVishkinStep(INT64_MIN, 0), 127);
  EXPECT_EQ(ColeVishkinStep(-2, -1), 0);
}

class CvFamilyTest : public ::testing::TestWithParam<TreeFamily> {};

TEST_P(CvFamilyTest, ProperOnAllFamilies) {
  for (int n : {32, 257}) {
    Graph g = MakeTree(GetParam(), n, 99);
    auto ids = DefaultIds(g.NumNodes(), 100);
    int64_t space =
        static_cast<int64_t>(g.NumNodes()) * g.NumNodes() * g.NumNodes();
    local::Network net(g, ids);
    auto result = ColeVishkin3Color(net, RootAt(g, 0), space);
    ExpectProper3Coloring(g, result.colors);
  }
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, CvFamilyTest,
                         ::testing::ValuesIn(AllTreeFamilies()),
                         [](const auto& info) {
                           return TreeFamilyName(info.param);
                         });

}  // namespace
}  // namespace treelocal
