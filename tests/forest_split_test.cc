// Direct unit tests for the Section 4 forest/star splitting machinery
// (beyond the invariant sweeps in decomposition_test.cc).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/core/decomposition.h"
#include "src/core/forest_split.h"
#include "src/graph/algorithms.h"
#include "src/graph/generators.h"
#include "src/graph/subgraph.h"
#include "src/local/network.h"
#include "src/support/rng.h"
#include "tests/oracle/host_oracle.h"

namespace treelocal {
namespace {

TEST(ForestSplitTest, StarAllEdgesInOneForest) {
  // Star, a = 1: every leaf has exactly one atypical edge -> all edges get
  // color 0 -> F_1 = the whole star, F_2 empty.
  Graph g = Star(50);
  auto ids = DefaultIds(50, 1);
  auto decomp = RunDecomposition(g, ids, 1, 2, 5);
  local::Network net(g, ids);
  auto split = SplitAtypicalForests(net, decomp, 1, 50LL * 50 * 50);
  ASSERT_EQ(split.num_forests, 2);
  int64_t f0 = 0, f1 = 0;
  for (int e = 0; e < g.NumEdges(); ++e) {
    if (split.forest_of_edge[e] == 0) ++f0;
    if (split.forest_of_edge[e] == 1) ++f1;
  }
  EXPECT_EQ(f0, g.NumEdges());
  EXPECT_EQ(f1, 0);
}

TEST(ForestSplitTest, StarSplitsIntoOneStarClass) {
  // All leaves share the center as higher endpoint; the center has one CV
  // color, so every edge lands in the same F_{1,j}: one star.
  Graph g = Star(50);
  auto ids = DefaultIds(50, 2);
  auto decomp = RunDecomposition(g, ids, 1, 2, 5);
  local::Network net(g, ids);
  auto split = SplitAtypicalForests(net, decomp, 1, 50LL * 50 * 50);
  int nonempty = 0;
  for (int j = 0; j < 3; ++j) {
    if (!split.stars[0][j].empty()) {
      ++nonempty;
      EXPECT_EQ(split.stars[0][j].size(), size_t{49});
    }
  }
  EXPECT_EQ(nonempty, 1);
}

TEST(ForestSplitTest, EmptyAtypicalSetYieldsEmptySplit) {
  // Low-degree graph: no atypical edges at all.
  Graph g = Grid(10, 10);
  auto ids = DefaultIds(100, 3);
  auto decomp = RunDecomposition(g, ids, 2, 4, 10);
  local::Network net(g, ids);
  auto split = SplitAtypicalForests(net, decomp, 2, 1LL << 30);
  EXPECT_EQ(split.cv_rounds, 0);
  for (int e = 0; e < g.NumEdges(); ++e) {
    EXPECT_EQ(split.forest_of_edge[e], -1);
    EXPECT_EQ(split.star_class_of_edge[e], -1);
  }
}

TEST(ForestSplitTest, ParentsAreStrictlyHigher) {
  // In every F_i, the lower endpoint's parent (= higher endpoint) must be
  // strictly higher in the (layer, ID) order — this is what makes each F_i
  // acyclic.
  Graph g = StarUnion(512, 3, 4);
  auto ids = DefaultIds(g.NumNodes(), 5);
  auto decomp = RunDecomposition(g, ids, 3, 6, 15);
  local::Network net(g, ids);
  auto split = SplitAtypicalForests(net, decomp, 3, 1LL << 30);
  for (int e = 0; e < g.NumEdges(); ++e) {
    if (split.forest_of_edge[e] < 0) continue;
    int lo = decomp.LowerEndpoint(g, e, ids);
    int hi = g.OtherEndpoint(e, lo);
    EXPECT_TRUE(decomp.Lower(lo, hi, ids));
  }
}

TEST(ForestSplitTest, PerNodeOutDegreeWithinForestIsOne) {
  // Within one F_i a node is the lower endpoint of at most one edge.
  Graph g = HubbedForest(512, 3, 6);
  auto ids = DefaultIds(g.NumNodes(), 7);
  auto decomp = RunDecomposition(g, ids, 3, 6, 15);
  local::Network net(g, ids);
  auto split = SplitAtypicalForests(net, decomp, 3, 1LL << 30);
  for (int f = 0; f < split.num_forests; ++f) {
    std::vector<int> out(g.NumNodes(), 0);
    for (int e = 0; e < g.NumEdges(); ++e) {
      if (split.forest_of_edge[e] != f) continue;
      ++out[decomp.LowerEndpoint(g, e, ids)];
    }
    for (int v = 0; v < g.NumNodes(); ++v) {
      EXPECT_LE(out[v], 1) << "forest " << f << " node " << v;
    }
  }
}

TEST(ForestSplitTest, StarCentersAreHigherEndpoints) {
  // In every star of F_{i,j}, the center (the node of degree >= 2, if any)
  // must be the higher endpoint of all its edges.
  Graph g = StarUnion(1024, 2, 8);
  auto ids = DefaultIds(g.NumNodes(), 9);
  auto decomp = RunDecomposition(g, ids, 2, 4, 10);
  local::Network net(g, ids);
  auto split = SplitAtypicalForests(net, decomp, 2, 1LL << 30);
  for (int f = 0; f < split.num_forests; ++f) {
    for (int j = 0; j < 3; ++j) {
      const auto& edges = split.stars[f][j];
      if (edges.size() < 2) continue;
      std::vector<char> mask(g.NumEdges(), 0);
      for (int e : edges) mask[e] = 1;
      Subgraph sub = InduceByEdges(g, mask);
      for (int se = 0; se < sub.graph.NumEdges(); ++se) {
        int host_edge = sub.edge_to_host[se];
        int lo = decomp.LowerEndpoint(g, host_edge, ids);
        int hi = g.OtherEndpoint(host_edge, lo);
        // If the higher endpoint has degree >= 2 within the star class, the
        // lower endpoint must be a leaf there.
        if (sub.graph.Degree(sub.host_to_node[hi]) >= 2) {
          EXPECT_EQ(sub.graph.Degree(sub.host_to_node[lo]), 1);
        }
      }
    }
  }
}

// A node whose atypical edges span 32 forests at once: a complete
// bipartite core between low-id nodes and 2a = 32 high-id hubs. The peel
// removes the low side first (degree exactly b = 2a), every core edge is
// atypical (hub degree > k at peel time), and each low node colors its 32
// hub edges with all of {0, ..., 2a-1}. Random forest unions never
// concentrate forests at one node like that; the fused engine pass must
// still match the per-forest oracle there.
TEST(ForestSplitTest, WideLaneSplitMatchesLegacyOracle) {
  const int a = 16;
  const int n_low = 100;
  const int n_hubs = 2 * a;
  const int n = n_low + n_hubs;
  std::vector<std::pair<int, int>> edges;
  for (int v = 0; v < n_low; ++v) {
    for (int h = 0; h < n_hubs; ++h) edges.push_back({v, n_low + h});
  }
  const Graph g = Graph::FromEdges(n, std::move(edges));
  std::vector<int64_t> ids(n);
  for (int v = 0; v < n; ++v) ids[v] = v + 1;  // hubs get the higher ids
  const int64_t space = int64_t{n} * n * n;
  auto decomp = RunDecomposition(g, ids, a, 2 * a, 5 * a);
  auto legacy = oracle::SplitAtypicalForests(g, ids, space, decomp, a);
  local::Network net(g, ids);
  auto engine = SplitAtypicalForests(net, decomp, a, space);
  EXPECT_EQ(engine.forest_of_edge, legacy.forest_of_edge);
  EXPECT_EQ(engine.star_class_of_edge, legacy.star_class_of_edge);
  EXPECT_EQ(engine.stars, legacy.stars);
  EXPECT_EQ(engine.cv_rounds, legacy.cv_rounds);
  // Some node must actually sit in 32 forests, or this test pins nothing
  // about wide nodes. A node's forest count is the number of distinct
  // forests among its atypical edges, not its atypical-edge count.
  std::vector<uint64_t> forest_mask(n, 0);
  for (int e = 0; e < g.NumEdges(); ++e) {
    if (!decomp.atypical[e]) continue;
    const int f = legacy.forest_of_edge[e];
    ASSERT_GE(f, 0);
    ASSERT_LT(f, 64);
    auto [u, v] = g.Endpoints(e);
    forest_mask[u] |= uint64_t{1} << f;
    forest_mask[v] |= uint64_t{1} << f;
  }
  int max_lanes = 0;
  for (int v = 0; v < n; ++v) {
    max_lanes = std::max(max_lanes, std::popcount(forest_mask[v]));
  }
  EXPECT_GE(max_lanes, 32);
}

TEST(ForestSplitTest, CvRoundsAreLogStarScale) {
  Graph g = StarUnion(4096, 3, 10);
  auto ids = DefaultIds(g.NumNodes(), 11);
  auto decomp = RunDecomposition(g, ids, 3, 6, 15);
  local::Network net(g, ids);
  auto split = SplitAtypicalForests(net, decomp, 3, 1LL << 40);
  EXPECT_GT(split.cv_rounds, 0);
  EXPECT_LE(split.cv_rounds, 20);  // log*(2^40) + constant
}

}  // namespace
}  // namespace treelocal
