#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "src/graph/algorithms.h"
#include "src/graph/generators.h"
#include "src/support/rng.h"

namespace treelocal {
namespace {

TEST(BfsTest, PathDistances) {
  Graph g = Path(6);
  auto dist = BfsDistances(g, 0);
  for (int v = 0; v < 6; ++v) EXPECT_EQ(dist[v], v);
}

TEST(BfsTest, DisconnectedUnreachable) {
  Graph g = Graph::FromEdges(4, {{0, 1}, {2, 3}});
  auto dist = BfsDistances(g, 0);
  EXPECT_EQ(dist[1], 1);
  EXPECT_EQ(dist[2], -1);
  EXPECT_EQ(dist[3], -1);
}

TEST(ComponentsTest, SingleComponent) {
  int num = 0;
  auto comp = ConnectedComponents(Path(10), &num);
  EXPECT_EQ(num, 1);
  for (int c : comp) EXPECT_EQ(c, 0);
}

TEST(ComponentsTest, MultipleComponents) {
  Graph g = Graph::FromEdges(6, {{0, 1}, {2, 3}});
  int num = 0;
  auto comp = ConnectedComponents(g, &num);
  EXPECT_EQ(num, 4);  // {0,1}, {2,3}, {4}, {5}
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[2], comp[3]);
  EXPECT_NE(comp[0], comp[2]);
}

TEST(ComponentsTest, MaskedComponentsSplitByMask) {
  // Path 0-1-2-3-4 with node 2 masked out: two components.
  Graph g = Path(5);
  std::vector<char> mask = {1, 1, 0, 1, 1};
  int num = 0;
  auto comp = MaskedComponents(g, mask, &num);
  EXPECT_EQ(num, 2);
  EXPECT_EQ(comp[2], -1);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[3], comp[4]);
  EXPECT_NE(comp[0], comp[3]);
}

TEST(ComponentsTest, MaskedTreeComponentDiameters) {
  Graph g = Path(10);
  std::vector<char> mask(10, 1);
  mask[4] = 0;
  int num = 0;
  auto comp = MaskedComponents(g, mask, &num);
  auto diam = MaskedTreeComponentDiameters(g, mask, comp, num);
  ASSERT_EQ(num, 2);
  EXPECT_EQ(diam[comp[0]], 3);  // nodes 0..3
  EXPECT_EQ(diam[comp[9]], 4);  // nodes 5..9
}

TEST(ForestTest, TreeIsForest) {
  EXPECT_TRUE(IsForest(Path(10)));
  EXPECT_TRUE(IsTree(Path(10)));
}

TEST(ForestTest, CycleIsNotForest) {
  Graph g = Graph::FromEdges(3, {{0, 1}, {1, 2}, {0, 2}});
  EXPECT_FALSE(IsForest(g));
  EXPECT_FALSE(IsTree(g));
}

TEST(ForestTest, DisconnectedForestIsNotTree) {
  Graph g = Graph::FromEdges(4, {{0, 1}, {2, 3}});
  EXPECT_TRUE(IsForest(g));
  EXPECT_FALSE(IsTree(g));
}

TEST(ForestCoverTest, TreeNeedsOneForest) {
  EXPECT_TRUE(GreedyForestCover(UniformRandomTree(100, 3), 1));
}

TEST(ForestCoverTest, TriangleNeedsTwo) {
  Graph g = Graph::FromEdges(3, {{0, 1}, {1, 2}, {0, 2}});
  EXPECT_FALSE(GreedyForestCover(g, 1));
  EXPECT_TRUE(GreedyForestCover(g, 2));
}

TEST(LeadersTest, LeaderIsMaxKeyNode) {
  Graph g = Path(5);
  std::vector<char> mask(5, 1);
  std::vector<int64_t> key = {10, 50, 20, 40, 30};
  auto leaders = MaskedComponentLeaders(g, mask, key);
  ASSERT_EQ(leaders.size(), 1u);
  EXPECT_EQ(leaders[0].leader, 1);
  EXPECT_EQ(leaders[0].eccentricity, 3);  // node 1 -> node 4
  EXPECT_EQ(leaders[0].nodes.size(), 5u);
}

TEST(LeadersTest, PerComponentLeaders) {
  Graph g = Path(6);
  std::vector<char> mask = {1, 1, 0, 1, 1, 1};
  std::vector<int64_t> key = {1, 2, 3, 4, 5, 6};
  auto leaders = MaskedComponentLeaders(g, mask, key);
  ASSERT_EQ(leaders.size(), 2u);
  // Components {0,1} and {3,4,5}.
  EXPECT_EQ(leaders[0].leader, 1);
  EXPECT_EQ(leaders[1].leader, 5);
  EXPECT_EQ(leaders[1].eccentricity, 2);
}

TEST(LeadersTest, RandomTreeEccentricityWithinDiameter) {
  Graph g = UniformRandomTree(300, 77);
  std::vector<char> mask(300, 1);
  auto ids = DefaultIds(300, 1);
  auto leaders = MaskedComponentLeaders(g, mask, ids);
  ASSERT_EQ(leaders.size(), 1u);
  int num = 0;
  auto comp = MaskedComponents(g, mask, &num);
  auto diam = MaskedTreeComponentDiameters(g, mask, comp, num);
  EXPECT_LE(leaders[0].eccentricity, diam[0]);
  EXPECT_GE(2 * leaders[0].eccentricity + 1, diam[0]);
}

// Naive oracle for the masked-component helpers: one fresh n-sized BFS per
// run, exactly the straightforward per-component algorithm. The helpers
// must agree with it bit for bit — leaders, eccentricities, node lists in
// order, and diameters.
struct OracleBfs {
  std::vector<int> dist;
  int far = -1;  // first node dequeued at the largest distance
  int far_d = 0;
};

OracleBfs NaiveMaskedBfs(const Graph& g, const std::vector<char>& mask,
                         int source) {
  OracleBfs out;
  out.dist.assign(g.NumNodes(), -1);
  std::queue<int> q;
  out.dist[source] = 0;
  out.far = source;
  q.push(source);
  while (!q.empty()) {
    const int v = q.front();
    q.pop();
    if (out.dist[v] > out.far_d) {
      out.far_d = out.dist[v];
      out.far = v;
    }
    for (int u : g.Neighbors(v)) {
      if (mask[u] && out.dist[u] < 0) {
        out.dist[u] = out.dist[v] + 1;
        q.push(u);
      }
    }
  }
  return out;
}

// Components numbered in order of their smallest node, as MaskedComponents
// numbers them.
std::vector<std::vector<int>> NaiveComponents(const Graph& g,
                                              const std::vector<char>& mask) {
  std::vector<char> seen(g.NumNodes(), 0);
  std::vector<std::vector<int>> comps;
  for (int s = 0; s < g.NumNodes(); ++s) {
    if (!mask[s] || seen[s]) continue;
    const OracleBfs bfs = NaiveMaskedBfs(g, mask, s);
    comps.emplace_back();
    for (int v = 0; v < g.NumNodes(); ++v) {
      if (bfs.dist[v] >= 0) {
        seen[v] = 1;
        comps.back().push_back(v);
      }
    }
  }
  return comps;
}

std::vector<ComponentLeader> NaiveLeaders(const Graph& g,
                                          const std::vector<char>& mask,
                                          const std::vector<int64_t>& key) {
  std::vector<ComponentLeader> leaders;
  for (std::vector<int>& nodes : NaiveComponents(g, mask)) {
    ComponentLeader cl;
    for (int v : nodes) {
      if (cl.leader < 0 || key[v] > key[cl.leader]) cl.leader = v;
    }
    const OracleBfs bfs = NaiveMaskedBfs(g, mask, cl.leader);
    for (int v : nodes) {
      cl.eccentricity = std::max(cl.eccentricity, bfs.dist[v]);
    }
    cl.nodes = std::move(nodes);
    leaders.push_back(std::move(cl));
  }
  return leaders;
}

std::vector<int> NaiveDiameters(const Graph& g, const std::vector<char>& mask) {
  std::vector<int> diameter;
  for (const std::vector<int>& nodes : NaiveComponents(g, mask)) {
    const int far = NaiveMaskedBfs(g, mask, nodes.front()).far;
    diameter.push_back(NaiveMaskedBfs(g, mask, far).far_d);
  }
  return diameter;
}

void ExpectMatchesOracle(const Graph& g, const std::vector<char>& mask,
                         const std::vector<int64_t>& key,
                         const std::string& label) {
  SCOPED_TRACE(label);
  const std::vector<ComponentLeader> want = NaiveLeaders(g, mask, key);
  const std::vector<ComponentLeader> got = MaskedComponentLeaders(g, mask, key);
  ASSERT_EQ(got.size(), want.size());
  for (size_t c = 0; c < want.size(); ++c) {
    EXPECT_EQ(got[c].leader, want[c].leader) << "component " << c;
    EXPECT_EQ(got[c].eccentricity, want[c].eccentricity) << "component " << c;
    EXPECT_EQ(got[c].nodes, want[c].nodes) << "component " << c;
  }
  int num = 0;
  const std::vector<int> comp = MaskedComponents(g, mask, &num);
  ASSERT_EQ(num, static_cast<int>(want.size()));
  EXPECT_EQ(MaskedTreeComponentDiameters(g, mask, comp, num),
            NaiveDiameters(g, mask));
}

std::vector<char> RandomMask(int n, double density, uint64_t seed) {
  Rng rng(seed);
  std::vector<char> mask(n);
  for (char& m : mask) m = rng.NextBool(density) ? 1 : 0;
  return mask;
}

// A path of `handle` nodes ending in the center of a star with `bristles`
// leaves.
Graph Broom(int handle, int bristles) {
  std::vector<std::pair<int, int>> edges;
  for (int v = 0; v + 1 < handle; ++v) edges.push_back({v, v + 1});
  for (int b = 0; b < bristles; ++b) edges.push_back({handle - 1, handle + b});
  return Graph::FromEdges(handle + bristles, std::move(edges));
}

// Disjoint union of random trees, node ids interleaved across the trees so
// components are not contiguous ranges.
Graph RandomForest(int trees, int size, uint64_t seed) {
  std::vector<std::pair<int, int>> edges;
  for (int t = 0; t < trees; ++t) {
    const Graph part = UniformRandomTree(size, seed + t);
    for (int e = 0; e < part.NumEdges(); ++e) {
      auto [u, v] = part.Endpoints(e);
      edges.push_back({u * trees + t, v * trees + t});
    }
  }
  return Graph::FromEdges(trees * size, std::move(edges));
}

TEST(MaskedOracleTest, EmptyFullAndSingletonMasks) {
  const Graph g = UniformRandomTree(400, 5);
  const auto ids = DefaultIds(400, 6);
  ExpectMatchesOracle(g, std::vector<char>(400, 0), ids, "empty");
  ExpectMatchesOracle(g, std::vector<char>(400, 1), ids, "full");
  EXPECT_TRUE(MaskedComponentLeaders(g, std::vector<char>(400, 0), ids)
                  .empty());

  const Graph path = Path(301);
  std::vector<char> alternate(301);
  for (int v = 0; v < 301; ++v) alternate[v] = v % 2 == 0;
  ExpectMatchesOracle(path, alternate, DefaultIds(301, 7), "singletons");
  EXPECT_EQ(MaskedComponentLeaders(path, alternate, DefaultIds(301, 7)).size(),
            151u);
}

TEST(MaskedOracleTest, RandomMasksOnUniformTrees) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const int n = 200 + 150 * static_cast<int>(seed);
    const Graph g = UniformRandomTree(n, seed);
    const auto ids = DefaultIds(n, seed + 40);
    for (double density : {0.1, 0.5, 0.9}) {
      ExpectMatchesOracle(g, RandomMask(n, density, seed * 13 + 1), ids,
                          "seed " + std::to_string(seed) + " density " +
                              std::to_string(density));
    }
  }
}

TEST(MaskedOracleTest, StarsBroomsAndCaterpillars) {
  const std::vector<std::pair<std::string, Graph>> shapes = {
      {"star", Star(200)},
      {"broom", Broom(60, 40)},
      {"caterpillar", Caterpillar(50, 3)},
  };
  for (const auto& [name, g] : shapes) {
    const int n = g.NumNodes();
    const auto ids = DefaultIds(n, 9);
    ExpectMatchesOracle(g, std::vector<char>(n, 1), ids, name + " full");
    for (double density : {0.1, 0.5, 0.9}) {
      ExpectMatchesOracle(g, RandomMask(n, density, 77), ids,
                          name + " density " + std::to_string(density));
    }
  }
  // Star minus its center: every leaf is its own component.
  const Graph star = Star(200);
  std::vector<char> leaves(200, 1);
  for (int v = 0; v < 200; ++v) {
    if (star.Degree(v) == 199) leaves[v] = 0;
  }
  ExpectMatchesOracle(star, leaves, DefaultIds(200, 3), "star leaves");
  EXPECT_EQ(MaskedComponentLeaders(star, leaves, DefaultIds(200, 3)).size(),
            199u);
}

TEST(MaskedOracleTest, MultiComponentForests) {
  const Graph forest = RandomForest(7, 90, 31);
  const int n = forest.NumNodes();
  const auto ids = DefaultIds(n, 32);
  ExpectMatchesOracle(forest, std::vector<char>(n, 1), ids, "forest full");
  EXPECT_EQ(MaskedComponentLeaders(forest, std::vector<char>(n, 1), ids).size(),
            7u);
  for (double density : {0.1, 0.5, 0.9}) {
    ExpectMatchesOracle(forest, RandomMask(n, density, 33), ids,
                        "forest density " + std::to_string(density));
  }
}

TEST(MaskedOracleTest, KeyTiesBrokenByNodeOrder) {
  const Graph g = UniformRandomTree(500, 11);
  std::vector<int64_t> constant(500, 4);
  std::vector<int64_t> few(500);
  for (int v = 0; v < 500; ++v) few[v] = (v * 7) % 3;
  for (double density : {0.5, 1.0}) {
    const std::vector<char> mask = RandomMask(500, density, 12);
    ExpectMatchesOracle(g, mask, constant, "constant keys");
    ExpectMatchesOracle(g, mask, few, "three key values");
  }
  // All keys equal: each leader is its component's smallest node.
  for (const ComponentLeader& cl :
       MaskedComponentLeaders(g, RandomMask(500, 0.5, 12), constant)) {
    EXPECT_EQ(cl.leader, cl.nodes.front());
  }
}

// Complexity guard: both helpers on 2^20 nodes with ~2^19 components. The
// linear helpers take milliseconds; a per-component O(n) workspace would
// make this run for hours and trip the suite's ctest TIMEOUT.
TEST(MaskedComplexityTest, ManyComponentsOnMillionNodes) {
  constexpr int kN = 1 << 20;
  {
    const Graph path = Path(kN);
    std::vector<char> alternate(kN);
    for (int v = 0; v < kN; ++v) alternate[v] = v % 2 == 0;
    std::vector<int64_t> key(kN);
    for (int v = 0; v < kN; ++v) key[v] = v;
    const auto leaders = MaskedComponentLeaders(path, alternate, key);
    ASSERT_EQ(leaders.size(), static_cast<size_t>(kN / 2));
    for (const ComponentLeader& cl : leaders) {
      ASSERT_EQ(cl.nodes.size(), 1u);
      ASSERT_EQ(cl.eccentricity, 0);
    }
    int num = 0;
    const auto comp = MaskedComponents(path, alternate, &num);
    ASSERT_EQ(num, kN / 2);
    EXPECT_EQ(MaskedTreeComponentDiameters(path, alternate, comp, num),
              std::vector<int>(num, 0));
  }
  {
    const Graph tree = UniformRandomTree(kN, 21);
    const std::vector<char> mask = RandomMask(kN, 0.5, 22);
    const auto leaders = MaskedComponentLeaders(tree, mask, DefaultIds(kN, 23));
    int num = 0;
    const auto comp = MaskedComponents(tree, mask, &num);
    ASSERT_EQ(static_cast<int>(leaders.size()), num);
    EXPECT_GT(num, kN / 8);
    const auto diam = MaskedTreeComponentDiameters(tree, mask, comp, num);
    size_t covered = 0;
    for (int c = 0; c < num; ++c) {
      covered += leaders[c].nodes.size();
      EXPECT_LE(leaders[c].eccentricity, diam[c]);
      EXPECT_LE(diam[c], 2 * leaders[c].eccentricity);
    }
    size_t masked = 0;
    for (char m : mask) masked += m != 0;
    EXPECT_EQ(covered, masked);
  }
}

}  // namespace
}  // namespace treelocal
