// Invariant tests for Algorithm 3 (the paper's new (b,k)-decomposition) and
// the Section 4 structure built on it:
//   Lemma 13 — all nodes marked within ceil(10 log_{k/a} n) + 1 iterations;
//   Lemma 14 — the typical-edge graph G[E2] has maximum degree <= k;
//   per-node atypical-edge bound b = 2a; forest split F_1..F_{2a}; star
//   structure of every G[F_{i,j}] component.
#include <gtest/gtest.h>

#include "src/core/decomposition.h"
#include "src/core/forest_split.h"
#include "src/graph/algorithms.h"
#include "src/graph/generators.h"
#include "src/graph/subgraph.h"
#include "src/local/network.h"
#include "src/support/rng.h"

namespace treelocal {
namespace {

enum class Kind { kUnion, kGrid, kStarUnion, kHubbed };

struct Case {
  int n;
  int a;
  int k;
  uint64_t seed;
  Kind kind = Kind::kUnion;
};

std::string KindName(Kind kind) {
  switch (kind) {
    case Kind::kUnion:
      return "union";
    case Kind::kGrid:
      return "grid";
    case Kind::kStarUnion:
      return "starunion";
    case Kind::kHubbed:
      return "hubbed";
  }
  return "?";
}

Graph MakeCaseGraph(const Case& c) {
  switch (c.kind) {
    case Kind::kUnion:
      return ForestUnion(c.n, c.a, c.seed);
    case Kind::kGrid:
      return Grid(c.n / 32, 32);
    case Kind::kStarUnion:
      return StarUnion(c.n, c.a, c.seed);
    case Kind::kHubbed:
      return HubbedForest(c.n, c.a, c.seed);
  }
  return Graph();
}

std::string CaseName(const ::testing::TestParamInfo<Case>& info) {
  const Case& c = info.param;
  return KindName(c.kind) + "_n" + std::to_string(c.n) + "_a" +
         std::to_string(c.a) + "_k" + std::to_string(c.k);
}

class DecompositionTest : public ::testing::TestWithParam<Case> {
 protected:
  void SetUp() override {
    const Case& c = GetParam();
    graph_ = MakeCaseGraph(c);
    ids_ = DefaultIds(graph_.NumNodes(), c.seed + 1);
    result_ = RunDecomposition(graph_, ids_, c.a, 2 * c.a, c.k);
  }

  Graph graph_;
  std::vector<int64_t> ids_;
  DecompositionResult result_;
};

TEST_P(DecompositionTest, Lemma13AllMarkedWithinBound) {
  for (int v = 0; v < graph_.NumNodes(); ++v) {
    EXPECT_GT(result_.layer[v], 0);
  }
  EXPECT_LE(result_.num_layers,
            DecompositionIterationBound(graph_.NumNodes(), GetParam().a,
                                        GetParam().k));
}

TEST_P(DecompositionTest, Lemma14TypicalGraphDegreeAtMostK) {
  const int k = GetParam().k;
  std::vector<int> typical_degree(graph_.NumNodes(), 0);
  for (int e = 0; e < graph_.NumEdges(); ++e) {
    if (result_.atypical[e]) continue;
    auto [u, v] = graph_.Endpoints(e);
    ++typical_degree[u];
    ++typical_degree[v];
  }
  for (int v = 0; v < graph_.NumNodes(); ++v) {
    EXPECT_LE(typical_degree[v], k) << "node " << v;
  }
}

TEST_P(DecompositionTest, AtMost2aAtypicalEdgesPerLowerEndpoint) {
  const int b = 2 * GetParam().a;
  std::vector<int> atypical_out(graph_.NumNodes(), 0);
  for (int e = 0; e < graph_.NumEdges(); ++e) {
    if (!result_.atypical[e]) continue;
    ++atypical_out[result_.LowerEndpoint(graph_, e, ids_)];
  }
  for (int v = 0; v < graph_.NumNodes(); ++v) {
    EXPECT_LE(atypical_out[v], b) << "node " << v;
  }
}

TEST_P(DecompositionTest, AtypicalEdgesGoToHigherLargeNeighbors) {
  // Definition check: e atypical => the higher endpoint had degree > k in
  // G[V_{i-1}] at the lower endpoint's marking iteration i.
  const int k = GetParam().k;
  for (int e = 0; e < graph_.NumEdges(); ++e) {
    if (!result_.atypical[e]) continue;
    int lo = result_.LowerEndpoint(graph_, e, ids_);
    int hi = graph_.OtherEndpoint(e, lo);
    int i = result_.layer[lo];
    int deg = 0;
    for (int w : graph_.Neighbors(hi)) {
      if (result_.layer[w] >= i) ++deg;
    }
    EXPECT_GT(deg, k);
    EXPECT_GE(result_.layer[hi], result_.layer[lo]);
  }
}

TEST_P(DecompositionTest, ForestSplitProducesForests) {
  const Case& c = GetParam();
  local::Network net(graph_, ids_);
  auto split = SplitAtypicalForests(net, result_, c.a, 1LL << 40);
  EXPECT_EQ(split.num_forests, 2 * c.a);
  for (int f = 0; f < split.num_forests; ++f) {
    std::vector<char> mask(graph_.NumEdges(), 0);
    int count = 0;
    for (int e = 0; e < graph_.NumEdges(); ++e) {
      if (split.forest_of_edge[e] == f) {
        mask[e] = 1;
        ++count;
      }
    }
    if (count == 0) continue;
    Subgraph sub = InduceByEdges(graph_, mask);
    EXPECT_TRUE(IsForest(sub.graph)) << "forest " << f;
  }
}

TEST_P(DecompositionTest, EveryAtypicalEdgeAssignedToExactlyOneStar) {
  const Case& c = GetParam();
  local::Network net(graph_, ids_);
  auto split = SplitAtypicalForests(net, result_, c.a, 1LL << 40);
  std::vector<int> seen(graph_.NumEdges(), 0);
  for (const auto& forest : split.stars) {
    for (const auto& star_class : forest) {
      for (int e : star_class) ++seen[e];
    }
  }
  for (int e = 0; e < graph_.NumEdges(); ++e) {
    EXPECT_EQ(seen[e], result_.atypical[e] ? 1 : 0) << "edge " << e;
  }
}

TEST_P(DecompositionTest, StarClassComponentsAreStars) {
  const Case& c = GetParam();
  local::Network net(graph_, ids_);
  auto split = SplitAtypicalForests(net, result_, c.a, 1LL << 40);
  for (int f = 0; f < split.num_forests; ++f) {
    for (int j = 0; j < 3; ++j) {
      const auto& edges = split.stars[f][j];
      if (edges.empty()) continue;
      std::vector<char> mask(graph_.NumEdges(), 0);
      for (int e : edges) mask[e] = 1;
      Subgraph sub = InduceByEdges(graph_, mask);
      // A graph is a disjoint union of stars iff no edge joins two nodes of
      // degree >= 2.
      for (int e = 0; e < sub.graph.NumEdges(); ++e) {
        auto [u, v] = sub.graph.Endpoints(e);
        EXPECT_TRUE(sub.graph.Degree(u) == 1 || sub.graph.Degree(v) == 1)
            << "F_{" << f << "," << j << "} has a non-star component";
      }
    }
  }
}

TEST_P(DecompositionTest, EngineRoundsTwoPerIteration) {
  EXPECT_EQ(result_.engine_rounds, 2 * result_.num_layers);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DecompositionTest,
    ::testing::Values(Case{512, 1, 5, 1}, Case{512, 1, 16, 2},
                      Case{512, 2, 10, 3}, Case{512, 2, 32, 4},
                      Case{1024, 3, 15, 5}, Case{1024, 3, 64, 6},
                      Case{1024, 5, 25, 7}, Case{2048, 2, 10, 8},
                      Case{1024, 2, 10, 9, Kind::kGrid},
                      Case{2048, 2, 16, 10, Kind::kGrid},
                      Case{512, 2, 10, 11, Kind::kStarUnion},
                      Case{1024, 3, 15, 12, Kind::kStarUnion},
                      Case{2048, 5, 25, 13, Kind::kStarUnion},
                      Case{512, 2, 10, 14, Kind::kHubbed},
                      Case{1024, 3, 15, 15, Kind::kHubbed},
                      Case{2048, 4, 20, 16, Kind::kHubbed}),
    CaseName);

TEST(DecompositionHubTest, StarUnionProducesMultipleLayersAndAtypical) {
  // The hub workload must actually exercise the machinery: hubs survive the
  // first compress round and their edges become atypical.
  Graph g = StarUnion(2048, 3, 99);
  auto ids = DefaultIds(g.NumNodes(), 100);
  auto result = RunDecomposition(g, ids, 3, 6, 15);
  EXPECT_GE(result.num_layers, 2);
  int64_t atypical = 0;
  for (int e = 0; e < g.NumEdges(); ++e) atypical += result.atypical[e];
  EXPECT_GT(atypical, 0);
}

TEST(DecompositionEdgeCases, RejectsBadParameters) {
  Graph g = Path(10);
  auto ids = DefaultIds(10, 1);
  EXPECT_THROW(RunDecomposition(g, ids, 0, 2, 5), std::invalid_argument);
  EXPECT_THROW(RunDecomposition(g, ids, 2, 2, 10), std::invalid_argument);
  EXPECT_THROW(RunDecomposition(g, ids, 2, 4, 9), std::invalid_argument);
}

TEST(DecompositionEdgeCases, TreeWithAOneMarksEverything) {
  Graph g = UniformRandomTree(300, 11);
  auto ids = DefaultIds(300, 12);
  auto result = RunDecomposition(g, ids, 1, 2, 5);
  for (int v = 0; v < 300; ++v) EXPECT_GT(result.layer[v], 0);
}

TEST(DecompositionEdgeCases, LowDegreeGraphMarksInOneLayer) {
  // All degrees <= k and no large neighbors: everything marks at once.
  Graph g = Grid(8, 8);  // max degree 4
  auto ids = DefaultIds(64, 13);
  auto result = RunDecomposition(g, ids, 2, 4, 10);
  EXPECT_EQ(result.num_layers, 1);
  for (int e = 0; e < g.NumEdges(); ++e) EXPECT_FALSE(result.atypical[e]);
}

TEST(DecompositionEdgeCases, StarProducesAtypicalEdges) {
  // Star with Delta > k: leaves mark first and their edges point at a large
  // center -> atypical.
  Graph g = Star(100);
  auto ids = DefaultIds(100, 14);
  auto result = RunDecomposition(g, ids, 1, 2, 5);
  int atypical_count = 0;
  for (int e = 0; e < g.NumEdges(); ++e) {
    if (result.atypical[e]) ++atypical_count;
  }
  EXPECT_EQ(atypical_count, g.NumEdges());
  // But each leaf has only 1 atypical edge, well within b = 2.
}

TEST(DecompositionEdgeCases, DeterministicAcrossRuns) {
  Graph g = ForestUnion(256, 2, 15);
  auto ids = DefaultIds(256, 16);
  auto r1 = RunDecomposition(g, ids, 2, 4, 10);
  auto r2 = RunDecomposition(g, ids, 2, 4, 10);
  EXPECT_EQ(r1.layer, r2.layer);
  EXPECT_EQ(r1.atypical, r2.atypical);
}

}  // namespace
}  // namespace treelocal
