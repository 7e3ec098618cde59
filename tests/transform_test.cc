// End-to-end tests for the two transformation pipelines:
//   Theorem 12 (node problems on trees)  — SolveNodeProblemOnTree
//   Theorem 15 (edge problems, arboricity) — SolveEdgeProblemBoundedArboricity
// Checks solution validity (in the node-edge-checkability formalism AND
// against raw combinatorial oracles), and the round structure promised by
// the theorems.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <stdexcept>
#include <string>

#include "src/core/complexity.h"
#include "src/core/transform_edge.h"
#include "src/core/transform_node.h"
#include "src/graph/algorithms.h"
#include "src/graph/generators.h"
#include "src/local/network.h"
#include "src/problems/coloring.h"
#include "src/problems/edge_coloring.h"
#include "src/problems/matching.h"
#include "src/problems/mis.h"
#include "src/support/mathutil.h"
#include "src/support/rng.h"

namespace treelocal {
namespace {

int64_t IdSpace(int n) { return static_cast<int64_t>(n) * n * n; }

struct TreeCase {
  TreeFamily family;
  int n;
  int k;
};

std::string TreeCaseName(const ::testing::TestParamInfo<TreeCase>& info) {
  return TreeFamilyName(info.param.family) + "_n" +
         std::to_string(info.param.n) + "_k" + std::to_string(info.param.k);
}

class Thm12Test : public ::testing::TestWithParam<TreeCase> {
 protected:
  void SetUp() override {
    tree_ = MakeTree(GetParam().family, GetParam().n, 7);
    ids_ = DefaultIds(tree_.NumNodes(), 8);
  }
  Graph tree_;
  std::vector<int64_t> ids_;
};

TEST_P(Thm12Test, MisValid) {
  MisProblem mis;
  auto result = SolveNodeProblemOnTree(mis, tree_, ids_,
                                       IdSpace(tree_.NumNodes()),
                                       GetParam().k);
  EXPECT_TRUE(result.valid) << result.why;
  EXPECT_TRUE(MisProblem::IsMaximalIndependentSet(
      tree_, MisProblem::ExtractSet(tree_, result.labeling)));
}

TEST_P(Thm12Test, DegPlusOneColoringValid) {
  ColoringProblem problem(ColoringProblem::Mode::kDegPlusOne, 0);
  auto result = SolveNodeProblemOnTree(problem, tree_, ids_,
                                       IdSpace(tree_.NumNodes()),
                                       GetParam().k);
  EXPECT_TRUE(result.valid) << result.why;
  EXPECT_TRUE(problem.IsProperlyColored(
      tree_, ColoringProblem::ExtractColors(tree_, result.labeling)));
}

TEST_P(Thm12Test, DeltaPlusOneColoringValid) {
  ColoringProblem problem(ColoringProblem::Mode::kDeltaPlusOne,
                          tree_.MaxDegree());
  auto result = SolveNodeProblemOnTree(problem, tree_, ids_,
                                       IdSpace(tree_.NumNodes()),
                                       GetParam().k);
  EXPECT_TRUE(result.valid) << result.why;
}

TEST_P(Thm12Test, RoundStructure) {
  MisProblem mis;
  const int k = GetParam().k;
  auto result =
      SolveNodeProblemOnTree(mis, tree_, ids_, IdSpace(tree_.NumNodes()), k);
  // Decomposition: 3 rounds per iteration, <= ceil(log_k n) + 1 iterations.
  EXPECT_LE(result.rounds_decomposition,
            3 * (CeilLogBase(tree_.NumNodes(), k) + 1));
  // Base phase ran on a degree-<= k graph (Lemma 10).
  EXPECT_LE(result.base_stats.underlying_max_degree, k);
  // Gather: 2*ecc+1 with ecc <= diameter <= 4(log_k n + 1) + 2 (Lemma 11).
  double logk_n = LogBase(std::max(2.0, double(tree_.NumNodes())), k);
  EXPECT_LE(result.rounds_gather, 2 * (4 * (logk_n + 1) + 2) + 1);
  EXPECT_EQ(result.rounds_total, result.rounds_decomposition +
                                     result.rounds_base +
                                     result.rounds_gather);
  EXPECT_EQ(result.num_compressed + result.num_raked, tree_.NumNodes());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Thm12Test,
    ::testing::Values(TreeCase{TreeFamily::kPath, 512, 2},
                      TreeCase{TreeFamily::kStar, 512, 3},
                      TreeCase{TreeFamily::kBalanced3, 1093, 2},
                      TreeCase{TreeFamily::kBalanced8, 512, 4},
                      TreeCase{TreeFamily::kUniform, 1024, 2},
                      TreeCase{TreeFamily::kUniform, 1024, 5},
                      TreeCase{TreeFamily::kRecursive, 777, 3},
                      TreeCase{TreeFamily::kCaterpillar, 800, 2},
                      TreeCase{TreeFamily::kBinary, 1023, 2}),
    TreeCaseName);

struct ArbCase {
  int n;
  int a;
  int k;
  uint64_t seed;
  bool grid = false;
};

std::string ArbCaseName(const ::testing::TestParamInfo<ArbCase>& info) {
  const ArbCase& c = info.param;
  return std::string(c.grid ? "grid" : "union") + "_n" + std::to_string(c.n) +
         "_a" + std::to_string(c.a) + "_k" + std::to_string(c.k);
}

class Thm15Test : public ::testing::TestWithParam<ArbCase> {
 protected:
  void SetUp() override {
    const ArbCase& c = GetParam();
    graph_ = c.grid ? Grid(c.n / 32, 32) : ForestUnion(c.n, c.a, c.seed);
    ids_ = DefaultIds(graph_.NumNodes(), c.seed + 100);
  }
  Graph graph_;
  std::vector<int64_t> ids_;
};

TEST_P(Thm15Test, MatchingValid) {
  MatchingProblem mm;
  const ArbCase& c = GetParam();
  auto result = SolveEdgeProblemBoundedArboricity(
      mm, graph_, ids_, IdSpace(graph_.NumNodes()), c.a, c.k);
  EXPECT_TRUE(result.valid) << result.why;
  EXPECT_TRUE(MatchingProblem::IsMaximalMatching(
      graph_, MatchingProblem::ExtractMatching(graph_, result.labeling)));
}

TEST_P(Thm15Test, EdgeDegreePlusOneColoringValid) {
  EdgeColoringProblem problem(EdgeColoringProblem::Mode::kEdgeDegreePlusOne,
                              graph_.MaxDegree());
  const ArbCase& c = GetParam();
  auto result = SolveEdgeProblemBoundedArboricity(
      problem, graph_, ids_, IdSpace(graph_.NumNodes()), c.a, c.k);
  EXPECT_TRUE(result.valid) << result.why;
  auto colors = EdgeColoringProblem::ExtractColors(graph_, result.labeling);
  EXPECT_TRUE(problem.IsProperEdgeColoring(graph_, colors));
  for (int e = 0; e < graph_.NumEdges(); ++e) {
    EXPECT_LE(colors[e], graph_.EdgeDegree(e) + 1);
  }
}

TEST_P(Thm15Test, TwoDeltaMinusOneColoringValid) {
  EdgeColoringProblem problem(EdgeColoringProblem::Mode::kTwoDeltaMinusOne,
                              graph_.MaxDegree());
  const ArbCase& c = GetParam();
  auto result = SolveEdgeProblemBoundedArboricity(
      problem, graph_, ids_, IdSpace(graph_.NumNodes()), c.a, c.k);
  EXPECT_TRUE(result.valid) << result.why;
}

TEST_P(Thm15Test, RoundStructure) {
  MatchingProblem mm;
  const ArbCase& c = GetParam();
  auto result = SolveEdgeProblemBoundedArboricity(
      mm, graph_, ids_, IdSpace(graph_.NumNodes()), c.a, c.k);
  EXPECT_LE(result.rounds_decomposition,
            2 * DecompositionIterationBound(graph_.NumNodes(), c.a, c.k));
  EXPECT_LE(result.base_stats.underlying_max_degree, c.k);  // Lemma 14
  // Star stages: 2 rounds per (i,j), 6a stages.
  EXPECT_EQ(result.rounds_gather, 2 * 6 * c.a);
  EXPECT_EQ(result.rounds_total,
            result.rounds_decomposition + result.rounds_base +
                result.rounds_split + result.rounds_gather);
  EXPECT_EQ(result.num_typical + result.num_atypical, graph_.NumEdges());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Thm15Test,
    ::testing::Values(ArbCase{512, 1, 5, 1}, ArbCase{512, 1, 16, 2},
                      ArbCase{512, 2, 10, 3}, ArbCase{1024, 3, 15, 4},
                      ArbCase{1024, 2, 32, 5}, ArbCase{2048, 1, 8, 6},
                      ArbCase{1024, 2, 10, 7, /*grid=*/true}),
    ArbCaseName);

// Hub-heavy workloads (max degree ~ n, arboricity <= a): the cases where
// the atypical-edge machinery (forest split + star stages) actually fires.
class Thm15HubTest : public ::testing::TestWithParam<int> {};

TEST_P(Thm15HubTest, MatchingOnStarUnion) {
  int a = GetParam();
  Graph g = StarUnion(1024, a, 40 + a);
  auto ids = DefaultIds(g.NumNodes(), 41);
  MatchingProblem mm;
  auto result = SolveEdgeProblemBoundedArboricity(
      mm, g, ids, IdSpace(g.NumNodes()), a, 5 * a);
  EXPECT_TRUE(result.valid) << result.why;
  EXPECT_GT(result.num_atypical, 0) << "workload must exercise E1";
  EXPECT_TRUE(MatchingProblem::IsMaximalMatching(
      g, MatchingProblem::ExtractMatching(g, result.labeling)));
}

TEST_P(Thm15HubTest, EdgeColoringOnStarUnion) {
  int a = GetParam();
  Graph g = StarUnion(1024, a, 50 + a);
  auto ids = DefaultIds(g.NumNodes(), 51);
  EdgeColoringProblem ec(EdgeColoringProblem::Mode::kEdgeDegreePlusOne,
                         g.MaxDegree());
  auto result = SolveEdgeProblemBoundedArboricity(
      ec, g, ids, IdSpace(g.NumNodes()), a, 5 * a);
  EXPECT_TRUE(result.valid) << result.why;
  auto colors = EdgeColoringProblem::ExtractColors(g, result.labeling);
  EXPECT_TRUE(ec.IsProperEdgeColoring(g, colors));
}

TEST_P(Thm15HubTest, EdgeColoringOnHubbedForest) {
  int a = GetParam();
  Graph g = HubbedForest(1024, a, 60 + a);
  auto ids = DefaultIds(g.NumNodes(), 61);
  EdgeColoringProblem ec(EdgeColoringProblem::Mode::kEdgeDegreePlusOne,
                         g.MaxDegree());
  auto result = SolveEdgeProblemBoundedArboricity(
      ec, g, ids, IdSpace(g.NumNodes()), a, 5 * a);
  EXPECT_TRUE(result.valid) << result.why;
}

INSTANTIATE_TEST_SUITE_P(Arboricities, Thm15HubTest,
                         ::testing::Values(1, 2, 3, 5));

// Theorem 15 on trees (a = 1) reproduces the Section 5.2 maximal matching
// result; sanity-check all tree families.
class Thm15TreeTest : public ::testing::TestWithParam<TreeFamily> {};

TEST_P(Thm15TreeTest, MatchingOnTreeFamilies) {
  Graph tree = MakeTree(GetParam(), 600, 3);
  auto ids = DefaultIds(tree.NumNodes(), 4);
  MatchingProblem mm;
  auto result = SolveEdgeProblemBoundedArboricity(
      mm, tree, ids, IdSpace(tree.NumNodes()), 1, 5);
  EXPECT_TRUE(result.valid) << result.why;
}

TEST_P(Thm15TreeTest, EdgeColoringOnTreeFamilies) {
  Graph tree = MakeTree(GetParam(), 600, 5);
  auto ids = DefaultIds(tree.NumNodes(), 6);
  EdgeColoringProblem ec(EdgeColoringProblem::Mode::kEdgeDegreePlusOne,
                         tree.MaxDegree());
  auto result = SolveEdgeProblemBoundedArboricity(
      ec, tree, ids, IdSpace(tree.NumNodes()), 1, 5);
  EXPECT_TRUE(result.valid) << result.why;
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, Thm15TreeTest,
                         ::testing::ValuesIn(AllTreeFamilies()),
                         [](const auto& info) {
                           return TreeFamilyName(info.param);
                         });

// Determinism of the full pipelines.
TEST(TransformDeterminism, Thm12SameInputsSameTranscript) {
  Graph tree = UniformRandomTree(400, 21);
  auto ids = DefaultIds(400, 22);
  MisProblem mis;
  auto r1 = SolveNodeProblemOnTree(mis, tree, ids, IdSpace(400), 3);
  auto r2 = SolveNodeProblemOnTree(mis, tree, ids, IdSpace(400), 3);
  EXPECT_EQ(r1.rounds_total, r2.rounds_total);
  for (int e = 0; e < tree.NumEdges(); ++e) {
    EXPECT_EQ(r1.labeling.GetSlot(e, 0), r2.labeling.GetSlot(e, 0));
    EXPECT_EQ(r1.labeling.GetSlot(e, 1), r2.labeling.GetSlot(e, 1));
  }
}

// The k-sweep entry point must match the single-k pipeline per k, field
// for field — it is what bench_k_ablation's Thm12 sweep routes through.
TEST(TransformDeterminism, Thm12BatchMatchesSoloPerK) {
  Graph tree = UniformRandomTree(350, 25);
  auto ids = DefaultIds(350, 26);
  MisProblem mis;
  const std::vector<int> ks = {2, 3, 4, 8, 16, 64};
  auto batched = SolveNodeProblemOnTreeBatch(mis, tree, ids, IdSpace(350), ks);
  ASSERT_EQ(batched.size(), ks.size());
  for (size_t b = 0; b < ks.size(); ++b) {
    auto solo = SolveNodeProblemOnTree(mis, tree, ids, IdSpace(350), ks[b]);
    EXPECT_EQ(batched[b].k, solo.k);
    EXPECT_TRUE(batched[b].valid);
    EXPECT_EQ(batched[b].rounds_total, solo.rounds_total);
    EXPECT_EQ(batched[b].rounds_decomposition, solo.rounds_decomposition);
    EXPECT_EQ(batched[b].rounds_base, solo.rounds_base);
    EXPECT_EQ(batched[b].rounds_gather, solo.rounds_gather);
    EXPECT_EQ(batched[b].engine_messages, solo.engine_messages);
    EXPECT_EQ(batched[b].rake_compress.iteration, solo.rake_compress.iteration);
    EXPECT_EQ(batched[b].rake_compress.compressed,
              solo.rake_compress.compressed);
    EXPECT_EQ(batched[b].rake_compress.round_stats,
              solo.rake_compress.round_stats);
    for (int e = 0; e < tree.NumEdges(); ++e) {
      ASSERT_EQ(batched[b].labeling.GetSlot(e, 0), solo.labeling.GetSlot(e, 0));
      ASSERT_EQ(batched[b].labeling.GetSlot(e, 1), solo.labeling.GetSlot(e, 1));
    }
  }
  // Empty inputs: no ks is a no-op; an empty tree still validates ks.
  EXPECT_TRUE(
      SolveNodeProblemOnTreeBatch(mis, tree, ids, IdSpace(350), {}).empty());
  Graph empty = Graph::FromEdges(0, {});
  EXPECT_THROW(SolveNodeProblemOnTreeBatch(mis, empty, {}, 8, {1}),
               std::invalid_argument);
  EXPECT_EQ(SolveNodeProblemOnTreeBatch(mis, empty, {}, 8, {2, 4}).size(), 2u);
}

// The engine overload on one reused engine (as treelocald runs it) must
// match the graph overload for every k, in any order.
TEST(TransformDeterminism, Thm12EngineOverloadMatchesGraphOverload) {
  Graph tree = UniformRandomTree(350, 27);
  auto ids = DefaultIds(350, 28);
  ColoringProblem coloring(ColoringProblem::Mode::kDeltaPlusOne,
                           tree.MaxDegree());
  local::Network net(tree, ids);
  for (const int k : {2, 5, 2}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    auto on_engine =
        SolveNodeProblemOnTree(coloring, net, IdSpace(350), k);
    auto solo = SolveNodeProblemOnTree(coloring, tree, ids, IdSpace(350), k);
    EXPECT_EQ(on_engine.k, k);
    EXPECT_TRUE(on_engine.valid) << on_engine.why;
    EXPECT_EQ(on_engine.rounds_total, solo.rounds_total);
    EXPECT_EQ(on_engine.rounds_base, solo.rounds_base);
    EXPECT_EQ(on_engine.rounds_gather, solo.rounds_gather);
    EXPECT_EQ(on_engine.engine_messages, solo.engine_messages);
    EXPECT_EQ(on_engine.rake_compress.iteration, solo.rake_compress.iteration);
    EXPECT_EQ(on_engine.rake_compress.round_stats,
              solo.rake_compress.round_stats);
    for (int e = 0; e < tree.NumEdges(); ++e) {
      ASSERT_EQ(on_engine.labeling.GetSlot(e, 0), solo.labeling.GetSlot(e, 0));
      ASSERT_EQ(on_engine.labeling.GetSlot(e, 1), solo.labeling.GetSlot(e, 1));
    }
  }
}

TEST(TransformDeterminism, Thm15SameInputsSameTranscript) {
  Graph g = ForestUnion(300, 2, 23);
  auto ids = DefaultIds(300, 24);
  MatchingProblem mm;
  auto r1 = SolveEdgeProblemBoundedArboricity(mm, g, ids, IdSpace(300), 2, 10);
  auto r2 = SolveEdgeProblemBoundedArboricity(mm, g, ids, IdSpace(300), 2, 10);
  EXPECT_EQ(r1.rounds_total, r2.rounds_total);
  for (int e = 0; e < g.NumEdges(); ++e) {
    EXPECT_EQ(r1.labeling.GetSlot(e, 0), r2.labeling.GetSlot(e, 0));
  }
}

// Many random seeds, the chosen k = g(n): a light stress suite.
class TransformStress : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TransformStress, MisWithChosenK) {
  uint64_t seed = GetParam();
  int n = 200 + static_cast<int>(seed % 5) * 150;
  Graph tree = UniformRandomTree(n, seed);
  auto ids = DefaultIds(n, seed + 1);
  int k = ChooseK(n, QuadraticF());
  MisProblem mis;
  auto result = SolveNodeProblemOnTree(mis, tree, ids, IdSpace(n), k);
  EXPECT_TRUE(result.valid) << result.why;
}

TEST_P(TransformStress, MatchingWithChosenK) {
  uint64_t seed = GetParam();
  int n = 200 + static_cast<int>(seed % 5) * 150;
  Graph tree = UniformRandomTree(n, seed + 50);
  auto ids = DefaultIds(n, seed + 51);
  int k = std::max(5, ChooseK(n, QuadraticF()));
  MatchingProblem mm;
  auto result =
      SolveEdgeProblemBoundedArboricity(mm, tree, ids, IdSpace(n), 1, k);
  EXPECT_TRUE(result.valid) << result.why;
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransformStress,
                         ::testing::Range(uint64_t{0}, uint64_t{16}));

// Theorem 15 assumes arboricity at most a. ForestUnion(5000, 3) is a union
// of three spanning trees, so a = 1 under-states it: the decomposition
// overruns its Lemma 13 round cap, and the solve refuses the input with an
// error naming a, k and the bound instead of a bare MaxRoundsExceededError.
TEST(Thm15PreconditionTest, UnderStatedArboricityIsRefusedByName) {
  const int n = 5000, a = 1, k = 5;
  const Graph g = ForestUnion(n, 3, 1);
  const auto ids = DefaultIds(n, 2);
  EdgeColoringProblem ec(EdgeColoringProblem::Mode::kEdgeDegreePlusOne,
                         g.MaxDegree());
  const std::string bound =
      std::to_string(DecompositionIterationBound(n, a, k));
  try {
    SolveEdgeProblemBoundedArboricity(ec, g, ids, IdSpace(n), a, k);
    FAIL() << "an arboricity-3 graph was solved with a=1";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("graph arboricity exceeds a=1"), std::string::npos)
        << what;
    EXPECT_NE(what.find("k=5"), std::string::npos) << what;
    EXPECT_NE(what.find("Lemma 13 bound of " + bound + " iterations"),
              std::string::npos)
        << what;
  }
}

// Theorem 12 takes a forest. StarUnion(500, 2) unions two spanning star
// forests and has cycles; every Theorem 12 entry point refuses it with an
// error naming the precondition and the graph's m, n and component count,
// before any engine runs.
void ExpectNotAForest(const Graph& g, const std::function<void()>& solve) {
  int components = 0;
  ConnectedComponents(g, &components);
  try {
    solve();
    FAIL() << "a graph with cycles was solved by Theorem 12";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("Theorem 12 takes a forest: m=" +
                        std::to_string(g.NumEdges()) +
                        ", n=" + std::to_string(g.NumNodes()) +
                        ", components=" + std::to_string(components)),
              std::string::npos)
        << what;
  }
}

TEST(Thm12PreconditionTest, GraphOverloadRefusesNonForest) {
  const Graph g = StarUnion(500, 2, 1);
  const auto ids = DefaultIds(g.NumNodes(), 2);
  ExpectNotAForest(g, [&] {
    SolveNodeProblemOnTree(MisProblem(), g, ids, IdSpace(g.NumNodes()), 5);
  });
}

TEST(Thm12PreconditionTest, EngineOverloadRefusesNonForest) {
  const Graph g = StarUnion(500, 2, 1);
  local::Network net(g, DefaultIds(g.NumNodes(), 2));
  ExpectNotAForest(g, [&] {
    SolveNodeProblemOnTree(MisProblem(), net, IdSpace(g.NumNodes()), 5);
  });
  EXPECT_TRUE(net.round_stats().empty());  // no engine ran
}

TEST(Thm12PreconditionTest, BatchRefusesNonForest) {
  const Graph g = StarUnion(500, 2, 1);
  const auto ids = DefaultIds(g.NumNodes(), 2);
  ExpectNotAForest(g, [&] {
    SolveNodeProblemOnTreeBatch(MisProblem(), g, ids, IdSpace(g.NumNodes()),
                                {2, 5});
  });
}

}  // namespace
}  // namespace treelocal
