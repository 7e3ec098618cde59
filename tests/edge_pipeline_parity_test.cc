// Engine-vs-oracle parity for the whole Theorem 3/15 edge pipeline and its
// base layer: the engine-native path (phases 1-3 on one host engine, fused
// multi-forest Cole-Vishkin, engine class sweeps) must produce BIT-IDENTICAL
// outputs to the host-side reference in tests/oracle/ across problems,
// arboricities, k values, graph families, engine reuse, and ParallelNetwork
// thread counts (the T-sweep also runs under the TSan CI job).
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "src/core/baseline.h"
#include "src/core/forest_split.h"
#include "src/core/transform_edge.h"
#include "src/graph/generators.h"
#include "src/graph/linegraph.h"
#include "src/graph/semigraph.h"
#include "src/local/network.h"
#include "src/local/parallel_network.h"
#include "src/problems/coloring.h"
#include "src/problems/edge_coloring.h"
#include "src/problems/list_coloring.h"
#include "src/problems/matching.h"
#include "src/problems/mis.h"
#include "src/support/rng.h"
#include "tests/oracle/host_oracle.h"

namespace treelocal {
namespace {

int64_t IdSpace(int n) {
  int64_t nn = std::max(n, 2);
  return nn * nn * nn;
}

void ExpectSameLabeling(const Graph& g, const HalfEdgeLabeling& a,
                        const HalfEdgeLabeling& b, const std::string& what) {
  for (int e = 0; e < g.NumEdges(); ++e) {
    ASSERT_EQ(a.GetSlot(e, 0), b.GetSlot(e, 0)) << what << " edge " << e;
    ASSERT_EQ(a.GetSlot(e, 1), b.GetSlot(e, 1)) << what << " edge " << e;
  }
}

void ExpectSameSplit(const ForestSplitResult& a, const ForestSplitResult& b,
                     const std::string& what) {
  EXPECT_EQ(a.num_forests, b.num_forests) << what;
  EXPECT_EQ(a.cv_rounds, b.cv_rounds) << what;
  EXPECT_EQ(a.forest_of_edge, b.forest_of_edge) << what;
  EXPECT_EQ(a.star_class_of_edge, b.star_class_of_edge) << what;
  ASSERT_EQ(a.stars.size(), b.stars.size()) << what;
  for (size_t f = 0; f < a.stars.size(); ++f) {
    for (int j = 0; j < 3; ++j) {
      EXPECT_EQ(a.stars[f][j], b.stars[f][j])
          << what << " forest " << f << " class " << j;
    }
  }
}

void ExpectSameThm15(const Graph& g, const Thm15Result& engine,
                     const Thm15Result& legacy, const std::string& what) {
  EXPECT_TRUE(engine.valid) << what << ": " << engine.why;
  EXPECT_TRUE(legacy.valid) << what << ": " << legacy.why;
  ExpectSameLabeling(g, engine.labeling, legacy.labeling, what);
  EXPECT_EQ(engine.rounds_total, legacy.rounds_total) << what;
  EXPECT_EQ(engine.rounds_decomposition, legacy.rounds_decomposition) << what;
  EXPECT_EQ(engine.rounds_base, legacy.rounds_base) << what;
  EXPECT_EQ(engine.rounds_split, legacy.rounds_split) << what;
  EXPECT_EQ(engine.rounds_gather, legacy.rounds_gather) << what;
  EXPECT_EQ(engine.engine_messages, legacy.engine_messages) << what;
  EXPECT_EQ(engine.num_typical, legacy.num_typical) << what;
  EXPECT_EQ(engine.num_atypical, legacy.num_atypical) << what;
  EXPECT_EQ(engine.base_stats.rounds, legacy.base_stats.rounds) << what;
  EXPECT_EQ(engine.base_stats.linial_rounds, legacy.base_stats.linial_rounds)
      << what;
  EXPECT_EQ(engine.base_stats.num_classes, legacy.base_stats.num_classes)
      << what;
  EXPECT_EQ(engine.base_stats.underlying_max_degree,
            legacy.base_stats.underlying_max_degree)
      << what;
  EXPECT_EQ(engine.base_stats.messages, legacy.base_stats.messages) << what;
  ExpectSameSplit(engine.split, legacy.split, what);
}

// ---------------------------------------------------------------------------
// Full pipeline, matching + both edge-coloring modes, across a/k sweeps and
// graph families (hub-heavy ones exercise the atypical machinery).
// ---------------------------------------------------------------------------

struct PipelineCase {
  std::string name;
  Graph graph;
  int a;
  int k;
};

std::vector<PipelineCase> PipelineCases() {
  std::vector<PipelineCase> cases;
  cases.push_back({"union_a1_k5", ForestUnion(512, 1, 3), 1, 5});
  cases.push_back({"union_a1_k16", ForestUnion(512, 1, 4), 1, 16});
  cases.push_back({"union_a2_k10", ForestUnion(700, 2, 5), 2, 10});
  cases.push_back({"union_a3_k15", ForestUnion(900, 3, 6), 3, 15});
  cases.push_back({"union_a5_k25", ForestUnion(600, 5, 7), 5, 25});
  cases.push_back({"starunion_a2", StarUnion(800, 2, 8), 2, 10});
  cases.push_back({"starunion_a3", StarUnion(700, 3, 9), 3, 15});
  cases.push_back({"hubbed_a2", HubbedForest(800, 2, 10), 2, 10});
  cases.push_back({"hubbed_a3_k32", HubbedForest(800, 3, 11), 3, 32});
  cases.push_back({"grid_a2", Grid(24, 24), 2, 10});
  cases.push_back({"uniform_tree", UniformRandomTree(800, 12), 1, 5});
  cases.push_back({"star", Star(300), 1, 5});
  cases.push_back({"path", Path(257), 1, 5});
  cases.push_back({"caterpillar", MakeTree(TreeFamily::kCaterpillar, 400, 13),
                   1, 8});
  // Tiny graphs.
  cases.push_back({"empty", Graph::FromEdges(0, {}), 1, 5});
  cases.push_back({"isolated", Graph::FromEdges(3, {}), 1, 5});
  cases.push_back({"one_edge", Graph::FromEdges(2, {{0, 1}}), 1, 5});
  cases.push_back({"p3", Graph::FromEdges(3, {{0, 1}, {1, 2}}), 1, 5});
  return cases;
}

TEST(EdgePipelineParity, MatchingEngineMatchesLegacy) {
  MatchingProblem mm;
  for (const PipelineCase& c : PipelineCases()) {
    auto ids = DefaultIds(c.graph.NumNodes(), 21);
    int64_t space = IdSpace(c.graph.NumNodes());
    auto engine =
        SolveEdgeProblemBoundedArboricity(mm, c.graph, ids, space, c.a, c.k);
    auto legacy = oracle::SolveEdgeProblemBoundedArboricity(mm, c.graph, ids,
                                                            space, c.a, c.k);
    ExpectSameThm15(c.graph, engine, legacy, "matching/" + c.name);
  }
}

TEST(EdgePipelineParity, EdgeColoringEngineMatchesLegacy) {
  for (const PipelineCase& c : PipelineCases()) {
    auto ids = DefaultIds(c.graph.NumNodes(), 22);
    int64_t space = IdSpace(c.graph.NumNodes());
    for (auto mode : {EdgeColoringProblem::Mode::kEdgeDegreePlusOne,
                      EdgeColoringProblem::Mode::kTwoDeltaMinusOne}) {
      EdgeColoringProblem ec(mode, c.graph.MaxDegree());
      auto engine =
          SolveEdgeProblemBoundedArboricity(ec, c.graph, ids, space, c.a, c.k);
      auto legacy = oracle::SolveEdgeProblemBoundedArboricity(
          ec, c.graph, ids, space, c.a, c.k);
      ExpectSameThm15(c.graph, engine, legacy, "edgecolor/" + c.name);
    }
  }
}

// Multi-component forests: several disjoint trees in one graph, with
// isolated nodes mixed in.
TEST(EdgePipelineParity, MultiComponentForest) {
  std::vector<std::pair<int, int>> edges;
  Graph t1 = UniformRandomTree(200, 31);
  Graph t2 = MakeTree(TreeFamily::kBalanced8, 100, 32);
  int off1 = 3;  // leading isolated nodes
  for (int e = 0; e < t1.NumEdges(); ++e) {
    auto [u, v] = t1.Endpoints(e);
    edges.push_back({u + off1, v + off1});
  }
  int off2 = off1 + t1.NumNodes() + 2;
  for (int e = 0; e < t2.NumEdges(); ++e) {
    auto [u, v] = t2.Endpoints(e);
    edges.push_back({u + off2, v + off2});
  }
  int n = off2 + t2.NumNodes() + 1;
  Graph g = Graph::FromEdges(n, std::move(edges));
  auto ids = DefaultIds(n, 33);
  MatchingProblem mm;
  auto engine =
      SolveEdgeProblemBoundedArboricity(mm, g, ids, IdSpace(n), 1, 5);
  auto legacy =
      oracle::SolveEdgeProblemBoundedArboricity(mm, g, ids, IdSpace(n), 1, 5);
  ExpectSameThm15(g, engine, legacy, "multicomponent");
}

// ---------------------------------------------------------------------------
// Engine reuse: one Network runs the pipeline repeatedly (and for different
// problems) with identical transcripts each time.
// ---------------------------------------------------------------------------

TEST(EdgePipelineParity, EngineReuseAcrossSolves) {
  Graph g = StarUnion(600, 2, 41);
  auto ids = DefaultIds(g.NumNodes(), 42);
  int64_t space = IdSpace(g.NumNodes());
  MatchingProblem mm;
  EdgeColoringProblem ec(EdgeColoringProblem::Mode::kEdgeDegreePlusOne,
                         g.MaxDegree());

  local::Network net(g, ids);
  auto first = SolveEdgeProblemBoundedArboricity(mm, net, space, 2, 10);
  auto ec_run = SolveEdgeProblemBoundedArboricity(ec, net, space, 2, 10);
  auto second = SolveEdgeProblemBoundedArboricity(mm, net, space, 2, 10);
  EXPECT_TRUE(ec_run.valid) << ec_run.why;
  ExpectSameThm15(g, first, second, "reuse-same-problem");

  // The reused engine matches a fresh one field for field.
  auto fresh = SolveEdgeProblemBoundedArboricity(mm, g, ids, space, 2, 10);
  ExpectSameThm15(g, first, fresh, "reuse-vs-fresh");

  // Different (a, k) on the same engine afterwards.
  auto wider = SolveEdgeProblemBoundedArboricity(mm, net, space, 2, 32);
  auto wider_fresh =
      SolveEdgeProblemBoundedArboricity(mm, g, ids, space, 2, 32);
  ExpectSameThm15(g, wider, wider_fresh, "reuse-different-k");
}

// ---------------------------------------------------------------------------
// ParallelNetwork T-sweep: the sharded pipeline is bit-identical to the
// serial engine (and hence to the oracle) for every thread count.
// Runs under TSan in CI.
// ---------------------------------------------------------------------------

TEST(EdgePipelineParity, ParallelTSweepBitIdentical) {
  struct Workload {
    std::string name;
    Graph graph;
    int a;
    int k;
  };
  std::vector<Workload> workloads;
  workloads.push_back({"hubbed", HubbedForest(700, 3, 51), 3, 15});
  workloads.push_back({"uniform", UniformRandomTree(600, 52), 1, 5});
  workloads.push_back({"starunion", StarUnion(500, 2, 53), 2, 10});
  MatchingProblem mm;
  for (const Workload& w : workloads) {
    auto ids = DefaultIds(w.graph.NumNodes(), 54);
    int64_t space = IdSpace(w.graph.NumNodes());
    auto serial =
        SolveEdgeProblemBoundedArboricity(mm, w.graph, ids, space, w.a, w.k);
    for (int t : {1, 2, 3, 8}) {
      auto sharded = SolveEdgeProblemBoundedArboricity(mm, w.graph, ids,
                                                       space, w.a, w.k, t);
      ExpectSameThm15(w.graph, sharded, serial,
                      w.name + "/T=" + std::to_string(t));
      EXPECT_EQ(sharded.decomposition.round_stats,
                serial.decomposition.round_stats)
          << w.name << " T=" << t;
      EXPECT_EQ(sharded.base_stats.sweep_round_stats,
                serial.base_stats.sweep_round_stats)
          << w.name << " T=" << t;
      EXPECT_EQ(sharded.split.round_stats, serial.split.round_stats)
          << w.name << " T=" << t;
      EXPECT_EQ(sharded.split.messages, serial.split.messages)
          << w.name << " T=" << t;
      EXPECT_EQ(sharded.base_stats.sweep_messages,
                serial.base_stats.sweep_messages)
          << w.name << " T=" << t;
    }
  }
}

// ---------------------------------------------------------------------------
// Base layer on semi-graphs: engine-native vs oracle for node problems
// (MIS, coloring, list coloring) and edge problems (matching, coloring)
// on random semi-graphs of both constructions.
// ---------------------------------------------------------------------------

void ExpectSameBaseStats(const BaseRunStats& a, const BaseRunStats& b,
                         const std::string& what) {
  EXPECT_EQ(a.rounds, b.rounds) << what;
  EXPECT_EQ(a.linial_rounds, b.linial_rounds) << what;
  EXPECT_EQ(a.num_classes, b.num_classes) << what;
  EXPECT_EQ(a.underlying_max_degree, b.underlying_max_degree) << what;
  EXPECT_EQ(a.messages, b.messages) << what;
}

TEST(BaseLayerParity, NodeBaseOnNodeInducedSemigraphs) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    Graph g = UniformRandomTree(400, 60 + seed);
    auto ids = DefaultIds(g.NumNodes(), 70 + seed);
    Rng rng(80 + seed);
    std::vector<char> mask(g.NumNodes(), 0);
    for (int v = 0; v < g.NumNodes(); ++v) mask[v] = rng.NextBool(0.6);
    SemiGraph tc = SemiGraph::NodeInduced(g, mask);

    MisProblem mis;
    ColoringProblem col(ColoringProblem::Mode::kDegPlusOne, g.MaxDegree());
    ListColoringProblem lc(
        ListColoringProblem::RandomLists(g, 1, 64, 90 + seed));
    const NodeProblem* problems[] = {&mis, &col, &lc};
    for (const NodeProblem* p : problems) {
      HalfEdgeLabeling h_engine(g), h_legacy(g);
      auto s_engine =
          RunNodeBase(*p, tc, ids, IdSpace(g.NumNodes()), h_engine);
      auto s_legacy = oracle::RunNodeBase(*p, tc, ids, IdSpace(g.NumNodes()),
                                          h_legacy);
      ExpectSameLabeling(g, h_engine, h_legacy, p->Name());
      ExpectSameBaseStats(s_engine, s_legacy, p->Name());
    }
  }
}

TEST(BaseLayerParity, EdgeBaseOnEdgeInducedSemigraphs) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    Graph g = ForestUnion(300, 2, 100 + seed);
    auto ids = DefaultIds(g.NumNodes(), 110 + seed);
    Rng rng(120 + seed);
    std::vector<char> mask(g.NumEdges(), 0);
    for (int e = 0; e < g.NumEdges(); ++e) mask[e] = rng.NextBool(0.7);
    SemiGraph ge = SemiGraph::EdgeInduced(g, mask);

    MatchingProblem mm;
    EdgeColoringProblem ec(EdgeColoringProblem::Mode::kEdgeDegreePlusOne,
                           g.MaxDegree());
    const EdgeProblem* problems[] = {&mm, &ec};
    for (const EdgeProblem* p : problems) {
      HalfEdgeLabeling h_engine(g), h_legacy(g);
      auto s_engine =
          RunEdgeBase(*p, ge, ids, IdSpace(g.NumNodes()), h_engine);
      auto s_legacy = oracle::RunEdgeBase(*p, ge, ids, IdSpace(g.NumNodes()),
                                          h_legacy);
      ExpectSameLabeling(g, h_engine, h_legacy, p->Name());
      ExpectSameBaseStats(s_engine, s_legacy, p->Name());
    }
  }
}

// The edge-class sweep with content digests on: every semi edge's owner
// announces one word, the receiver's half-edge label, so the sweep delivers
// exactly one message per semi edge, and the digest chain over those
// contents is the same at T = 1 and at T = 3.
TEST(BaseLayerParity, EdgeSweepContentDigestsMatchAcrossLayouts) {
  Graph g = ForestUnion(300, 2, 104);
  auto ids = DefaultIds(g.NumNodes(), 114);
  Rng rng(124);
  std::vector<char> mask(g.NumEdges(), 0);
  for (int e = 0; e < g.NumEdges(); ++e) mask[e] = rng.NextBool(0.7);
  SemiGraph ge = SemiGraph::EdgeInduced(g, mask);
  EdgeColoringProblem ec(EdgeColoringProblem::Mode::kEdgeDegreePlusOne,
                         g.MaxDegree());
  HalfEdgeLabeling want_h(g);
  std::vector<uint64_t> want;
  for (const int threads : {1, 3}) {
    const std::string what = "T=" + std::to_string(threads);
    local::NetworkOptions opt;
    opt.digest_messages = true;
    local::Network net(g, ids, threads, opt);
    HalfEdgeLabeling h(g);
    const BaseRunStats stats =
        RunEdgeBase(net, ec, ge, IdSpace(g.NumNodes()), h);
    EXPECT_EQ(stats.sweep_messages, ge.NumSemiEdges()) << what;
    // The host engine's last run is the sweep.
    EXPECT_EQ(net.messages_delivered(), ge.NumSemiEdges()) << what;
    if (want.empty()) {
      want = net.round_digests();
      want_h = h;
      // Contents are folded in: some round accumulates a nonzero hash.
      EXPECT_TRUE(std::any_of(net.round_message_accs().begin(),
                              net.round_message_accs().end(),
                              [](uint64_t acc) { return acc != 0; }));
    } else {
      EXPECT_EQ(net.round_digests(), want) << what;
      ExpectSameLabeling(g, h, want_h, what);
    }
  }
  EXPECT_FALSE(want.empty());
}

// Baselines (whole graph, including the high-Delta star where the line
// graph degenerates and the Linial fallback sweeps the raw ID space),
// against the oracle base on SemiGraph::Whole.
TEST(BaseLayerParity, BaselinesMatchLegacy) {
  for (TreeFamily family : AllTreeFamilies()) {
    Graph g = MakeTree(family, 200, 7);
    auto ids = DefaultIds(g.NumNodes(), 8);
    int64_t space = IdSpace(g.NumNodes());
    SemiGraph whole = SemiGraph::Whole(g);

    MisProblem mis;
    auto node_engine = RunNodeBaseline(mis, g, ids, space);
    HalfEdgeLabeling node_legacy(g);
    auto node_legacy_stats =
        oracle::RunNodeBase(mis, whole, ids, space, node_legacy);
    EXPECT_TRUE(node_engine.valid) << node_engine.why;
    ExpectSameLabeling(g, node_engine.labeling, node_legacy,
                       TreeFamilyName(family) + "/mis");
    ExpectSameBaseStats(node_engine.stats, node_legacy_stats,
                        TreeFamilyName(family) + "/mis");
    EXPECT_EQ(node_engine.rounds_total, node_legacy_stats.rounds);

    MatchingProblem mm;
    auto edge_engine = RunEdgeBaseline(mm, g, ids, space);
    HalfEdgeLabeling edge_legacy(g);
    auto edge_legacy_stats =
        oracle::RunEdgeBase(mm, whole, ids, space, edge_legacy);
    EXPECT_TRUE(edge_engine.valid) << edge_engine.why;
    ExpectSameLabeling(g, edge_engine.labeling, edge_legacy,
                       TreeFamilyName(family) + "/matching");
    ExpectSameBaseStats(edge_engine.stats, edge_legacy_stats,
                        TreeFamilyName(family) + "/matching");
    EXPECT_EQ(edge_engine.rounds_total, edge_legacy_stats.rounds);
  }
}

// The engine sweep executes only nonempty classes but must still CHARGE the
// full schedule; its executed trajectory is exposed via sweep_round_stats.
TEST(BaseLayerParity, SweepChargesFullScheduleButExecutesNonemptyClasses) {
  Graph g = BoundedDegreeRandomTree(500, 6, 9);
  auto ids = DefaultIds(g.NumNodes(), 10);
  MisProblem mis;
  auto engine = RunNodeBaseline(mis, g, ids, IdSpace(g.NumNodes()));
  EXPECT_EQ(engine.stats.num_classes + engine.stats.linial_rounds,
            engine.stats.rounds);
  // Executed sweep rounds = number of nonempty classes <= charged classes.
  EXPECT_LE(static_cast<int64_t>(engine.stats.sweep_round_stats.size()),
            engine.stats.num_classes);
  EXPECT_GT(engine.stats.sweep_round_stats.size(), 0u);
  // Active-node curve is non-increasing and ends positive.
  const auto& rs = engine.stats.sweep_round_stats;
  for (size_t i = 1; i < rs.size(); ++i) {
    EXPECT_LE(rs[i].active_nodes, rs[i - 1].active_nodes);
  }
  EXPECT_GT(rs.back().active_nodes, 0);
}

// ---------------------------------------------------------------------------
// Line-graph IDs: the library ranks flat 128-bit endpoint-ID keys, the
// oracle runs a pair comparator; equal IDs are one reason the engine path's
// Linial colors are bit-identical to the oracle's.
// ---------------------------------------------------------------------------

TEST(LineGraphIdsParity, FlatKeysMatchPairComparator) {
  std::vector<Graph> graphs;
  graphs.push_back(ForestUnion(300, 2, 150));
  graphs.push_back(TriangulatedGrid(10, 10));
  graphs.push_back(Star(40));
  graphs.push_back(Path(25));
  for (const Graph& g : graphs) {
    std::vector<int> all(g.NumEdges());
    std::iota(all.begin(), all.end(), 0);
    auto ids = DefaultIds(g.NumNodes(), 151);
    EXPECT_EQ(LineGraphIds(g, all, ids), oracle::LineGraphIds(g, ids));
  }
}

// ---------------------------------------------------------------------------
// Forest split: fused single-pass engine CV vs the per-forest oracle.
// ---------------------------------------------------------------------------

TEST(ForestSplitParity, EngineMatchesLegacyAcrossWorkloads) {
  struct Workload {
    std::string name;
    Graph graph;
    int a;
    int k;
  };
  std::vector<Workload> workloads;
  workloads.push_back({"star", Star(80), 1, 5});
  workloads.push_back({"starunion2", StarUnion(900, 2, 130), 2, 10});
  workloads.push_back({"starunion3", StarUnion(700, 3, 131), 3, 15});
  workloads.push_back({"hubbed5", HubbedForest(900, 5, 132), 5, 25});
  workloads.push_back({"grid", Grid(12, 12), 2, 10});  // no atypical edges
  for (const Workload& w : workloads) {
    auto ids = DefaultIds(w.graph.NumNodes(), 140);
    int64_t space = IdSpace(w.graph.NumNodes());
    auto decomp = RunDecomposition(w.graph, ids, w.a, 2 * w.a, w.k);
    auto legacy =
        oracle::SplitAtypicalForests(w.graph, ids, space, decomp, w.a);
    local::Network net(w.graph, ids);
    auto engine = SplitAtypicalForests(net, decomp, w.a, space);
    ExpectSameSplit(engine, legacy, w.name);
    for (int t : {1, 2, 8}) {
      local::ParallelNetwork pnet(w.graph, ids, t);
      auto sharded = SplitAtypicalForests(pnet, decomp, w.a, space);
      ExpectSameSplit(sharded, legacy, w.name + "/T=" + std::to_string(t));
      EXPECT_EQ(sharded.messages, engine.messages) << w.name << " T=" << t;
      EXPECT_EQ(sharded.round_stats, engine.round_stats)
          << w.name << " T=" << t;
    }
  }
}

}  // namespace
}  // namespace treelocal
