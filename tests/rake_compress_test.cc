// Invariant tests for Algorithm 1 (rake-and-compress, [CHL+19]):
//   Lemma 9  — every node is marked within ceil(log_k n) + 1 iterations;
//   Lemma 10 — the graph induced by edges with lower endpoint in a compress
//              layer has maximum degree <= k;
//   Lemma 11 — raked components have diameter <= 4(log_k n + 1) + 2.
#include <gtest/gtest.h>

#include "src/core/rake_compress.h"
#include "src/graph/algorithms.h"
#include "src/graph/generators.h"
#include "src/local/reference_network.h"
#include "src/support/mathutil.h"
#include "src/support/rng.h"

namespace treelocal {
namespace {

struct Case {
  TreeFamily family;
  int n;
  int k;
};

std::string CaseName(const ::testing::TestParamInfo<Case>& info) {
  return TreeFamilyName(info.param.family) + "_n" +
         std::to_string(info.param.n) + "_k" + std::to_string(info.param.k);
}

class RakeCompressTest : public ::testing::TestWithParam<Case> {
 protected:
  void SetUp() override {
    const Case& c = GetParam();
    tree_ = MakeTree(c.family, c.n, 42);
    ids_ = DefaultIds(tree_.NumNodes(), 43);
    result_ = RunRakeCompress(tree_, ids_, c.k);
  }

  Graph tree_;
  std::vector<int64_t> ids_;
  RakeCompressResult result_;
};

TEST_P(RakeCompressTest, Lemma9AllNodesMarkedWithinBound) {
  for (int v = 0; v < tree_.NumNodes(); ++v) {
    EXPECT_GT(result_.iteration[v], 0);
  }
  EXPECT_LE(result_.num_iterations,
            RakeCompressIterationBound(tree_.NumNodes(), GetParam().k));
}

TEST_P(RakeCompressTest, Lemma10CompressEdgeGraphDegreeAtMostK) {
  // E_C = edges whose lower endpoint lies in a compress layer.
  const int k = GetParam().k;
  std::vector<int> ec_degree(tree_.NumNodes(), 0);
  for (int e = 0; e < tree_.NumEdges(); ++e) {
    auto [u, v] = tree_.Endpoints(e);
    int lo = result_.Lower(u, v, ids_) ? u : v;
    if (result_.compressed[lo]) {
      ++ec_degree[u];
      ++ec_degree[v];
    }
  }
  for (int v = 0; v < tree_.NumNodes(); ++v) {
    EXPECT_LE(ec_degree[v], k) << "node " << v;
  }
}

TEST_P(RakeCompressTest, Lemma10ImpliesCompressedSubgraphDegreeAtMostK) {
  // The underlying graph of T_C is a subgraph of G[E_C] (Theorem 12 proof).
  const int k = GetParam().k;
  std::vector<int> c_degree(tree_.NumNodes(), 0);
  for (int e = 0; e < tree_.NumEdges(); ++e) {
    auto [u, v] = tree_.Endpoints(e);
    if (result_.compressed[u] && result_.compressed[v]) {
      ++c_degree[u];
      ++c_degree[v];
    }
  }
  for (int v = 0; v < tree_.NumNodes(); ++v) EXPECT_LE(c_degree[v], k);
}

TEST_P(RakeCompressTest, Lemma11RakedComponentDiameterBound) {
  const int k = GetParam().k;
  std::vector<char> raked(tree_.NumNodes(), 0);
  for (int v = 0; v < tree_.NumNodes(); ++v) {
    raked[v] = !result_.compressed[v];
  }
  int num = 0;
  auto comp = MaskedComponents(tree_, raked, &num);
  auto diam = MaskedTreeComponentDiameters(tree_, raked, comp, num);
  double logk_n =
      LogBase(static_cast<double>(std::max(2, tree_.NumNodes())), k);
  int bound = static_cast<int>(4 * (logk_n + 1) + 2);
  for (int c = 0; c < num; ++c) {
    EXPECT_LE(diam[c], bound) << "component " << c;
  }
}

TEST_P(RakeCompressTest, EngineRoundsLinearInIterations) {
  // 3 rounds per iteration; the final iteration may end up to 2 rounds
  // early once every node has halted.
  EXPECT_LE(result_.engine_rounds, 3 * result_.num_iterations);
  EXPECT_GE(result_.engine_rounds, 3 * result_.num_iterations - 2);
  // Hence ceil(rounds / 3) recovers the iteration count from the round
  // count alone — what the daemon's coalesced pass reports.
  EXPECT_EQ((result_.engine_rounds + 2) / 3, result_.num_iterations);
}

TEST_P(RakeCompressTest, LayerOrderWellFormed) {
  for (int v = 0; v < tree_.NumNodes(); ++v) {
    int layer = result_.Layer(v);
    EXPECT_GE(layer, 1);
    EXPECT_LE(layer, 2 * result_.num_iterations);
  }
  // Lower() is a strict total order.
  for (int trial = 0; trial < 100; ++trial) {
    Rng rng(trial);
    int u = static_cast<int>(rng.NextBelow(tree_.NumNodes()));
    int v = static_cast<int>(rng.NextBelow(tree_.NumNodes()));
    if (u == v) continue;
    EXPECT_NE(result_.Lower(u, v, ids_), result_.Lower(v, u, ids_));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RakeCompressTest,
    ::testing::Values(Case{TreeFamily::kPath, 1000, 2},
                      Case{TreeFamily::kPath, 1000, 8},
                      Case{TreeFamily::kStar, 1000, 2},
                      Case{TreeFamily::kStar, 1000, 16},
                      Case{TreeFamily::kBalanced3, 1093, 2},
                      Case{TreeFamily::kBalanced8, 1000, 4},
                      Case{TreeFamily::kUniform, 2048, 2},
                      Case{TreeFamily::kUniform, 2048, 4},
                      Case{TreeFamily::kUniform, 2048, 16},
                      Case{TreeFamily::kRecursive, 1500, 3},
                      Case{TreeFamily::kCaterpillar, 1200, 2},
                      Case{TreeFamily::kBinary, 1023, 2},
                      Case{TreeFamily::kBinary, 4095, 8}),
    CaseName);

TEST(RakeCompressEdgeCases, SingletonCompressesImmediately) {
  Graph g = Path(1);
  auto result = RunRakeCompress(g, {1}, 2);
  EXPECT_EQ(result.num_iterations, 1);
  EXPECT_TRUE(result.compressed[0]);
}

TEST(RakeCompressEdgeCases, SingleEdgeCompresses) {
  Graph g = Path(2);
  auto result = RunRakeCompress(g, {1, 2}, 2);
  EXPECT_EQ(result.num_iterations, 1);
  EXPECT_TRUE(result.compressed[0]);
  EXPECT_TRUE(result.compressed[1]);
}

TEST(RakeCompressEdgeCases, PathFullyCompressedWhenKAtLeast2) {
  // Every path node has degree <= 2 <= k, so iteration 1 compresses all.
  Graph g = Path(50);
  auto result = RunRakeCompress(g, DefaultIds(50, 1), 2);
  EXPECT_EQ(result.num_iterations, 1);
  for (int v = 0; v < 50; ++v) EXPECT_TRUE(result.compressed[v]);
}

TEST(RakeCompressEdgeCases, StarLeavesRakeCenterLater) {
  Graph g = Star(100);
  auto result = RunRakeCompress(g, DefaultIds(100, 2), 5);
  // Leaves have a degree-99 neighbor: not compressible; they rake in
  // iteration 1. The isolated center is then marked in iteration 2.
  for (int v = 1; v < 100; ++v) {
    EXPECT_FALSE(result.compressed[v]);
    EXPECT_EQ(result.iteration[v], 1);
  }
  EXPECT_EQ(result.iteration[0], 2);
}

TEST(RakeCompressEdgeCases, RejectsKBelow2) {
  EXPECT_THROW(RunRakeCompress(Path(5), DefaultIds(5, 3), 1),
               std::invalid_argument);
}

TEST(RakeCompressEdgeCases, DeterministicAcrossRuns) {
  Graph g = UniformRandomTree(500, 9);
  auto ids = DefaultIds(500, 10);
  auto r1 = RunRakeCompress(g, ids, 3);
  auto r2 = RunRakeCompress(g, ids, 3);
  EXPECT_EQ(r1.iteration, r2.iteration);
  EXPECT_EQ(r1.compressed, r2.compressed);
  EXPECT_EQ(r1.engine_rounds, r2.engine_rounds);
}

void ExpectSameResult(const RakeCompressResult& a, const RakeCompressResult& b) {
  EXPECT_EQ(a.iteration, b.iteration);
  EXPECT_EQ(a.compressed, b.compressed);
  EXPECT_EQ(a.num_iterations, b.num_iterations);
  EXPECT_EQ(a.engine_rounds, b.engine_rounds);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.round_stats, b.round_stats);
}

// Shared-transcript dedup: a sweep with duplicate ks and a tail of ks at or
// above Delta must be bit-identical, per k, to one solo run per k, even
// though the engine runs far fewer decompositions. The sweep runs on a
// one-lane and a two-lane Network; the solo runs use ReferenceNetwork on
// the caller's labels.
TEST(RakeCompressDedup, BitIdenticalToSoloRunsPerK) {
  for (uint64_t seed : {21u, 22u}) {
    Graph g = UniformRandomTree(700, seed);
    auto ids = DefaultIds(700, seed + 50);
    const int delta = g.MaxDegree();
    ASSERT_GE(delta, 3);  // the tail below must actually dedup
    const std::vector<int> ks = {2,         3,     delta - 1, delta,
                                 delta + 1, delta, 2 * delta, 300,
                                 2,         delta + 7};
    local::ReferenceNetwork reference(g, ids);
    std::vector<RakeCompressResult> solo;
    for (const int k : ks) solo.push_back(RunRakeCompress(reference, k));
    for (const int threads : {1, 2}) {
      local::Network net(g, ids, threads, local::NetworkOptions{});
      auto deduped = RunRakeCompressDeduped(net, ks);
      ASSERT_EQ(deduped.size(), ks.size());
      for (size_t b = 0; b < ks.size(); ++b) {
        ExpectSameResult(deduped[b], solo[b]);
      }
    }
  }
}

TEST(RakeCompressDedup, AllAboveDeltaCollapsesToOneTranscript) {
  Graph g = Star(64);  // Delta = 63
  auto ids = DefaultIds(64, 5);
  const std::vector<int> ks = {63, 64, 100, 1000};
  local::Network net(g, ids);
  auto results = RunRakeCompressDeduped(net, ks);
  for (size_t b = 1; b < ks.size(); ++b) {
    ExpectSameResult(results[b], results[0]);
  }
  ExpectSameResult(results[0], RunRakeCompress(g, ids, 63));
}

TEST(RakeCompressDedup, ValidatesEveryKEvenWhenDeduped) {
  Graph g = Path(8);
  auto ids = DefaultIds(8, 6);
  local::Network net(g, ids);
  EXPECT_THROW(RunRakeCompressDeduped(net, {4, 1}), std::invalid_argument);
  EXPECT_TRUE(RunRakeCompressDeduped(net, {}).empty());

  // An empty forest still validates every k and yields one empty result
  // per k.
  Graph empty = Graph::FromEdges(0, {});
  local::Network empty_net(empty, {});
  EXPECT_THROW(RunRakeCompressDeduped(empty_net, {2, 1}),
               std::invalid_argument);
  auto results = RunRakeCompressDeduped(empty_net, {2, 4});
  ASSERT_EQ(results.size(), 2u);
  for (const RakeCompressResult& r : results) {
    EXPECT_TRUE(r.iteration.empty());
    EXPECT_EQ(r.engine_rounds, 0);
  }
}

}  // namespace
}  // namespace treelocal
