// Bit-plane batch kernels: the word-parallel paths must be bit-identical
// to their scalar oracles at every level — Transpose64 vs a naive bit
// loop, CvStepLanes vs CvStepScalar, FirstMissingColor vs sort + scan, and
// the full BitplaneCvBatch runner vs scalar solo Network runs of the same
// CvAlgorithm instances (every transcript field: colors, rounds, messages,
// per-round stats, digest chain). The matrix covers batch widths off the
// 64-lane grain, relabel on/off, mid-run instance dropout via per-instance
// ID spaces, engine reuse, and multi-component forests.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "src/algos/cole_vishkin.h"
#include "src/core/decomposition.h"
#include "src/core/forest_split.h"
#include "src/graph/generators.h"
#include "src/graph/graph.h"
#include "src/local/bitplane.h"
#include "src/local/network.h"
#include "src/support/rng.h"

namespace treelocal {
namespace {

using local::NetworkOptions;
using local::bitplane::BitplaneCvBatch;
using local::bitplane::CvInstanceTranscript;
using local::bitplane::CvIterations;
using local::bitplane::CvStepLanes;
using local::bitplane::CvStepScalar;
using local::bitplane::FirstMissingColor;
using local::bitplane::RunColeVishkinBitplaneBatch;
using local::bitplane::Transpose64;

// BFS parent orientation for a forest: every component is rooted at its
// lowest-index node (multi-component safe, unlike a single-root BFS).
std::vector<int> ForestParents(const Graph& g) {
  const int n = g.NumNodes();
  std::vector<int> parent(n, -1);
  std::vector<char> seen(n, 0);
  std::vector<int> order;
  for (int root = 0; root < n; ++root) {
    if (seen[root]) continue;
    seen[root] = 1;
    order.assign(1, root);
    for (size_t i = 0; i < order.size(); ++i) {
      int v = order[i];
      for (int u : g.Neighbors(v)) {
        if (!seen[u]) {
          seen[u] = 1;
          parent[u] = v;
          order.push_back(u);
        }
      }
    }
  }
  return parent;
}

// ---------------------------------------------------------------------------
// Kernel units.
// ---------------------------------------------------------------------------

// Naive O(64^2) reference for the block-swap transpose.
void NaiveTranspose64(const uint64_t in[64], uint64_t out[64]) {
  for (int i = 0; i < 64; ++i) {
    uint64_t w = 0;
    for (int j = 0; j < 64; ++j) {
      w |= ((in[j] >> i) & 1ull) << j;
    }
    out[i] = w;
  }
}

TEST(BitplaneKernels, Transpose64MatchesNaiveAndIsInvolutive) {
  Rng rng(101);
  for (int trial = 0; trial < 20; ++trial) {
    uint64_t w[64], orig[64], want[64];
    for (int i = 0; i < 64; ++i) orig[i] = w[i] = rng.NextU64();
    NaiveTranspose64(orig, want);
    Transpose64(w);
    for (int i = 0; i < 64; ++i) EXPECT_EQ(w[i], want[i]) << "row " << i;
    Transpose64(w);
    for (int i = 0; i < 64; ++i) EXPECT_EQ(w[i], orig[i]) << "row " << i;
  }
}

TEST(BitplaneKernels, CvIterationsMatchesColeVishkinIterations) {
  for (int64_t m = 1; m <= 5000; ++m) {
    ASSERT_EQ(CvIterations(m), ColeVishkinIterations(m)) << "m=" << m;
  }
  for (int shift = 13; shift < 62; ++shift) {
    const int64_t m = int64_t{1} << shift;
    EXPECT_EQ(CvIterations(m), ColeVishkinIterations(m));
    EXPECT_EQ(CvIterations(m - 1), ColeVishkinIterations(m - 1));
    EXPECT_EQ(CvIterations(m + 1), ColeVishkinIterations(m + 1));
  }
}

// The sort + linear-walk first-fit the mask scan replaced.
int64_t FirstMissingColorReference(std::vector<int64_t> forbidden) {
  std::sort(forbidden.begin(), forbidden.end());
  int64_t c = 1;
  for (int64_t f : forbidden) {
    if (f == c) ++c;
  }
  return c;
}

TEST(BitplaneKernels, FirstMissingColorMatchesSortScan) {
  EXPECT_EQ(FirstMissingColor(nullptr, 0), 1);
  Rng rng(202);
  for (int trial = 0; trial < 400; ++trial) {
    const int count = static_cast<int>(rng.NextBelow(300));
    std::vector<int64_t> forbidden(count);
    for (int i = 0; i < count; ++i) {
      // Duplicates and out-of-reach values on purpose: first-fit answers
      // are <= count+1, so anything larger must be ignorable.
      forbidden[i] = static_cast<int64_t>(rng.NextBelow(count + 4)) + 1;
    }
    ASSERT_EQ(FirstMissingColor(forbidden.data(), count),
              FirstMissingColorReference(forbidden))
        << "trial " << trial << " count " << count;
  }
  // Dense prefix: every color 1..k present forces c = k+1 (word-boundary
  // crossings included).
  for (int k : {1, 63, 64, 65, 127, 128, 200}) {
    std::vector<int64_t> forbidden(k);
    for (int i = 0; i < k; ++i) forbidden[i] = i + 1;
    EXPECT_EQ(FirstMissingColor(forbidden.data(), k), k + 1) << k;
  }
}

TEST(BitplaneKernels, CvStepLanesMatchesScalarAcrossCounts) {
  Rng rng(303);
  // Straddles kCvLanesPlaneThreshold (scalar loop below, planes path at or
  // above) and the 64-lane word grain.
  for (int count : {1, 2, 31, 32, 33, 63, 64, 65, 100, 128}) {
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<int64_t> mine(count), parent(count), out(count, -1);
      for (int l = 0; l < count; ++l) {
        // CV precondition: mine != parent (neighbor colors distinct).
        mine[l] = static_cast<int64_t>(rng.NextU64() & ((1ull << 40) - 1));
        do {
          parent[l] =
              static_cast<int64_t>(rng.NextU64() & ((1ull << 40) - 1));
        } while (parent[l] == mine[l]);
      }
      CvStepLanes(mine.data(), parent.data(), out.data(), count);
      for (int l = 0; l < count; ++l) {
        ASSERT_EQ(out[l], CvStepScalar(mine[l], parent[l]))
            << "count " << count << " lane " << l;
      }
      // Aliased form (out == mine), as the fused multi-forest CV calls it.
      std::vector<int64_t> aliased = mine;
      CvStepLanes(aliased.data(), parent.data(), aliased.data(), count);
      EXPECT_EQ(aliased, out) << "count " << count;
    }
  }
}

// ---------------------------------------------------------------------------
// Full-runner bit identity vs the scalar solo-run oracle.
// ---------------------------------------------------------------------------

void ExpectTranscriptsEqual(const std::vector<CvInstanceTranscript>& got,
                            const std::vector<CvInstanceTranscript>& want,
                            const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t b = 0; b < got.size(); ++b) {
    const std::string at = label + " instance " + std::to_string(b);
    EXPECT_EQ(got[b].colors, want[b].colors) << at;
    EXPECT_EQ(got[b].rounds, want[b].rounds) << at;
    EXPECT_EQ(got[b].messages, want[b].messages) << at;
    EXPECT_EQ(got[b].round_stats, want[b].round_stats) << at;
    EXPECT_EQ(got[b].round_digests, want[b].round_digests) << at;
    EXPECT_EQ(got[b].last_digest, want[b].last_digest) << at;
  }
}

// Per-instance workload: permuted-iota IDs under rotating ID spaces so the
// schedule lengths K_b differ and instances drop out mid-run.
struct BatchWorkload {
  std::vector<std::vector<int64_t>> ids;
  std::vector<int64_t> id_space;
};

BatchWorkload MakeWorkload(int n, int batch, bool per_instance_ids,
                           uint64_t seed) {
  BatchWorkload w;
  const int64_t nn = std::max(n, 2);
  // Rotating spaces -> rotating schedule lengths K_b -> mid-run dropout.
  const std::vector<int64_t> spaces = {4 * nn, 8 * nn, nn * nn * nn,
                                       int64_t{1} << 40};
  std::vector<int64_t> shared(n);
  for (int v = 0; v < n; ++v) shared[v] = v;
  Rng rng(seed);
  rng.Shuffle(shared);  // one permutation of 0..n-1, < every space
  for (int b = 0; b < batch; ++b) {
    const int64_t space = spaces[b % spaces.size()];
    // Per-instance mode draws each instance its own distinct IDs from
    // {1..space-1} (within [0, space)); shared mode reuses one labeling.
    w.ids.push_back(per_instance_ids ? DistinctIds(n, seed + b, space - 1)
                                     : shared);
    w.id_space.push_back(space);
  }
  return w;
}

void ExpectBitplaneMatchesScalarBatch(const Graph& forest, uint64_t seed,
                                      const std::string& label) {
  const int n = forest.NumNodes();
  const std::vector<int> parent = ForestParents(forest);
  for (int batch : {1, 3, 64, 65, 100}) {
    for (bool relabel_engine : {false, true}) {
      for (bool relabel_ids : {false, true}) {
        const std::string at = label + " B=" + std::to_string(batch) +
                               (relabel_engine ? " relabel" : "") +
                               (relabel_ids ? " per-instance-ids" : "");
        BatchWorkload w = MakeWorkload(n, batch, relabel_ids, seed + batch);
        NetworkOptions opt;
        opt.relabel = relabel_engine;
        local::Network net(forest, w.ids[0], opt);
        auto want = ColeVishkin3ColorBatch(net, parent, w.ids, w.id_space);
        auto got =
            RunColeVishkinBitplaneBatch(forest, parent, w.ids, w.id_space);
        ExpectTranscriptsEqual(got, want, at);
        if (testing::Test::HasFailure()) return;  // one matrix cell is enough
      }
    }
  }
}

TEST(BitplaneCvIdentity, UniformRandomTree) {
  ExpectBitplaneMatchesScalarBatch(UniformRandomTree(257, 11), 1000, "tree");
}

TEST(BitplaneCvIdentity, MultiComponentForestWithIsolatedNode) {
  // Two paths of different lengths plus an isolated node: components halt
  // the same round but lanes with different K_b still drop out mid-run.
  Graph g = Graph::FromEdges(
      9, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {5, 6}, {6, 7}});
  ExpectBitplaneMatchesScalarBatch(g, 2000, "multi-component");
}

TEST(BitplaneCvIdentity, DisjointStarUnion) {
  ExpectBitplaneMatchesScalarBatch(StarUnion(300, 1, 17), 3000, "stars");
}

TEST(BitplaneCvIdentity, PathAndTinyForests) {
  ExpectBitplaneMatchesScalarBatch(Path(100), 4000, "path");
  ExpectBitplaneMatchesScalarBatch(Path(1), 5000, "single-node");
  ExpectBitplaneMatchesScalarBatch(Path(2), 6000, "single-edge");
}

TEST(BitplaneCvIdentity, SoloEngineCrossCheck) {
  // The matrix above compares the runner with ColeVishkin3ColorBatch; this
  // pins one instance to the ColeVishkin3Color entry point as well, so both
  // scalar forms agree with the planes.
  const Graph tree = UniformRandomTree(180, 23);
  const int n = tree.NumNodes();
  const std::vector<int> parent = ForestParents(tree);
  const std::vector<int64_t> ids = DefaultIds(n, 31);
  const int64_t space = int64_t{n} * n * n;
  auto solo = ColeVishkin3Color(tree, ids, parent, space);
  auto planes = RunColeVishkinBitplaneBatch(tree, parent, {ids}, {space});
  ASSERT_EQ(planes.size(), 1u);
  std::vector<int> plane_colors(planes[0].colors.begin(),
                                planes[0].colors.end());
  EXPECT_EQ(plane_colors, solo.colors);
  EXPECT_EQ(planes[0].rounds, solo.rounds);
  EXPECT_EQ(planes[0].messages, solo.messages);
  EXPECT_EQ(planes[0].round_stats, solo.round_stats);
}

TEST(BitplaneCvIdentity, RunnerAndEngineAreReusable) {
  const Graph tree = UniformRandomTree(150, 41);
  const int n = tree.NumNodes();
  const std::vector<int> parent = ForestParents(tree);
  BatchWorkload w64 = MakeWorkload(n, 64, /*relabel_ids=*/true, 7000);
  BatchWorkload w5 = MakeWorkload(n, 5, /*relabel_ids=*/true, 8000);

  BitplaneCvBatch runner(tree, parent);
  auto first = runner.Run(w64.ids, w64.id_space);
  // Second run on the SAME runner, different width: buffers are reused and
  // nothing from run 1 may leak into run 2 (and vice versa on repeat).
  auto second = runner.Run(w5.ids, w5.id_space);
  auto first_again = runner.Run(w64.ids, w64.id_space);
  ExpectTranscriptsEqual(first_again, first, "runner reuse");

  // The scalar oracle reuses one engine across widths the same way.
  local::Network net(tree, w64.ids[0]);
  auto want64 = ColeVishkin3ColorBatch(net, parent, w64.ids, w64.id_space);
  auto want5 = ColeVishkin3ColorBatch(net, parent, w5.ids, w5.id_space);
  auto want64_again =
      ColeVishkin3ColorBatch(net, parent, w64.ids, w64.id_space);
  ExpectTranscriptsEqual(want64_again, want64, "engine reuse");
  ExpectTranscriptsEqual(first, want64, "reused-runner vs scalar");
  ExpectTranscriptsEqual(second, want5, "width-switch run vs scalar");
}

TEST(BitplaneCvIdentity, InputValidation) {
  const Graph tree = Path(4);
  const std::vector<int> parent = ForestParents(tree);
  EXPECT_THROW(BitplaneCvBatch(tree, {-1, 0, 1}), std::invalid_argument);
  EXPECT_THROW(BitplaneCvBatch(tree, {-1, 0, 1, 1}), std::invalid_argument);
  BitplaneCvBatch runner(tree, parent);
  EXPECT_THROW(runner.Run({}, {}), std::invalid_argument);
  EXPECT_THROW(runner.Run({{0, 1, 2, 3}}, {4, 4}), std::invalid_argument);
  EXPECT_THROW(runner.Run({{0, 1, 2}}, {4}), std::invalid_argument);
  EXPECT_THROW(runner.Run({{0, 1, 2, 4}}, {4}), std::invalid_argument);
  EXPECT_THROW(runner.Run({{0, 1, 2, 3}}, {0}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Fused multi-forest CV through the wide-lane planes path.
// ---------------------------------------------------------------------------

// A node takes the fused CV's transposed planes path only when it sits in
// >= kCvLanesPlaneThreshold forests at once, i.e. it owns that many
// atypical edges toward higher-id neighbors. Random forest unions never
// concentrate lanes like that, so build the regime directly: a complete
// bipartite core between low-id nodes and 2a = 32 high-id hubs. The peel
// removes the low side first (degree exactly b = 2a), every core edge is
// atypical (hub degree > k at peel time), and each low node colors its 32
// hub edges with all of {0, ..., 2a-1} — exactly the threshold lane count.
TEST(BitplaneFusedForestCv, WideLaneSplitMatchesLegacyOracle) {
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
  auto legacy = SplitAtypicalForests(g, ids, space, decomp, a);
  local::Network net(g, ids);
  auto engine = SplitAtypicalForests(net, decomp, a, space);
  EXPECT_EQ(engine.forest_of_edge, legacy.forest_of_edge);
  EXPECT_EQ(engine.star_class_of_edge, legacy.star_class_of_edge);
  EXPECT_EQ(engine.stars, legacy.stars);
  EXPECT_EQ(engine.cv_rounds, legacy.cv_rounds);
  // Some node must actually have hit the wide-lane regime, or this test
  // pins nothing about the planes path. Lanes = distinct forests among a
  // node's atypical edges, not its atypical-edge count.
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
  EXPECT_GE(max_lanes, local::bitplane::kCvLanesPlaneThreshold);
}

}  // namespace
}  // namespace treelocal
