// Reference-engine parity for the remaining production pipelines (ROADMAP
// open item): Linial color reduction, Cole-Vishkin 3-coloring, and the
// literal distributed sweep must be bit-identical between the optimized
// Network and the naive ReferenceNetwork — same outputs, same round and
// message counts, same per-round RoundStats — in the style of
// RakeCompressBitIdentical.
#include <gtest/gtest.h>

#include <vector>

#include "src/algos/cole_vishkin.h"
#include "src/algos/linial.h"
#include "src/graph/generators.h"
#include "src/local/reference_network.h"
#include "src/problems/coloring.h"
#include "src/problems/mis.h"
#include "src/support/rng.h"
#include "tests/oracle/host_oracle.h"

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

TEST(EngineParityTest, LinialBitIdentical) {
  for (int trial = 0; trial < 6; ++trial) {
    const int n = 32 + trial * 97;
    Graph g = trial % 2 == 0 ? UniformRandomTree(n, 2000 + trial)
                             : BoundedDegreeRandomTree(n, 3 + trial, 2000 + trial);
    auto ids = DefaultIds(n, 2100 + trial);
    const int64_t space = int64_t{n} * n * n;
    local::Network net(g, ids);
    local::ReferenceNetwork ref_net(g, ids);
    LinialResult fast = RunLinial(net, space);
    LinialResult ref = RunLinial(ref_net, space);
    EXPECT_EQ(fast.colors, ref.colors);
    EXPECT_EQ(fast.num_colors, ref.num_colors);
    EXPECT_EQ(fast.rounds, ref.rounds);
    EXPECT_EQ(fast.messages, ref.messages);
    EXPECT_EQ(fast.round_stats, ref.round_stats);
  }
}

TEST(EngineParityTest, ColeVishkinBitIdentical) {
  for (int trial = 0; trial < 6; ++trial) {
    const int n = 16 + trial * 119;
    Graph tree = trial % 2 == 0 ? Path(n) : UniformRandomTree(n, 2200 + trial);
    std::vector<int> parent = RootAt(tree, 0);
    auto ids = DefaultIds(n, 2300 + trial);
    const int64_t space = int64_t{n} * n * n;
    local::Network net(tree, ids);
    local::ReferenceNetwork ref_net(tree, ids);
    ColeVishkinResult fast = ColeVishkin3Color(net, parent, space);
    ColeVishkinResult ref = ColeVishkin3Color(ref_net, parent, space);
    EXPECT_EQ(fast.colors, ref.colors);
    EXPECT_EQ(fast.rounds, ref.rounds);
    EXPECT_EQ(fast.messages, ref.messages);
    EXPECT_EQ(fast.round_stats, ref.round_stats);
  }
}

TEST(EngineParityTest, DistributedSweepBitIdentical) {
  MisProblem mis;
  ColoringProblem col(ColoringProblem::Mode::kDegPlusOne, 0);
  const std::vector<const NodeProblem*> problems = {&mis, &col};
  for (int trial = 0; trial < 4; ++trial) {
    const int n = 60 + trial * 83;
    Graph g = UniformRandomTree(n, 2400 + trial);
    auto ids = DefaultIds(n, 2500 + trial);
    local::Network net(g, ids);
    LinialResult linial = RunLinial(net, int64_t{n} * n * n);
    for (const NodeProblem* problem : problems) {
      oracle::DistributedSweepResult fast = oracle::RunDistributedNodeSweep(
          *problem, g, ids, linial.colors, linial.num_colors);
      oracle::DistributedSweepResult ref =
          oracle::RunDistributedNodeSweepReference(
              *problem, g, ids, linial.colors, linial.num_colors);
      EXPECT_EQ(fast.rounds, ref.rounds);
      EXPECT_EQ(fast.messages, ref.messages);
      EXPECT_EQ(fast.round_stats, ref.round_stats);
      for (int e = 0; e < g.NumEdges(); ++e) {
        ASSERT_EQ(fast.labeling.GetSlot(e, 0), ref.labeling.GetSlot(e, 0));
        ASSERT_EQ(fast.labeling.GetSlot(e, 1), ref.labeling.GetSlot(e, 1));
      }
    }
  }
}

}  // namespace
}  // namespace treelocal
