#include "src/graph/compact_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "src/graph/generators.h"
#include "src/graph/graph.h"
#include "src/graph/graph_view.h"
#include "src/support/digest.h"

namespace treelocal {
namespace {

// Canonical edge list: sorted lexicographically by (min, max) — the order
// CompactGraph numbers edges in.
std::vector<std::pair<int, int>> SortedEdges(const Graph& g) {
  std::vector<std::pair<int, int>> edges;
  edges.reserve(g.NumEdges());
  for (int e = 0; e < g.NumEdges(); ++e) edges.push_back(g.Endpoints(e));
  std::sort(edges.begin(), edges.end());
  return edges;
}

// Exhaustive API equivalence of a CompactGraph against the Graph it was
// built from. Ports are positions in the shared sorted adjacency, so every
// port-level answer must agree exactly.
void ExpectEquivalent(const Graph& g, const CompactGraph& c) {
  ASSERT_EQ(c.NumNodes(), g.NumNodes());
  ASSERT_EQ(c.NumEdges(), g.NumEdges());
  EXPECT_EQ(c.MaxDegree(), g.MaxDegree());
  for (int v = 0; v < g.NumNodes(); ++v) {
    ASSERT_EQ(c.Degree(v), g.Degree(v)) << "node " << v;
    auto nbrs = g.Neighbors(v);
    std::vector<int> got;
    c.ForEachNeighbor(v, [&](int u) { got.push_back(u); });
    ASSERT_EQ(static_cast<int>(got.size()), g.Degree(v)) << "node " << v;
    for (int p = 0; p < g.Degree(v); ++p) {
      ASSERT_EQ(got[p], nbrs[p]) << "node " << v << " port " << p;
      ASSERT_EQ(c.NeighborAt(v, p), nbrs[p]) << "node " << v << " port " << p;
      ASSERT_EQ(c.PortOf(v, nbrs[p]), p) << "node " << v << " port " << p;
    }
  }
  // Edge ids: e-th edge in (min, max) order.
  const auto edges = SortedEdges(g);
  int64_t count = 0;
  c.ForEachEdge([&](int64_t e, int u, int v) {
    ASSERT_EQ(e, count);
    ASSERT_LT(u, v);
    ASSERT_EQ(std::make_pair(u, v), edges[static_cast<size_t>(e)]);
    ++count;
  });
  ASSERT_EQ(count, c.NumEdges());
  // Absent pairs.
  if (g.NumNodes() >= 2) {
    for (int v = 0; v < std::min(g.NumNodes(), 50); ++v) {
      for (int u = 0; u < std::min(g.NumNodes(), 50); ++u) {
        if (u == v) continue;
        EXPECT_EQ(c.PortOf(v, u) >= 0, g.PortOf(v, u) >= 0);
      }
    }
  }
}

TEST(CompactGraphTest, EmptyAndSingleton) {
  ExpectEquivalent(Graph::FromEdges(0, {}),
                   CompactGraph::FromGraph(Graph::FromEdges(0, {})));
  ExpectEquivalent(Graph::FromEdges(1, {}),
                   CompactGraph::FromGraph(Graph::FromEdges(1, {})));
  ExpectEquivalent(Graph::FromEdges(5, {}),
                   CompactGraph::FromGraph(Graph::FromEdges(5, {})));
}

TEST(CompactGraphTest, SmallFamiliesEquivalent) {
  for (const Graph& g :
       {Graph::FromEdges(2, {{0, 1}}), Path(33), Path(64), Star(65),
        CompleteBinaryTree(100), Grid(9, 7), TriangulatedGrid(6, 11),
        UniformRandomTree(257, 7), RandomRecursiveTree(301, 9),
        Caterpillar(20, 3), Spider(7, 11)}) {
    ExpectEquivalent(g, CompactGraph::FromGraph(g));
  }
}

// Star(1000)'s center stream is >= 999 bytes: a long-stream sentinel in
// a wide block, decoded from its start by every per-node query.
TEST(CompactGraphTest, HubHeavyGraphsEquivalent) {
  for (const Graph& g : {Star(1000), StarUnion(400, 3, 11),
                         HubbedForest(600, 3, 5), ForestUnion(300, 4, 13)}) {
    ExpectEquivalent(g, CompactGraph::FromGraph(g));
  }
}

TEST(CompactGraphTest, MultiComponentEquivalent) {
  // Two components + isolated nodes.
  Graph g = Graph::FromEdges(
      10, {{0, 1}, {1, 2}, {5, 6}, {6, 7}, {5, 7}});
  ExpectEquivalent(g, CompactGraph::FromGraph(g));
}

TEST(CompactGraphTest, CompressesTreesWell) {
  Graph g = UniformRandomTree(1 << 14, 3);
  CompactGraph c = CompactGraph::FromGraph(g);
  const double bytes_per_edge =
      static_cast<double>(c.MemoryBytes()) / static_cast<double>(c.NumEdges());
  EXPECT_LE(bytes_per_edge, 6.0);
  EXPECT_GE(static_cast<double>(g.MemoryBytes()) /
                static_cast<double>(c.MemoryBytes()),
            4.0);
}

TEST(CompactGraphTest, SerializeRoundTrips) {
  Graph g = HubbedForest(500, 3, 21);
  CompactGraph c = CompactGraph::FromGraph(g);
  std::string image = c.Serialize();
  CompactGraph c2 = CompactGraph::FromBytes(image);
  EXPECT_EQ(c2.Serialize(), image);
  ExpectEquivalent(g, c2);
}

TEST(CompactGraphTest, FileRoundTripAndMmap) {
  Graph g = StarUnion(500, 2, 3);
  CompactGraph c = CompactGraph::FromGraph(g);
  const std::string path = "/tmp/treelocal_compact_graph_test.cgr";
  c.WriteFile(path);
  CompactGraph from_file = CompactGraph::FromFile(path);
  EXPECT_FALSE(from_file.mapped());
  ExpectEquivalent(g, from_file);
  CompactGraph mapped = CompactGraph::OpenMapped(path);
  EXPECT_TRUE(mapped.mapped());
  EXPECT_EQ(mapped.Serialize(), c.Serialize());
  ExpectEquivalent(g, mapped);
  std::remove(path.c_str());
}

// A version-1 image (version word 1, footer re-hashed so the integrity
// check passes) is refused on every open path, with an error naming both
// the file's version and the one this build reads.
TEST(CompactGraphTest, VersionOneImagesAreRefused) {
  std::string image = CompactGraph::FromGraph(StarUnion(300, 2, 5)).Serialize();
  const size_t version_off = 8, payload = image.size() - 8;
  image[version_off] = 1;
  const uint64_t h = support::Fnv1a64(image.data(), payload);
  for (int i = 0; i < 8; ++i) image[payload + i] = static_cast<char>(h >> (8 * i));
  const auto expect_refused = [](const auto& open, const char* how) {
    try {
      open();
      ADD_FAILURE() << how << " accepted a version-1 image";
    } catch (const CompactGraphError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("version 1"), std::string::npos) << how << ": " << what;
      EXPECT_NE(what.find("version 2"), std::string::npos) << how << ": " << what;
    }
  };
  expect_refused([&] { return CompactGraph::FromBytes(image); }, "FromBytes");
  const std::string path = ::testing::TempDir() + "compact_graph_v1.cgr";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(image.data(), static_cast<std::streamsize>(image.size()));
  }
  expect_refused([&] { return CompactGraph::FromFile(path); }, "FromFile");
  expect_refused([&] { return CompactGraph::OpenMapped(path); }, "OpenMapped");
  std::remove(path.c_str());
}

TEST(CompactGraphTest, MoveTransfersOwnership) {
  Graph g = Path(100);
  CompactGraph c = CompactGraph::FromGraph(g);
  CompactGraph moved = std::move(c);
  ExpectEquivalent(g, moved);
  CompactGraph assigned = CompactGraph::FromGraph(Star(10));
  assigned = std::move(moved);
  ExpectEquivalent(g, assigned);
}

TEST(CompactGraphTest, BuilderMatchesFromGraph) {
  Graph g = UniformRandomTree(300, 17);
  CompactGraph::Builder b(g.NumNodes());
  for (int v = 0; v < g.NumNodes(); ++v) {
    for (int u : g.Neighbors(v)) b.AddArc(v, u);
  }
  CompactGraph c = b.Finish();
  EXPECT_EQ(c.Serialize(), CompactGraph::FromGraph(g).Serialize());
}

TEST(CompactGraphTest, BuilderRejectsBadInput) {
  EXPECT_THROW(CompactGraph::Builder(-1), CompactGraphError);
  {
    CompactGraph::Builder b(4);
    b.AddArc(1, 2);
    EXPECT_THROW(b.AddArc(0, 1), CompactGraphError);  // nodes out of order
  }
  {
    CompactGraph::Builder b(4);
    b.AddArc(0, 2);
    EXPECT_THROW(b.AddArc(0, 1), CompactGraphError);  // neighbors not sorted
  }
  {
    CompactGraph::Builder b(4);
    b.AddArc(0, 2);
    EXPECT_THROW(b.AddArc(0, 2), CompactGraphError);  // duplicate neighbor
  }
  {
    CompactGraph::Builder b(4);
    EXPECT_THROW(b.AddArc(0, 0), CompactGraphError);  // self-loop
    EXPECT_THROW(b.AddArc(0, 4), CompactGraphError);  // out of range
    EXPECT_THROW(b.AddArc(0, -1), CompactGraphError);
  }
  {
    CompactGraph::Builder b(3);
    b.AddArc(0, 1);  // one direction only: validation must reject
    EXPECT_THROW(b.FinishImage(), CompactGraphError);
  }
}

TEST(CompactGraphTest, GraphViewDispatchesToBothBackends) {
  Graph g = UniformRandomTree(200, 23);
  CompactGraph c = CompactGraph::FromGraph(g);
  GraphView vg(g);
  GraphView vc(c);
  ASSERT_EQ(vg.NumNodes(), vc.NumNodes());
  ASSERT_EQ(vg.NumEdges(), vc.NumEdges());
  ASSERT_EQ(vg.MaxDegree(), vc.MaxDegree());
  for (int v = 0; v < vg.NumNodes(); ++v) {
    ASSERT_EQ(vg.Degree(v), vc.Degree(v));
    for (int p = 0; p < vg.Degree(v); ++p) {
      ASSERT_EQ(vg.NeighborAt(v, p), vc.NeighborAt(v, p));
      const int u = vg.NeighborAt(v, p);
      ASSERT_EQ(vg.PortOf(v, u), vc.PortOf(v, u));
    }
  }
  EXPECT_EQ(vg.csr(), &g);
  EXPECT_EQ(vc.compact(), &c);
  EXPECT_NO_THROW(vg.RequireCsr("test"));
  EXPECT_THROW(vc.RequireCsr("test"), std::logic_error);
  // Edge enumeration covers every edge exactly once on both backends.
  int64_t edges_g = 0, edges_c = 0;
  vg.ForEachEdge([&](int64_t, int, int) { ++edges_g; });
  vc.ForEachEdge([&](int64_t, int, int) { ++edges_c; });
  EXPECT_EQ(edges_g, vg.NumEdges());
  EXPECT_EQ(edges_c, vc.NumEdges());
}

}  // namespace
}  // namespace treelocal
