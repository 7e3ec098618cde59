#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "src/graph/generators.h"
#include "src/graph/graph.h"
#include "src/graph/linegraph.h"
#include "src/graph/subgraph.h"
#include "src/support/rng.h"

namespace treelocal {
namespace {

Graph Triangle() { return Graph::FromEdges(3, {{0, 1}, {1, 2}, {0, 2}}); }

TEST(GraphTest, EmptyGraph) {
  Graph g = Graph::FromEdges(0, {});
  EXPECT_EQ(g.NumNodes(), 0);
  EXPECT_EQ(g.NumEdges(), 0);
  EXPECT_EQ(g.MaxDegree(), 0);
}

TEST(GraphTest, SingleNode) {
  Graph g = Graph::FromEdges(1, {});
  EXPECT_EQ(g.NumNodes(), 1);
  EXPECT_EQ(g.Degree(0), 0);
}

TEST(GraphTest, TriangleBasics) {
  Graph g = Triangle();
  EXPECT_EQ(g.NumNodes(), 3);
  EXPECT_EQ(g.NumEdges(), 3);
  EXPECT_EQ(g.MaxDegree(), 2);
  for (int v = 0; v < 3; ++v) EXPECT_EQ(g.Degree(v), 2);
}

TEST(GraphTest, EndpointsNormalized) {
  Graph g = Graph::FromEdges(4, {{3, 1}, {2, 0}});
  for (int e = 0; e < 2; ++e) {
    auto [u, v] = g.Endpoints(e);
    EXPECT_LT(u, v);
  }
}

TEST(GraphTest, NeighborsSorted) {
  Graph g = Graph::FromEdges(5, {{0, 4}, {0, 2}, {0, 1}, {0, 3}});
  auto nbrs = g.Neighbors(0);
  ASSERT_EQ(nbrs.size(), 4u);
  for (size_t i = 1; i < nbrs.size(); ++i) EXPECT_LT(nbrs[i - 1], nbrs[i]);
}

TEST(GraphTest, IncidentEdgesParallelToNeighbors) {
  Graph g = Graph::FromEdges(4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}});
  for (int v = 0; v < 4; ++v) {
    auto nbrs = g.Neighbors(v);
    auto inc = g.IncidentEdges(v);
    ASSERT_EQ(nbrs.size(), inc.size());
    for (size_t p = 0; p < nbrs.size(); ++p) {
      EXPECT_EQ(g.OtherEndpoint(inc[p], v), nbrs[p]);
    }
  }
}

TEST(GraphTest, EdgeBetween) {
  Graph g = Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_GE(g.EdgeBetween(0, 1), 0);
  EXPECT_GE(g.EdgeBetween(1, 0), 0);
  EXPECT_EQ(g.EdgeBetween(0, 2), -1);
  EXPECT_EQ(g.EdgeBetween(0, 3), -1);
  int e = g.EdgeBetween(1, 2);
  EXPECT_EQ(g.Endpoints(e), (std::pair<int, int>{1, 2}));
}

// Exhaustive regression for the binary-search EdgeBetween/PortOf over the
// sorted adjacency lists: agree with edge-list membership for every ordered
// pair, including absent pairs and both argument orders.
TEST(GraphTest, EdgeBetweenExhaustiveOnRandomGraph) {
  Graph g = BoundedDegreeRandomTree(80, 7, 123);
  std::vector<std::vector<int>> want(g.NumNodes(),
                                     std::vector<int>(g.NumNodes(), -1));
  for (int e = 0; e < g.NumEdges(); ++e) {
    auto [u, v] = g.Endpoints(e);
    want[u][v] = want[v][u] = e;
  }
  for (int u = 0; u < g.NumNodes(); ++u) {
    for (int v = 0; v < g.NumNodes(); ++v) {
      if (u == v) continue;
      EXPECT_EQ(g.EdgeBetween(u, v), want[u][v]) << u << "," << v;
      if (want[u][v] >= 0) {
        int p = g.PortOf(u, v);
        ASSERT_GE(p, 0);
        EXPECT_EQ(g.Neighbors(u)[p], v);
        EXPECT_EQ(g.IncidentEdges(u)[p], want[u][v]);
      } else {
        EXPECT_EQ(g.PortOf(u, v), -1);
      }
    }
  }
}

TEST(GraphTest, PortOf) {
  Graph g = Graph::FromEdges(4, {{0, 1}, {0, 2}, {0, 3}});
  EXPECT_EQ(g.PortOf(0, 1), 0);
  EXPECT_EQ(g.PortOf(0, 2), 1);
  EXPECT_EQ(g.PortOf(0, 3), 2);
  EXPECT_EQ(g.PortOf(1, 2), -1);
}

TEST(GraphTest, EndpointSlot) {
  Graph g = Graph::FromEdges(2, {{0, 1}});
  EXPECT_EQ(g.EndpointSlot(0, 0), 0);
  EXPECT_EQ(g.EndpointSlot(0, 1), 1);
}

TEST(GraphTest, EdgeDegree) {
  // Path 0-1-2-3: middle edge has edge-degree 2, end edges 1.
  Graph g = Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}});
  int middle = g.EdgeBetween(1, 2);
  int end = g.EdgeBetween(0, 1);
  EXPECT_EQ(g.EdgeDegree(middle), 2);
  EXPECT_EQ(g.EdgeDegree(end), 1);
  EXPECT_EQ(g.MaxEdgeDegree(), 2);
}

TEST(GraphTest, RejectsSelfLoop) {
  EXPECT_THROW(Graph::FromEdges(2, {{1, 1}}), std::invalid_argument);
}

TEST(GraphTest, RejectsDuplicateEdge) {
  EXPECT_THROW(Graph::FromEdges(3, {{0, 1}, {1, 0}}), std::invalid_argument);
}

TEST(GraphTest, RejectsOutOfRange) {
  EXPECT_THROW(Graph::FromEdges(2, {{0, 2}}), std::invalid_argument);
  EXPECT_THROW(Graph::FromEdges(2, {{-1, 0}}), std::invalid_argument);
}

TEST(GraphTest, RejectsNegativeNodeCount) {
  EXPECT_THROW(Graph::FromEdges(-1, {}), std::invalid_argument);
}

// The rejection messages name the offending input — a snapshot with a
// corrupted edge list surfaces these through ReconstructGraph, so they must
// identify what is wrong, not just that something is.
TEST(GraphTest, RejectionMessagesAreDescriptive) {
  auto message_of = [](auto make) -> std::string {
    try {
      make();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  const std::string self_loop =
      message_of([] { Graph::FromEdges(4, {{2, 2}}); });
  EXPECT_NE(self_loop.find("self-loop"), std::string::npos) << self_loop;
  EXPECT_NE(self_loop.find('2'), std::string::npos) << self_loop;

  const std::string range =
      message_of([] { Graph::FromEdges(3, {{0, 7}}); });
  EXPECT_NE(range.find("out of range"), std::string::npos) << range;
  EXPECT_NE(range.find("(0, 7)"), std::string::npos) << range;

  const std::string dup =
      message_of([] { Graph::FromEdges(3, {{1, 2}, {2, 1}}); });
  EXPECT_NE(dup.find("duplicate edge"), std::string::npos) << dup;

  const std::string neg = message_of([] { Graph::FromEdges(-5, {}); });
  EXPECT_NE(neg.find("negative"), std::string::npos) << neg;
  EXPECT_NE(neg.find("-5"), std::string::npos) << neg;
}

TEST(SubgraphTest, InduceByNodesKeepsInternalEdges) {
  // Path 0-1-2-3; induce {1,2}: one edge.
  Graph g = Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}});
  Subgraph sub = InduceByNodes(g, {0, 1, 1, 0});
  EXPECT_EQ(sub.graph.NumNodes(), 2);
  EXPECT_EQ(sub.graph.NumEdges(), 1);
  EXPECT_EQ(sub.node_to_host.size(), 2u);
  EXPECT_EQ(sub.host_to_node[0], -1);
  EXPECT_GE(sub.host_to_node[1], 0);
  int host_edge = sub.edge_to_host[0];
  EXPECT_EQ(g.Endpoints(host_edge), (std::pair<int, int>{1, 2}));
}

TEST(SubgraphTest, InduceByNodesRoundTrip) {
  Graph g = Triangle();
  Subgraph sub = InduceByNodes(g, {1, 1, 1});
  EXPECT_EQ(sub.graph.NumNodes(), 3);
  EXPECT_EQ(sub.graph.NumEdges(), 3);
  for (int v = 0; v < 3; ++v) {
    EXPECT_EQ(sub.host_to_node[sub.node_to_host[v]], v);
  }
}

TEST(SubgraphTest, InduceByEdges) {
  Graph g = Graph::FromEdges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  std::vector<char> mask = {1, 0, 0, 1};
  Subgraph sub = InduceByEdges(g, mask);
  EXPECT_EQ(sub.graph.NumEdges(), 2);
  EXPECT_EQ(sub.graph.NumNodes(), 4);  // endpoints 0,1,3,4
  EXPECT_EQ(sub.host_to_node[2], -1);
}

TEST(SubgraphTest, RestrictToSubgraph) {
  Graph g = Graph::FromEdges(3, {{0, 1}, {1, 2}});
  Subgraph sub = InduceByNodes(g, {0, 1, 1});
  std::vector<int64_t> vals = {10, 20, 30};
  auto restricted = RestrictToSubgraph(sub, vals);
  ASSERT_EQ(restricted.size(), 2u);
  EXPECT_EQ(restricted[0], 20);
  EXPECT_EQ(restricted[1], 30);
}

std::vector<int> AllEdges(const Graph& g) {
  std::vector<int> all(g.NumEdges());
  std::iota(all.begin(), all.end(), 0);
  return all;
}

TEST(LineGraphTest, PathLineGraphIsPath) {
  // L(P4) = P3.
  Graph g = Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}});
  LineGraph lg = BuildLineGraph(g, AllEdges(g));
  EXPECT_EQ(lg.graph.NumNodes(), 3);
  EXPECT_EQ(lg.graph.NumEdges(), 2);
  EXPECT_EQ(lg.graph.MaxDegree(), 2);
}

TEST(LineGraphTest, StarLineGraphIsComplete) {
  // L(K_{1,4}) = K4.
  Graph g = Graph::FromEdges(5, {{0, 1}, {0, 2}, {0, 3}, {0, 4}});
  LineGraph lg = BuildLineGraph(g, AllEdges(g));
  EXPECT_EQ(lg.graph.NumNodes(), 4);
  EXPECT_EQ(lg.graph.NumEdges(), 6);
}

TEST(LineGraphTest, TriangleLineGraphIsTriangle) {
  const Graph g = Triangle();
  LineGraph lg = BuildLineGraph(g, AllEdges(g));
  EXPECT_EQ(lg.graph.NumNodes(), 3);
  EXPECT_EQ(lg.graph.NumEdges(), 3);
}

TEST(LineGraphTest, DegreeMatchesEdgeDegree) {
  Graph g = Graph::FromEdges(6, {{0, 1}, {1, 2}, {1, 3}, {3, 4}, {4, 5}});
  LineGraph lg = BuildLineGraph(g, AllEdges(g));
  for (int e = 0; e < g.NumEdges(); ++e) {
    EXPECT_EQ(lg.graph.Degree(e), g.EdgeDegree(e));
  }
}

// The subset form is the line graph of the subgraph the subset induces:
// same node numbering (position in the subset) and same edge list as
// building over the compacted graph, which InduceByEdges numbers in
// ascending host-edge order.
TEST(LineGraphTest, SubsetMatchesCompactedSubgraph) {
  const Graph g = UniformRandomTree(200, 5);
  std::vector<char> mask(g.NumEdges(), 0);
  std::vector<int> subset;
  for (int e = 0; e < g.NumEdges(); ++e) {
    if (e % 3 != 0) {
      mask[e] = 1;
      subset.push_back(e);
    }
  }
  const Subgraph sub = InduceByEdges(g, mask);
  const Graph direct = BuildLineGraph(g, subset).graph;
  const Graph compacted = BuildLineGraph(sub.graph, AllEdges(sub.graph)).graph;
  ASSERT_EQ(direct.NumNodes(), static_cast<int>(subset.size()));
  ASSERT_EQ(direct.NumNodes(), compacted.NumNodes());
  ASSERT_EQ(direct.NumEdges(), compacted.NumEdges());
  for (int v = 0; v < direct.NumNodes(); ++v) {
    const auto a = direct.Neighbors(v);
    const auto b = compacted.Neighbors(v);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << v;
  }
}

TEST(LineGraphTest, IdsDistinctAndPositive) {
  Graph g = Graph::FromEdges(6, {{0, 1}, {1, 2}, {1, 3}, {3, 4}, {4, 5}});
  auto host_ids = DefaultIds(6, 17);
  auto ids = LineGraphIds(g, AllEdges(g), host_ids);
  std::set<int64_t> s(ids.begin(), ids.end());
  EXPECT_EQ(s.size(), ids.size());
  for (int64_t id : ids) EXPECT_GE(id, 1);
}

}  // namespace
}  // namespace treelocal
