#include "tests/oracle/host_oracle.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>
#include <string>

#include "src/algos/cole_vishkin.h"
#include "src/algos/linial.h"
#include "src/graph/linegraph.h"
#include "src/graph/subgraph.h"
#include "src/local/reference_network.h"

namespace treelocal::oracle {

namespace {

// Stable order of items by color.
std::vector<int> OrderByColor(const std::vector<int>& items,
                              const std::vector<int64_t>& colors,
                              int64_t num_colors) {
  assert(items.size() == colors.size());
  std::vector<int> order(items.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return colors[a] < colors[b];
  });
  for (int64_t c : colors) {
    assert(c >= 0 && c < num_colors);
    (void)c;
  }
  (void)num_colors;
  std::vector<int> sorted_items;
  sorted_items.reserve(items.size());
  for (int idx : order) sorted_items.push_back(items[idx]);
  return sorted_items;
}

// The per-node view of the labeling is materialized in a shared
// HalfEdgeLabeling, but entries on the *neighbor side* of an edge are
// written only when the neighbor's message is delivered — the engine
// enforces the information flow, so a decision can never read data that
// has not crossed an edge. The per-node state is the node's sweep color
// (its scheduled round).
struct SweepState {
  int64_t color = 0;
};

class NodeSweepAlgorithm : public local::Algorithm {
 public:
  NodeSweepAlgorithm(const NodeProblem& problem, const Graph& g,
                     const std::vector<int64_t>& colors, int64_t num_colors,
                     HalfEdgeLabeling& view)
      : problem_(problem),
        g_(g),
        colors_(&colors),
        num_colors_(num_colors),
        view_(view) {}

  size_t StateBytes() const override { return sizeof(SweepState); }
  void InitState(int node, void* state) override {
    static_cast<SweepState*>(state)->color = (*colors_)[node];
  }

  // A node acts in exactly two rounds — its class round (decide +
  // announce) and the shared final round num_colors - 1 (the staged halt).
  // Every other visit only drains Recv into the local view.
  void OnRound(local::NodeContext& ctx) override {
    const int v = ctx.node();
    const int64_t color = ctx.State<SweepState>().color;
    const int64_t t = ctx.round();
    const int deg = ctx.degree();
    // Deliver neighbor labels sent last round into the local view.
    for (int p = 0; p < deg; ++p) {
      const local::Message msg = ctx.Recv(p);
      if (!msg.present()) continue;
      int e = g_.IncidentEdges(v)[p];
      int u = g_.Neighbors(v)[p];
      view_.Set(e, u, msg.word0);
    }
    if (color == t) {
      // My class's round: decide from what I have received, then tell each
      // neighbor the label I chose on our shared edge.
      problem_.SequentialAssign(g_, v, view_);
      for (int p = 0; p < deg; ++p) {
        int e = g_.IncidentEdges(v)[p];
        ctx.Send(p, local::Message::Of(view_.Get(e, v)));
      }
    }
    if (t >= num_colors_ - 1 && color < t) {
      ctx.Halt();
      return;
    }
    if (t >= num_colors_ - 1 && color == t) {
      // Decided in the final round; one more round lets the messages drain,
      // but nobody is left to read them — halt immediately.
      ctx.Halt();
      return;
    }
  }

 private:
  const NodeProblem& problem_;
  const Graph& g_;
  const std::vector<int64_t>* colors_;
  const int64_t num_colors_;
  HalfEdgeLabeling& view_;
};

DistributedSweepResult RunNodeSweepOnEngine(local::Engine& net,
                                            const NodeProblem& problem,
                                            const Graph& g,
                                            const std::vector<int64_t>& colors,
                                            int64_t num_colors) {
  // The sweep is order-independent only on a proper coloring: same-colored
  // neighbors would read each other's half-written labels in one round.
  if (colors.size() != static_cast<size_t>(g.NumNodes())) {
    throw std::invalid_argument("node sweep: colors must have one entry per "
                                "node");
  }
  for (int v = 0; v < g.NumNodes(); ++v) {
    if (colors[v] < 0 || colors[v] >= num_colors) {
      throw std::invalid_argument(
          "node sweep: node " + std::to_string(v) + " has color " +
          std::to_string(colors[v]) + " outside [0, " +
          std::to_string(num_colors) + ")");
    }
  }
  for (int e = 0; e < g.NumEdges(); ++e) {
    const auto [u, v] = g.Endpoints(e);
    if (colors[u] == colors[v]) {
      throw std::invalid_argument(
          "node sweep: the coloring is not proper: edge " + std::to_string(e) +
          " joins nodes " + std::to_string(u) + " and " + std::to_string(v) +
          ", both colored " + std::to_string(colors[u]));
    }
  }
  DistributedSweepResult result;
  result.labeling = HalfEdgeLabeling(g);
  if (g.NumNodes() == 0) return result;
  NodeSweepAlgorithm alg(problem, g, colors, num_colors, result.labeling);
  result.rounds = net.Run(alg, static_cast<int>(num_colors) + 2);
  result.messages = net.messages_delivered();
  result.round_stats = net.round_stats();
  return result;
}

// Step 1 of Section 4: each node colors its atypical edges toward higher
// neighbors with distinct colors from {0, ..., 2a-1}, in ascending edge
// order.
void ColorForests(const Graph& g, const std::vector<int64_t>& ids,
                  const DecompositionResult& decomp,
                  ForestSplitResult& result) {
  std::vector<int> next_color(g.NumNodes(), 0);
  for (int e = 0; e < g.NumEdges(); ++e) {
    if (!decomp.atypical[e]) continue;
    int lo = decomp.LowerEndpoint(g, e, ids);
    int c = next_color[lo]++;
    if (c >= result.num_forests) {
      throw std::logic_error(
          "node has more than 2a atypical edges; decomposition invariant "
          "violated");
    }
    result.forest_of_edge[e] = c;
  }
}

}  // namespace

int64_t SweepNodeClasses(const NodeProblem& problem, const Graph& host,
                         const std::vector<int>& host_nodes,
                         const std::vector<int64_t>& colors,
                         int64_t num_colors, HalfEdgeLabeling& h) {
  for (int v : OrderByColor(host_nodes, colors, num_colors)) {
    problem.SequentialAssign(host, v, h);
  }
  return num_colors;
}

int64_t SweepEdgeClasses(const EdgeProblem& problem, const Graph& host,
                         const std::vector<int>& host_edges,
                         const std::vector<int64_t>& colors,
                         int64_t num_colors, HalfEdgeLabeling& h) {
  for (int e : OrderByColor(host_edges, colors, num_colors)) {
    problem.SequentialAssignEdge(host, e, h);
  }
  return num_colors;
}

DistributedSweepResult RunDistributedNodeSweep(
    const NodeProblem& problem, const Graph& g,
    const std::vector<int64_t>& ids, const std::vector<int64_t>& colors,
    int64_t num_colors, int num_threads) {
  local::Network net(g, ids, num_threads, local::NetworkOptions{});
  return RunNodeSweepOnEngine(net, problem, g, colors, num_colors);
}

DistributedSweepResult RunDistributedNodeSweepReference(
    const NodeProblem& problem, const Graph& g,
    const std::vector<int64_t>& ids, const std::vector<int64_t>& colors,
    int64_t num_colors) {
  local::ReferenceNetwork net(g, ids);
  return RunNodeSweepOnEngine(net, problem, g, colors, num_colors);
}

std::vector<int64_t> LineGraphIds(const Graph& host,
                                  const std::vector<int64_t>& host_ids) {
  const int m = host.NumEdges();
  std::vector<int> order(m);
  for (int e = 0; e < m; ++e) order[e] = e;
  auto pair_of = [&](int e) {
    auto [u, v] = host.Endpoints(e);
    int64_t a = host_ids[u], b = host_ids[v];
    if (a > b) std::swap(a, b);
    return std::pair<int64_t, int64_t>(a, b);
  };
  std::sort(order.begin(), order.end(),
            [&](int x, int y) { return pair_of(x) < pair_of(y); });
  std::vector<int64_t> ids(m);
  for (int rank = 0; rank < m; ++rank) ids[order[rank]] = rank + 1;
  return ids;
}

BaseRunStats RunNodeBase(const NodeProblem& problem, const SemiGraph& semi,
                         const std::vector<int64_t>& host_ids,
                         int64_t id_space, HalfEdgeLabeling& h) {
  BaseRunStats stats;
  Subgraph under = semi.Underlying();
  const Graph& u = under.graph;
  stats.underlying_max_degree = u.MaxDegree();
  if (u.NumNodes() == 0) return stats;

  local::Network net(u, RestrictToSubgraph(under, host_ids));
  LinialResult linial = RunLinial(net, id_space);
  stats.linial_rounds = linial.rounds;
  stats.messages = linial.messages;

  // Sweep the classes on the host graph so that the greedy sees (and labels)
  // the rank-1 half-edges of the semi-graph too.
  stats.num_classes =
      oracle::SweepNodeClasses(problem, semi.host(), under.node_to_host,
                               linial.colors, linial.num_colors, h);
  stats.rounds = stats.linial_rounds + static_cast<int>(stats.num_classes);
  return stats;
}

BaseRunStats RunEdgeBase(const EdgeProblem& problem, const SemiGraph& semi,
                         const std::vector<int64_t>& host_ids,
                         int64_t /*id_space*/, HalfEdgeLabeling& h) {
  BaseRunStats stats;
  Subgraph under = InduceByEdges(semi.host(), semi.edge_mask());
  const Graph& u = under.graph;
  stats.underlying_max_degree = u.MaxDegree();
  if (u.NumEdges() == 0) return stats;

  std::vector<int64_t> sub_ids = RestrictToSubgraph(under, host_ids);
  std::vector<int> all_edges(u.NumEdges());
  std::iota(all_edges.begin(), all_edges.end(), 0);
  LineGraph lg = BuildLineGraph(u, all_edges);
  local::Network net(lg.graph, oracle::LineGraphIds(u, sub_ids));
  int64_t line_space = static_cast<int64_t>(u.NumEdges()) + 1;
  LinialResult linial = RunLinial(net, line_space);
  // One line-graph round costs 2 host rounds (exchange over shared
  // endpoints), hence the factor 2 on the symmetry-breaking part.
  stats.linial_rounds = 2 * linial.rounds;
  stats.messages = linial.messages;

  stats.num_classes =
      oracle::SweepEdgeClasses(problem, semi.host(), under.edge_to_host,
                               linial.colors, linial.num_colors, h);
  stats.rounds = stats.linial_rounds + static_cast<int>(stats.num_classes);
  return stats;
}

ForestSplitResult SplitAtypicalForests(const Graph& g,
                                       const std::vector<int64_t>& ids,
                                       int64_t id_space,
                                       const DecompositionResult& decomp,
                                       int a) {
  ForestSplitResult result;
  result.num_forests = 2 * a;
  result.forest_of_edge.assign(g.NumEdges(), -1);
  result.star_class_of_edge.assign(g.NumEdges(), -1);
  result.stars.assign(result.num_forests,
                      std::vector<std::vector<int>>(3));
  ColorForests(g, ids, decomp, result);

  std::vector<std::vector<int>> forest_edges(result.num_forests);
  for (int e = 0; e < g.NumEdges(); ++e) {
    if (result.forest_of_edge[e] >= 0) {
      forest_edges[result.forest_of_edge[e]].push_back(e);
    }
  }

  // Step 2: per forest, 3-color the nodes. In F_i every node has at most one
  // higher neighbor (its own colored edge), so parent = higher endpoint.
  // host_to_sub is stamped and un-stamped per forest.
  std::vector<int> host_to_sub(g.NumNodes(), -1);
  std::vector<int> sub_to_host;
  std::vector<std::pair<int, int>> sub_edges;
  std::vector<int64_t> sub_ids;
  std::vector<int> parent;
  for (int f = 0; f < result.num_forests; ++f) {
    if (forest_edges[f].empty()) continue;
    sub_to_host.clear();
    sub_edges.clear();
    auto touch = [&](int v) {
      if (host_to_sub[v] < 0) {
        host_to_sub[v] = static_cast<int>(sub_to_host.size());
        sub_to_host.push_back(v);
      }
    };
    // Same touch order as InduceByEdges (edges ascending, Endpoints order).
    for (int e : forest_edges[f]) {
      auto [u, v] = g.Endpoints(e);
      touch(u);
      touch(v);
      sub_edges.emplace_back(host_to_sub[u], host_to_sub[v]);
    }
    Graph sub_graph = Graph::FromEdges(
        static_cast<int>(sub_to_host.size()), sub_edges);
    sub_ids.clear();
    for (int hv : sub_to_host) sub_ids.push_back(ids[hv]);

    parent.assign(sub_graph.NumNodes(), -1);
    for (int e : forest_edges[f]) {
      int lo = decomp.LowerEndpoint(g, e, ids);
      int hi = g.OtherEndpoint(e, lo);
      parent[host_to_sub[lo]] = host_to_sub[hi];
    }

    local::Network net(sub_graph, sub_ids);
    ColeVishkinResult cv = ColeVishkin3Color(net, parent, id_space);
    result.cv_rounds = std::max(result.cv_rounds, cv.rounds);

    // Step 3: F_{i,j} = edges whose higher endpoint has CV color j.
    for (int e : forest_edges[f]) {
      int lo = decomp.LowerEndpoint(g, e, ids);
      int hi = g.OtherEndpoint(e, lo);
      int j = cv.colors[host_to_sub[hi]];
      result.star_class_of_edge[e] = j;
      result.stars[f][j].push_back(e);
    }
    for (int hv : sub_to_host) host_to_sub[hv] = -1;
  }
  return result;
}

Thm15Result SolveEdgeProblemBoundedArboricity(
    const EdgeProblem& problem, const Graph& g,
    const std::vector<int64_t>& ids, int64_t id_space, int a, int k) {
  Thm15Result result;
  result.a = a;
  result.k = k;
  result.labeling = HalfEdgeLabeling(g);

  result.decomposition = RunDecomposition(g, ids, a, 2 * a, k);
  result.rounds_decomposition = result.decomposition.engine_rounds;

  std::vector<char> typical_mask(g.NumEdges(), 0);
  for (int e = 0; e < g.NumEdges(); ++e) {
    if (result.decomposition.atypical[e]) {
      ++result.num_atypical;
    } else {
      typical_mask[e] = 1;
      ++result.num_typical;
    }
  }

  SemiGraph e2 = SemiGraph::EdgeInduced(g, typical_mask);
  result.base_stats =
      oracle::RunEdgeBase(problem, e2, ids, id_space, result.labeling);
  result.rounds_base = result.base_stats.rounds;

  result.split =
      oracle::SplitAtypicalForests(g, ids, id_space, result.decomposition, a);
  result.rounds_split = result.split.cv_rounds + 1;

  // Algorithm 4: 6a stages of 2 rounds; the node-disjoint stars of a stage
  // complete their edges in ascending order.
  for (int f = 0; f < result.split.num_forests; ++f) {
    for (int j = 0; j < 3; ++j) {
      result.rounds_gather += 2;
      std::vector<int> ordered = result.split.stars[f][j];
      if (ordered.empty()) continue;
      std::sort(ordered.begin(), ordered.end());
      problem.CompleteEdges(g, ordered, result.labeling);
    }
  }

  result.rounds_total = result.rounds_decomposition + result.rounds_base +
                        result.rounds_split + result.rounds_gather;
  result.engine_messages =
      result.decomposition.messages + result.base_stats.messages;
  result.valid = problem.ValidateGraph(g, result.labeling, &result.why);
  return result;
}

}  // namespace treelocal::oracle
