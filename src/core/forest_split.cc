#include "src/core/forest_split.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "src/algos/cole_vishkin.h"

namespace treelocal {

namespace {

// Step 1 of Section 4: each node colors its atypical edges toward higher
// neighbors with distinct colors from {0, ..., 2a-1} (possible since there
// are at most b = 2a of them, by the compress condition). One pass over the
// edges in ascending order — the order that fixes the coloring
// deterministically.
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

// Fused multi-forest Cole-Vishkin over the shared atypical-edge CSR: node
// v's engine state slot is a 2a-wide array of int64 colors, one per forest;
// per round v sends, on each of its ports (every edge of the compacted
// atypical graph belongs to exactly one forest), its color in that edge's
// forest, and advances every forest it participates in through the standard
// CV schedule (steps, then three shift-down + recolor blocks). A node's
// entries are grouped by forest so the recolor scan reads exactly the ports
// a per-forest run would.
class MultiForestCvAlgorithm : public local::Algorithm {
 public:
  MultiForestCvAlgorithm(const std::vector<int>& entry_off,
                         const std::vector<int32_t>& entry_port,
                         const std::vector<int32_t>& entry_forest,
                         const std::vector<int32_t>& parent_port,
                         const std::vector<int64_t>& ids, int num_forests,
                         int iterations)
      : entry_off_(&entry_off), entry_port_(&entry_port),
        entry_forest_(&entry_forest), parent_port_(&parent_port), ids_(&ids),
        num_forests_(num_forests), iterations_(iterations) {}

  size_t StateBytes() const override {
    return sizeof(int64_t) * static_cast<size_t>(num_forests_);
  }
  void InitState(int node, void* state) override {
    auto* colors = static_cast<int64_t*>(state);
    for (int f = 0; f < num_forests_; ++f) colors[f] = (*ids_)[node];
  }

  void OnRound(local::NodeContext& ctx) override {
    const int v = ctx.node();
    const int begin = (*entry_off_)[v], end = (*entry_off_)[v + 1];
    int64_t* colors = &ctx.State<int64_t>();
    const int r = ctx.round();
    if (r >= 1 && r <= iterations_) {
      // One CV step per forest; roots step against a virtual parent, their
      // own color with the lowest bit flipped.
      ForEachForest(begin, end, [&](int f, int, int) {
        const int pp = (*parent_port_)[ForestSlot(v, f)];
        const int64_t parent = pp >= 0 ? ctx.Recv(pp).word0 : (colors[f] ^ 1);
        colors[f] = ColeVishkinStep(colors[f], parent);
      });
    } else if (r > iterations_) {
      const int phase = r - iterations_ - 1;  // 0..5
      const int block = phase / 2;
      if (phase % 2 == 0) {
        // Shift-down: adopt the parent's color; roots rotate within {0,1,2}.
        ForEachForest(begin, end, [&](int f, int, int) {
          const int pp = (*parent_port_)[ForestSlot(v, f)];
          colors[f] = pp >= 0 ? ctx.Recv(pp).word0 : (colors[f] + 1) % 3;
        });
      } else {
        // Recolor the target class into {0,1,2}. After shift-down all
        // children of v share one color, so at most two values are blocked.
        const int64_t target = 5 - block;
        ForEachForest(begin, end, [&](int f, int lo, int hi) {
          if (colors[f] != target) return;
          bool blocked[3] = {false, false, false};
          for (int i = lo; i < hi; ++i) {
            const int64_t c = ctx.Recv((*entry_port_)[i]).word0;
            if (c >= 0 && c < 3) blocked[c] = true;
          }
          for (int64_t c = 0; c < 3; ++c) {
            if (!blocked[c]) {
              colors[f] = c;
              break;
            }
          }
        });
        if (block == 2) {
          ctx.Halt();
          return;
        }
      }
    }
    for (int i = begin; i < end; ++i) {
      ctx.Send((*entry_port_)[i],
               local::Message::Of(colors[(*entry_forest_)[i]]));
    }
  }

 private:
  size_t ForestSlot(int v, int f) const {
    return static_cast<size_t>(v) * num_forests_ + f;
  }

  // Invokes fn(forest, entry_lo, entry_hi) for each forest v participates
  // in; entries are pre-grouped by forest within a node's range.
  template <typename Fn>
  void ForEachForest(int begin, int end, Fn&& fn) const {
    int i = begin;
    while (i < end) {
      const int f = (*entry_forest_)[i];
      int j = i + 1;
      while (j < end && (*entry_forest_)[j] == f) ++j;
      fn(f, i, j);
      i = j;
    }
  }

  const std::vector<int>* entry_off_;
  const std::vector<int32_t>* entry_port_;
  const std::vector<int32_t>* entry_forest_;
  const std::vector<int32_t>* parent_port_;
  const std::vector<int64_t>* ids_;
  const int num_forests_;
  const int iterations_;
};

}  // namespace

// The host engine supplies graph/ids and the thread count the sub-engine
// inherits. The CV itself runs on ONE dedicated engine over the compacted
// atypical-edge CSR — everything here is O(n + m) scanning plus
// O(|E1|)-sized engine state, so a near-empty E1 (the common tree case)
// costs near-nothing, and no per-forest Subgraph or Network is built.
ForestSplitResult SplitAtypicalForests(local::Network& host_net,
                                       const DecompositionResult& decomp,
                                       int a, int64_t id_space) {
  const Graph& g = host_net.graph();
  const std::vector<int64_t>& ids = host_net.ids();
  ForestSplitResult result;
  result.num_forests = 2 * a;
  result.forest_of_edge.assign(g.NumEdges(), -1);
  result.star_class_of_edge.assign(g.NumEdges(), -1);
  result.stars.assign(result.num_forests,
                      std::vector<std::vector<int>>(3));
  ColorForests(g, ids, decomp, result);

  // One shared compacted CSR over ALL atypical edges (sub edge i is the
  // i-th atypical host edge; Graph::FromEdges preserves edge order).
  std::vector<int> atyp_edges;
  for (int e = 0; e < g.NumEdges(); ++e) {
    if (decomp.atypical[e]) atyp_edges.push_back(e);
  }
  if (atyp_edges.empty()) return result;
  std::vector<int> host_to_sub(g.NumNodes(), -1);
  std::vector<int> sub_to_host;
  std::vector<std::pair<int, int>> sub_edges;
  sub_edges.reserve(atyp_edges.size());
  auto touch = [&](int v) {
    if (host_to_sub[v] < 0) {
      host_to_sub[v] = static_cast<int>(sub_to_host.size());
      sub_to_host.push_back(v);
    }
  };
  for (int e : atyp_edges) {
    auto [eu, ev] = g.Endpoints(e);
    touch(eu);
    touch(ev);
    sub_edges.emplace_back(host_to_sub[eu], host_to_sub[ev]);
  }
  const int n_sub = static_cast<int>(sub_to_host.size());
  Graph sub_graph = Graph::FromEdges(n_sub, std::move(sub_edges));
  std::vector<int64_t> sub_ids;
  sub_ids.reserve(n_sub);
  for (int hv : sub_to_host) sub_ids.push_back(ids[hv]);

  // Per-node entries (one per port of the compacted graph), grouped by
  // (forest, port), plus the per-(node, forest) parent port (the node's
  // unique atypical edge toward a higher neighbor in that forest, if any).
  std::vector<int> entry_off(n_sub + 1, 0);
  for (int v = 0; v < n_sub; ++v) {
    entry_off[v + 1] = entry_off[v] + sub_graph.Degree(v);
  }
  std::vector<int32_t> entry_port(entry_off[n_sub]);
  std::vector<int32_t> entry_forest(entry_off[n_sub]);
  std::vector<int32_t> parent_port(
      static_cast<size_t>(n_sub) * result.num_forests, -1);
  {
    // Counting sort by forest per node (2a buckets); walking the ports in
    // ascending order keeps each bucket port-sorted, so this is the same
    // (forest, port) grouping a comparison sort would produce — without
    // the O(deg log deg) per-node sorts that dominate at hub nodes.
    std::vector<int> bucket(result.num_forests + 1);
    for (int v = 0; v < n_sub; ++v) {
      auto inc = sub_graph.IncidentEdges(v);
      const int deg = static_cast<int>(inc.size());
      std::fill(bucket.begin(), bucket.end(), 0);
      for (int p = 0; p < deg; ++p) {
        ++bucket[result.forest_of_edge[atyp_edges[inc[p]]] + 1];
      }
      for (int f = 0; f < result.num_forests; ++f) bucket[f + 1] += bucket[f];
      for (int p = 0; p < deg; ++p) {
        const int host_edge = atyp_edges[inc[p]];
        const int32_t f = result.forest_of_edge[host_edge];
        const int slot = entry_off[v] + bucket[f]++;
        entry_port[slot] = p;
        entry_forest[slot] = f;
        if (decomp.LowerEndpoint(g, host_edge, ids) == sub_to_host[v]) {
          parent_port[static_cast<size_t>(v) * result.num_forests + f] = p;
        }
      }
    }
  }

  const int iterations = ColeVishkinIterations(id_space);
  MultiForestCvAlgorithm alg(entry_off, entry_port, entry_forest,
                             parent_port, sub_ids, result.num_forests,
                             iterations);
  // Finish on the compacted engine (at the host's thread count, with the
  // host's round timer setting), then classify every atypical edge by the
  // CV color of its higher endpoint, read straight from the engine's state
  // plane.
  local::Network net(sub_graph, sub_ids, host_net.num_threads(),
                     local::NetworkOptions{});
  net.set_record_round_times(host_net.record_round_times());
  result.cv_rounds = net.Run(alg, iterations + 64);
  result.messages = net.messages_delivered();
  result.round_stats = net.round_stats();
  result.round_seconds = net.round_seconds();
  for (int se = 0; se < static_cast<int>(atyp_edges.size()); ++se) {
    const int e = atyp_edges[se];
    const int f = result.forest_of_edge[e];
    int lo = decomp.LowerEndpoint(g, e, ids);
    int hi = g.OtherEndpoint(e, lo);
    const int j =
        static_cast<int>((&net.StateAt<int64_t>(host_to_sub[hi]))[f]);
    result.star_class_of_edge[e] = j;
    result.stars[f][j].push_back(e);
  }
  return result;
}

}  // namespace treelocal
