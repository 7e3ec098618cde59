#include "src/algos/base_algorithms.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <limits>
#include <span>

#include "src/algos/linial.h"
#include "src/graph/linegraph.h"
#include "src/local/induced.h"

namespace treelocal {

namespace {

// Lap timer for RunEdgeBase's host-side phases. It reads the clock only
// when the caller armed the host engine's round timer, so untimed runs pay
// nothing.
class PhaseClock {
 public:
  explicit PhaseClock(bool on) : on_(on) {
    if (on_) t_ = std::chrono::steady_clock::now();
  }
  // Seconds since the previous lap (or construction); 0 when off.
  double Lap() {
    if (!on_) return 0;
    const auto now = std::chrono::steady_clock::now();
    const double s = std::chrono::duration<double>(now - t_).count();
    t_ = now;
    return s;
  }

 private:
  bool on_;
  std::chrono::steady_clock::time_point t_;
};

// Maps each element's color to its rank among the DISTINCT colors present,
// ascending. The engine sweeps execute one round per nonempty class —
// globally empty classes deliver no message and make no decision, so
// skipping them changes no transcript byte — while the pipelines keep
// charging the full num_colors schedule (nodes cannot know which classes
// are globally empty, so every class burns a round). Without this
// compression a degenerate schedule (e.g. Linial with no progress falling
// back to the raw ID space) would make the engine execute up to num_colors
// near-empty rounds.
// O(count + num_colors) via a counting pass when the color space is small,
// O(count log count) sort-unique otherwise. Returns the number of ranks.
int64_t DenseRanks(const std::vector<int64_t>& colors, int64_t num_colors,
                   std::vector<int32_t>& ranks) {
  ranks.assign(colors.size(), 0);
  if (colors.empty()) return 0;
  if (num_colors <= std::max<int64_t>(1024, 4 * colors.size())) {
    std::vector<int32_t> rank_of(num_colors, 0);
    for (int64_t c : colors) rank_of[c] = 1;
    int32_t next = 0;
    for (int64_t c = 0; c < num_colors; ++c) {
      if (rank_of[c]) rank_of[c] = next++;
    }
    for (size_t i = 0; i < colors.size(); ++i) ranks[i] = rank_of[colors[i]];
    return next;
  }
  std::vector<int64_t> distinct = colors;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  for (size_t i = 0; i < colors.size(); ++i) {
    ranks[i] = static_cast<int32_t>(
        std::lower_bound(distinct.begin(), distinct.end(), colors[i]) -
        distinct.begin());
  }
  return static_cast<int64_t>(distinct.size());
}

// ---------------------------------------------------------------------------
// Engine-native node-class sweep: in round t the semi-nodes of class rank t
// run the problem's 1-hop greedy against the shared labeling (their
// neighbors' labels were all decided — and announced on the shared channel —
// in strictly earlier rounds: classes are independent sets of the underlying
// graph, so a same-round neighbor decision is impossible), then announce the
// chosen label on every semi-contained port and leave the worklist. Reads
// are 1-hop and of prior-round data only, writes are the node's own
// half-edges — which is exactly the Algorithm determinism contract, so the
// sweep is bit-identical across thread counts / relabel and
// order-independent within a class (the same argument that lets the host-
// side reference in tests/oracle/ process a class in sorted order).
// ---------------------------------------------------------------------------

struct NodeSweepState {
  int64_t rank = 0;  // dense class rank; -1 = not a semi-node
};

class NodeClassSweepAlgorithm : public local::Algorithm {
 public:
  NodeClassSweepAlgorithm(const NodeProblem& problem, const SemiGraph& semi,
                          const std::vector<int32_t>& rank_of_node,
                          HalfEdgeLabeling& h)
      : problem_(problem), semi_(semi), rank_of_node_(&rank_of_node),
        h_(h) {}

  size_t StateBytes() const override { return sizeof(NodeSweepState); }
  void InitState(int node, void* state) override {
    static_cast<NodeSweepState*>(state)->rank =
        semi_.ContainsNode(node) ? (*rank_of_node_)[node] : -1;
  }

  // Wake scheduling: a semi-node acts exactly once, in its class round —
  // every earlier visit is a pure no-op (no Recv anywhere in this
  // algorithm: labels travel through the shared labeling; the sends are
  // the LOCAL-model announcements) — and a non-semi node only needs round
  // 0 to halt. So the engine should visit each node once: first wake at
  // the class rank, and a message-woken early riser just re-declares it.
  int InitialWakeRound(int node) const override {
    if (!semi_.ContainsNode(node)) return 0;  // wake to Halt immediately
    return static_cast<int>((*rank_of_node_)[node]);
  }

  void OnRound(local::NodeContext& ctx) override {
    NodeSweepState& st = ctx.State<NodeSweepState>();
    if (st.rank < 0) {
      ctx.Halt();
      return;
    }
    if (st.rank != ctx.round()) {  // not my class yet (message-woken early)
      ctx.SleepUntil(static_cast<int>(st.rank));
      return;
    }
    const int v = ctx.node();
    const Graph& host = semi_.host();
    problem_.SequentialAssign(host, v, h_);
    auto inc = host.IncidentEdges(v);
    std::span<const Label> mine = h_.AtNode(v);
    for (int p = 0; p < static_cast<int>(inc.size()); ++p) {
      if (!semi_.ContainsEdge(inc[p])) continue;
      ctx.Send(p, local::Message::Of(mine[p]));
    }
    ctx.Halt();
  }

 private:
  const NodeProblem& problem_;
  const SemiGraph& semi_;
  const std::vector<int32_t>* rank_of_node_;
  HalfEdgeLabeling& h_;
};

// ---------------------------------------------------------------------------
// Engine-native edge-class sweep: every semi edge is owned by one of its
// endpoints (any deterministic owner works — a class is a matching, so an
// owner decides at most one edge per round; RunEdgeBase picks owners to
// coalesce visits). In round t the owner of each class-t edge runs the
// 1-hop-edge greedy against the shared labeling (adjacent edges belong to
// strictly earlier classes) and announces the receiver's half-edge label
// across the edge: the one decided value the receiver does not hold. Owners
// leave the worklist after their last owned class. Same
// determinism-contract argument as the node sweep.
// ---------------------------------------------------------------------------

// One owned edge: everything a decision reads besides the two label
// blocks. The owner's and the receiver's blocks (AdjacencyOffset and
// degree) and the edge's port in each, plus the edge's class rank.
struct OwnedEdge {
  int32_t rank;
  int32_t owner_base, owner_degree, owner_port;
  int32_t receiver_base, receiver_degree, receiver_port;
};

static_assert(sizeof(OwnedEdge) == 28);

struct EdgeSweepState {
  int32_t next = 0;       // cursor into the owned records
  int32_t end = 0;        // end of this node's owned range
  int32_t next_rank = 0;  // rank of the next owned edge; kNoMoreRanks = none
};
constexpr int32_t kNoMoreRanks = std::numeric_limits<int32_t>::max();

class EdgeClassSweepAlgorithm : public local::Algorithm {
 public:
  EdgeClassSweepAlgorithm(const EdgeProblem& problem,
                          const std::vector<int>& owned_off,
                          const std::vector<OwnedEdge>& owned,
                          HalfEdgeLabeling& h)
      : problem_(problem), owned_off_(&owned_off), owned_(&owned), h_(h) {}

  size_t StateBytes() const override { return sizeof(EdgeSweepState); }
  void InitState(int node, void* state) override {
    auto* st = static_cast<EdgeSweepState*>(state);
    st->next = (*owned_off_)[node];
    st->end = (*owned_off_)[node + 1];
    st->next_rank =
        st->next < st->end ? (*owned_)[st->next].rank : kNoMoreRanks;
  }

  // Wake scheduling: the headline consumer. An owner acts only in its owned
  // edges' class rounds; every visit in between is a pure no-op (no Recv in
  // this algorithm — the announce sends feed the LOCAL transcript, not the
  // control flow), so the waiting walk the owner-coalescing above could
  // only shorten is now GONE: the engine visits an owner once per owned
  // class, hopping the calendar from rank to rank. A node owning nothing
  // wakes once, at round 0, to halt.
  int InitialWakeRound(int node) const override {
    const int next = (*owned_off_)[node];
    if (next >= (*owned_off_)[node + 1]) return 0;  // wake to Halt
    return (*owned_)[next].rank;
  }

  void OnRound(local::NodeContext& ctx) override {
    // Non-decider visits read only the node's own state slot (which the
    // engine streams in worklist order) — under wake scheduling they
    // happen only after a message wake, and re-sleep to the next owned
    // rank. A decision reads the state, one record and the two endpoints'
    // label blocks.
    EdgeSweepState& st = ctx.State<EdgeSweepState>();
    if (st.next_rank == kNoMoreRanks) {
      ctx.Halt();
      return;
    }
    if (st.next_rank != ctx.round()) {  // not my class yet
      ctx.SleepUntil(st.next_rank);
      return;
    }
    const OwnedEdge& r = (*owned_)[st.next];
    std::span<Label> labels = h_.Halves();
    // AssignEdge is symmetric in its ends, so the owner may name itself
    // first whichever endpoint of the edge it is.
    problem_.AssignEdge(labels.subspan(r.owner_base, r.owner_degree),
                        r.owner_port,
                        labels.subspan(r.receiver_base, r.receiver_degree),
                        r.receiver_port);
    ctx.Send(r.owner_port,
             local::Message::Of(labels[r.receiver_base + r.receiver_port]));
    if (++st.next == st.end) {
      ctx.Halt();
      return;
    }
    st.next_rank = (*owned_)[st.next].rank;
    assert(st.next_rank > ctx.round());
    ctx.SleepUntil(st.next_rank);
  }

 private:
  const EdgeProblem& problem_;
  const std::vector<int>* owned_off_;
  const std::vector<OwnedEdge>* owned_;
  HalfEdgeLabeling& h_;
};

}  // namespace

BaseRunStats RunNodeBase(local::Network& net, const NodeProblem& problem,
                         const SemiGraph& semi, int64_t id_space,
                         HalfEdgeLabeling& h) {
  BaseRunStats stats;
  if (semi.NumSemiNodes() == 0) return stats;
  const Graph& host = semi.host();

  // Everything but the per-node class ranks is scoped to the symmetry
  // breaking, so the sweep runs next to the engine and the ranks alone.
  std::vector<int32_t> rank_of_node(host.NumNodes(), -1);
  int64_t num_ranks = 0;
  {
    LinialResult linial;
    {
      // Underlying graph as induced ports: rank-2 edges (both endpoints
      // are semi-nodes in both semi-graph constructions).
      std::vector<char> rank2_mask(host.NumEdges(), 0);
      for (int e = 0; e < host.NumEdges(); ++e) {
        rank2_mask[e] = semi.Rank(e) == 2 ? 1 : 0;
      }
      local::InducedPortCsr under =
          local::BuildInducedPortCsr(host, rank2_mask);
      stats.underlying_max_degree = under.max_degree;
      linial = RunLinialInduced(net, under, semi.node_mask(), id_space);
    }
    stats.linial_rounds = linial.rounds;
    stats.messages = linial.messages;
    stats.linial_round_stats = std::move(linial.round_stats);
    stats.num_classes = linial.num_colors;

    // Dense class ranks over the semi-nodes; the sweep executes one engine
    // round per nonempty class and charges the full num_colors schedule.
    std::vector<int64_t> semi_colors;
    std::vector<int> semi_nodes;
    semi_colors.reserve(semi.NumSemiNodes());
    semi_nodes.reserve(semi.NumSemiNodes());
    for (int v = 0; v < host.NumNodes(); ++v) {
      if (!semi.ContainsNode(v)) continue;
      semi_nodes.push_back(v);
      semi_colors.push_back(linial.colors[v]);
    }
    std::vector<int32_t> ranks;
    num_ranks = DenseRanks(semi_colors, linial.num_colors, ranks);
    for (size_t i = 0; i < semi_nodes.size(); ++i) {
      rank_of_node[semi_nodes[i]] = ranks[i];
    }
  }

  NodeClassSweepAlgorithm sweep(problem, semi, rank_of_node, h);
  net.Run(sweep, static_cast<int>(num_ranks) + 2);
  stats.sweep_messages = net.messages_delivered();
  stats.sweep_round_stats = net.round_stats();
  stats.rounds = stats.linial_rounds + static_cast<int>(stats.num_classes);
  return stats;
}

BaseRunStats RunNodeBase(const NodeProblem& problem, const SemiGraph& semi,
                         const std::vector<int64_t>& host_ids,
                         int64_t id_space, HalfEdgeLabeling& h) {
  if (semi.NumSemiNodes() == 0) return {};
  local::Network net(semi.host(), host_ids);
  return RunNodeBase(net, problem, semi, id_space, h);
}

BaseRunStats RunEdgeBase(local::Network& net, const EdgeProblem& problem,
                         const SemiGraph& semi, int64_t id_space,
                         HalfEdgeLabeling& h) {
  // The host ID space is unused here: line-graph IDs are derived densely
  // from the host IDs' order (see LineGraphIds); kept for API symmetry.
  (void)id_space;
  BaseRunStats stats;
  const Graph& host = semi.host();
  assert(h.Halves().size() == 2 * static_cast<size_t>(host.NumEdges()));
  PhaseClock clock(net.record_round_times());
  const int n = host.NumNodes();
  const int m = host.NumEdges();

  // The underlying graph never gets materialized on this path: line-graph
  // nodes are the semi edges in ascending host-edge order (the same
  // numbering InduceByEdges would produce), and semi-degrees come from one
  // pass over the edges.
  std::vector<int> edge_to_host;
  {
    std::vector<int> semi_degree(n, 0);
    for (int e = 0; e < m; ++e) {
      if (!semi.ContainsEdge(e)) continue;
      edge_to_host.push_back(e);
      ++semi_degree[host.EdgeU(e)];
      ++semi_degree[host.EdgeV(e)];
    }
    for (int v = 0; v < n; ++v) {
      stats.underlying_max_degree =
          std::max(stats.underlying_max_degree, semi_degree[v]);
    }
  }
  const int m_sub = static_cast<int>(edge_to_host.size());
  if (m_sub == 0) return stats;

  // Symmetry breaking on the line graph of the underlying graph — the one
  // topology that cannot ride on the host engine's channels. Built straight
  // from the semi edges, it has the same adjacency as the line graph of the
  // compacted underlying graph, hence bit-identical colors — Linial is
  // neighbor-order-independent — without the Subgraph compaction. The line
  // graph and its engine are freed before the sweep runs on the host.
  stats.edge_phase_seconds.semi_edges = clock.Lap();
  LinialResult linial;
  {
    const LineGraph lg = BuildLineGraph(host, edge_to_host);
    stats.edge_phase_seconds.line_graph = clock.Lap();
    // Line-graph IDs: lexicographic rank of the endpoint-ID pair over the
    // semi edges.
    std::vector<int64_t> line_ids = LineGraphIds(host, edge_to_host, net.ids());
    stats.edge_phase_seconds.line_ids = clock.Lap();
    local::Network line_net(lg.graph, std::move(line_ids), net.num_threads(),
                            local::NetworkOptions{});
    stats.edge_phase_seconds.line_engine = clock.Lap();
    linial = RunLinial(line_net, static_cast<int64_t>(m_sub) + 1);
  }
  stats.edge_phase_seconds.linial = clock.Lap();  // with the teardown
  // One line-graph round costs 2 host rounds (exchange over shared
  // endpoints), hence the factor 2 on the symmetry-breaking part.
  stats.linial_rounds = 2 * linial.rounds;
  stats.messages = linial.messages;
  stats.linial_round_stats = std::move(linial.round_stats);

  // Dense class ranks per semi edge, then per-owner owned lists in rank
  // order (counting passes only — no comparison sort on this path).
  std::vector<int32_t> ranks;
  int64_t num_ranks = DenseRanks(linial.colors, linial.num_colors, ranks);
  std::vector<int> by_rank_off(static_cast<size_t>(num_ranks) + 1, 0);
  for (int se = 0; se < m_sub; ++se) ++by_rank_off[ranks[se] + 1];
  for (int64_t r = 0; r < num_ranks; ++r) by_rank_off[r + 1] += by_rank_off[r];
  std::vector<int> by_rank(m_sub);
  {
    std::vector<int> cursor(by_rank_off.begin(), by_rank_off.end() - 1);
    for (int se = 0; se < m_sub; ++se) by_rank[cursor[ranks[se]]++] = se;
  }
  // Owner choice (any endpoint is valid — within a class the greedy
  // decisions are independent, so the labeling does not depend on who
  // decides): sweeping the ranks DESCENDING, prefer an endpoint that
  // already owns a later-class edge — such a node is alive at this round
  // anyway, so handing it the edge adds no idle engine visits, whereas a
  // fresh owner must wait (be visited) from round 0 to this rank. When a
  // fresh owner is unavoidable, pick the endpoint with more still-
  // unassigned semi edges: everything it picks up later (lower ranks, by
  // the sweep order) is then absorbed for free. This coalescing cuts the
  // sweep's idle-walk cost well below one-owner-per-edge assignments.
  std::vector<int> owner_of(m_sub);
  {
    std::vector<int32_t> death(n, -1);  // highest owned rank per node
    std::vector<int32_t> remaining(n, 0);
    for (int se = 0; se < m_sub; ++se) {
      const int e = edge_to_host[se];
      ++remaining[host.EdgeU(e)];
      ++remaining[host.EdgeV(e)];
    }
    for (int i = m_sub - 1; i >= 0; --i) {
      const int se = by_rank[i];
      const int e = edge_to_host[se];
      const int32_t r = ranks[se];
      const int eu = host.EdgeU(e), ev = host.EdgeV(e);
      int w;
      if (death[eu] >= r) {
        w = eu;
      } else if (death[ev] >= r) {
        w = ev;
      } else {
        w = remaining[eu] >= remaining[ev] ? eu : ev;
      }
      owner_of[se] = w;
      if (death[w] < r) death[w] = r;
      --remaining[eu];
      --remaining[ev];
    }
  }
  std::vector<int> owned_off(n + 1, 0);
  for (int se = 0; se < m_sub; ++se) ++owned_off[owner_of[se] + 1];
  for (int v = 0; v < n; ++v) owned_off[v + 1] += owned_off[v];
  // One record per owned edge, per owner in rank order; the ports come
  // from the labeling's half-edge index.
  std::vector<OwnedEdge> owned(m_sub);
  {
    std::vector<int> cursor(owned_off.begin(), owned_off.end() - 1);
    for (int se : by_rank) {  // rank-ascending => per-owner lists sorted
      const int e = edge_to_host[se];
      const int owner = owner_of[se];
      const int owner_slot = host.EndpointSlot(e, owner);
      const int receiver = host.OtherEndpoint(e, owner);
      OwnedEdge& rec = owned[cursor[owner]++];
      rec.rank = ranks[se];
      rec.owner_base = host.AdjacencyOffset(owner);
      rec.owner_degree = host.Degree(owner);
      rec.owner_port = h.HalfIndex(e, owner_slot) - rec.owner_base;
      rec.receiver_base = host.AdjacencyOffset(receiver);
      rec.receiver_degree = host.Degree(receiver);
      rec.receiver_port = h.HalfIndex(e, 1 - owner_slot) - rec.receiver_base;
    }
  }
  stats.edge_phase_seconds.ranks_owners = clock.Lap();

  EdgeClassSweepAlgorithm sweep(problem, owned_off, owned, h);
  net.Run(sweep, static_cast<int>(num_ranks) + 2);
  stats.sweep_messages = net.messages_delivered();
  stats.sweep_round_stats = net.round_stats();
  stats.edge_phase_seconds.sweep = clock.Lap();
  stats.num_classes = linial.num_colors;
  stats.rounds = stats.linial_rounds + static_cast<int>(stats.num_classes);
  return stats;
}

BaseRunStats RunEdgeBase(const EdgeProblem& problem, const SemiGraph& semi,
                         const std::vector<int64_t>& host_ids,
                         int64_t id_space, HalfEdgeLabeling& h) {
  // No semi edges: underlying degree 0, nothing to label.
  if (semi.NumSemiEdges() == 0) return {};
  local::Network net(semi.host(), host_ids);
  return RunEdgeBase(net, problem, semi, id_space, h);
}

}  // namespace treelocal
