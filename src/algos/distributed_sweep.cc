#include "src/algos/distributed_sweep.h"

#include <cassert>

#include "src/local/network.h"
#include "src/local/reference_network.h"

namespace treelocal {

namespace {

// The per-node view of the labeling is materialized in a shared
// HalfEdgeLabeling, but entries on the *neighbor side* of an edge are
// written only when the neighbor's message is delivered — the engine
// enforces the information flow, so a decision can never read data that
// has not crossed an edge.
// Per-node state, engine-managed: the node's sweep color (its scheduled
// round). Read-only after InitState, but keeping it in the engine plane
// means the per-round scan streams it in engine order instead of gathering
// from a caller-side array.
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
  int MessageWords() const override { return 1; }
  void InitState(int node, void* state) override {
    static_cast<SweepState*>(state)->color = (*colors_)[node];
  }

  // Wake scheduling: a node acts in exactly two rounds — its class round
  // (decide + announce) and the shared final round num_colors - 1 (the
  // staged halt; halting THERE in both modes is what keeps the per-round
  // active counts, hence transcripts, bit-identical). Every other visit
  // only drains Recv into the local view, which the message-wake invariant
  // already covers: a label announcement wakes its sleeping receivers for
  // precisely the delivery round. colors[v] < num_colors is asserted by
  // every caller, so the class round never overshoots the final one.
  int InitialWakeRound(int node) const override {
    return static_cast<int>((*colors_)[node]);
  }

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
    // Still alive (message-woken early, or just decided): next scheduled
    // action is my class round if it is still ahead, else the staged halt.
    ctx.SleepUntil(static_cast<int>(t < color ? color : num_colors_ - 1));
  }

 private:
  const NodeProblem& problem_;
  const Graph& g_;
  const std::vector<int64_t>* colors_;
  const int64_t num_colors_;
  HalfEdgeLabeling& view_;
};

}  // namespace

namespace {

DistributedSweepResult RunNodeSweepOnEngine(local::Engine& net,
                                            const NodeProblem& problem,
                                            const Graph& g,
                                            const std::vector<int64_t>& colors,
                                            int64_t num_colors) {
  DistributedSweepResult result;
  result.labeling = HalfEdgeLabeling(g);
  if (g.NumNodes() == 0) return result;
  for (int64_t c : colors) {
    assert(c >= 0 && c < num_colors);
    (void)c;
  }
  // A decided node's labels live in `view` on its own half-edges; neighbor
  // halves are filled in from messages. Reads of *unsent* neighbor data are
  // impossible by construction.
  NodeSweepAlgorithm alg(problem, g, colors, num_colors, result.labeling);
  result.rounds = net.Run(alg, static_cast<int>(num_colors) + 2);
  result.messages = net.messages_delivered();
  result.round_stats = net.round_stats();
  return result;
}

}  // namespace

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

}  // namespace treelocal
