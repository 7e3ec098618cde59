#include "src/algos/cole_vishkin.h"

#include <cassert>
#include <stdexcept>

#include "src/local/network.h"

namespace treelocal {

namespace {

int BitLength(int64_t x) {
  int bits = 0;
  do {
    ++bits;
    x >>= 1;
  } while (x > 0);
  return bits;
}

// Per-node state, engine-managed: the working color plus the port of the
// orientation parent (-1 at roots), resolved once at InitState.
struct CvState {
  int64_t color = 0;
  int32_t parent_port = -1;
};

class CvAlgorithm : public local::Algorithm {
 public:
  CvAlgorithm(const Graph& g, const std::vector<int64_t>& ids,
              const std::vector<int>& parent, int iterations)
      : g_(&g), ids_(&ids), parent_(&parent), iterations_(iterations) {
    // Validate eagerly so a bad orientation still fails at construction,
    // not inside Run (InitState recomputes the ports from the same input).
    for (int v = 0; v < g.NumNodes(); ++v) {
      if (parent[v] >= 0 && g.PortOf(v, parent[v]) < 0) {
        throw std::invalid_argument("parent is not a neighbor");
      }
    }
  }

  size_t StateBytes() const override { return sizeof(CvState); }
  void InitState(int node, void* state) override {
    auto* st = static_cast<CvState*>(state);
    st->color = (*ids_)[node];
    const int parent = (*parent_)[node];
    st->parent_port = parent < 0 ? -1 : g_->PortOf(node, parent);
  }

  void OnRound(local::NodeContext& ctx) override {
    CvState& st = ctx.State<CvState>();
    const int r = ctx.round();
    // Round plan: r in [1, K] = CV steps; then 3 blocks of (shift-down,
    // recolor) for target colors 5, 4, 3; every round rebroadcasts.
    if (r >= 1 && r <= iterations_) {
      int64_t parent_color = ParentColor(ctx, st);
      st.color = ColeVishkinStep(st.color, parent_color);
    } else if (r > iterations_) {
      int phase = r - iterations_ - 1;  // 0..5
      int block = phase / 2;
      if (phase % 2 == 0) {
        // Shift-down: adopt the parent's color; roots rotate within {0,1,2}.
        if (st.parent_port >= 0) {
          st.color = ctx.Recv(st.parent_port).word0;
        } else {
          st.color = (st.color + 1) % 3;
        }
      } else {
        // Recolor the target class into {0,1,2}. After shift-down all
        // children of v share one color, so at most two values are blocked.
        int64_t target = 5 - block;
        if (st.color == target) {
          bool blocked[3] = {false, false, false};
          const int deg = ctx.degree();
          for (int p = 0; p < deg; ++p) {
            int64_t c = ctx.Recv(p).word0;
            if (c >= 0 && c < 3) blocked[c] = true;
          }
          for (int64_t c = 0; c < 3; ++c) {
            if (!blocked[c]) {
              st.color = c;
              break;
            }
          }
        }
        if (block == 2) {
          ctx.Halt();
          return;
        }
      }
    }
    ctx.Broadcast(local::Message::Of(st.color));
  }

 private:
  static int64_t ParentColor(local::NodeContext& ctx, const CvState& st) {
    if (st.parent_port >= 0) return ctx.Recv(st.parent_port).word0;
    // Virtual parent for roots: own color with lowest bit flipped.
    return st.color ^ 1;
  }

  const Graph* g_;
  const std::vector<int64_t>* ids_;
  const std::vector<int>* parent_;
  int iterations_;
};

}  // namespace

int ColeVishkinIterations(int64_t id_space) {
  // Colors live in [0, M); one step maps them into [0, 2*BitLength(M-1)).
  // Iterate until M <= 6 (the fixpoint of M -> 2*BitLength(M-1)).
  int64_t m = id_space;
  int iterations = 0;
  while (m > 6) {
    m = 2 * BitLength(m - 1);
    ++iterations;
    assert(iterations < 64);
  }
  return iterations;
}

ColeVishkinResult ColeVishkin3Color(local::Engine& net,
                                    const std::vector<int>& parent,
                                    int64_t id_space) {
  const Graph& forest = net.graph();
  ColeVishkinResult result;
  if (forest.NumNodes() == 0) return result;
  int iterations = ColeVishkinIterations(id_space);
  CvAlgorithm alg(forest, net.ids(), parent, iterations);
  result.rounds = net.Run(alg, iterations + 64);
  result.messages = net.messages_delivered();
  result.round_stats = net.round_stats();
  result.colors.resize(forest.NumNodes());
  for (int v = 0; v < forest.NumNodes(); ++v) {
    result.colors[v] =
        static_cast<int>(net.StateAt<CvState>(v).color);
  }
  return result;
}

}  // namespace treelocal
