#include "src/algos/linial.h"

#include <bit>
#include <cassert>
#include <stdexcept>
#include <vector>

#include "src/local/network.h"
#include "src/support/mathutil.h"

namespace treelocal {

namespace {

// base^exp >= target, overflow-safe.
bool PowerAtLeast(int64_t base, int exp, int64_t target) {
  int64_t p = 1;
  for (int i = 0; i < exp; ++i) {
    if (p > target / base) return true;  // p * base > target
    p *= base;
  }
  return p >= target;
}

// Smallest (d, q) such that q is prime, q > Delta*d, and q^{d+1} >= m;
// among those, the first d (smallest q^2 in practice for our ranges).
LinialStep ChooseStep(int64_t m, int max_degree) {
  for (int d = 1;; ++d) {
    int64_t q = NextPrimeAtLeast(static_cast<int64_t>(max_degree) * d + 2);
    if (PowerAtLeast(q, d + 1, m)) return LinialStep{q, d};
    assert(d < 64);
  }
}

// Base-q digits of c (the polynomial's coefficients), lowest first, into
// out[0..d]. Extracted ONCE per color per step instead of once per
// (color, x) evaluation — the d+1 integer divisions were the old
// EvalPoly's dominant cost.
void ExtractDigits(int64_t c, int64_t q, int d, int64_t* out) {
  int64_t rem = c;
  for (int i = 0; i <= d; ++i) {
    out[i] = rem % q;
    rem /= q;
  }
}

// Horner evaluation over cached digits at point x, over F_q.
int64_t EvalDigits(const int64_t* digits, int d, int64_t q, int64_t x) {
  int64_t acc = 0;
  for (int i = d; i >= 0; --i) {
    acc = (acc * x + digits[i]) % q;
  }
  return acc;
}

// One Linial set-system membership step for a node: the smallest x in
// [0, q) where no neighbor's polynomial agrees with ours, returned as the
// new color chosen_x * q + eval(chosen_x). Semantics are exactly the old
// per-(x, neighbor) EvalPoly scan; the implementation is restructured:
//   * fast probe at x = 0 — eval(c, 0) is just c % q, and with distinct
//     neighbor colors x = 0 is usually free, so the common case is one
//     division per neighbor and no digit extraction at all;
//   * otherwise, word-wide blocked-point masks: each neighbor's agreeing
//     points are set bits in a chunked 64-bit mask over x (a nonzero
//     difference polynomial of degree <= d has at most d roots, so each
//     neighbor's scan stops after d hits), and the chosen x is the mask's
//     first zero via countr_one — the same first-free-point answer without
//     re-walking all neighbors per candidate x.
int64_t LinialChooseColor(int64_t color, const LinialStep& step,
                          const int64_t* nbr, int nbr_count) {
  const int64_t q = step.q;
  const int d = step.d;
  const int64_t mine0 = color % q;
  bool x0_free = true;
  for (int i = 0; i < nbr_count && x0_free; ++i) {
    x0_free = nbr[i] % q != mine0;
  }
  if (x0_free) return mine0;  // chosen_x = 0: new color = 0 * q + eval(0)

  int64_t mine_digits[70], nbr_digits[70];
  ExtractDigits(color, q, d, mine_digits);
  thread_local std::vector<int64_t> mine_eval;
  mine_eval.resize(static_cast<size_t>(q));
  for (int64_t x = 0; x < q; ++x) {
    mine_eval[x] = EvalDigits(mine_digits, d, q, x);
  }
  const int nwords = static_cast<int>((q + 63) / 64);
  thread_local std::vector<uint64_t> blocked;
  blocked.assign(nwords, 0ull);
  for (int i = 0; i < nbr_count; ++i) {
    if (nbr[i] == color) {
      // A duplicate color agrees everywhere — every point is blocked, as
      // the per-x scan would have concluded.
      throw std::logic_error("Linial step found no free point");
    }
    ExtractDigits(nbr[i], q, d, nbr_digits);
    int hits = 0;
    for (int64_t x = 0; x < q; ++x) {
      if (EvalDigits(nbr_digits, d, q, x) == mine_eval[x]) {
        blocked[x >> 6] |= 1ull << (x & 63);
        if (++hits == d) break;  // <= d roots: nothing further to find
      }
    }
  }
  for (int w = 0; w < nwords; ++w) {
    uint64_t m = blocked[w];
    if (w == nwords - 1 && (q & 63) != 0) {
      m |= ~0ull << (q & 63);  // pad past q so countr_one cannot overshoot
    }
    const int z = std::countr_one(m);
    if (z < 64) {
      const int64_t x = static_cast<int64_t>(w) * 64 + z;
      return x * q + mine_eval[x];
    }
  }
  // Impossible when q > Delta*d: at most Delta*d points are blocked.
  throw std::logic_error("Linial step found no free point");
}

// Per-node state, engine-managed: just the current color.
struct LinialState {
  int64_t color = 0;
};

// Variant of LinialAlgorithm running on a substructure of the host engine:
// participants reduce colors over their induced ports, everyone else halts
// in round 0. The color evolution per participant is identical to a run on
// the compacted underlying graph because a step's outcome depends only on
// the (unordered) set of neighbor colors.
class InducedLinialAlgorithm : public local::Algorithm {
 public:
  InducedLinialAlgorithm(const std::vector<int64_t>& ids,
                         const local::InducedPortCsr& ports,
                         const std::vector<char>& participant,
                         const LinialSchedule& schedule)
      : ids_(&ids), ports_(&ports), participant_(&participant),
        schedule_(schedule) {}

  size_t StateBytes() const override { return sizeof(LinialState); }
  void InitState(int node, void* state) override {
    static_cast<LinialState*>(state)->color = (*ids_)[node];
  }

  void OnRound(local::NodeContext& ctx) override {
    const int v = ctx.node();
    if (!(*participant_)[v]) {
      ctx.Halt();
      return;
    }
    LinialState& st = ctx.State<LinialState>();
    const int r = ctx.round();
    const int begin = ports_->offset[v], end = ports_->offset[v + 1];
    if (r >= 1) {
      const LinialStep& step = schedule_.steps[r - 1];
      // thread_local: OnRound runs concurrently across Network shards;
      // each shard keeps its own scratch.
      thread_local std::vector<int64_t> nbr;
      nbr.clear();
      for (int i = begin; i < end; ++i) {
        const local::Message msg = ctx.Recv(ports_->port[i]);
        if (msg.present()) nbr.push_back(msg.word0);
      }
      st.color = LinialChooseColor(st.color, step, nbr.data(),
                                   static_cast<int>(nbr.size()));
    }
    if (r == static_cast<int>(schedule_.steps.size())) {
      ctx.Halt();
      return;
    }
    for (int i = begin; i < end; ++i) {
      ctx.Send(ports_->port[i], local::Message::Of(st.color));
    }
  }

 private:
  const std::vector<int64_t>* ids_;
  const local::InducedPortCsr* ports_;
  const std::vector<char>* participant_;
  const LinialSchedule& schedule_;
};

class LinialAlgorithm : public local::Algorithm {
 public:
  LinialAlgorithm(const std::vector<int64_t>& ids,
                  const LinialSchedule& schedule)
      : ids_(&ids), schedule_(schedule) {}

  size_t StateBytes() const override { return sizeof(LinialState); }
  void InitState(int node, void* state) override {
    static_cast<LinialState*>(state)->color = (*ids_)[node];
  }

  void OnRound(local::NodeContext& ctx) override {
    LinialState& st = ctx.State<LinialState>();
    const int r = ctx.round();
    if (r >= 1) {
      const LinialStep& step = schedule_.steps[r - 1];
      // Collect neighbor colors (their broadcast from last round); the
      // scratch is thread_local because OnRound runs concurrently across
      // Network shards.
      thread_local std::vector<int64_t> nbr;
      nbr.clear();
      const int deg = ctx.degree();
      for (int p = 0; p < deg; ++p) {
        const local::Message msg = ctx.Recv(p);
        if (msg.present()) nbr.push_back(msg.word0);
      }
      st.color = LinialChooseColor(st.color, step, nbr.data(),
                                   static_cast<int>(nbr.size()));
    }
    if (r == static_cast<int>(schedule_.steps.size())) {
      ctx.Halt();
      return;
    }
    ctx.Broadcast(local::Message::Of(st.color));
  }

 private:
  const std::vector<int64_t>* ids_;
  const LinialSchedule& schedule_;
};

}  // namespace

LinialSchedule BuildLinialSchedule(int64_t id_space, int max_degree) {
  LinialSchedule schedule;
  int64_t m = id_space;
  if (max_degree == 0) {
    schedule.final_colors = 1;
    return schedule;
  }
  while (true) {
    LinialStep step = ChooseStep(m, max_degree);
    int64_t next = step.q * step.q;
    if (next >= m) break;  // no further progress possible
    schedule.steps.push_back(step);
    m = next;
    assert(schedule.steps.size() < 80);
  }
  schedule.final_colors = m;
  return schedule;
}

LinialResult RunLinial(local::Engine& net, int64_t id_space) {
  const Graph& g = net.graph();
  const std::vector<int64_t>& ids = net.ids();
  LinialResult result;
  if (g.NumNodes() == 0) return result;
  if (g.MaxDegree() == 0) {
    result.colors.assign(g.NumNodes(), 0);
    result.num_colors = 1;
    result.rounds = 1;
    return result;
  }
  // IDs may take the value id_space itself (inclusive spaces upstream);
  // schedule from id_space + 1 so every initial color is strictly below m.
  LinialSchedule schedule = BuildLinialSchedule(id_space + 1, g.MaxDegree());
  LinialAlgorithm alg(ids, schedule);
  result.rounds =
      net.Run(alg, static_cast<int>(schedule.steps.size()) + 2);
  result.messages = net.messages_delivered();
  result.round_stats = net.round_stats();
  result.colors.resize(g.NumNodes());
  for (int v = 0; v < g.NumNodes(); ++v) {
    result.colors[v] = net.StateAt<LinialState>(v).color;
  }
  result.num_colors = schedule.final_colors;
  return result;
}

// Mirrors RunLinial's structure (including the degree-0 and empty
// special cases) so outputs match a run on the compacted underlying graph
// field for field.
LinialResult RunLinialInduced(local::Network& net,
                              const local::InducedPortCsr& ports,
                              const std::vector<char>& participant,
                              int64_t id_space) {
  LinialResult result;
  const int n = net.graph().NumNodes();
  bool any = false;
  for (int v = 0; v < n && !any; ++v) any = participant[v] != 0;
  if (!any) return result;
  result.colors.assign(n, 0);
  if (ports.max_degree == 0) {
    result.num_colors = 1;
    result.rounds = 1;
    return result;
  }
  LinialSchedule schedule =
      BuildLinialSchedule(id_space + 1, ports.max_degree);
  InducedLinialAlgorithm alg(net.ids(), ports, participant, schedule);
  result.rounds =
      net.Run(alg, static_cast<int>(schedule.steps.size()) + 2);
  result.messages = net.messages_delivered();
  result.round_stats = net.round_stats();
  for (int v = 0; v < n; ++v) {
    if (participant[v]) {
      result.colors[v] = net.StateAt<LinialState>(v).color;
    }
  }
  result.num_colors = schedule.final_colors;
  return result;
}

}  // namespace treelocal
