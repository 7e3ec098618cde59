#include "src/local/network.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <numeric>
#include <stdexcept>

#include "src/local/snapshot.h"
#include "src/support/fault.h"

namespace treelocal::local {

const Message Network::kNoMessage{};

MaxRoundsExceededError::MaxRoundsExceededError(const std::string& engine,
                                               int round, int64_t active_nodes,
                                               uint64_t last_digest)
    : std::runtime_error(engine + " exceeded max_rounds: round " +
                         std::to_string(round) + " reached with " +
                         std::to_string(active_nodes) +
                         " live node(s), last transcript digest " +
                         std::to_string(last_digest)),
      round_(round),
      active_(active_nodes),
      digest_(last_digest) {}

namespace internal {

// send_chan[first[v] + p] = channel of the reverse half-edge (u -> v)
// where u = Neighbors(v)[p] — i.e. the receiver-side inbox slot a send on
// (v, p) must land in. Built in O(n + m) by one streaming adjacency pass
// with NO edge ids (so it works identically over either graph backend):
// scanning v ascending, u's lower neighbors arrive in ascending order and
// — adjacency being sorted — occupy u's first ports in exactly that order,
// so a per-node cursor names the reverse port of every (v, p) with u > v.
// With `perm` the per-node channel blocks are laid out in internal-rank
// order; the pairing is unchanged because it keys on (node, port).
void BuildChannelTables(GraphView graph, const int* perm,
                        std::vector<int>& first, std::vector<int>& send_chan,
                        std::vector<int>& degree) {
  const int n = graph.NumNodes();
  // The only backend degree queries the engines make: one ascending pass,
  // so a CompactGraph decodes its stream sequentially.
  degree.resize(n);
  for (int v = 0; v < n; ++v) degree[v] = graph.Degree(v);
  first.resize(n + 1);
  if (perm == nullptr) {
    first[0] = 0;
    for (int v = 0; v < n; ++v) first[v + 1] = first[v] + degree[v];
  } else {
    // Internal-rank CSR offsets, then scattered back so first[] stays
    // indexed by external node (the hot paths never see the permutation).
    std::vector<int> offset(n + 1);
    std::vector<int> inv(n);  // internal rank -> external node
    for (int v = 0; v < n; ++v) inv[perm[v]] = v;
    offset[0] = 0;
    for (int i = 0; i < n; ++i) offset[i + 1] = offset[i] + degree[inv[i]];
    for (int v = 0; v < n; ++v) first[v] = offset[perm[v]];
    first[n] = offset[n];
  }

  send_chan.resize(2 * static_cast<size_t>(graph.NumEdges()));
  std::vector<int> cnt(n, 0);  // lower neighbors of u paired so far
  for (int v = 0; v < n; ++v) {
    int p = 0;
    graph.ForEachNeighbor(v, [&](int u) {
      if (u > v) {
        const int a = first[v] + p;
        const int b = first[u] + cnt[u]++;
        send_chan[a] = b;
        send_chan[b] = a;
      }
      ++p;
    });
  }
}

std::vector<int> BfsOrder(GraphView graph) {
  const int n = graph.NumNodes();
  std::vector<int> perm(n, -1);
  std::vector<int> queue;
  queue.reserve(n);
  int rank = 0;
  for (int root = 0; root < n; ++root) {
    if (perm[root] >= 0) continue;
    perm[root] = rank++;
    queue.push_back(root);
    for (size_t head = queue.size() - 1; head < queue.size(); ++head) {
      const int v = queue[head];
      graph.ForEachNeighbor(v, [&](int u) {
        if (perm[u] < 0) {
          perm[u] = rank++;
          queue.push_back(u);
        }
      });
    }
  }
  return perm;
}

void ValidateChannelScale(int64_t n, int64_t m, const char* engine) {
  // Channel ids (first_/send_chan_/chan_owner_ and every mailbox index)
  // are int32; 2m channels plus sentinel headroom must fit.
  constexpr int64_t kMaxChannels = static_cast<int64_t>(INT32_MAX) - 4;
  if (2 * m > kMaxChannels) {
    throw GraphLimitError(
        std::string(engine) + ": graph with m = " + std::to_string(m) +
        " edges (n = " + std::to_string(n) + ") needs " +
        std::to_string(2 * m) +
        " channels, exceeding the engine's int32 channel-index limit of " +
        std::to_string(kMaxChannels));
  }
}

std::vector<int> WorklistOrder(int n, const std::vector<int>& perm) {
  std::vector<int> order(n);
  if (perm.empty()) {
    std::iota(order.begin(), order.end(), 0);
  } else {
    for (int v = 0; v < n; ++v) order[perm[v]] = v;
  }
  return order;
}

std::vector<int> BuildChanOwner(const std::vector<int>& first,
                                const std::vector<int>& degree,
                                const std::vector<int>& order) {
  const int n = static_cast<int>(degree.size());
  std::vector<int> owner(static_cast<size_t>(first[n]));  // 2m channels
  for (int i = 0; i < n; ++i) {
    const int v = order[i];
    const int lo = first[v];
    // NOT first[v + 1]: under relabel first[] is external-indexed into the
    // rank-ordered channel space, so v's block ends at first[v] + deg(v)
    // while first[v + 1] is wherever external node v+1's block landed.
    const int hi = lo + degree[v];
    for (int c = lo; c < hi; ++c) owner[c] = i;
  }
  return owner;
}

}  // namespace internal

Engine::Engine(GraphView graph, std::vector<int64_t> ids,
               const NetworkOptions& options, const char* name,
               SnapshotEngineKind kind)
    : graph_(graph),
      ids_(std::move(ids)),
      digest_messages_(options.digest_messages),
      wake_opt_(options.wake_scheduling),
      fault_(options.fault),
      name_(name),
      kind_(kind) {
  assert(static_cast<int>(ids_.size()) == graph.NumNodes());
  internal::ValidateChannelScale(graph.NumNodes(), graph.NumEdges(), name);
}

Engine::~Engine() = default;  // out of line: pending_resume_'s type

const Graph& Engine::graph() const {
  if (graph_.csr() != nullptr) return *graph_.csr();
  return graph_.RequireCsr((std::string(name_) + "::graph()").c_str());
}

Engine::RunStart Engine::BeginRun(Algorithm& alg, const int* inv,
                                  std::unique_ptr<SnapshotData>& resume) {
  const int n = graph_.NumNodes();
  RunStart start = RunStart::kContinue;
  if (pending_resume_ != nullptr) {
    const size_t stride = pending_resume_->instances[0].state_stride;
    if (stride != alg.StateBytes()) {
      // Still armed: the caller's retry with the right algorithm resumes.
      throw SnapshotError("resume state stride mismatch: snapshot has " +
                          std::to_string(stride) +
                          " bytes/node, algorithm declares " +
                          std::to_string(alg.StateBytes()) +
                          " (resumed with a different Algorithm?)");
    }
    resume = std::move(pending_resume_);
    const SnapshotData::Instance& inst = resume->instances[0];
    round_ = resume->round;
    messages_delivered_ = inst.messages_delivered;
    round_stats_.clear();
    round_msg_acc_.clear();
    round_digests_.clear();
    for (const SnapshotRound& r : inst.rounds) {
      round_stats_.push_back(r.stats);
      round_msg_acc_.push_back(r.msg_acc);
      round_digests_.push_back(r.digest);
    }
    digest_ = round_digests_.empty() ? support::kDigestSeed
                                     : round_digests_.back();
    // The image is external-indexed; the plane is internal-indexed.
    state_stride_ = stride;
    state_.resize(static_cast<size_t>(n) * stride);
    for (int v = 0; v < n; ++v) {
      const size_t i = perm_.empty() ? v : perm_[v];
      std::copy(inst.state.begin() + v * stride,
                inst.state.begin() + (v + 1) * stride,
                state_.begin() + i * stride);
    }
    start = RunStart::kResume;
  } else if (!mid_run_) {
    round_ = 0;
    messages_delivered_ = 0;
    round_stats_.clear();
    round_msg_acc_.clear();
    round_digests_.clear();
    digest_ = support::kDigestSeed;
    // assign() reuses capacity, so repeated Runs of same-sized algorithms
    // re-arm with no reallocation (the reuse contract). Per-node init is
    // order-independent by contract; slot i belongs to external node
    // inv[i].
    state_stride_ = alg.StateBytes();
    state_.assign(state_stride_ * static_cast<size_t>(n), 0);
    for (int i = 0; i < n && state_stride_ > 0; ++i) {
      alg.InitState(inv == nullptr ? i : inv[i],
                    state_.data() + static_cast<size_t>(i) * state_stride_);
    }
    start = RunStart::kFresh;
  }
  if (start != RunStart::kContinue) {
    wakes_ = 0;
    round_seconds_.clear();
  }
  mid_run_ = false;  // any exit other than the pause return is not a pause
  finished_ = false;
  return start;
}

bool Engine::PauseAtBoundary(int pause_at_round, int max_rounds,
                             int64_t live) {
  if (round_ == pause_at_round) {
    // Pause at the boundary BEFORE this round executes; the engine's planes
    // and the digest chain describe exactly this boundary.
    mid_run_ = true;
    return true;
  }
  if (fault_ != nullptr) fault_->AtRoundBoundary(round_);
  if (round_ >= max_rounds) {
    throw MaxRoundsExceededError(std::string(name_) + "::Run", round_, live,
                                 digest_);
  }
  return false;
}

void Engine::AbandonRun() {
  pending_resume_.reset();
  mid_run_ = false;
  finished_ = false;
}

void Engine::Checkpoint(std::ostream& out) const {
  if (!mid_run_ && !finished_) {
    throw SnapshotError(std::string(name_) +
                        "::Checkpoint: engine is not at a round boundary "
                        "(pause with RunUntil or let a run finish first)");
  }
  const int n = graph_.NumNodes();
  SnapshotData snap;
  snap.engine_kind = kind_;
  snap.digest_messages = digest_messages_;
  snap.finished = finished_;
  snap.batch = 1;
  snap.round = round_;
  internal::SetInputSections(graph_, ids_, snap);
  snap.instances.resize(1);
  SnapshotData::Instance& inst = snap.instances[0];
  inst.messages_delivered = messages_delivered_;
  inst.rounds_completed = finished_ ? round_ : 0;
  inst.rounds.resize(round_stats_.size());
  for (size_t r = 0; r < round_stats_.size(); ++r) {
    inst.rounds[r] = {round_stats_[r], round_msg_acc_[r], round_digests_[r]};
  }
  const size_t stride = state_stride_;
  inst.state_stride = static_cast<uint32_t>(stride);
  inst.state.resize(static_cast<size_t>(n) * stride);
  for (int v = 0; v < n; ++v) {
    const size_t i = perm_.empty() ? v : perm_[v];
    std::copy(state_.begin() + i * stride, state_.begin() + (i + 1) * stride,
              inst.state.begin() + v * stride);
  }
  SaveBoundary(snap);
  // Canonical wake plane: halted -> 0, and an awake live node (wake round
  // at or below the boundary, e.g. every live node of a dense run) records
  // the boundary round itself.
  for (int v = 0; v < n; ++v) {
    inst.wake[v] = inst.halted[v] != 0 ? 0 : std::max(inst.wake[v], round_);
  }
  WriteSnapshot(out, snap);
}

void Engine::Resume(std::istream& in) {
  SnapshotData snap = ReadSnapshot(in);
  internal::ValidateForEngine(snap, graph_, ids_, digest_messages_, name_);
  pending_resume_ = std::make_unique<SnapshotData>(std::move(snap));
  mid_run_ = false;
  finished_ = false;
}

Network::Network(GraphView graph, std::vector<int64_t> ids)
    : Network(graph, std::move(ids), 1, NetworkOptions{}) {}

Network::Network(GraphView graph, std::vector<int64_t> ids,
                 const NetworkOptions& options)
    : Network(graph, std::move(ids), 1, options) {}

Network::Network(GraphView graph, std::vector<int64_t> ids, int num_threads,
                 const NetworkOptions& options)
    : Engine(graph, std::move(ids), options, "Network",
             SnapshotEngineKind::kNetwork),
      pool_(num_threads) {
  const int n = graph.NumNodes();
  const size_t channels = 2 * static_cast<size_t>(graph.NumEdges());

  if (options.relabel) perm_ = internal::BfsOrder(graph);
  internal::BuildChannelTables(graph, perm_.empty() ? nullptr : perm_.data(),
                               first_, send_chan_, degree_);
  order_ = internal::WorklistOrder(n, perm_);

  inbox_.assign(channels, Message{});
  outbox_.assign(channels, Message{});
  halted_.assign(n, 0);
  active_.reserve(n);
  shards_.resize(pool_.num_threads());
}

int Network::RunUntil(Algorithm& alg, int max_rounds, int pause_at_round) {
  const int T = pool_.num_threads();
  const int n = graph_.NumNodes();
  // Every run walks the wake calendar. With wake_scheduling off the engine
  // ignores the algorithm's sleeps: every node first wakes in round 0 and
  // every visit re-wakes it for the next round, so each round's bucket is
  // the whole live set and the hook below never arms.
  const bool honor_sleeps = wake_opt_;
  if (wake_round_.empty() && n > 0) {
    // First run on this engine: arm the per-rank calendar tables once.
    wake_round_.assign(n, 0);
    bucket_stamp_.assign(n, -1);
  }
  // Calendar insertion: wake rounds at or past max_rounds get no bucket
  // (the run throws at max_rounds before they could matter, and a later
  // continuation with a larger bound rebuilds the calendar from
  // wake_round_ below) — this bounds calendar memory by the caller's own
  // round budget. Duplicate and stale entries are harmless: the bucket
  // assembly dedups by stamp and the visit skips any halted rank or one
  // whose wake round has moved past the entry's.
  const auto push_calendar = [&](int w, int i) {
    if (w >= max_rounds) return;
    if (w >= static_cast<int>(calendar_.size())) calendar_.resize(w + 1);
    calendar_[w].push_back(i);
  };
  // Advancing by 2 leaves every stamp from the previous run strictly below
  // epoch_ - 1, so round 0 of this run cannot observe stale messages. The
  // 32-bit stamp wraps only after ~2^31 cumulative rounds; when the epoch
  // nears the wrap, re-arm every stamp once — amortized cost zero (the
  // mid-run case is handled by the per-round rebase below). The
  // message-wake dedup stamps are epoch-keyed like the mailboxes and must
  // not survive an epoch reset (a stale stamp equal to a future epoch
  // would swallow a wake).
  const auto advance_epoch = [&] {
    if (epoch_ >= INT32_MAX - 4) {
      for (auto& m : inbox_) m.engine_stamp = -1;
      for (auto& m : outbox_) m.engine_stamp = -1;
      for (int i = 0; i < n && notify_stamp_ != nullptr; ++i) {
        notify_stamp_[i].store(-1, std::memory_order_relaxed);
      }
      epoch_ = 1;
    }
    epoch_ += 2;
  };
  // Bucket entries before this index are known due: last round's survivors,
  // or a freshly seeded or resumed bucket. Only the entries after it (the
  // calendar splice and message wakes) can be stale. A continued run checks
  // every entry.
  int known_due = 0;
  std::unique_ptr<SnapshotData> snap;
  const RunStart start = BeginRun(alg, order_.data(), snap);
  if (start == RunStart::kResume) {
    // Restore the checkpointed boundary instead of starting fresh. The
    // epoch must advance BEFORE the deliverables are placed — they are
    // stamped epoch_ - 1, i.e. relative to the epoch the resumed round
    // runs under.
    advance_epoch();
    const SnapshotData::Instance& inst = snap->instances[0];
    std::copy(inst.halted.begin(), inst.halted.end(), halted_.begin());
    for (const SnapshotMessage& msg : inst.deliverable) {
      Message& slot = inbox_[static_cast<size_t>(first_[msg.node] + msg.port)];
      slot = Message{msg.word0, msg.word1, msg.size};
      slot.engine_stamp = epoch_ - 1;
    }
    // Rebuild the calendar from the snapshot's per-node wake rounds
    // (external-indexed; a snapshot of a dense run records every live node
    // awake at the boundary, and ignoring sleeps resumes every live node
    // awake). Bucket stamps are keyed by round number, which restarts per
    // run — a stale stamp equal to a future round would silently swallow
    // that node's calendar splice.
    std::fill(bucket_stamp_.begin(), bucket_stamp_.end(), -1);
    calendar_.clear();
    active_.clear();
    live_count_ = 0;
    notify_armed_ = false;
    for (int i = 0; i < n; ++i) {
      const int v = order_[i];
      if (halted_[v]) continue;
      ++live_count_;
      const int32_t w = honor_sleeps ? std::max(inst.wake[v], round_) : round_;
      wake_round_[i] = w;
      if (w > round_ + 1) notify_armed_ = true;  // someone already parked
      if (w == round_) {
        active_.push_back(i);
      } else if (w != kNoWakeRound) {
        push_calendar(w, i);
      }
    }
    known_due = static_cast<int>(active_.size());
  } else if (start == RunStart::kFresh) {
    advance_epoch();
    std::fill(halted_.begin(), halted_.end(), 0);
    // Seed the calendar from the algorithm's declared first-action rounds;
    // round 0's bucket holds every node that acts at once, in rank order.
    // Rounds still tick (and record stats and digests) while buckets are
    // empty, so the transcript does not depend on who sleeps. Stamps
    // restart with the rounds (see the resume path).
    std::fill(bucket_stamp_.begin(), bucket_stamp_.end(), -1);
    calendar_.clear();
    active_.clear();
    live_count_ = n;
    notify_armed_ = false;
    for (int i = 0; i < n; ++i) {
      const int w = honor_sleeps ? alg.InitialWakeRound(order_[i]) : 0;
      if (w <= 0) {
        wake_round_[i] = 0;
        active_.push_back(i);
      } else {
        wake_round_[i] = w >= kNoWakeRound ? kNoWakeRound : w;
        if (wake_round_[i] > 1) notify_armed_ = true;  // parked past round 1
        push_calendar(wake_round_[i], i);
      }
    }
    known_due = static_cast<int>(active_.size());
  } else {
    // Continuing a paused run: mailboxes, the current bucket (active_),
    // wake rounds, state plane and digest chain are live exactly as the
    // pause left them, but the calendar was bounded by the PREVIOUS call's
    // max_rounds — rebuild it from wake_round_ under the new bound. Awake
    // ranks (wake round at or below this one) are already in the bucket.
    calendar_.clear();
    notify_armed_ = false;
    for (int i = 0; i < n; ++i) {
      const int32_t w = wake_round_[i];
      if (halted_[order_[i]]) continue;
      if (w > round_ + 1) notify_armed_ = true;  // parked (incl. forever)
      if (w > round_ && w != kNoWakeRound) push_calendar(w, i);
    }
  }
  // The Send-side message-wake recording costs two extra random cache
  // lines per observable send (chan_owner_ + notify_stamp_), which dense
  // runs — every live node acting every round, nobody ever parked — would
  // pay for nothing. The hook is therefore armed only once some node is
  // parked past the next round, and its tables are allocated by the first
  // arming on this engine (then kept, like the other wake tables). The
  // round that parks the first nodes with the hook still off resolves
  // their wakes by scanning just those nodes' inboxes at the barrier (the
  // shards' slept lists), then arms. Once armed it stays armed for the
  // rest of the run.
  const auto arm_notify = [&] {
    notify_armed_ = true;
    if (notify_stamp_ != nullptr) return;
    chan_owner_ = internal::BuildChanOwner(first_, degree_, order_);
    notify_stamp_.reset(new std::atomic<int32_t>[n]);
    for (int i = 0; i < n; ++i) {
      notify_stamp_[i].store(-1, std::memory_order_relaxed);
    }
  };
  if (notify_armed_) arm_notify();
  unsigned char* const state_base = state_.data();
  const size_t stride = state_stride_;
  support::FaultInjector* const fault = fault_;

  // One context per shard: identical CSR views except for the per-shard
  // counter slots and wake-candidate list. Rebuilt per Run (T small).
  std::vector<NodeContext> ctxs;
  ctxs.reserve(T);
  for (int t = 0; t < T; ++t) {
    ctxs.push_back(
        NodeContext(graph_, ids_.data(), degree_.data(), nullptr));
    NodeContext& ctx = ctxs.back();
    ctx.first_ = first_.data();
    ctx.send_chan_ = send_chan_.data();
    ctx.halted_ = halted_.data();
    ctx.sent_ = &shards_[t].sent;
    ctx.macc_ = digest_messages_ ? &shards_[t].macc : nullptr;
    ctx.notified_ = &shards_[t].notified;
  }

  // Shard boundaries: contiguous worklist ranges, balanced to +-1. The
  // partition depends only on (active_now, T) — but even that choice is
  // transcript-invisible, since shards only reorder OnRound within the
  // round and all cross-shard writes are disjoint (see the class comment).
  int active_now = 0;
  auto shard_lo = [&](int t) {
    return static_cast<int>(static_cast<int64_t>(active_now) * t / T);
  };
  // The round task: visit this shard's range of the current bucket. Bucket
  // entries are unique (barrier dedup), so this shard is the only writer of
  // its entries' wake rounds. Survivors that act again next round are
  // stable-compacted in place (rank order is preserved, matching the
  // reference engine when nobody sleeps) and keep their wake round as it
  // is: at or below the current round it means "awake", so a dense run
  // never touches the wake plane. Sleepers record their wake round and go
  // to the shard's slept list for the serial calendar distribution. One
  // std::function for the whole run (the per-round state it reads is
  // captured by reference), so tail rounds fork without an allocation.
  const std::function<void(int)> round_task = [&](int t) {
    const int lo = shard_lo(t);
    const int hi = shard_lo(t + 1);
    NodeContext& ctx = ctxs[t];
    Shard& sh = shards_[t];
    int* work = active_.data();
    int32_t* const wake = wake_round_.data();
    const int r = round_;
    const int due = known_due;
    const bool honor = honor_sleeps;
    int kept = lo;
    int64_t visits = 0, decisions = 0;
    int halts = 0;
    for (int idx = lo; idx < hi; ++idx) {
      const int i = work[idx];
      const int v = order_[i];
      // Stale calendar entry: the node halted, or it was woken earlier and
      // has gone back to sleep past this round.
      if (idx >= due && (halted_[v] || wake[i] > r)) continue;
      ctx.node_ = v;
      ctx.state_ = state_base + static_cast<size_t>(i) * stride;
      ctx.sleep_until_ = r + 1;  // default: act again next round
      if (fault != nullptr) fault->OnVisit(r);
      const int64_t sb = sh.sent;
      alg.OnRound(ctx);
      ++visits;
      // Halting is a decision, and Halt wins over any sleep. The halt is
      // data-dependent, so it is folded in without a branch: a halted rank
      // is written to the bucket but not kept.
      const bool halted = halted_[v] != 0;
      halts += halted ? 1 : 0;
      decisions += (sh.sent != sb || halted) ? 1 : 0;
      if (honor && ctx.sleep_until_ > r + 1 && !halted) {
        wake[i] = ctx.sleep_until_;
        sh.slept.push_back(i);  // distributed into the calendar serially
      } else {
        work[kept] = i;  // survivor: stays in next round's bucket
        kept += halted ? 0 : 1;
      }
    }
    sh.kept = kept - lo;
    sh.visits = visits;
    sh.decisions = decisions;
    sh.halts = halts;
  };
  // Wakes a sleeping candidate iff an observable message actually sits in
  // its (post-swap) inbox — shared by the armed-hook candidate loop and
  // the disarmed transition scan, so both resolve wakes through one
  // predicate (a later Send may have overwritten the recorded message
  // with silence; the O(deg) scan runs only for sleeping candidates). The
  // bucket stamp decides whether a woken rank still needs a push (a stale
  // calendar entry may already sit in the bucket — rewriting its wake
  // round makes that entry the wake visit).
  const auto wake_if_observable = [&](int i) {
    const int next = round_ + 1;
    const int v = order_[i];
    if (halted_[v] || wake_round_[i] <= next) return;
    const int lo = first_[v];
    const int hi = lo + degree_[v];  // not first_[v + 1]: see
                                     // BuildChanOwner on relabel
    bool observable = false;
    for (int c = lo; c < hi && !observable; ++c) {
      const Message& msg = inbox_[c];
      observable = msg.engine_stamp == epoch_ &&
                   (msg.size != 0 || msg.word0 != 0 || msg.word1 != 0);
    }
    if (observable) {
      wake_round_[i] = next;
      ++wakes_;
      if (bucket_stamp_[i] != next) {
        bucket_stamp_[i] = next;
        active_.push_back(i);
      }
    }
  };

  // The round loop. active_nodes records the LIVE count (not visits),
  // rounds tick even when the current bucket is empty, and any sleeping
  // node that would have observed new input is woken for the delivery
  // round at the barrier — so the transcript is the same whether or not
  // the algorithm sleeps, and only visits shrink.
  while (live_count_ > 0) {
    // Round boundary: pause, fault, max_rounds, and the mid-run epoch
    // rebase (a single run of ~2^31 rounds keeps exactly this round's
    // deliverable messages visible and invalidates everything else — one
    // O(2m) pass per ~2^31 rounds).
    if (PauseAtBoundary(pause_at_round, max_rounds, live_count_)) {
      return round_;
    }
    if (epoch_ >= INT32_MAX - 2) {
      for (auto& m : outbox_) m.engine_stamp = -1;
      for (auto& m : inbox_) {
        m.engine_stamp = m.engine_stamp == epoch_ - 1 ? 2 : -1;
      }
      for (int i = 0; i < n && notify_stamp_ != nullptr; ++i) {
        notify_stamp_[i].store(-1, std::memory_order_relaxed);
      }
      epoch_ = 3;
    }
    // Opt-in round timer; it stops after the next bucket is assembled,
    // just before the mailbox swap.
    StartRoundTimer();
    // Aim every shard's context at this round's mailboxes and epoch (the
    // mailboxes swap and the epoch moves every round) and zero the shard
    // counters.
    active_now = static_cast<int>(active_.size());
    for (int t = 0; t < T; ++t) {
      NodeContext& ctx = ctxs[t];
      ctx.round_ = round_;
      ctx.inbox_ = inbox_.data();
      ctx.outbox_ = outbox_.data();
      ctx.epoch_ = epoch_;
      // Send-side wake recording only while someone is parked: a null
      // notify_stamp_ turns the whole hook into one predictable branch.
      ctx.chan_owner_ = chan_owner_.data();
      ctx.notify_stamp_ = notify_armed_ ? notify_stamp_.get() : nullptr;
      Shard& sh = shards_[t];
      sh.sent = 0;
      sh.macc = 0;
      sh.kept = 0;
      sh.slept.clear();
      sh.notified.clear();
    }
    const int live_now = live_count_;
    pool_.ParallelFor(T, round_task);

    // The pool join is the visibility fence: record the round's stats and
    // digest from the shard sums (sums commute, so every total — and the
    // content accumulator — is independent of the sharding) and stitch
    // the shards' compacted prefixes into one dense bucket in engine order.
    int64_t round_sent = 0;
    uint64_t round_macc = 0;
    int64_t visits = 0;
    int64_t decisions = 0;
    for (const Shard& sh : shards_) {
      round_sent += sh.sent;
      round_macc += sh.macc;
      visits += sh.visits;
      decisions += sh.decisions;
      live_count_ -= sh.halts;
    }
    RecordRound(live_now, round_sent, visits, decisions, round_macc);
    int dst = shards_[0].kept;
    for (int t = 1; t < T; ++t) {
      const int lo = shard_lo(t);
      const int kept = shards_[t].kept;
      // dst <= lo always, so this forward copy never overruns its source;
      // a manual loop because std::copy forbids dst == lo (self-copy).
      for (int j = 0; j < kept; ++j) active_[dst + j] = active_[lo + j];
      dst += kept;
    }
    active_.resize(dst);
    known_due = dst;

    // Assemble the next bucket: distribute this round's sleeps into the
    // calendar, then splice the calendar's next bucket (freed after) with
    // stamp dedup — the bucket must hold each rank at most once before
    // shards touch it again. Only a splice needs the survivors stamped
    // first: the message wakes below never target a survivor (its wake
    // round is already next), so a round with nothing to splice — every
    // round of a dense run — skips the stamping pass. Stale entries
    // (halted, or woken elsewhere) need no check here: the visit skips
    // them, and it reads the same halt flag and wake round anyway.
    const int next = round_ + 1;
    for (const Shard& sh : shards_) {
      for (const int i : sh.slept) push_calendar(wake_round_[i], i);
    }
    if (next < static_cast<int>(calendar_.size()) &&
        !calendar_[next].empty()) {
      for (const int i : active_) bucket_stamp_[i] = next;
      std::vector<int>& b = calendar_[next];
      for (const int i : b) {
        if (bucket_stamp_[i] == next) continue;
        bucket_stamp_[i] = next;
        active_.push_back(i);
      }
      std::vector<int>().swap(b);
    }
    StopRoundTimer();
    // Deliver: O(1) buffer swap; epoch stamps make clearing unnecessary.
    std::swap(inbox_, outbox_);
    if (notify_armed_) {
      // Message-wake barrier: every receiver of an observable send this
      // round was recorded once in some shard's notified list.
      for (const Shard& sh : shards_) {
        for (const int i : sh.notified) wake_if_observable(i);
      }
    } else {
      // The run's first parks happened this round with the hook still
      // disarmed, so no send was recorded — the shards' slept lists ARE
      // the newly-parked set; scan exactly those inboxes (identical
      // outcome to an armed round by construction), then arm the hook
      // for the rest of the run.
      bool any_parked = false;
      for (const Shard& sh : shards_) {
        for (const int i : sh.slept) {
          any_parked = true;
          wake_if_observable(i);
        }
      }
      if (any_parked) arm_notify();
    }
    ++round_;
    ++epoch_;
  }
  return FinishRun();
}

EngineBytes Network::EngineMemory() const {
  const auto bytes = [](const auto& v) {
    return v.capacity() * sizeof(v[0]);
  };
  EngineBytes b;
  b.channel_tables = bytes(first_) + bytes(send_chan_);
  b.degree_table = bytes(degree_);
  b.mailboxes = bytes(inbox_) + bytes(outbox_);
  b.worklist = bytes(active_) + bytes(halted_) + bytes(order_) +
               bytes(perm_) + bytes(shards_);
  b.ids = bytes(ids_);
  b.state_plane = bytes(state_);
  b.wake_tables = bytes(wake_round_) + bytes(bucket_stamp_) +
                  bytes(chan_owner_) + bytes(calendar_);
  for (const std::vector<int>& bucket : calendar_) {
    b.wake_tables += bytes(bucket);
  }
  for (const Shard& sh : shards_) {
    b.wake_tables += bytes(sh.slept) + bytes(sh.notified);
  }
  if (notify_stamp_ != nullptr) {
    b.wake_tables += static_cast<size_t>(graph_.NumNodes()) *
                     sizeof(std::atomic<int32_t>);
  }
  b.run_log = bytes(round_stats_) + bytes(round_seconds_) +
              bytes(round_msg_acc_) + bytes(round_digests_);
  return b;
}

void Network::SaveBoundary(SnapshotData& snap) const {
  SnapshotData::Instance& inst = snap.instances[0];
  const int n = graph_.NumNodes();
  inst.halted = halted_;
  inst.wake.resize(n);
  for (int i = 0; i < n; ++i) inst.wake[order_[i]] = wake_round_[i];
  if (snap.finished) return;
  // Deliverable messages: inbox slots stamped epoch - 1 (exactly what the
  // next round's Recv would see). Walking external nodes in order with
  // ports ascending yields the canonical sort for free. A stamped all-zero
  // slot is skipped: it is observationally identical to no message (Recv
  // hands the algorithm the same bytes as kNoMessage), and skipping it
  // keeps the image canonical across the stamp-less reference engine too.
  // A finished run records none at all — every node has halted, so the
  // final round's leftovers are unobservable.
  for (int v = 0; v < n; ++v) {
    for (int p = 0; p < degree_[v]; ++p) {
      const Message& m = inbox_[static_cast<size_t>(first_[v] + p)];
      if (m.engine_stamp == epoch_ - 1 &&
          (m.size != 0 || m.word0 != 0 || m.word1 != 0)) {
        inst.deliverable.push_back({v, p, m.word0, m.word1, m.size});
      }
    }
  }
}

}  // namespace treelocal::local
