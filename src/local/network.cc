#include "src/local/network.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <stdexcept>

#include "src/local/snapshot.h"
#include "src/support/fault.h"

namespace treelocal::local {

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

namespace {

// The graph's adjacency as one CSR (off: n + 1 offsets, adj: 2m neighbors,
// each node's block ascending): a Graph's own neighbor array, or a
// CompactGraph's stream decoded once into scratch.
struct Adjacency {
  std::vector<int> off;
  std::vector<int> decoded;
  const int* adj = nullptr;

  explicit Adjacency(GraphView graph) {
    const int n = graph.NumNodes();
    off.resize(n + 1);
    off[0] = 0;
    if (const Graph* g = graph.csr(); g != nullptr) {
      for (int v = 0; v < n; ++v) off[v + 1] = g->AdjacencyOffset(v + 1);
      // Node 0's block opens the graph's shared neighbor array.
      adj = n > 0 ? g->Neighbors(0).data() : nullptr;
      return;
    }
    decoded.reserve(2 * static_cast<size_t>(graph.NumEdges()));
    for (int v = 0; v < n; ++v) {
      graph.ForEachNeighbor(v, [&](int u) { decoded.push_back(u); });
      off[v + 1] = static_cast<int>(decoded.size());
    }
    adj = decoded.data();
  }
};

// How far ahead of the BFS head the prefetches run, in queue entries: the
// offsets of the node kAhead ahead, the neighbor block of the one
// kAhead / 2 ahead, and the ranks of the neighbors of the one kAhead / 4
// ahead, so each stage's load finds the previous stage's line in cache.
constexpr int kAhead = 32;

}  // namespace

// The pairing pass keys on sorted adjacency: scanning v ascending, u's
// lower neighbors arrive in ascending order and occupy u's first ports in
// exactly that order, so one cursor per node (external-indexed, starting
// at its rank's block) names the channel of every half-edge as it is met,
// whatever order the blocks are laid out in.
ChannelTables BuildChannelTables(GraphView graph) {
  const int n = graph.NumNodes();
  ChannelTables t;
  t.first.resize(n + 1);
  t.order.resize(n);
  t.perm.assign(n, -1);
  t.send_chan.resize(2 * static_cast<size_t>(graph.NumEdges()));
  // The scratch comes after the tables, so freeing it on return leaves no
  // hole under them that the allocator must keep resident.
  const Adjacency g(graph);
  const int* const off = g.off.data();
  const int* const adj = g.adj;
  std::vector<int> cur(n);  // next unpaired channel of external node v
  // BFS with the queue in order: dequeuing rank `head` fixes its block's
  // offset and its cursor, and the prefetches hide the random loads of
  // the nodes about to be dequeued.
  std::vector<int>& perm = t.perm;
  int* const order = t.order.data();
  int head = 0;
  int tail = 0;
  for (int root = 0; root < n; ++root) {
    if (perm[root] >= 0) continue;
    perm[root] = tail;
    order[tail++] = root;
    for (; head < tail; ++head) {
      if (head + kAhead < tail) {
        __builtin_prefetch(&off[order[head + kAhead]]);
      }
      if (head + kAhead / 2 < tail) {
        __builtin_prefetch(&adj[off[order[head + kAhead / 2]]]);
      }
      if (head + kAhead / 4 < tail) {
        const int w = order[head + kAhead / 4];
        for (int k = off[w]; k < off[w + 1]; ++k) {
          __builtin_prefetch(&perm[adj[k]]);
        }
      }
      const int v = order[head];
      const int lo = off[v];
      const int hi = off[v + 1];
      t.first[head + 1] = t.first[head] + (hi - lo);
      cur[v] = t.first[head];
      for (int k = lo; k < hi; ++k) {
        const int u = adj[k];
        if (perm[u] < 0) {
          perm[u] = tail;
          order[tail++] = u;
        }
      }
    }
  }

  const int channels = off[n];
  int* const send = t.send_chan.data();
  for (int v = 0, k = 0; v < n; ++v) {
    for (const int hi = off[v + 1]; k < hi; ++k) {
      if (k + kAhead < channels) __builtin_prefetch(&cur[adj[k + kAhead]]);
      const int u = adj[k];
      if (u > v) {
        const int a = cur[v]++;
        const int b = cur[u]++;
        send[a] = b;
        send[b] = a;
      }
    }
  }
  return t;
}

void ValidateChannelScale(int64_t n, int64_t m, const char* engine) {
  // Channel ids (first_/send_chan_ and every mailbox index) are int32; 2m
  // channels plus sentinel headroom must fit.
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

}  // namespace internal

Engine::Engine(GraphView graph, std::vector<int64_t> ids,
               const NetworkOptions& options, const char* name,
               SnapshotEngineKind kind)
    : graph_(graph),
      ids_(std::move(ids)),
      digest_messages_(options.digest_messages),
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
    const size_t stride = pending_resume_->run.state_stride;
    if (stride != alg.StateBytes()) {
      // Still armed: the caller's retry with the right algorithm resumes.
      throw SnapshotError("resume state stride mismatch: snapshot has " +
                          std::to_string(stride) +
                          " bytes/node, algorithm declares " +
                          std::to_string(alg.StateBytes()) +
                          " (resumed with a different Algorithm?)");
    }
    resume = std::move(pending_resume_);
    const SnapshotData::RunSection& run = resume->run;
    round_ = resume->round;
    messages_delivered_ = run.messages_delivered;
    round_stats_.clear();
    round_msg_acc_.clear();
    round_digests_.clear();
    for (const SnapshotRound& r : run.rounds) {
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
      const size_t i = RankOf(v);
      std::copy(run.state.begin() + v * stride,
                run.state.begin() + (v + 1) * stride,
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
  if (start != RunStart::kContinue) round_seconds_.clear();
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
  snap.round = round_;
  internal::SetInputSections(graph_, ids_, snap);
  SnapshotData::RunSection& run = snap.run;
  run.messages_delivered = messages_delivered_;
  run.rounds_completed = finished_ ? round_ : 0;
  run.rounds.resize(round_stats_.size());
  for (size_t r = 0; r < round_stats_.size(); ++r) {
    run.rounds[r] = {round_stats_[r], round_msg_acc_[r], round_digests_[r]};
  }
  const size_t stride = state_stride_;
  run.state_stride = static_cast<uint32_t>(stride);
  run.state.resize(static_cast<size_t>(n) * stride);
  for (int v = 0; v < n; ++v) {
    const size_t i = RankOf(v);
    std::copy(state_.begin() + i * stride, state_.begin() + (i + 1) * stride,
              run.state.begin() + v * stride);
  }
  SaveBoundary(snap);
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

  // The construction scratch is gone before the mailboxes, the engine's
  // largest structure, are allocated.
  internal::ChannelTables tables =
      internal::BuildChannelTables(graph);
  first_ = std::move(tables.first);
  send_chan_ = std::move(tables.send_chan);
  order_ = std::move(tables.order);
  perm_ = std::move(tables.perm);

  inbox_.assign(channels, internal::MailSlot{});
  outbox_.assign(channels, internal::MailSlot{});
  halted_.assign(n, 0);
  active_.reserve(n);
  shards_.resize(pool_.num_threads());
}

int Network::RunUntil(Algorithm& alg, int max_rounds, int pause_at_round) {
  const int T = pool_.num_threads();
  const int n = graph_.NumNodes();
  // Advancing by 2 leaves every stamp from the previous run strictly below
  // epoch_ - 1, so round 0 of this run cannot observe stale messages. The
  // packed stamp (internal::MailSlot) wraps only after ~2^29 cumulative
  // rounds; when the epoch nears kMaxEpoch, re-arm every stamp once —
  // amortized cost zero (the mid-run case is handled by the per-round
  // rebase below).
  constexpr int32_t kStale = internal::MailSlot::Meta(-1, 0);
  const auto advance_epoch = [&] {
    if (epoch_ >= internal::kMaxEpoch - 4) {
      for (auto& m : inbox_) m.meta = kStale;
      for (auto& m : outbox_) m.meta = kStale;
      epoch_ = 1;
    }
    epoch_ += 2;
  };
  std::unique_ptr<SnapshotData> snap;
  const RunStart start = BeginRun(alg, order_.data(), snap);
  if (start == RunStart::kResume) {
    // Restore the checkpointed boundary instead of starting fresh. The
    // epoch must advance BEFORE the deliverables are placed — they are
    // stamped epoch_ - 1, i.e. relative to the epoch the resumed round
    // runs under.
    advance_epoch();
    const SnapshotData::RunSection& run = snap->run;
    for (int v = 0; v < n; ++v) halted_[RankOf(v)] = run.halted[v];
    for (const SnapshotMessage& msg : run.deliverable) {
      const auto c = static_cast<size_t>(first_[RankOf(msg.node)] + msg.port);
      inbox_[c].word0 = msg.word0;
      inbox_[c].meta = internal::MailSlot::Meta(epoch_ - 1, msg.size);
    }
  } else if (start == RunStart::kFresh) {
    advance_epoch();
    std::fill(halted_.begin(), halted_.end(), 0);
  }
  if (start != RunStart::kContinue) {
    // The worklist is every live rank in ascending order. A continued run
    // keeps the one its pause left.
    active_.clear();
    for (int i = 0; i < n; ++i) {
      if (!halted_[i]) active_.push_back(i);
    }
  }
  unsigned char* const state_base = state_.data();
  const size_t stride = state_stride_;
  support::FaultInjector* const fault = fault_;

  // One context per shard: identical CSR views except for the per-shard
  // counter slots. Rebuilt per Run (T small).
  std::vector<NodeContext> ctxs;
  ctxs.reserve(T);
  for (int t = 0; t < T; ++t) {
    ctxs.push_back(NodeContext(graph_, ids_.data(), nullptr));
    NodeContext& ctx = ctxs.back();
    ctx.first_ = first_.data();
    ctx.send_chan_ = send_chan_.data();
    ctx.halted_ = halted_.data();
    ctx.sent_ = &shards_[t].sent;
    ctx.macc_ = digest_messages_ ? &shards_[t].macc : nullptr;
  }

  // Shard boundaries: contiguous worklist ranges, balanced to +-1. The
  // partition depends only on (active_now, T) — but even that choice is
  // transcript-invisible, since shards only reorder OnRound within the
  // round and all cross-shard writes are disjoint (see the class comment).
  int active_now = 0;
  auto shard_lo = [&](int t) {
    return static_cast<int>(static_cast<int64_t>(active_now) * t / T);
  };
  // The round task: visit this shard's range of the worklist and
  // stable-compact the survivors in place (rank order is preserved,
  // matching the reference engine). One std::function for the whole run
  // (the per-round state it reads is captured by reference), so tail
  // rounds fork without an allocation.
  const std::function<void(int)> round_task = [&](int t) {
    const int lo = shard_lo(t);
    const int hi = shard_lo(t + 1);
    NodeContext& ctx = ctxs[t];
    Shard& sh = shards_[t];
    int* const work = active_.data();
    const int r = round_;
    int kept = lo;
    int64_t decisions = 0;
    for (int idx = lo; idx < hi; ++idx) {
      const int i = work[idx];
      ctx.node_ = order_[i];
      ctx.rank_ = i;
      ctx.state_ = state_base + static_cast<size_t>(i) * stride;
      if (fault != nullptr) fault->OnVisit(r);
      const int64_t sb = sh.sent;
      alg.OnRound(ctx);
      // Halting is a decision. The halt is data-dependent, so it is folded
      // in without a branch: a halted rank is written to the worklist but
      // not kept.
      const bool halted = halted_[i] != 0;
      decisions += (sh.sent != sb || halted) ? 1 : 0;
      work[kept] = i;
      kept += halted ? 0 : 1;
    }
    sh.kept = kept - lo;
    sh.decisions = decisions;
  };

  // The round loop: every live node runs in every round.
  while (!active_.empty()) {
    // Round boundary: pause, fault, max_rounds, and the mid-run epoch
    // rebase (a single run of ~2^31 rounds keeps exactly this round's
    // deliverable messages visible and invalidates everything else — one
    // O(2m) pass per ~2^31 rounds).
    active_now = static_cast<int>(active_.size());
    if (PauseAtBoundary(pause_at_round, max_rounds, active_now)) {
      return round_;
    }
    if (epoch_ >= internal::kMaxEpoch - 2) {
      for (auto& m : outbox_) m.meta = kStale;
      for (auto& m : inbox_) {
        m.meta = m.stamp() == epoch_ - 1
                     ? internal::MailSlot::Meta(2, m.size())
                     : kStale;
      }
      epoch_ = 3;
    }
    // Opt-in round timer; it stops after the worklist is stitched, just
    // before the mailbox swap.
    StartRoundTimer();
    // Aim every shard's context at this round's mailboxes and epoch (the
    // mailboxes swap and the epoch moves every round) and zero the shard
    // counters.
    for (int t = 0; t < T; ++t) {
      NodeContext& ctx = ctxs[t];
      ctx.round_ = round_;
      ctx.inbox_ = inbox_.data();
      ctx.outbox_ = outbox_.data();
      ctx.epoch_ = epoch_;
      Shard& sh = shards_[t];
      sh.sent = 0;
      sh.macc = 0;
      sh.kept = 0;
    }
    pool_.ParallelFor(T, round_task);

    // The pool join is the visibility fence: record the round's stats and
    // digest from the shard sums (sums commute, so every total — and the
    // content accumulator — is independent of the sharding) and stitch
    // the shards' compacted prefixes into one dense worklist in engine
    // order.
    int64_t round_sent = 0;
    uint64_t round_macc = 0;
    int64_t decisions = 0;
    for (const Shard& sh : shards_) {
      round_sent += sh.sent;
      round_macc += sh.macc;
      decisions += sh.decisions;
    }
    RecordRound(active_now, round_sent, decisions, round_macc);
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
    StopRoundTimer();
    // Deliver: O(1) buffer swap; epoch stamps make clearing unnecessary.
    std::swap(inbox_, outbox_);
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
  b.mailboxes = bytes(inbox_) + bytes(outbox_);
  b.worklist = bytes(active_) + bytes(halted_) + bytes(order_) +
               bytes(perm_) + bytes(shards_);
  b.ids = bytes(ids_);
  b.state_plane = bytes(state_);
  b.run_log = bytes(round_stats_) + bytes(round_seconds_) +
              bytes(round_msg_acc_) + bytes(round_digests_);
  return b;
}

void Network::SaveBoundary(SnapshotData& snap) const {
  SnapshotData::RunSection& run = snap.run;
  const int n = graph_.NumNodes();
  run.halted.resize(n);
  for (int i = 0; i < n; ++i) run.halted[order_[i]] = halted_[i];
  if (snap.finished) return;
  // Deliverable messages: inbox slots stamped epoch - 1 (exactly what the
  // next round's Recv would see). Walking external nodes in order with
  // ports ascending yields the canonical sort for free. A stamped all-zero
  // slot is skipped: it is observationally identical to no message (Recv
  // hands the algorithm the same bytes as an empty Message), and skipping it
  // keeps the image canonical across the stamp-less reference engine too.
  // A finished run records none at all — every node has halted, so the
  // final round's leftovers are unobservable.
  for (int v = 0; v < n; ++v) {
    const int i = RankOf(v);
    for (int p = 0; p < first_[i + 1] - first_[i]; ++p) {
      const internal::MailSlot& m = inbox_[first_[i] + p];
      if (m.stamp() == epoch_ - 1 && (m.size() != 0 || m.word0 != 0)) {
        run.deliverable.push_back({v, p, m.word0, m.size()});
      }
    }
  }
}

}  // namespace treelocal::local
