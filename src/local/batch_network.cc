#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>

#if defined(__linux__)
#include <sys/mman.h>
#endif

#include "src/local/network.h"
#include "src/local/snapshot.h"
#include "src/support/fault.h"

namespace treelocal::local {

namespace {

// The batch mailboxes span gigabytes at million-node scale, and the scatter
// pass takes one TLB fill per random destination cluster; on 4 KiB pages
// the page walks become a bottleneck. Ask the kernel for transparent
// hugepages (the common default THP mode is "madvise", so without this hint
// the buffers stay on small pages). Best-effort: failure just means small
// pages.
void AdviseHugePages(void* data, size_t bytes) {
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  const auto addr = reinterpret_cast<uintptr_t>(data);
  const uintptr_t page = 4096;
  const uintptr_t begin = (addr + page - 1) & ~(page - 1);
  const uintptr_t end = (addr + bytes) & ~(page - 1);
  if (end > begin) {
    madvise(reinterpret_cast<void*>(begin), end - begin, MADV_HUGEPAGE);
  }
#else
  (void)data;
  (void)bytes;
#endif
}

}  // namespace

BatchNetwork::~BatchNetwork() = default;  // out of line: pending_resume_

BatchNetwork::BatchNetwork(GraphView graph, std::vector<int64_t> ids,
                           int batch)
    : BatchNetwork(graph, std::move(ids), batch, NetworkOptions{}) {}

BatchNetwork::BatchNetwork(GraphView graph, std::vector<int64_t> ids,
                           int batch, const NetworkOptions& options)
    : graph_(graph), ids_(std::move(ids)), batch_(batch) {
  assert(static_cast<int>(ids_.size()) == graph.NumNodes());
  if (batch < 1) {
    throw std::invalid_argument("BatchNetwork batch must be >= 1");
  }
  internal::ValidateChannelScale(graph.NumNodes(), graph.NumEdges(),
                                 "BatchNetwork");
  digest_messages_ = options.digest_messages;
  fault_ = options.fault;
  wake_opt_ = options.wake_scheduling;
  const int n = graph.NumNodes();
  const size_t slots =
      2 * static_cast<size_t>(graph.NumEdges()) * static_cast<size_t>(batch);

  // Same relabel scheme as Network: the channel clusters (and, per run, the
  // state planes) are laid out by BFS rank while first_ and every halt/wake
  // plane stay external-indexed, so the NodeContext hot paths are identical
  // either way and only the physical layout + within-round iteration order
  // change — neither observable in the LOCAL model.
  std::vector<int> perm;
  if (options.relabel) perm = internal::BfsOrder(graph);
  internal::BuildChannelTables(graph, perm.empty() ? nullptr : perm.data(),
                               first_, send_chan_, degree_);
  order_ = internal::WorklistOrder(n, perm);
  perm_ = std::move(perm);

  // Reserve first and advise hugepages before the fill faults the pages in
  // (the hint only helps pages faulted after it).
  stage_.reserve(slots);
  inbox_.reserve(slots);
  AdviseHugePages(stage_.data(), slots * sizeof(Message));
  AdviseHugePages(inbox_.data(), slots * sizeof(Message));
  stage_.assign(slots, Message{});
  inbox_.assign(slots, Message{});
  const size_t channels = 2 * static_cast<size_t>(graph.NumEdges());
  plane_ = channels;
  dirty_stamp_.assign(channels, -1);
  dirty_.reserve(channels);
  live_.reserve(batch);
  halted_.assign(static_cast<size_t>(n) * batch, 0);
  node_live_.assign(n, batch);
  live_nodes_.assign(batch, n);
  active_.reserve(n);
  messages_delivered_.assign(batch, 0);
  round_stats_.resize(batch);
  rounds_.assign(batch, 0);
  round_active_.assign(batch, 0);
  sent_before_.assign(batch, 0);
  macc_before_.assign(batch, 0);
  live_at_start_.assign(batch, 0);
  round_decisions_.assign(batch, 0);
  wakes_.assign(batch, 0);
  round_msg_acc_.resize(batch);
  round_digests_.resize(batch);
  digest_.assign(batch, support::kDigestSeed);
  msg_acc_.assign(batch, 0);
}

std::vector<int> BatchNetwork::Run(const std::vector<Algorithm*>& algs,
                                   int max_rounds) {
  return RunUntil(algs, max_rounds, -1);
}

std::vector<int> BatchNetwork::RunUntil(const std::vector<Algorithm*>& algs,
                                        int max_rounds, int pause_at_round) {
  if (static_cast<int>(algs.size()) != batch_) {
    throw std::invalid_argument("BatchNetwork::Run needs one Algorithm per instance");
  }
  const int n = graph_.NumNodes();
  const int B = batch_;

  // Engine-managed state: one instance-major plane per instance (layout
  // mirrors the staging buffer, so the cache-blocked node pass streams each
  // instance's state sequentially). A batch is one shared pass, so every
  // instance must declare the same slot size.
  const size_t stride = algs[0]->StateBytes();
  for (const Algorithm* alg : algs) {
    if (alg->StateBytes() != stride) {
      throw std::invalid_argument(
          "BatchNetwork::Run requires one uniform Algorithm::StateBytes "
          "across the batch");
    }
  }

  // A batch run is scheduled iff the engine option is on and EVERY
  // instance's algorithm opts in; a mixed batch falls back to the legacy
  // always-visit pass, which is transcript-identical by construction.
  bool scheduled = wake_opt_;
  for (const Algorithm* alg : algs) scheduled = scheduled && alg->WakeScheduled();

  if (pending_resume_ != nullptr) {
    const std::unique_ptr<SnapshotData> snap = std::move(pending_resume_);
    ApplySnapshot(*snap, stride);
    std::fill(wakes_.begin(), wakes_.end(), 0);
  } else if (!mid_run_) {
    state_stride_ = stride;
    state_plane_bytes_ = stride * static_cast<size_t>(n);
    const size_t state_total = state_plane_bytes_ * static_cast<size_t>(B);
    if (state_.capacity() < state_total) {
      // Same hugepage treatment as the mailboxes: advise before the fill
      // faults the pages in. Re-arms with no reallocation once warm.
      state_.reserve(state_total);
      AdviseHugePages(state_.data(), state_total);
    }
    state_.assign(state_total, 0);
    if (stride > 0) {
      // Rank-indexed planes (slot i belongs to external node order_[i]), so
      // the dense pass streams state in worklist order under relabel too.
      for (int b = 0; b < B; ++b) {
        unsigned char* plane = state_.data() + state_plane_bytes_ * b;
        for (int i = 0; i < n; ++i) {
          algs[b]->InitState(order_[i], plane + static_cast<size_t>(i) * stride);
        }
      }
    }

    round_ = 0;
    std::fill(messages_delivered_.begin(), messages_delivered_.end(), 0);
    for (auto& stats : round_stats_) stats.clear();
    std::fill(rounds_.begin(), rounds_.end(), 0);
    for (auto& maccs : round_msg_acc_) maccs.clear();
    for (auto& digests : round_digests_) digests.clear();
    std::fill(digest_.begin(), digest_.end(), support::kDigestSeed);
    std::fill(msg_acc_.begin(), msg_acc_.end(), 0);
    // Same epoch scheme and wrap guards as Network::Run: advance by 2 so round
    // 0 cannot see the previous run's stamps; re-arm once (amortized zero)
    // when the 32-bit stamp nears the wrap, both between runs and mid-run.
    if (epoch_ >= INT32_MAX - 4) {
      for (auto& m : stage_) m.engine_stamp = -1;
      for (auto& m : inbox_) m.engine_stamp = -1;
      std::fill(dirty_stamp_.begin(), dirty_stamp_.end(), -1);
      epoch_ = 1;
    }
    epoch_ += 2;
    dirty_.clear();  // a previous Run may have thrown mid-round
    std::fill(halted_.begin(), halted_.end(), 0);
    std::fill(node_live_.begin(), node_live_.end(), B);
    std::fill(live_nodes_.begin(), live_nodes_.end(), n);
    active_.resize(n);  // internal ranks 0..n-1 (== external ids sans relabel)
    std::iota(active_.begin(), active_.end(), 0);
    std::fill(wakes_.begin(), wakes_.end(), 0);
    if (scheduled) {
      // Per-(node, instance) initial wake rounds, clamped like the solo
      // engines (<= 0 means round 0; anything at or past kNoWakeRound
      // parks the pair until a message arrives).
      wake_.assign(static_cast<size_t>(n) * B, 0);
      for (int b = 0; b < B; ++b) {
        for (int v = 0; v < n; ++v) {
          const int w = algs[b]->InitialWakeRound(v);
          wake_[static_cast<size_t>(v) * B + b] =
              w <= 0 ? 0 : (w >= kNoWakeRound ? kNoWakeRound : w);
        }
      }
    }
  }
  // else: continuing a paused run (same algorithm objects) — all per-run
  // state is live exactly as the pause left it (wake_ included).
  mid_run_ = false;
  finished_ = false;
  support::FaultInjector* const fault = fault_;

  calendar_.clear();
  // Calendar push (sleeps and message wakes), bounded by max_rounds:
  // entries at or past it stay parked — if the pair never wakes earlier,
  // the run throws at max_rounds first.
  const auto push_cal = [this, max_rounds](int w, int64_t code) {
    if (w >= max_rounds) return;
    if (static_cast<size_t>(w) >= calendar_.size()) {
      calendar_.resize(static_cast<size_t>(w) + 1);
    }
    calendar_[static_cast<size_t>(w)].push_back(code);
  };
  if (scheduled) {
    if (chan_owner_.empty()) {
      // recv channel -> receiver EXTERNAL node (the wake/halt planes are
      // external-indexed; under relabel first_[v] already points into the
      // BFS-laid channel space, so this covers every channel either way).
      chan_owner_.assign(static_cast<size_t>(2) * graph_.NumEdges(), 0);
      for (int v = 0; v < n; ++v) {
        const int lo = first_[v];
        const int hi = lo + degree_[v];  // not first_[v + 1]: see
                                         // BuildChanOwner on relabel
        for (int c = lo; c < hi; ++c) chan_owner_[c] = v;
      }
    }
    // (Re)build the calendar wholesale from the wake plane under THIS
    // call's max_rounds — uniform across fresh runs, resumes, and paused
    // continuations (whose previous calendar may have been built under a
    // different bound, or partially drained before an exception).
    for (int b = 0; b < B; ++b) {
      for (int v = 0; v < n; ++v) {
        const auto code = static_cast<int64_t>(v) * B + b;
        if (halted_[static_cast<size_t>(code)]) continue;
        int32_t w = wake_[static_cast<size_t>(code)];
        if (w < round_) w = round_;  // resumed plane: awake at the boundary
        wake_[static_cast<size_t>(code)] = w;
        push_cal(w, code);
      }
    }
  }
  scheduled_ = scheduled;

  NodeContext ctx(graph_, ids_.data(), degree_.data(), this, nullptr);
  while (!active_.empty()) {
    if (round_ == pause_at_round) {
      // Pause at the shared batch boundary before this round. A live
      // instance reports the rounds it has run so far; a finished one its
      // frozen solo count.
      mid_run_ = true;
      std::vector<int> out(B);
      for (int b = 0; b < B; ++b) {
        out[b] = live_nodes_[b] > 0 ? round_ : rounds_[b];
      }
      return out;
    }
    if (fault != nullptr) fault->AtRoundBoundary(round_);
    if (round_ >= max_rounds) {
      uint64_t folded = support::kDigestSeed;
      for (uint64_t d : digest_) folded = support::Mix64(folded ^ d);
      throw MaxRoundsExceededError("BatchNetwork::Run", round_,
                                   static_cast<int64_t>(active_.size()),
                                   folded);
    }
    if (epoch_ >= INT32_MAX - 2) {
      // Mid-run rebase, as in Network::Run: keep exactly this round's
      // deliverable inbox messages visible, invalidate everything else
      // (staged and dirty stamps included — a stale stamp equal to a
      // future epoch would fake a send).
      for (auto& m : stage_) m.engine_stamp = -1;
      for (auto& m : inbox_) {
        m.engine_stamp = m.engine_stamp == epoch_ - 1 ? 2 : -1;
      }
      std::fill(dirty_stamp_.begin(), dirty_stamp_.end(), -1);
      epoch_ = 3;
    }
    // Instances with no live node at round start skip their slices and
    // their scatter outright (an instance halting its last node mid-round
    // still finishes the round via the per-node halted_ checks), so a
    // long-tailed instance mix degrades toward solo cost.
    live_.clear();
    for (int b = 0; b < B; ++b) {
      round_active_[b] = 0;
      round_decisions_[b] = 0;
      live_at_start_[b] = live_nodes_[b];
      sent_before_[b] = messages_delivered_[b];
      macc_before_[b] = msg_acc_[b];
      if (live_nodes_[b] > 0) live_.push_back(b);
    }
    const int active_now = static_cast<int>(active_.size());
    ctx.round_ = round_;
    if (scheduled) {
      // Wake-bucket pass: drain the round's bucket instead of walking the
      // shared worklist. Entries are (node, instance) codes; an entry is
      // live iff the pair is unhalted and its wake round still equals this
      // round (every visit and every message wake moves the wake round past
      // it, so stale duplicates self-invalidate — no bucket dedup needed).
      // The cache-blocked streaming of the dense pass is deliberately given
      // up here: a scheduled round's visit set is sparse by design.
      std::vector<int64_t> bucket;
      if (static_cast<size_t>(round_) < calendar_.size()) {
        bucket.swap(calendar_[static_cast<size_t>(round_)]);
      }
      for (const int64_t code : bucket) {
        const int v = static_cast<int>(code / B);
        const int b = static_cast<int>(code % B);
        if (halted_[static_cast<size_t>(code)] ||
            wake_[static_cast<size_t>(code)] != round_) {
          continue;
        }
        ctx.instance_ = b;
        ctx.node_ = v;
        // State planes are rank-indexed; codes stay external (the sparse
        // scheduled path gave up streaming anyway, so one perm lookup per
        // visit is the whole relabel cost here).
        const auto slot = static_cast<size_t>(perm_.empty() ? v : perm_[v]);
        ctx.state_ =
            state_.data() + state_plane_bytes_ * b + slot * state_stride_;
        ctx.sleep_until_ = round_ + 1;
        if (fault != nullptr) fault->OnVisit(round_);
        const int64_t sb = messages_delivered_[b];
        algs[b]->OnRound(ctx);
        ++round_active_[b];
        if (halted_[static_cast<size_t>(code)]) {
          ++round_decisions_[b];  // halting is a decision; Halt wins over
          continue;               // any sleep the visit also declared
        }
        round_decisions_[b] += messages_delivered_[b] != sb ? 1 : 0;
        const int32_t s = ctx.sleep_until_;
        const int32_t w =
            s <= round_ ? round_ + 1 : (s >= kNoWakeRound ? kNoWakeRound : s);
        wake_[static_cast<size_t>(code)] = w;
        push_cal(w, code);
      }
    } else {
      // One pass over the shared worklist serves every live instance at
      // each node. Per instance the OnRound order is increasing node index,
      // exactly the solo Network::Run schedule, and instances never alias
      // channels — so each instance's transcript is bit-identical to its
      // solo run.
      //
      // The pass is cache-blocked: nodes are processed in chunks with the
      // instance loop in the middle. Within a (chunk, instance) slice the
      // instance's state plane and staging plane stream sequentially (a
      // per-node instance loop would interleave many per-instance streams
      // and defeat the prefetcher), and the chunk's inbox cluster lines —
      // faulted in by the first live instance's Recv scan — stay cached
      // for the remaining instances.
      constexpr int kChunk = 512;
      for (int lo = 0; lo < active_now; lo += kChunk) {
        const int hi = std::min(lo + kChunk, active_now);
        for (int b : live_) {
          ctx.instance_ = b;
          unsigned char* const state_plane =
              state_.data() + state_plane_bytes_ * b;
          for (int i = lo; i < hi; ++i) {
            // The worklist holds internal ranks: state streams at the rank
            // stride while the halt/mailbox planes stay external — under
            // identity (no relabel) r == v.
            const int r = active_[i];
            const int v = order_[r];
            const auto idx = static_cast<size_t>(v) * B + b;
            if (halted_[idx]) continue;
            ctx.node_ = v;
            ctx.state_ = state_plane + static_cast<size_t>(r) * state_stride_;
            if (fault != nullptr) fault->OnVisit(round_);
            const int64_t sb = messages_delivered_[b];
            algs[b]->OnRound(ctx);
            ++round_active_[b];
            round_decisions_[b] +=
                (messages_delivered_[b] != sb || halted_[idx]) ? 1 : 0;
          }
        }
      }
    }
    // Deliver: scatter each dirty channel's staged live-instance slots to
    // the receiver-indexed inbox — the only random accesses of the round,
    // each moving up to 24*B bytes, prefetched ahead so many line/TLB
    // fills stay in flight. Copying a live instance's slot that was NOT
    // written this round is harmless: its stamp is below this epoch, so
    // next round's visibility check filters it — which is why whole-cluster
    // prefetch is legal when every instance is live. O(channels written
    // this round), not O(m).
    {
      const auto cluster = static_cast<size_t>(B);
      const bool all_live = static_cast<int>(live_.size()) == B;
      const size_t cluster_bytes = sizeof(Message) * cluster;
      constexpr size_t kPrefetchAhead = 32;
      const size_t dirty_count = dirty_.size();
      for (size_t i = 0; i < dirty_count; ++i) {
        if (i + kPrefetchAhead < dirty_count) {
          const auto ahead =
              static_cast<size_t>(send_chan_[dirty_[i + kPrefetchAhead]]);
          const char* base =
              reinterpret_cast<const char*>(&inbox_[ahead * cluster]);
          if (all_live) {
            // The cluster spans ceil(24*B/64) lines; one prefetch per line.
            for (size_t off = 0; off < cluster_bytes; off += 64) {
              __builtin_prefetch(base + off, 1);
            }
          } else {
            for (int b : live_) {
              __builtin_prefetch(base + sizeof(Message) * b, 1);
            }
          }
        }
        const auto chan = static_cast<size_t>(dirty_[i]);
        const auto dest = static_cast<size_t>(send_chan_[chan]);
        // Layout conversion: gather the channel's slot from each live
        // instance's plane (the dirty list is roughly channel-ascending,
        // so these are interleaved sequential streams) into the
        // contiguous inbox cluster (one random write region).
        for (int b : live_) {
          inbox_[dest * cluster + b] = stage_[plane_ * b + chan];
        }
        if (scheduled) {
          // Message-wake check, folded into the scatter because it sees
          // the FINAL staged values (the node pass is over, so last-write-
          // wins has resolved — no post-hoc verification scan needed, unlike
          // the CSR engines): an observable message stamped this round
          // pulls its sleeping receiver pair to the next round's bucket.
          // Halt wins (a pair that halted this round is never woken), and a
          // pair already due next round needs nothing.
          const int recv = chan_owner_[dest];
          for (int b : live_) {
            const Message& m = stage_[plane_ * b + chan];
            if (m.engine_stamp != epoch_ ||
                (m.size == 0 && m.word0 == 0 && m.word1 == 0)) {
              continue;
            }
            const auto code = static_cast<int64_t>(recv) * B + b;
            if (!halted_[static_cast<size_t>(code)] &&
                wake_[static_cast<size_t>(code)] > round_ + 1) {
              wake_[static_cast<size_t>(code)] = round_ + 1;
              ++wakes_[b];
              push_cal(round_ + 1, code);
            }
          }
        }
      }
      dirty_.clear();
    }
    // Compact the worklist after every instance has visited every node.
    size_t kept = 0;
    for (int i = 0; i < active_now; ++i) {
      const int r = active_[i];
      active_[kept] = r;
      kept += node_live_[order_[r]] > 0 ? 1 : 0;
    }
    active_.resize(kept);
    for (int b = 0; b < B; ++b) {
      // Record gate and active_nodes are the live count at round start —
      // which is exactly what the legacy pass's ran-this-round count was,
      // and stays meaningful under scheduling where a live instance's
      // visit count can be anything down to zero (rounds always tick).
      if (live_at_start_[b] == 0) continue;  // instance finished earlier
      const int64_t sent_delta = messages_delivered_[b] - sent_before_[b];
      // Unsigned subtraction: the accumulator is cumulative mod 2^64, so
      // the watermark delta is exactly this round's hash sum.
      const uint64_t macc_delta = msg_acc_[b] - macc_before_[b];
      round_stats_[b].push_back({live_at_start_[b], sent_delta,
                                 round_active_[b], round_decisions_[b]});
      round_msg_acc_[b].push_back(macc_delta);
      digest_[b] = support::ChainDigest(digest_[b], live_at_start_[b],
                                        sent_delta, macc_delta);
      round_digests_[b].push_back(digest_[b]);
      // Instance b halted its last node this round: its solo run would have
      // exited here, so its round count freezes while the batch continues.
      if (live_nodes_[b] == 0) rounds_[b] = round_ + 1;
    }
    ++round_;
    ++epoch_;
  }
  finished_ = true;
  return rounds_;
}

void BatchNetwork::Checkpoint(std::ostream& out) const {
  if (!mid_run_ && !finished_) {
    throw SnapshotError(
        "BatchNetwork::Checkpoint: engine is not at a round boundary (pause "
        "with RunUntil or let a run finish first)");
  }
  const int n = graph_.NumNodes();
  const int B = batch_;
  SnapshotData snap;
  snap.engine_kind = SnapshotEngineKind::kBatchNetwork;
  snap.digest_messages = digest_messages_;
  snap.finished = finished_;
  snap.batch = B;
  snap.round = round_;
  internal::SetInputSections(graph_, ids_, snap);
  snap.instances.resize(static_cast<size_t>(B));
  for (int b = 0; b < B; ++b) {
    SnapshotData::Instance& inst = snap.instances[static_cast<size_t>(b)];
    inst.messages_delivered = messages_delivered_[b];
    inst.rounds_completed = rounds_[b];
    inst.rounds.resize(round_stats_[b].size());
    for (size_t r = 0; r < round_stats_[b].size(); ++r) {
      inst.rounds[r] = {round_stats_[b][r], round_msg_acc_[b][r],
                        round_digests_[b][r]};
    }
    // Halt flags and state planes are external-indexed already; only the
    // (node, instance) interleave needs unzipping.
    inst.halted.resize(static_cast<size_t>(n));
    for (int v = 0; v < n; ++v) {
      inst.halted[v] = halted_[static_cast<size_t>(v) * B + b];
    }
    // Canonical wake plane, as in BuildSoloSnapshot: halted -> 0; every
    // live pair of an unscheduled run is awake at the boundary; a
    // scheduled run records the pair's wake round.
    inst.wake.resize(static_cast<size_t>(n));
    for (int v = 0; v < n; ++v) {
      const auto idx = static_cast<size_t>(v) * B + b;
      inst.wake[v] = halted_[idx] ? 0
                     : (!scheduled_ || wake_.empty()) ? round_
                                                      : wake_[idx];
    }
    inst.state_stride = static_cast<uint32_t>(state_stride_);
    // The snapshot's state section is canonically external-indexed; the
    // engine's plane is rank-indexed, so under relabel it is gathered slot
    // by slot (identity keeps the straight plane copy).
    const auto* plane = state_.data() + state_plane_bytes_ * b;
    if (perm_.empty()) {
      inst.state.assign(plane, plane + state_plane_bytes_);
    } else {
      inst.state.resize(state_plane_bytes_);
      for (int v = 0; v < n; ++v) {
        const auto* src =
            plane + static_cast<size_t>(perm_[v]) * state_stride_;
        std::copy(src, src + state_stride_,
                  inst.state.begin() +
                      static_cast<ptrdiff_t>(static_cast<size_t>(v) *
                                             state_stride_));
      }
    }
    // Deliverables: instance b's inbox slots stamped epoch - 1, walked in
    // external (node, port) order — the canonical sort for free. Stamped
    // all-zero slots are skipped, and a fully-halted instance records
    // none, both as in BuildSoloSnapshot — the latter is what makes an
    // instance that finished rounds before the batch serialize identically
    // to its solo run.
    if (live_nodes_[b] > 0) {
      for (int v = 0; v < n; ++v) {
        const int deg = degree_[v];
        for (int p = 0; p < deg; ++p) {
          const Message& m =
              inbox_[static_cast<size_t>(first_[v] + p) * B + b];
          if (m.engine_stamp == epoch_ - 1 &&
              (m.size != 0 || m.word0 != 0 || m.word1 != 0)) {
            inst.deliverable.push_back({v, p, m.word0, m.word1, m.size});
          }
        }
      }
    }
  }
  WriteSnapshot(out, snap);
}

void BatchNetwork::Resume(std::istream& in) {
  SnapshotData snap = ReadSnapshot(in);
  internal::ValidateForEngine(snap, graph_, ids_, batch_, digest_messages_,
                              "BatchNetwork");
  pending_resume_ = std::make_unique<SnapshotData>(std::move(snap));
  mid_run_ = false;
  finished_ = false;
}

void BatchNetwork::ApplySnapshot(const SnapshotData& snap, size_t stride) {
  const int n = graph_.NumNodes();
  const int B = batch_;
  for (const auto& inst : snap.instances) {
    if (inst.state_stride != stride) {
      throw SnapshotError(
          "resume state stride mismatch: snapshot has " +
          std::to_string(inst.state_stride) +
          " bytes/node, algorithm declares " + std::to_string(stride) +
          " (resumed with a different Algorithm?)");
    }
  }
  // Epoch advance (with the pre-run wrap guard) before the deliverables are
  // stamped epoch_ - 1, as in the solo engines.
  if (epoch_ >= INT32_MAX - 4) {
    for (auto& m : stage_) m.engine_stamp = -1;
    for (auto& m : inbox_) m.engine_stamp = -1;
    std::fill(dirty_stamp_.begin(), dirty_stamp_.end(), -1);
    epoch_ = 1;
  }
  epoch_ += 2;
  dirty_.clear();
  state_stride_ = stride;
  state_plane_bytes_ = stride * static_cast<size_t>(n);
  const size_t state_total = state_plane_bytes_ * static_cast<size_t>(B);
  if (state_.capacity() < state_total) {
    state_.reserve(state_total);
    AdviseHugePages(state_.data(), state_total);
  }
  state_.assign(state_total, 0);
  round_ = snap.round;
  std::fill(node_live_.begin(), node_live_.end(), 0);
  for (int b = 0; b < B; ++b) {
    const SnapshotData::Instance& inst =
        snap.instances[static_cast<size_t>(b)];
    int live = 0;
    for (int v = 0; v < n; ++v) {
      const char h = inst.halted[v];
      halted_[static_cast<size_t>(v) * B + b] = h;
      if (!h) {
        ++node_live_[v];
        ++live;
      }
    }
    live_nodes_[b] = live;
    // A live instance has executed every batch round so far; a finished one
    // froze at rounds_completed — either way its history length is pinned.
    const auto expect = static_cast<size_t>(
        live > 0 ? snap.round : inst.rounds_completed);
    if (inst.rounds.size() != expect) {
      throw SnapshotError(
          "invalid snapshot: instance round history disagrees with its halt "
          "state");
    }
    messages_delivered_[b] = inst.messages_delivered;
    rounds_[b] = inst.rounds_completed;
    round_stats_[b].clear();
    round_msg_acc_[b].clear();
    round_digests_[b].clear();
    digest_[b] = support::kDigestSeed;
    for (const SnapshotRound& r : inst.rounds) {
      round_stats_[b].push_back(r.stats);
      round_msg_acc_[b].push_back(r.msg_acc);
      round_digests_[b].push_back(r.digest);
      digest_[b] = r.digest;
    }
    msg_acc_[b] = 0;
    // Inverse of the Checkpoint gather: external-indexed snapshot state
    // scattered into the rank-indexed plane.
    if (perm_.empty()) {
      std::copy(
          inst.state.begin(), inst.state.end(),
          state_.begin() + static_cast<ptrdiff_t>(state_plane_bytes_ * b));
    } else {
      unsigned char* plane = state_.data() + state_plane_bytes_ * b;
      for (int v = 0; v < n; ++v) {
        const auto off = static_cast<size_t>(v) * stride;
        std::copy(inst.state.begin() + static_cast<ptrdiff_t>(off),
                  inst.state.begin() + static_cast<ptrdiff_t>(off + stride),
                  plane + static_cast<size_t>(perm_[v]) * stride);
      }
    }
    for (const SnapshotMessage& msg : inst.deliverable) {
      Message& slot =
          inbox_[static_cast<size_t>(first_[msg.node] + msg.port) * B + b];
      slot.word0 = msg.word0;
      slot.word1 = msg.word1;
      slot.size = msg.size;
      slot.engine_stamp = epoch_ - 1;
    }
  }
  // Restore the wake plane unconditionally (cheap next to the mailboxes);
  // whether the resuming run honors it is RunUntil's scheduled flag — an
  // unscheduled resume just ignores it, a scheduled resume of an
  // unscheduled snapshot re-engages sleeps from "everyone awake".
  wake_.assign(static_cast<size_t>(n) * B, 0);
  for (int b = 0; b < B; ++b) {
    const std::vector<int32_t>& wk =
        snap.instances[static_cast<size_t>(b)].wake;
    for (int v = 0; v < n; ++v) {
      wake_[static_cast<size_t>(v) * B + b] = wk[static_cast<size_t>(v)];
    }
  }
  // Worklist invariant as in the solo engines: stable compaction from iota
  // leaves the live ranks in ascending (engine) order.
  active_.clear();
  for (int i = 0; i < n; ++i) {
    if (node_live_[order_[i]] > 0) {
      active_.push_back(i);
    }
  }
}

}  // namespace treelocal::local
