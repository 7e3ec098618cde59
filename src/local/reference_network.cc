#include "src/local/reference_network.h"

#include <algorithm>

#include "src/local/snapshot.h"
#include "src/support/fault.h"

namespace treelocal::local {

namespace internal {

const Message& RefRecv(const ReferenceNetwork& ref, int node, int port) {
  return ref.RecvAt(node, port);
}

void RefSend(ReferenceNetwork& ref, int node, int port, Message m) {
  ref.SendAt(node, port, m);
}

void RefHalt(ReferenceNetwork& ref, int node) { ref.HaltAt(node); }

}  // namespace internal

ReferenceNetwork::ReferenceNetwork(GraphView graph, std::vector<int64_t> ids)
    : ReferenceNetwork(graph, std::move(ids), NetworkOptions{}) {}

ReferenceNetwork::ReferenceNetwork(GraphView graph, std::vector<int64_t> ids,
                                   const NetworkOptions& options)
    : Engine(graph, std::move(ids), options, "ReferenceNetwork",
             SnapshotEngineKind::kReferenceNetwork) {
  const int n = graph.NumNodes();
  const size_t channels = 2 * static_cast<size_t>(graph.NumEdges());
  inbox_.assign(channels, Message{});
  outbox_.assign(channels, Message{});
  halted_.assign(n, 0);
  wake_round_.assign(n, 0);
  // Materialize the port -> (edge, slot) tables and invert the channel
  // indexing once: Channel(e, s) holds what endpoint s of edge e sent, on
  // this port of the sender. Used by every channel access, the content
  // digest's inbox scan, and Resume's deliverable placement. Edge ids fit
  // int here (the base's ValidateChannelScale bounds 2m).
  inc_off_.assign(n + 1, 0);
  for (int v = 0; v < n; ++v) inc_off_[v + 1] = inc_off_[v] + graph.Degree(v);
  port_edge_.assign(channels, 0);
  port_slot_.assign(channels, 0);
  chan_sender_.assign(channels, 0);
  chan_port_.assign(channels, 0);
  for (int v = 0; v < n; ++v) {
    int p = 0;
    graph.ForEachNeighbor(v, [&](int u) {
      const int e = static_cast<int>(graph.EdgeBetween(v, u));
      const int slot = graph.Endpoints(e).first == v ? 0 : 1;
      port_edge_[inc_off_[v] + p] = e;
      port_slot_[inc_off_[v] + p] = slot;
      const size_t c = Channel(e, slot);
      chan_sender_[c] = v;
      chan_port_[c] = p;
      ++p;
    });
  }
}

const Message& ReferenceNetwork::RecvAt(int node, int port) const {
  const int i = inc_off_[node] + port;
  return inbox_[Channel(port_edge_[i], 1 - port_slot_[i])];
}

void ReferenceNetwork::SendAt(int node, int port, Message m) {
  const int i = inc_off_[node] + port;
  Message& slot = outbox_[Channel(port_edge_[i], port_slot_[i])];
  visit_sent_delta_ +=
      static_cast<int>(m.present()) - static_cast<int>(slot.present());
  slot = m;
}

void ReferenceNetwork::HaltAt(int node) {
  if (!halted_[node]) {
    halted_[node] = 1;
    ++num_halted_;
  }
}

int ReferenceNetwork::RunUntil(Algorithm& alg, int max_rounds,
                               int pause_at_round) {
  const int n = graph_.NumNodes();
  // As in Network: with wake_scheduling off every node wakes in round 0
  // and every visit re-wakes it for the next round.
  const bool honor_sleeps = wake_opt_;
  std::unique_ptr<SnapshotData> snap;
  const RunStart start = BeginRun(alg, /*inv=*/nullptr, snap);
  if (start == RunStart::kResume) {
    const SnapshotData::Instance& inst = snap->instances[0];
    std::copy(inst.halted.begin(), inst.halted.end(), halted_.begin());
    num_halted_ = static_cast<int>(
        std::count(halted_.begin(), halted_.end(), char{1}));
    std::fill(inbox_.begin(), inbox_.end(), Message{});
    std::fill(outbox_.begin(), outbox_.end(), Message{});
    // Place each deliverable where the receiver's RecvAt(node, port) looks:
    // the channel the far endpoint of that port sent on.
    for (const SnapshotMessage& msg : inst.deliverable) {
      const int i = inc_off_[msg.node] + msg.port;
      inbox_[Channel(port_edge_[i], 1 - port_slot_[i])] =
          Message{msg.word0, msg.word1, msg.size};
    }
    // The snapshot's wake plane is external-indexed — exactly this
    // engine's layout.
    for (int v = 0; v < n; ++v) {
      wake_round_[v] = honor_sleeps ? std::max(inst.wake[v], round_) : round_;
    }
  } else if (start == RunStart::kFresh) {
    num_halted_ = 0;
    std::fill(halted_.begin(), halted_.end(), 0);
    std::fill(inbox_.begin(), inbox_.end(), Message{});
    std::fill(outbox_.begin(), outbox_.end(), Message{});
    for (int v = 0; v < n; ++v) {
      const int w = honor_sleeps ? alg.InitialWakeRound(v) : 0;
      wake_round_[v] = w <= 0 ? 0 : (w >= kNoWakeRound ? kNoWakeRound : w);
    }
  }
  // kContinue: everything is live as the pause left it (including the wake
  // rounds; the naive engine keeps no calendar, so there is nothing to
  // rebuild).
  support::FaultInjector* const fault = fault_;

  NodeContext ctx(graph_, ids_.data(), /*degree=*/nullptr, this);
  while (num_halted_ < n) {
    if (PauseAtBoundary(pause_at_round, max_rounds, n - num_halted_)) {
      return round_;
    }
    StartRoundTimer();
    ctx.round_ = round_;
    const int active_now = n - num_halted_;
    int64_t visits = 0;
    int64_t decisions = 0;
    for (int v = 0; v < n; ++v) {
      if (halted_[v] || wake_round_[v] != round_) continue;
      ctx.node_ = v;
      ctx.state_ = state_.data() + static_cast<size_t>(v) * state_stride_;
      ctx.sleep_until_ = round_ + 1;
      if (fault != nullptr) fault->OnVisit(round_);
      visit_sent_delta_ = 0;
      alg.OnRound(ctx);
      ++visits;
      decisions += (visit_sent_delta_ != 0 || halted_[v]) ? 1 : 0;
      if (!halted_[v]) {
        wake_round_[v] = honor_sleeps && ctx.sleep_until_ > round_
                             ? ctx.sleep_until_
                             : round_ + 1;
      }
    }
    // Deliver: what was sent this round is readable next round.
    std::swap(inbox_, outbox_);
    for (auto& m : outbox_) m = Message{};
    int64_t sent = 0;
    uint64_t macc = 0;
    for (size_t c = 0; c < inbox_.size(); ++c) {
      const Message& m = inbox_[c];
      if (m.present()) {
        ++sent;
        if (digest_messages_) {
          // Sender-keyed, like the optimized engines' Send-path hashing
          // (the naive engine pays its usual O(2m) scan instead).
          macc += support::MessageHash(chan_sender_[c], chan_port_[c],
                                       m.word0, m.word1, m.size);
        }
      }
      if (m.size != 0 || m.word0 != 0 || m.word1 != 0) {
        // Message-wake invariant, spelled out: the receiver of channel
        // Channel(e, s) is the sender of Channel(e, 1-s), i.e. the other
        // endpoint. Any observable delivery pulls a sleeping receiver to
        // the next round.
        const int recv = chan_sender_[c ^ size_t{1}];
        if (!halted_[recv] && wake_round_[recv] > round_ + 1) {
          wake_round_[recv] = round_ + 1;
          ++wakes_;
        }
      }
    }
    RecordRound(active_now, sent, visits, decisions, macc);
    StopRoundTimer();
    ++round_;
  }
  return FinishRun();
}

void ReferenceNetwork::SaveBoundary(SnapshotData& snap) const {
  SnapshotData::Instance& inst = snap.instances[0];
  inst.halted = halted_;
  inst.wake = wake_round_;
  if (snap.finished) return;
  // The naive engine has no epoch stamps; a boundary inbox holds exactly
  // last round's sends (everything else was cleared), so any non-zero slot
  // is deliverable — the same canonical set the stamped engines record.
  const int n = graph_.NumNodes();
  for (int v = 0; v < n; ++v) {
    const int deg = graph_.Degree(v);
    for (int p = 0; p < deg; ++p) {
      const Message& m = RecvAt(v, p);
      if (m.size != 0 || m.word0 != 0 || m.word1 != 0) {
        inst.deliverable.push_back({v, p, m.word0, m.word1, m.size});
      }
    }
  }
}

}  // namespace treelocal::local
