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
  // Materialize the slot tables once: every channel access, the content
  // digest's inbox scan, and Resume's deliverable placement read them.
  // Slots fit int here (the base's ValidateChannelScale bounds 2m).
  inc_off_.assign(n + 1, 0);
  for (int v = 0; v < n; ++v) inc_off_[v + 1] = inc_off_[v] + graph.Degree(v);
  peer_.assign(channels, 0);
  slot_node_.assign(channels, 0);
  for (int v = 0; v < n; ++v) {
    int s = inc_off_[v];
    graph.ForEachNeighbor(v, [&](int u) {
      peer_[s] = inc_off_[u] + graph.PortOf(u, v);
      slot_node_[s] = v;
      ++s;
    });
  }
}

const Message& ReferenceNetwork::RecvAt(int node, int port) const {
  return inbox_[inc_off_[node] + port];
}

void ReferenceNetwork::SendAt(int node, int port, Message m) {
  Message& slot = outbox_[peer_[inc_off_[node] + port]];
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
  std::unique_ptr<SnapshotData> snap;
  const RunStart start = BeginRun(alg, /*inv=*/nullptr, snap);
  if (start == RunStart::kResume) {
    const SnapshotData::RunSection& run = snap->run;
    std::copy(run.halted.begin(), run.halted.end(), halted_.begin());
    num_halted_ = static_cast<int>(
        std::count(halted_.begin(), halted_.end(), char{1}));
    std::fill(inbox_.begin(), inbox_.end(), Message{});
    std::fill(outbox_.begin(), outbox_.end(), Message{});
    // Place each deliverable where the receiver's RecvAt(node, port) looks.
    for (const SnapshotMessage& msg : run.deliverable) {
      inbox_[inc_off_[msg.node] + msg.port] = Message{msg.word0, msg.size};
    }
  } else if (start == RunStart::kFresh) {
    num_halted_ = 0;
    std::fill(halted_.begin(), halted_.end(), 0);
    std::fill(inbox_.begin(), inbox_.end(), Message{});
    std::fill(outbox_.begin(), outbox_.end(), Message{});
  }
  // kContinue: everything is live as the pause left it.
  support::FaultInjector* const fault = fault_;

  NodeContext ctx(graph_, ids_.data(), this);
  while (num_halted_ < n) {
    if (PauseAtBoundary(pause_at_round, max_rounds, n - num_halted_)) {
      return round_;
    }
    StartRoundTimer();
    ctx.round_ = round_;
    const int active_now = n - num_halted_;
    int64_t decisions = 0;
    for (int v = 0; v < n; ++v) {
      if (halted_[v]) continue;
      ctx.node_ = v;
      ctx.state_ = state_.data() + static_cast<size_t>(v) * state_stride_;
      if (fault != nullptr) fault->OnVisit(round_);
      visit_sent_delta_ = 0;
      alg.OnRound(ctx);
      decisions += (visit_sent_delta_ != 0 || halted_[v]) ? 1 : 0;
    }
    // Deliver: what was sent this round is readable next round.
    std::swap(inbox_, outbox_);
    for (auto& m : outbox_) m = Message{};
    int64_t sent = 0;
    uint64_t macc = 0;
    for (size_t s = 0; s < inbox_.size(); ++s) {
      const Message& m = inbox_[s];
      if (m.present()) {
        ++sent;
        if (digest_messages_) {
          // Sender-keyed, like the optimized engines' Send-path hashing
          // (the naive engine pays its usual O(2m) scan instead).
          const int from = peer_[s];
          const int sender = slot_node_[from];
          macc += support::MessageHash(sender, from - inc_off_[sender],
                                       m.word0, m.size);
        }
      }
    }
    RecordRound(active_now, sent, decisions, macc);
    StopRoundTimer();
    ++round_;
  }
  return FinishRun();
}

void ReferenceNetwork::SaveBoundary(SnapshotData& snap) const {
  SnapshotData::RunSection& run = snap.run;
  run.halted = halted_;
  if (snap.finished) return;
  // The naive engine has no epoch stamps; a boundary inbox holds exactly
  // last round's sends (everything else was cleared), so any non-zero slot
  // is deliverable — the same canonical set the stamped engines record.
  const int n = graph_.NumNodes();
  for (int v = 0; v < n; ++v) {
    const int deg = graph_.Degree(v);
    for (int p = 0; p < deg; ++p) {
      const Message& m = RecvAt(v, p);
      if (m.size != 0 || m.word0 != 0) {
        run.deliverable.push_back({v, p, m.word0, m.size});
      }
    }
  }
}

}  // namespace treelocal::local
