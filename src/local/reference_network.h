#ifndef TREELOCAL_LOCAL_REFERENCE_NETWORK_H_
#define TREELOCAL_LOCAL_REFERENCE_NETWORK_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/local/network.h"

namespace treelocal::local {

// Naive reference implementation of the LOCAL engine, kept for differential
// testing of the optimized Network. Semantics are identical by contract
// (same Algorithm/NodeContext interface, same round/message accounting);
// the implementation is deliberately the straightforward one:
//   * channels recomputed per access from IncidentEdges + EndpointSlot,
//   * per-round O(2m) outbox clear and O(2m) delivered-message scan,
//   * per-round O(n) scan over all nodes, halted or not.
// Per-round cost is O(n + m) regardless of how many nodes are still active —
// exactly the behavior the optimized engine eliminates.
class ReferenceNetwork {
 public:
  // Accepts either backend via the implicit GraphView conversions; the
  // view (and the backend behind it) must outlive the engine.
  ReferenceNetwork(GraphView graph, std::vector<int64_t> ids);
  // Options form: honors digest_messages (content hashing here is a naive
  // O(2m)-per-round inbox scan — reference semantics, reference cost),
  // fault and wake_scheduling; relabel is accepted and ignored (pure layout, transcripts are
  // relabel-invariant by contract, and the naive engine has no layout).
  ReferenceNetwork(GraphView graph, std::vector<int64_t> ids,
                   const NetworkOptions& options);

  ~ReferenceNetwork();

  // Same contract as Network::Run.
  int Run(Algorithm& alg, int max_rounds);

  // Pause/checkpoint/resume, same contract as Network: the snapshot is
  // canonical, so the oracle can pick up any solo engine's checkpoint and
  // vice versa — the strongest differential check of the resume path.
  int RunUntil(Algorithm& alg, int max_rounds, int pause_at_round);
  bool paused() const { return mid_run_; }
  bool finished() const { return finished_; }
  void Checkpoint(std::ostream& out) const;
  void Resume(std::istream& in);

  const Graph& graph() const {
    return graph_.RequireCsr("ReferenceNetwork::graph()");
  }
  GraphView view() const { return graph_; }
  const std::vector<int64_t>& ids() const { return ids_; }
  int64_t messages_delivered() const { return messages_delivered_; }
  const std::vector<RoundStats>& round_stats() const { return round_stats_; }

  // Message wakes, as in Network. The reference implementation is the wake
  // semantics spelled out: a plain per-node wake round, a full O(n) scan
  // that visits exactly the nodes whose wake round equals this round, and
  // a post-swap O(2m) inbox scan that wakes the receiver of every
  // observable message — no calendar, no notify lists.
  int64_t wakes() const { return wakes_; }

  // Transcript digest chain, bit-identical to every optimized engine's.
  const std::vector<uint64_t>& round_digests() const { return round_digests_; }
  const std::vector<uint64_t>& round_message_accs() const {
    return round_msg_acc_;
  }
  uint64_t last_digest() const { return digest_; }

  // Post-run read-back of node v's engine-managed state slot (the naive
  // engine keeps the plane external-indexed — no relabeling here).
  template <typename T>
  const T& StateAt(int v) const {
    return *reinterpret_cast<const T*>(state_.data() +
                                       static_cast<size_t>(v) * state_stride_);
  }
  size_t state_bytes() const { return state_stride_; }

  // Channel primitives used by NodeContext's reference dispatch (and handy
  // for white-box tests).
  const Message& RecvAt(int node, int port) const;
  void SendAt(int node, int port, Message m);
  void HaltAt(int node);

 private:
  // Directed channel index for the half-edge (edge e, sender slot s).
  static size_t Channel(int e, int s) { return 2 * static_cast<size_t>(e) + s; }

  GraphView graph_;
  std::vector<int64_t> ids_;
  std::vector<Message> inbox_;   // indexed by receiving channel
  std::vector<Message> outbox_;  // indexed by sending channel
  // Materialized port -> (edge, endpoint-slot) tables, built once in the
  // constructor through the backend-neutral view (ports index the shared
  // sorted adjacency, so both backends produce the same tables for the
  // same topology up to the backend's edge numbering). inc_off_[v] + p
  // indexes the port tables.
  std::vector<int> inc_off_;    // size n+1, external-indexed CSR offsets
  std::vector<int> port_edge_;  // size 2m: edge id of port p of v
  std::vector<int> port_slot_;  // size 2m: v's endpoint slot on that edge
  std::vector<unsigned char> state_;  // external-indexed state plane
  size_t state_stride_ = 0;
  std::vector<char> halted_;
  std::vector<RoundStats> round_stats_;
  // Per-channel sender and sender-port, precomputed once for the content
  // digest's post-swap inbox scan (Channel(e, s) was written by endpoint s
  // of edge e on this port).
  std::vector<int> chan_sender_, chan_port_;
  // Digest chain + pause/resume state machine, as in Network.
  std::vector<uint64_t> round_msg_acc_;
  std::vector<uint64_t> round_digests_;
  uint64_t digest_ = support::kDigestSeed;
  bool digest_messages_ = false;
  support::FaultInjector* fault_ = nullptr;
  // Wake scheduling (see the accessors above): external-indexed wake
  // rounds, and the per-visit net-present-send delta SendAt maintains so
  // the decision counter matches the optimized engines' counter-delta
  // predicate exactly (outbox_ is cleared each round, so the pre-overwrite
  // present() flag reflects only this round's earlier writes — the same
  // set the CSR engines' epoch check isolates).
  std::vector<int32_t> wake_round_;
  int64_t visit_sent_delta_ = 0;
  int64_t wakes_ = 0;
  bool wake_opt_ = true;
  bool mid_run_ = false;
  bool finished_ = false;
  std::unique_ptr<SnapshotData> pending_resume_;
  int round_ = 0;
  int64_t messages_delivered_ = 0;
  int num_halted_ = 0;
};

}  // namespace treelocal::local

#endif  // TREELOCAL_LOCAL_REFERENCE_NETWORK_H_
