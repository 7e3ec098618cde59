#ifndef TREELOCAL_LOCAL_REFERENCE_NETWORK_H_
#define TREELOCAL_LOCAL_REFERENCE_NETWORK_H_

#include <cstdint>
#include <vector>

#include "src/local/network.h"

namespace treelocal::local {

// Naive reference implementation of the LOCAL engine, kept for differential
// testing of the optimized Network. Semantics are identical by contract
// (same Engine base, Algorithm/NodeContext interface, and round/message
// accounting); the implementation is deliberately the straightforward one:
//   * channels recomputed per access from IncidentEdges + EndpointSlot,
//   * per-round O(2m) outbox clear and O(2m) delivered-message scan,
//   * per-round O(n) scan over all nodes, halted or not.
// Per-round cost is O(n + m) regardless of how many nodes are still active —
// exactly the behavior the optimized engine eliminates. The checkpoint is
// canonical, so the oracle can pick up any Network checkpoint and vice
// versa — the strongest differential check of the resume path.
//
// Message wakes are the wake semantics spelled out: a plain per-node wake
// round, a full O(n) scan that visits exactly the nodes whose wake round
// equals this round, and a post-swap O(2m) inbox scan that wakes the
// receiver of every observable message — no calendar, no notify lists.
class ReferenceNetwork : public Engine {
 public:
  // Accepts either backend via the implicit GraphView conversions; the
  // view (and the backend behind it) must outlive the engine.
  ReferenceNetwork(GraphView graph, std::vector<int64_t> ids);
  // Options form: honors digest_messages (content hashing here is a naive
  // O(2m)-per-round inbox scan — reference semantics, reference cost),
  // fault and wake_scheduling; relabel is accepted and ignored (pure
  // layout, transcripts are relabel-invariant by contract, and the naive
  // engine has no layout), so the state plane is external-indexed.
  ReferenceNetwork(GraphView graph, std::vector<int64_t> ids,
                   const NetworkOptions& options);

  int RunUntil(Algorithm& alg, int max_rounds, int pause_at_round) override;

  // Channel primitives used by NodeContext's reference dispatch (and handy
  // for white-box tests).
  const Message& RecvAt(int node, int port) const;
  void SendAt(int node, int port, Message m);
  void HaltAt(int node);

 private:
  void SaveBoundary(SnapshotData& snap) const override;

  // Directed channel index for the half-edge (edge e, sender slot s).
  static size_t Channel(int e, int s) { return 2 * static_cast<size_t>(e) + s; }

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
  std::vector<char> halted_;
  // Per-channel sender and sender-port, precomputed once for the content
  // digest's post-swap inbox scan (Channel(e, s) was written by endpoint s
  // of edge e on this port).
  std::vector<int> chan_sender_, chan_port_;
  // Wake scheduling: external-indexed wake rounds, and the per-visit
  // net-present-send delta SendAt maintains so the decision counter
  // matches the optimized engines' counter-delta predicate exactly
  // (outbox_ is cleared each round, so the pre-overwrite present() flag
  // reflects only this round's earlier writes — the same set the CSR
  // engines' epoch check isolates).
  std::vector<int32_t> wake_round_;
  int64_t visit_sent_delta_ = 0;
  int num_halted_ = 0;
};

}  // namespace treelocal::local

#endif  // TREELOCAL_LOCAL_REFERENCE_NETWORK_H_
