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
//   * mailboxes indexed by receiver (node, port), the reverse port of
//     every half-edge found once by PortOf on the backend,
//   * per-round O(2m) outbox clear and O(2m) delivered-message scan,
//   * per-round O(n) scan over all nodes, halted or not.
// Per-round cost is O(n + m) regardless of how many nodes are still active —
// exactly the behavior the optimized engine eliminates. The checkpoint is
// canonical, so the oracle can pick up any Network checkpoint and vice
// versa — the strongest differential check of the resume path.
class ReferenceNetwork : public Engine {
 public:
  // Accepts either backend via the implicit GraphView conversions; the
  // view (and the backend behind it) must outlive the engine.
  ReferenceNetwork(GraphView graph, std::vector<int64_t> ids);
  // Options form: honors digest_messages (content hashing here is a naive
  // O(2m)-per-round inbox scan — reference semantics, reference cost) and
  // fault. The naive engine has no layout: it runs on the caller's
  // labels, and its state plane is external-indexed.
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

  // Mailbox slot of v's port p: slot inc_off_[v] + p holds what v
  // receives on port p. The slot tables are built once in the constructor
  // through the backend-neutral view (ports index the shared sorted
  // adjacency, so both backends produce the same tables).
  std::vector<int> inc_off_;  // size n+1, external-indexed CSR offsets
  // size 2m: the slot of the reverse half-edge — for slot s = (v, p) with
  // neighbor u, the slot (u, PortOf(u, v)). A send on s lands in
  // outbox_[peer_[s]]; the message in inbox slot s came from peer_[s].
  std::vector<int> peer_;
  std::vector<int> slot_node_;  // size 2m: the node owning each slot
  std::vector<Message> inbox_;   // indexed by receiving slot
  std::vector<Message> outbox_;  // indexed by receiving slot
  std::vector<char> halted_;
  // The per-visit net-present-send delta SendAt maintains so the decision
  // counter matches the optimized engine's counter-delta predicate exactly
  // (outbox_ is cleared each round, so the pre-overwrite present() flag
  // reflects only this round's earlier writes — the same set the CSR
  // engine's epoch check isolates).
  int64_t visit_sent_delta_ = 0;
  int num_halted_ = 0;
};

}  // namespace treelocal::local

#endif  // TREELOCAL_LOCAL_REFERENCE_NETWORK_H_
