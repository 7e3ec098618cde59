#ifndef TREELOCAL_LOCAL_NETWORK_H_
#define TREELOCAL_LOCAL_NETWORK_H_

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/graph/graph.h"
#include "src/graph/graph_view.h"
#include "src/support/digest.h"
#include "src/support/thread_pool.h"

namespace treelocal::support {
class FaultInjector;  // src/support/fault.h
}  // namespace treelocal::support

namespace treelocal::local {

struct SnapshotData;                       // src/local/snapshot.h
enum class SnapshotEngineKind : uint32_t;  // src/local/snapshot.h

// One LOCAL message: one 64-bit word per edge per round, inline (no heap),
// so the engine runs million-node networks. Every algorithm the paper
// composes fits its message in one O(log n)-bit word, and Network's mailbox
// slot (internal::MailSlot) holds exactly that word in 12 bytes.
struct Message {
  int64_t word0 = 0;
  uint8_t size = 0;  // 0 = no message, 1 = word0 is the message

  static Message Of(int64_t a) { return Message{a, 1}; }
  bool present() const { return size > 0; }
};

// Per-round engine counters, recorded by every engine and consumed by the
// benchmark drivers: the per-round simulation cost must track the live set
// (not n) once most nodes have halted.
struct RoundStats {
  int active_nodes = 0;       // live (non-halted) nodes at round start
  int64_t messages_sent = 0;  // present messages queued (delivered next round)
  // Engine-observability counters, NOT part of transcript equality below:
  // visits counts OnRound dispatches this round, which is every live node,
  // so it always equals active_nodes; decisions counts visits that acted
  // (net-queued at least one present message, or halted). Both are
  // deterministic across engines and thread counts.
  int64_t visits = 0;
  int64_t decisions = 0;

  // Transcript equality compares what the LOCAL execution did (live-set
  // size, messages), not how the engine drove it. The digest chain
  // commits to exactly these two fields (plus message content
  // accumulators).
  friend bool operator==(const RoundStats& a, const RoundStats& b) {
    return a.active_nodes == b.active_nodes &&
           a.messages_sent == b.messages_sent;
  }
};

// Construction-time engine options, honored by every engine.
struct NetworkOptions {
  // Fold full message contents into the per-round transcript digest chain
  // (see round_digests()). Off by default: the chain then covers the
  // per-round active/message counters only, at O(1) per round and zero
  // hot-path cost. On, every present Send adds one content hash
  // (sender-keyed, order-independent — bit-identical across engines and
  // thread counts; bench_snapshot measures the overhead).
  // Checkpoints record the setting and Resume requires it to match.
  bool digest_messages = false;

  // Deterministic fault-injection hook (src/support/fault.h); non-owning,
  // null = no faults. The engine calls AtRoundBoundary before each round
  // and OnVisit before each OnRound dispatch; an armed injector throws a
  // structured FaultInjectedError and the engine stays reusable (the next
  // Run re-initializes all per-run state).
  support::FaultInjector* fault = nullptr;
};

// Thrown by every engine's Run when max_rounds is reached with live nodes.
// The LOCAL algorithms in this repository must converge, so hitting the
// bound is a diagnosis-worthy failure — the error carries the round
// reached, the live-node count, and the last transcript digest instead of
// truncating silently.
class MaxRoundsExceededError : public std::runtime_error {
 public:
  MaxRoundsExceededError(const std::string& engine, int round,
                         int64_t active_nodes, uint64_t last_digest);

  int round() const { return round_; }
  // Nodes still live when the bound was hit.
  int64_t active_nodes() const { return active_; }
  // Digest-chain value after the last executed round.
  uint64_t last_digest() const { return digest_; }

 private:
  int round_;
  int64_t active_;
  uint64_t digest_;
};

class Network;
class ReferenceNetwork;
class Algorithm;

namespace internal {
// Out-of-line hooks for the reference engine's NodeContext paths; defined in
// reference_network.cc so network.h needs only forward declarations.
const Message& RefRecv(const ReferenceNetwork& ref, int node, int port);
void RefSend(ReferenceNetwork& ref, int node, int port, Message m);
void RefHalt(ReferenceNetwork& ref, int node);

// Network's mailbox slot, packed to 12 bytes: the message word, and the
// epoch stamp and size in one int32, meta = stamp * 4 + size (size in
// {0, 1}; the initial stamp -1 never matches an epoch). A send is one random
// store into one slot. The stamp must fit meta, so Network's epochs stay
// below kMaxEpoch.
#pragma pack(push, 4)
struct MailSlot {
  static constexpr int32_t Meta(int32_t stamp, int size) {
    return stamp * 4 + size;
  }
  int32_t stamp() const { return meta >> 2; }
  uint8_t size() const { return static_cast<uint8_t>(meta & 3); }

  int64_t word0 = 0;
  int32_t meta = Meta(-1, 0);
};
#pragma pack(pop)
static_assert(sizeof(MailSlot) == 12, "mailbox slots must stay 12 bytes");
inline constexpr int32_t kMaxEpoch = INT32_MAX >> 2;

// Network's receiver-indexed CSR channel tables, laid out by internal rank:
// rank i's recv channels are [first[i], first[i + 1]) in port order, so its
// degree is first[i + 1] - first[i], and send_chan[first[i] + p] is the
// channel of the reverse half-edge. order maps rank -> external node and
// perm inverts it.
struct ChannelTables {
  std::vector<int> first;      // size n + 1
  std::vector<int> send_chan;  // size 2m
  std::vector<int> order;      // size n
  std::vector<int> perm;       // size n
};

// Builds the tables with one backend pass: the adjacency is decoded once
// into scratch (a Graph's own arrays serve as is), the BFS rank order
// (roots in increasing external index, neighbors in port order) is
// computed over it, and the scratch is freed on return. Backend-agnostic
// (no edge ids): both graph backends yield identical tables.
ChannelTables BuildChannelTables(GraphView graph);

// Guards the int32 channel arithmetic every engine shares: channel ids
// live in int (first_/send_chan_), so 2m + epoch headroom must fit int32.
// Separately callable for boundary tests; throws GraphLimitError naming
// the engine and the offending count.
void ValidateChannelScale(int64_t n, int64_t m, const char* engine);
}  // namespace internal

// Per-node view handed to Algorithm::OnRound. In the LOCAL model (Definition
// 5) nodes know n, Delta, and their own ID; neighbor IDs become known only
// by exchanging messages, so the context exposes ports, not neighbors.
//
// One NodeContext serves both engine classes. The CSR engine (Network,
// one context per shard) takes the first branch: the context carries raw
// views of the engine's channel tables, mailboxes, halt flags, and a
// message counter, so Recv/Send/Halt are single array accesses with no
// engine indirection — and the counter view points at the shard's own
// padded slot, which is what keeps the hot path free of atomics. The
// ReferenceNetwork branch is the naive out-of-line path used for
// differential testing. The branch predicts perfectly inside a run.
class NodeContext {
 public:
  int node() const { return node_; }
  // O(1) on Network: the difference of two adjacent rank-ordered CSR
  // offsets, whatever the graph backend. Only the ReferenceNetwork oracle
  // asks the GraphView.
  int degree() const {
    return first_ != nullptr ? first_[rank_ + 1] - first_[rank_]
                             : graph_.Degree(node_);
  }
  int64_t id() const { return ids_[node_]; }
  int n() const { return graph_.NumNodes(); }
  int max_degree() const { return graph_.MaxDegree(); }
  int round() const { return round_; }

  // Message received on `port` this round (sent by the neighbor last round),
  // or an empty Message. O(1): one channel-table load plus an epoch check;
  // returned by value because Network rebuilds it from its packed slot.
  inline Message Recv(int port) const;

  // Queue a message on `port` for delivery next round. O(1): the send
  // channel for (node, port) is the node's own CSR slot, no lookup at all.
  // Sending twice on a port in one round keeps only the last message.
  inline void Send(int port, Message m);
  inline void Broadcast(Message m);

  // Mark this node as terminated; OnRound is no longer called for it and its
  // outgoing channels fall silent (stale epoch stamps, never re-cleared).
  inline void Halt();

  // Typed reference to this node's engine-managed state slot (see
  // Algorithm::StateBytes). Zero-cost on every engine: the engine aims the
  // pointer at the slot before each OnRound/InitState-adjacent visit, so
  // the accessor is a cast, not a lookup. sizeof(T) must not exceed the
  // declared StateBytes(); calling this with StateBytes() == 0 is invalid.
  template <typename T>
  T& State() const {
    return *static_cast<T*>(state_);
  }

 private:
  friend class Network;
  friend class ReferenceNetwork;
  NodeContext(GraphView graph, const int64_t* ids, ReferenceNetwork* ref)
      : graph_(graph), ids_(ids), ref_(ref) {}

  GraphView graph_;
  const int64_t* ids_;
  ReferenceNetwork* ref_;  // reference engine, or null

  // CSR fast-path views (Network; first_ non-null selects this branch —
  // the offset table is never empty, unlike the mailboxes of an edgeless
  // graph), all indexed by the visited node's internal rank_. All writes reachable through them are disjoint across
  // concurrently running nodes — each node stores only through its
  // own send channels, halts only itself, and counts into its own shard's
  // sent_ slot — which is the whole data-race argument for the sharded
  // round pass. The engine refreshes inbox_/outbox_/epoch_ every round
  // (the mailboxes swap).
  const int* first_ = nullptr;
  const int* send_chan_ = nullptr;
  const internal::MailSlot* inbox_ = nullptr;
  internal::MailSlot* outbox_ = nullptr;
  char* halted_ = nullptr;
  int64_t* sent_ = nullptr;  // messages-delivered counter (per shard)
  // Message-content digest accumulator (per shard), or null when
  // NetworkOptions::digest_messages is off — the null check is the whole
  // hot-path cost of the feature when disabled.
  uint64_t* macc_ = nullptr;
  int32_t epoch_ = 0;

  // This node's slot in the engine's state plane, re-aimed by the engine
  // before every OnRound call (null when StateBytes() == 0). The engine
  // does the internal-rank addressing; the accessor above stays a bare
  // cast.
  void* state_ = nullptr;

  int node_ = 0;  // external node: node(), id(), message hashes
  int rank_ = 0;  // internal rank (Network): channel block and halt flag
  int round_ = 0;
};

// A distributed algorithm. OnRound is invoked once per live node per round
// (round 0 included, with empty inboxes) until every node halts, as in the
// synchronous LOCAL model. Each round a node sends at most one one-word
// Message per port.
//
// Per-node state lives in an ENGINE-MANAGED state plane: the algorithm
// declares a fixed-size POD slot via StateBytes(), initializes each node's
// slot in InitState(), and reads/writes it through NodeContext::State<T>().
// The engine owns the storage and lays it out ITS way — indexed by internal
// rank, so on Network the state walks in BFS worklist order alongside the
// mailboxes instead of streaming scattered. This is what lets one
// Algorithm implementation hit the engine's best memory layout without
// knowing how the engine lays itself out. Algorithms with no per-node
// state (or legacy ones keeping their own node-indexed arrays) return 0
// from StateBytes() and everything behaves as before — but the BFS layout
// can then no longer help their state locality, which measurably costs on
// big inputs.
//
// Determinism contract (what makes every engine in this family produce
// bit-identical transcripts): within a round, OnRound for node v may read
// and write only v's own state slot (plus any v-indexed state the
// implementation still keeps itself), read its inbox, send on its own
// ports, and halt itself. Sends become visible at the round barrier, so the
// order in which nodes run within a round — caller index order, BFS rank
// order, or sharded across threads — cannot leak into outputs, RoundStats,
// or message counts. InitState must likewise depend only on (node, captured
// construction inputs), never on the unspecified order of InitState calls.
// Every algorithm in this repository satisfies this by construction, and
// the differential suites enforce it across all engines.
class Algorithm {
 public:
  virtual ~Algorithm() = default;
  virtual void OnRound(NodeContext& ctx) = 0;

  // Size in bytes of the per-node state slot the engine must provide, or 0
  // for none. Must be constant over the algorithm's lifetime, and — because
  // slots are packed at exactly this stride from a new[]-aligned base —
  // a multiple of the state type's alignment (sizeof(T) always qualifies).
  virtual size_t StateBytes() const { return 0; }

  // Called once per external node before round 0 of every Run, with `state`
  // pointing at the node's zero-initialized slot. Call order across nodes
  // is engine-chosen and unspecified (internal-rank order in practice).
  virtual void InitState(int node, void* state) {
    (void)node;
    (void)state;
  }
};

// Bytes held by each of a Network's structures (vector capacities, so the
// figures track what the engine actually reserved). Construction allocates
// the channel tables, mailboxes, worklist and id copy; the state plane is
// armed by the first run that declares one and keeps its capacity across
// runs, and the run log grows with the rounds of the last run. treelocald
// charges a resident graph's cached engine against its memory quota with
// this.
struct EngineBytes {
  size_t channel_tables = 0;  // CSR offsets + send-channel table
  size_t mailboxes = 0;    // inbox + outbox: 2 x 2m 12-byte slots
  size_t worklist = 0;     // active list, halt flags, rank order/permutation,
                           // per-lane shard slots
  size_t ids = 0;          // the engine's copy of the node ids
  size_t state_plane = 0;  // Algorithm::StateBytes per node
  size_t run_log = 0;      // per-round stats, digests, timings
  size_t total() const {
    return channel_tables + mailboxes + worklist + ids + state_plane +
           run_log;
  }
};

// The engine base. Every engine runs the same synchronous round loop of
// the LOCAL model (Definition 5) over a port-numbered network: all nodes
// run in lockstep, and messages sent in round r are received in round
// r+1. The engines must produce bit-identical transcripts, so Engine owns
// everything that does not depend on how an engine lays out its channels
// and schedules its nodes:
//   * the graph view, the ids, and the options every engine honors;
//   * the run log: the round counter, delivered messages, per-round
//     RoundStats, content accumulators, the digest chain, and the opt-in
//     round timings;
//   * the engine-managed state plane, indexed by internal rank through
//     perm_ (empty = identity), so StateAt is an inline read;
//   * the pause/resume state machine and the canonical checkpoint: the
//     snapshot header, the run history and the state plane are saved and
//     restored here.
// A derived engine supplies its round loop (RunUntil, called once per
// Run or RunUntil call) and its halt plane and mailboxes: what
// SaveBoundary writes into a checkpoint and what the resume branch of its
// RunUntil reads back. The protected helpers give every loop the same
// start (BeginRun), round boundary (PauseAtBoundary) and per-round record
// (RecordRound).
//
// Engine family (see README.md for how to pick):
//   ReferenceNetwork — naive O(n + m) per round; differential-test oracle.
//   Network          — the solo engine, O(active work) per round, on T
//                      thread-pool lanes (T = 1 by default; the
//                      ParallelNetwork subclass names T). Bit-identical
//                      transcripts for every T. Many instances (a k-sweep)
//                      run one after another on one engine, or on one
//                      engine per std::thread.
class Engine {
 public:
  // Out of line for the incomplete-type pending_resume_ member.
  virtual ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Runs `alg` until every node has halted or `max_rounds` is hit.
  // Returns the number of rounds executed (a node halting in round r has
  // round complexity r+1 counted rounds; an algorithm that halts every node
  // in round 0 used 1 round). Throws MaxRoundsExceededError if max_rounds
  // is exceeded. An exception thrown by OnRound is rethrown here; the
  // engine remains usable (the next Run re-initializes all per-run state).
  int Run(Algorithm& alg, int max_rounds) {
    return RunUntil(alg, max_rounds, -1);
  }

  // Run with a pause point: executes rounds until every node halts,
  // `max_rounds` is hit (MaxRoundsExceededError), or the boundary BEFORE
  // round `pause_at_round` is reached — whichever comes first — and returns
  // rounds executed so far. A paused engine (paused() == true) may be
  // checkpointed and must be continued with the SAME algorithm object
  // (state plane and mailboxes are live); pass a pause round already behind
  // the run (or -1) to continue to completion. Run(alg, r) is
  // RunUntil(alg, r, -1).
  virtual int RunUntil(Algorithm& alg, int max_rounds, int pause_at_round) = 0;

  // True after a RunUntil stopped at its pause round with live nodes.
  bool paused() const { return mid_run_; }
  // True once the last run completed (every node halted).
  bool finished() const { return finished_; }
  // Drops a paused run (or a snapshot armed by Resume) without finishing
  // it: the next RunUntil starts a fresh run, with any algorithm. A caller
  // that stops driving a paused run — treelocald when every request riding
  // on it was cancelled — calls this before reusing the engine, since
  // RunUntil would otherwise continue the old run.
  void AbandonRun();

  // Serializes the current round boundary (engine must be paused() or
  // finished()) as a canonical snapshot: resuming it — in this engine, a
  // fresh one, any thread count, or another engine class —
  // continues the run bit-identically. Throws SnapshotError mid-round or
  // before any run.
  void Checkpoint(std::ostream& out) const;

  // Loads a snapshot (fully validated, including against this engine's
  // graph/IDs/options) and arms the engine to continue from it: the next
  // RunUntil call resumes at the recorded round instead of starting fresh.
  // The algorithm passed to that call must declare the recorded state
  // stride; a call with another stride throws SnapshotError and leaves the
  // snapshot armed for the retry. Throws SnapshotError on any mismatch,
  // leaving the engine unchanged.
  void Resume(std::istream& in);

  // Backend-specific access: graph() serves the pipelines still tied to
  // the uncompressed CSR (incidence spans, edge slots) and throws
  // std::logic_error when the engine was built over a CompactGraph;
  // view() is the backend-agnostic handle.
  const Graph& graph() const;
  GraphView view() const { return graph_; }
  const std::vector<int64_t>& ids() const { return ids_; }

  // Transcript digest chain for the run so far: round_digests()[r] =
  // ChainDigest(digest[r-1], active, sent, msg_acc) after round r, seeded
  // with support::kDigestSeed. Bit-identical across every engine and
  // thread count; with NetworkOptions::digest_messages it also
  // commits to full message contents (round_message_accs()).
  const std::vector<uint64_t>& round_digests() const { return round_digests_; }
  const std::vector<uint64_t>& round_message_accs() const {
    return round_msg_acc_;
  }
  uint64_t last_digest() const { return digest_; }

  // Total present messages delivered over the last Run (a message sent in
  // the final round is counted: it is delivered even if nobody reads it).
  int64_t messages_delivered() const { return messages_delivered_; }

  // Per-round counters for the last Run; round_stats()[r] covers round r.
  const std::vector<RoundStats>& round_stats() const { return round_stats_; }

  // Opt-in wall-clock timing of each round executed by the last run (two
  // clock reads per round; off by default so the hot loop stays
  // branch-only); a resumed run times only the rounds it executes.
  // Consumed by the engine benches to show per-round cost tracks
  // active_nodes, not n.
  void set_record_round_times(bool on) { record_round_times_ = on; }
  bool record_round_times() const { return record_round_times_; }
  const std::vector<double>& round_seconds() const { return round_seconds_; }

  // Post-run read-back of external node v's state slot (the engine does the
  // external->internal translation here, off the hot path). T must be the
  // algorithm's declared state type; valid until the next Run. During a
  // round every node writes only its own slot.
  template <typename T>
  const T& StateAt(int v) const {
    const auto i = static_cast<size_t>(RankOf(v));
    return *reinterpret_cast<const T*>(state_.data() + i * state_stride_);
  }
  size_t state_bytes() const { return state_stride_; }

 protected:
  // `name` prefixes the engine's error messages; `kind` is its snapshot
  // tag. The view (and the backend behind it) must outlive the engine.
  Engine(GraphView graph, std::vector<int64_t> ids,
         const NetworkOptions& options, const char* name,
         SnapshotEngineKind kind);

  // How a RunUntil call starts; see BeginRun.
  enum class RunStart { kFresh, kResume, kContinue };

  // Opens every RunUntil call and does the layout-free part of its start:
  //   kResume (a snapshot is armed): checks the snapshot's state stride
  //     against `alg` BEFORE disarming it, so a wrong-algorithm call throws
  //     SnapshotError and the retry still resumes; then restores the run
  //     log and the state plane and hands the snapshot to `resume`, from
  //     which the engine places its halt flags and deliverable messages;
  //   kFresh (no paused run): resets the run log and arms the state plane
  //     (zeroed slots, one InitState per node; `inv` maps internal rank ->
  //     external node, null = identity); the engine resets its own planes;
  //   kContinue (a paused run): nothing — everything is live.
  RunStart BeginRun(Algorithm& alg, const int* inv,
                    std::unique_ptr<SnapshotData>& resume);

  // The round boundary every loop opens a round with. Returns true when the
  // run pauses here (the loop returns round_); otherwise calls the fault
  // hook and throws MaxRoundsExceededError, reporting `live` nodes, once
  // round_ reaches max_rounds.
  bool PauseAtBoundary(int pause_at_round, int max_rounds, int64_t live);

  // Appends one executed round, in which all `live` nodes were visited, to
  // the run log and the digest chain.
  void RecordRound(int live, int64_t sent, int64_t decisions,
                   uint64_t msg_acc) {
    messages_delivered_ += sent;
    round_stats_.push_back({live, sent, live, decisions});
    round_msg_acc_.push_back(msg_acc);
    digest_ = support::ChainDigest(digest_, live, sent, msg_acc);
    round_digests_.push_back(digest_);
  }

  // Every node halted: the run is complete.
  int FinishRun() {
    finished_ = true;
    return round_;
  }

  // The opt-in round timer (set_record_round_times).
  void StartRoundTimer() {
    if (record_round_times_) round_t0_ = std::chrono::steady_clock::now();
  }
  void StopRoundTimer() {
    if (record_round_times_) {
      round_seconds_.push_back(std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - round_t0_)
                                   .count());
    }
  }

  // External node v's internal rank.
  int RankOf(int v) const { return perm_.empty() ? v : perm_[v]; }

  // Fills the engine's part of a checkpoint's run section: the halt flags
  // (n entries, external-indexed) and, unless snap.finished, the
  // deliverable messages sorted by receiver (node, port).
  virtual void SaveBoundary(SnapshotData& snap) const = 0;

  GraphView graph_;
  std::vector<int64_t> ids_;
  bool digest_messages_ = false;  // NetworkOptions::digest_messages
  support::FaultInjector* fault_ = nullptr;

  // Engine-owned per-node state plane (Algorithm::StateBytes per slot),
  // indexed by internal rank: slot perm_[v] belongs to external node v
  // (perm_ empty = identity, as on ReferenceNetwork). Re-armed (zero +
  // InitState) every fresh run, reallocated only when the slot size grows.
  std::vector<int> perm_;
  std::vector<unsigned char> state_;
  size_t state_stride_ = 0;

  // The run log (see the accessors above).
  int round_ = 0;
  int64_t messages_delivered_ = 0;
  std::vector<RoundStats> round_stats_;
  std::vector<uint64_t> round_msg_acc_;
  std::vector<uint64_t> round_digests_;
  uint64_t digest_ = support::kDigestSeed;
  std::vector<double> round_seconds_;
  bool record_round_times_ = false;
  std::chrono::steady_clock::time_point round_t0_;

 private:
  const char* name_;
  SnapshotEngineKind kind_;
  // Pause/resume state machine: mid_run_ marks a run paused at a round
  // boundary (mailboxes/state live, same-algorithm continuation only);
  // finished_ marks a completed run; pending_resume_ holds a validated
  // snapshot the next RunUntil applies instead of a fresh start.
  bool mid_run_ = false;
  bool finished_ = false;
  std::unique_ptr<SnapshotData> pending_resume_;
};

// The solo engine: O(active work) per round.
//
// Everything it owns is indexed by a node's BFS rank. The ranks never
// escape the engine (node(), InitState, StateAt, checkpoints and outputs
// use the caller's numbering), so transcripts are bit-identical to
// ReferenceNetwork's on the caller's labels.
//
// Throughput design (the per-round cost is the system-wide bottleneck for
// every pipeline in this repository):
//   * Channel tables in CSR layout, built once at construction. Channels are
//     indexed by the RECEIVER's CSR slot: Recv(v, p) is a single sequential
//     load of v's own slot first_[v] + p (ports scan contiguously, so the
//     prefetcher covers per-node inbox scans), while Send(v, p) stores
//     through the precomputed send_chan_ table to the reverse half-edge — a
//     random store, which the store buffer absorbs without stalling, unlike
//     the random load a sender-indexed layout would put in Recv. No
//     IncidentEdges/EndpointSlot recomputation on the hot path. The blocks
//     are laid out in BFS rank order, which shortens the stride of those
//     random stores on badly-labeled inputs, and the offsets, halt flags
//     and state slots a visit touches are all rank-indexed, so they stream
//     with the worklist.
//   * Epoch-stamped mailboxes: each channel carries the epoch at which it was
//     last written. A message is visible iff its stamp equals the previous
//     epoch. This removes the per-round O(2m) outbox clear and the O(2m)
//     delivered-message scan — messages are counted at send time instead.
//   * Active-node worklist: each round iterates the live nodes in rank order
//     and compacts the survivors in place (stable, preserving the engine's
//     node order). Once a node halts it is never touched again.
//
// The round pass is sharded: the worklist splits into T contiguous ranges
// that run concurrently on a persistent thread pool (at T = 1 the single
// range runs inline on the calling thread). The shared mutable state is
// exactly three structures, each handled without locks or hot-path atomics:
//   * The outbox: Send(v, p) stores through the channel table to the
//     reverse half-edge's slot, and every channel has exactly one sender —
//     concurrent shards write disjoint slots by construction (the same
//     argument that makes last-write-wins dedup purely sender-local).
//   * The message counter: each shard counts its own nodes' sends into a
//     cache-line-padded slot, reduced at the round barrier. The reduction
//     is a sum, so per-round message counts are independent of sharding.
//   * Halt/compaction: a node halts only itself (one flag write, no other
//     shard reads it until the barrier), and each shard stable-compacts its
//     own worklist range in place; the barrier stitches the kept prefixes
//     back into one dense worklist, preserving the engine's node order.
// Outputs, RoundStats, message counts, digest chains and checkpoints are
// therefore bit-identical for every T: the Algorithm contract makes OnRound
// order-independent within a round, and shards only reorder within rounds,
// never across the barrier.
//
// Per-round complexity: O(sum of OnRound costs over live nodes / T) per
// lane + O(#live / T) for the compaction + O(T) reduction + one pool
// fork/join. Nothing is proportional to n or m per round; construction is
// O(n + m); Run performs no allocation beyond growing the per-round
// vectors.
//
// A Network is reusable: Run may be called any number of times (same graph
// and IDs) with no reallocation — epochs advance monotonically across runs,
// so mailboxes never need clearing.
//
// Runs do not nest: every round is a thread-pool fork, and the pool
// rejects a fork from inside any pool task, so calling Run (on this or
// any other Network, at any T) from inside an OnRound throws
// std::logic_error. Sub-engines run between host runs instead.
//
// The epoch stamps share an int32 with the message size (internal::MailSlot),
// so they wrap after ~2^29 cumulative rounds (internal::kMaxEpoch); Run
// re-arms the mailboxes at both wrap points (before a run, and — for a
// single run that long — mid-run, preserving the in-flight round's
// messages), so any max_rounds up to INT32_MAX is safe and the amortized
// re-arm cost is zero.
class Network : public Engine {
 public:
  // GraphView converts implicitly from either backend, so
  // Network(graph, ids) works unchanged for a Graph and equally for a
  // CompactGraph — with bit-identical transcripts (the view must outlive
  // the engine, as the Graph always had to).
  Network(GraphView graph, std::vector<int64_t> ids);
  Network(GraphView graph, std::vector<int64_t> ids,
          const NetworkOptions& options);
  // Sharded form: the round pass runs on `num_threads` persistent pool
  // lanes (>= 1). ParallelNetwork spells the same constructor.
  Network(GraphView graph, std::vector<int64_t> ids, int num_threads,
          const NetworkOptions& options);

  // An exception thrown by OnRound on any shard is rethrown here after the
  // round joins. The round timer covers the full round: fork, node pass,
  // join, reduction, stitch.
  int RunUntil(Algorithm& alg, int max_rounds, int pause_at_round) override;

  int num_threads() const { return pool_.num_threads(); }

  // Current per-structure memory (see EngineBytes).
  EngineBytes EngineMemory() const;

  // White-box access to the epoch counter for the wrap-guard regression
  // tests (the guards re-arm at internal::kMaxEpoch - 4 before a run and
  // rebase at kMaxEpoch - 2 mid-run); production code never touches these.
  int32_t epoch_for_testing() const { return epoch_; }
  void set_epoch_for_testing(int32_t epoch) { epoch_ = epoch; }

 private:
  friend class NodeContext;

  void SaveBoundary(SnapshotData& snap) const override;

  // Per-shard round state, cache-line padded: sent is the shard's message
  // counter (NodeContext::sent_ points here), macc its content-digest
  // accumulator (NodeContext::macc_), kept the size of the shard's
  // compacted worklist range, and decisions its visits that acted (summed
  // into RoundStats at the barrier).
  struct alignas(64) Shard {
    int64_t sent = 0;
    uint64_t macc = 0;
    int kept = 0;
    int64_t decisions = 0;
  };

  std::vector<int> first_;      // size n+1: rank-ordered CSR offsets; recv
                                // channel of (rank i, p) is first_[i] + p
  std::vector<int> send_chan_;  // size 2m: send channel of (i, p), i.e. the
                                // channel of the reverse half-edge
  std::vector<int> order_;      // internal rank -> external id in BFS
                                // order; perm_ inverts it
  // Double-buffered mailboxes of 12-byte slots, each epoch-stamped in its
  // meta field; swapped (O(1)) each round, never cleared.
  std::vector<internal::MailSlot> inbox_, outbox_;
  std::vector<char> halted_;  // by internal rank
  std::vector<int> active_;  // the live INTERNAL ranks in ascending order,
                             // so rank i's state slot and external id
                             // (order_[i]) stream sequentially — the
                             // whole point of internal indexing. Its
                             // size is the run's termination test.
  std::vector<Shard> shards_;
  support::ThreadPool pool_;  // num_threads lanes, persistent
  int32_t epoch_ = 1;  // monotone across runs (wrap-guarded in Run, kept
                       // below internal::kMaxEpoch); stamps start at -1
};

inline Message NodeContext::Recv(int port) const {
  if (first_ != nullptr) [[likely]] {
    const auto c = static_cast<size_t>(first_[rank_] + port);
    const internal::MailSlot& s = inbox_[c];
    if (s.stamp() + 1 != epoch_) return Message{};
    return Message{s.word0, s.size()};
  }
  return internal::RefRecv(*ref_, node_, port);
}

inline void NodeContext::Send(int port, Message m) {
  if (first_ != nullptr) [[likely]] {
    const auto c = static_cast<size_t>(send_chan_[first_[rank_] + port]);
    internal::MailSlot& s = outbox_[c];
    if (s.stamp() == epoch_) {
      // Second write on this channel this round: last write wins, undo the
      // earlier message's contribution to the counter (and, under content
      // digests, to the accumulator — the slot's previous writer was this
      // same (node, port), so its hash is recomputable in place).
      const uint8_t size = s.size();
      *sent_ -= size > 0;
      if (macc_ != nullptr && size > 0) {
        *macc_ -= support::MessageHash(node_, port, s.word0, size);
      }
    }
    s.word0 = m.word0;
    s.meta = internal::MailSlot::Meta(epoch_, m.size);
    *sent_ += m.present();
    if (macc_ != nullptr && m.present()) {
      *macc_ += support::MessageHash(node_, port, m.word0, m.size);
    }
    return;
  }
  internal::RefSend(*ref_, node_, port, m);
}

inline void NodeContext::Broadcast(Message m) {
  const int deg = degree();
  for (int p = 0; p < deg; ++p) Send(p, m);
}

inline void NodeContext::Halt() {
  if (first_ != nullptr) [[likely]] {
    halted_[rank_] = 1;  // worklist compaction happens after OnRound
    return;
  }
  internal::RefHalt(*ref_, node_);
}

}  // namespace treelocal::local

#endif  // TREELOCAL_LOCAL_NETWORK_H_
