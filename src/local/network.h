#ifndef TREELOCAL_LOCAL_NETWORK_H_
#define TREELOCAL_LOCAL_NETWORK_H_

#include <atomic>
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

// Fixed-capacity message: the deterministic symmetry-breaking algorithms in
// this repository send at most two 64-bit words per edge per round. Keeping
// the payload inline (no heap) lets the engine run million-node networks.
struct Message {
  int64_t word0 = 0;
  int64_t word1 = 0;
  uint8_t size = 0;  // 0 = no message
  // Engine-internal epoch stamp, not part of the payload: it lives in what
  // would otherwise be struct padding, so a mailbox slot stays at 24 bytes
  // and one Recv/Send touches a single cache line. Algorithms must ignore it.
  int32_t engine_stamp = -1;

  static Message Of(int64_t a) { return Message{a, 0, 1}; }
  static Message Of(int64_t a, int64_t b) { return Message{a, b, 2}; }
  bool present() const { return size > 0; }
};
static_assert(sizeof(Message) == 24, "mailbox slots must stay 24 bytes");

// Per-round engine counters, recorded by every engine and consumed by the
// benchmark drivers: the per-round simulation cost must track the live set
// (not n) once most nodes have halted.
struct RoundStats {
  int active_nodes = 0;       // live (non-halted) nodes at round start
  int64_t messages_sent = 0;  // present messages queued (delivered next round)
  // Engine-observability counters, NOT part of transcript equality below:
  // visits counts OnRound dispatches this round — the nodes whose wake
  // round this is, so equal to active_nodes for a dense algorithm (one
  // that never sleeps) or with NetworkOptions::wake_scheduling off, and
  // only the woken subset when nodes sleep — and decisions counts visits
  // that acted (net-queued at least one present message, or halted). Both
  // are deterministic across engines, relabel, and thread counts for a
  // fixed wake_scheduling setting; the idle-visit ratio
  // (visits - decisions) / visits is what sleeping eliminates.
  int64_t visits = 0;
  int64_t decisions = 0;

  // Transcript equality compares what the LOCAL execution did (live-set
  // size, messages), not how the engine drove it: runs of the same
  // algorithm with wake_scheduling on and off produce EQUAL per-round
  // stats here even though their visit counts differ. The digest chain
  // commits to exactly these two fields (plus message content
  // accumulators).
  friend bool operator==(const RoundStats& a, const RoundStats& b) {
    return a.active_nodes == b.active_nodes &&
           a.messages_sent == b.messages_sent;
  }
};

// Sentinel for NodeContext::SleepUntil / Algorithm::InitialWakeRound: park
// the node with no scheduled wake round at all — it runs again only when a
// message wakes it (or never, if none arrives and the run hits max_rounds).
inline constexpr int32_t kNoWakeRound = INT32_MAX;

// Construction-time engine options (Network; ReferenceNetwork honors every
// field except relabel, which it accepts and ignores).
struct NetworkOptions {
  // Opt-in BFS locality relabeling: the engine assigns every node an
  // internal id in BFS order and lays the channel tables and mailboxes out
  // by internal id, so neighbors' mailbox blocks land near each other
  // regardless of how the caller labeled the graph. On unlabeled-locality
  // families (uniform random trees) this localizes the round pass's random
  // sends. The internal ids never escape the engine: NodeContext::node()
  // and every output stay in the caller's external node numbering, and
  // transcripts are bit-identical to a non-relabeled run (enforced by
  // tests) — only the iteration order within a round and the physical
  // mailbox/state layout change, neither of which is observable in the
  // LOCAL model. Engine-managed algorithm state (Algorithm::StateBytes) is
  // laid out in the same internal order. Measured on uniform-tree
  // rake-compress (bench_parallel's relabel_ablation), it pays only while
  // the engine's working set is cache-sized: at T = 1 it wins 1.1-1.5x up
  // to n = 2^18 (treelocald's 2^14-node resident engines turn it on) and
  // loses 0.89-0.95x at 2^20 and 2^22; at T = 4 the win is gone by 2^18
  // (see README.md for the table).
  bool relabel = false;

  // Fold full message contents into the per-round transcript digest chain
  // (see round_digests()). Off by default: the chain then covers the
  // per-round active/message counters only, at O(1) per round and zero
  // hot-path cost. On, every present Send adds one content hash
  // (sender-keyed, order-independent — bit-identical across engines,
  // relabel, and thread counts; bench_snapshot measures the overhead).
  // Checkpoints record the setting and Resume requires it to match.
  bool digest_messages = false;

  // Deterministic fault-injection hook (src/support/fault.h); non-owning,
  // null = no faults. The engine calls AtRoundBoundary before each round
  // and OnVisit before each OnRound dispatch; an armed injector throws a
  // structured FaultInjectedError and the engine stays reusable (the next
  // Run re-initializes all per-run state).
  support::FaultInjector* fault = nullptr;

  // Honor the algorithm's sleeps (Algorithm::InitialWakeRound,
  // NodeContext::SleepUntil). Every run walks the engine's wake calendar,
  // visiting a node only in rounds where it declared it acts and waking it
  // early whenever a message arrives. Set to false, the engine ignores
  // sleeps inside the same loop: every node first wakes in round 0 and
  // every visit re-wakes it for the next round, so every live node is
  // visited every round (RoundStats::visits == active_nodes, wakes() == 0)
  // — the scheduler ablation the benches and CI gate on. Transcripts
  // (outputs, RoundStats equality, message counts, digest chains) are
  // bit-identical either way by construction; only RoundStats::visits
  // changes.
  bool wake_scheduling = true;
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

// Builds Network's receiver-indexed CSR channel tables:
// first[v] + p is the recv channel of (v, p), and send_chan[first[v] + p]
// is the channel of the reverse half-edge. When `perm` is non-null it maps
// external node -> internal rank and the channel blocks are laid out in
// internal-rank order (NetworkOptions::relabel); first[] stays indexed by
// external node, so the Recv/Send hot paths are identical either way.
// degree[v] is external node v's degree, so v's block is
// [first[v], first[v] + degree[v]) with or without relabel (under relabel
// first[v + 1] is wherever node v+1's block landed, not v's end). It is the
// engine's only degree source after construction: on a CompactGraph every
// GraphView::Degree call decodes the varint stream. Backend-agnostic (one
// streaming adjacency pass, no edge ids): both graph backends yield
// byte-identical tables.
void BuildChannelTables(GraphView graph, const int* perm,
                        std::vector<int>& first, std::vector<int>& send_chan,
                        std::vector<int>& degree);

// BFS permutation for NetworkOptions::relabel: perm[v] = BFS visit rank of
// external node v (roots chosen in increasing external index; neighbors
// expanded in port order). Deterministic.
std::vector<int> BfsOrder(GraphView graph);

// Initial worklist order: external node ids sorted by internal rank
// (identity when perm is null). Network runs rounds in this order.
std::vector<int> WorklistOrder(int n, const std::vector<int>& perm);

// Guards the int32 channel arithmetic every engine shares: channel ids
// live in int (first_/send_chan_/chan_owner_), so 2m + epoch headroom
// must fit int32. Separately callable for boundary tests; throws
// GraphLimitError naming the engine and the offending count.
void ValidateChannelScale(int64_t n, int64_t m, const char* engine);

// Inverts the CSR channel tables for the message-wake path: owner[c] is the
// INTERNAL RANK of the node whose recv-channel block contains channel c
// (i.e. the receiver of any Send that stores to c). order maps rank ->
// external id, as in WorklistOrder; first and degree are
// BuildChannelTables' outputs.
std::vector<int> BuildChanOwner(const std::vector<int>& first,
                                const std::vector<int>& degree,
                                const std::vector<int>& order);
}  // namespace internal

// Per-node view handed to Algorithm::OnRound. In the LOCAL model (Definition
// 5) nodes know n, Delta, and their own ID; neighbor IDs become known after
// one round of communication — the engine exposes them directly for
// convenience, which is standard (it shifts round counts by at most 1).
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
  // O(1) on Network: one load from the engine's own degree table
  // (internal::BuildChannelTables), whatever the graph backend. Only the
  // ReferenceNetwork oracle asks the GraphView.
  int degree() const {
    return degree_ != nullptr ? degree_[node_] : graph_.Degree(node_);
  }
  int64_t id() const { return ids_[node_]; }
  // Asks the graph backend: O(1) on a Graph, but an O(port) varint decode
  // on a CompactGraph. No algorithm in this repository calls it (only
  // tests do); algorithms learn neighbor ids by exchanging messages.
  int64_t neighbor_id(int port) const {
    return ids_[graph_.NeighborAt(node_, port)];
  }
  int n() const { return graph_.NumNodes(); }
  int max_degree() const { return graph_.MaxDegree(); }
  int round() const { return round_; }

  // Message received on `port` this round (sent by the neighbor last round).
  // O(1): one channel-table load plus an epoch check.
  inline const Message& Recv(int port) const;

  // Queue a message on `port` for delivery next round. O(1): the send
  // channel for (node, port) is the node's own CSR slot, no lookup at all.
  // Sending twice on a port in one round keeps only the last message.
  inline void Send(int port, Message m);
  inline void Broadcast(Message m);

  // Mark this node as terminated; OnRound is no longer called for it and its
  // outgoing channels fall silent (stale epoch stamps, never re-cleared).
  inline void Halt();

  // Declare that this node next acts in round `round` (absolute, i.e. the
  // value a future ctx.round() will show): the engine skips it until then.
  // The invariant that makes this transcript-invariant: an incoming
  // observable message ALWAYS wakes a sleeping node for the next round, so
  // a node can never miss input it would have seen if visited every round
  // — an algorithm may sleep whenever its early-round OnRound would have
  // been a pure no-op (no sends, no halt, no state change) absent new
  // messages. Values <= round() mean "next round" (the default when
  // OnRound returns without calling this, so a dense algorithm simply
  // never calls it); kNoWakeRound parks the node until a message arrives;
  // Halt() wins over any sleep. With NetworkOptions::wake_scheduling off
  // this is a no-op, which is exactly why transcripts cannot diverge.
  void SleepUntil(int round) { sleep_until_ = round; }

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
  NodeContext(GraphView graph, const int64_t* ids, const int* degree,
              ReferenceNetwork* ref)
      : graph_(graph), ids_(ids), degree_(degree), ref_(ref) {}

  GraphView graph_;
  const int64_t* ids_;
  const int* degree_;      // engine degree table, or null (reference engine)
  ReferenceNetwork* ref_;  // reference engine, or null

  // CSR fast-path views (Network; first_ non-null selects this branch —
  // the offset table is never empty, unlike the mailboxes of an edgeless
  // graph). All writes reachable through them are disjoint across
  // concurrently running nodes — each node stores only through its
  // own send channels, halts only itself, and counts into its own shard's
  // sent_ slot — which is the whole data-race argument for the sharded
  // round pass. The engine refreshes inbox_/outbox_/epoch_ every round
  // (the mailboxes swap).
  const int* first_ = nullptr;
  const int* send_chan_ = nullptr;
  const Message* inbox_ = nullptr;
  Message* outbox_ = nullptr;
  char* halted_ = nullptr;
  int64_t* sent_ = nullptr;  // messages-delivered counter (per shard)
  // Message-content digest accumulator (per shard), or null when
  // NetworkOptions::digest_messages is off — the null check is the whole
  // hot-path cost of the feature when disabled.
  uint64_t* macc_ = nullptr;
  int32_t epoch_ = 0;

  // Wake-scheduling hooks. sleep_until_ is the engine<->algorithm mailbox
  // for SleepUntil: the engine pre-sets it to round+1 before each OnRound
  // and reads it back after. The notify trio is the CSR engine's message-
  // wake recorder, live only while some node is parked (one null check on
  // notify_stamp_ is the whole hot-path cost otherwise): an observable
  // Send marks its receiver's internal rank once per round (epoch-stamped
  // dedup; the stamp is atomic so Network shards dedup across threads with
  // a relaxed exchange, which costs nothing extra at T = 1) into this
  // shard's own notified list.
  // Sleeping receivers are woken at the round barrier.
  int32_t sleep_until_ = 0;
  const int* chan_owner_ = nullptr;  // recv channel -> receiver internal rank
  std::atomic<int32_t>* notify_stamp_ = nullptr;
  std::vector<int>* notified_ = nullptr;

  // This node's slot in the engine's state plane, re-aimed by the engine
  // before every OnRound call (null when StateBytes() == 0). The engine
  // does the internal-rank addressing; the accessor above stays a bare
  // cast.
  void* state_ = nullptr;

  int node_ = 0;
  int round_ = 0;
};

// A distributed algorithm. OnRound is invoked once per node per round
// (round 0 included, with empty inboxes) until every node halts, except in
// the rounds a node sleeps through (InitialWakeRound,
// NodeContext::SleepUntil). A dense algorithm — every live node acting
// every round — overrides neither and is visited every round.
//
// Per-node state lives in an ENGINE-MANAGED state plane: the algorithm
// declares a fixed-size POD slot via StateBytes(), initializes each node's
// slot in InitState(), and reads/writes it through NodeContext::State<T>().
// The engine owns the storage and lays it out ITS way — indexed by internal
// rank, so under NetworkOptions::relabel the state walks in BFS worklist
// order alongside the mailboxes instead of streaming scattered. This is
// what lets one Algorithm implementation hit the engine's best memory
// layout without knowing how the engine is configured. Algorithms with no
// per-node state (or legacy ones keeping their own node-indexed arrays)
// return 0 from StateBytes() and everything behaves as before — but the
// relabeled layout can then no longer help their state locality, which
// measurably costs on big inputs.
//
// Determinism contract (what makes every engine in this family produce
// bit-identical transcripts): within a round, OnRound for node v may read
// and write only v's own state slot (plus any v-indexed state the
// implementation still keeps itself), read its inbox, send on its own
// ports, and halt itself. Sends become visible at the round barrier, so the
// order in which nodes run within a round — serial index order, relabeled
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

  // First round in which `node` acts (absolute; 0 = round 0, the default;
  // kNoWakeRound = parked until a message arrives). An algorithm that
  // sleeps promises that every OnRound it skips is a pure no-op absent new
  // messages — the message-wake invariant then makes transcripts
  // bit-identical to visiting every node every round, by construction.
  // Ignored when NetworkOptions::wake_scheduling is off. Like InitState,
  // it must depend only on (node, captured construction inputs). Negative
  // returns are clamped to 0.
  virtual int InitialWakeRound(int node) const {
    (void)node;
    return 0;
  }
};

// Bytes held by each of a Network's structures (vector capacities, so the
// figures track what the engine actually reserved). Construction allocates
// the channel tables, degree table, mailboxes, worklist and id copy; the
// state plane and wake tables are armed by the first run that needs them
// and keep their capacity across runs, and the run log grows with the
// rounds of the last run. The wake tables come in two steps: the first
// run arms the per-node wake rounds and bucket stamps, and the first run
// that parks a node adds the channel-owner table and notify stamps.
// treelocald charges a resident graph's cached engine against its memory
// quota with this.
struct EngineBytes {
  size_t channel_tables = 0;  // CSR offsets + send-channel table
  size_t degree_table = 0;
  size_t mailboxes = 0;    // inbox + outbox: 2 x 2m Message slots
  size_t worklist = 0;     // active list, halt flags, rank order/permutation,
                           // per-lane shard slots
  size_t ids = 0;          // the engine's copy of the node ids
  size_t state_plane = 0;  // Algorithm::StateBytes per node
  size_t wake_tables = 0;  // wake rounds, bucket/notify stamps, calendar,
                           // channel owners, per-lane wake scratch
  size_t run_log = 0;      // per-round stats, digests, timings
  size_t total() const {
    return channel_tables + degree_table + mailboxes + worklist + ids +
           state_plane + wake_tables + run_log;
  }
};

// The engine base. Every engine runs the same synchronous round loop of
// the LOCAL model (Definition 5) over a port-numbered network: all nodes
// run in lockstep, and messages sent in round r are received in round
// r+1. The engines must produce bit-identical transcripts, so Engine owns
// everything that does not depend on how an engine lays out its channels
// and schedules its nodes:
//   * the graph view, the ids, and the options every engine honors;
//   * the run log: the round counter, delivered messages and message
//     wakes, per-round RoundStats, content accumulators, the digest chain,
//     and the opt-in round timings;
//   * the engine-managed state plane, indexed by internal rank through
//     perm_ (empty = identity), so StateAt is an inline read;
//   * the pause/resume state machine and the canonical checkpoint: the
//     snapshot header, the run history and the state plane are saved and
//     restored here.
// A derived engine supplies its round loop (RunUntil, called once per
// Run or RunUntil call) and its halt/wake planes and mailboxes: what
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
  // fresh one, any relabel/thread setting, or another engine class —
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
  // with support::kDigestSeed. Bit-identical across every engine, relabel
  // setting, and thread count; with NetworkOptions::digest_messages it also
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

  // Message-triggered wakes over the last Run (a sleeping node pulled to
  // the next round by an observable incoming message). 0 when nobody slept
  // (dense algorithms, wake_scheduling off). With total visits/decisions
  // from round_stats(), this closes the scheduler's accounting: every
  // visit is an initial wake, a calendar wake, or one of these.
  int64_t wakes() const { return wakes_; }

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
    const auto i = static_cast<size_t>(perm_.empty() ? v : perm_[v]);
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
  //     which the engine places its halt flags, wake rounds and
  //     deliverable messages;
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

  // Appends one executed round to the run log and the digest chain.
  void RecordRound(int live, int64_t sent, int64_t visits, int64_t decisions,
                   uint64_t msg_acc) {
    messages_delivered_ += sent;
    round_stats_.push_back({live, sent, visits, decisions});
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

  // Fills the engine's part of a checkpoint's instances[0]: the halt flags
  // and wake rounds (n entries each, external-indexed; the base
  // canonicalizes the wake rounds) and, unless snap.finished, the
  // deliverable messages sorted by receiver (node, port).
  virtual void SaveBoundary(SnapshotData& snap) const = 0;

  GraphView graph_;
  std::vector<int64_t> ids_;
  bool digest_messages_ = false;  // NetworkOptions::digest_messages
  bool wake_opt_ = true;          // NetworkOptions::wake_scheduling
  support::FaultInjector* fault_ = nullptr;

  // Engine-owned per-node state plane (Algorithm::StateBytes per slot),
  // indexed by internal rank: slot perm_[v] belongs to external node v
  // (perm_ empty = identity). Re-armed (zero + InitState) every fresh run,
  // reallocated only when the slot size grows.
  std::vector<int> perm_;
  std::vector<unsigned char> state_;
  size_t state_stride_ = 0;

  // The run log (see the accessors above).
  int round_ = 0;
  int64_t messages_delivered_ = 0;
  int64_t wakes_ = 0;
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
// Throughput design (the per-round cost is the system-wide bottleneck for
// every pipeline in this repository):
//   * Channel tables in CSR layout, built once at construction. Channels are
//     indexed by the RECEIVER's CSR slot: Recv(v, p) is a single sequential
//     load of v's own slot first_[v] + p (ports scan contiguously, so the
//     prefetcher covers per-node inbox scans), while Send(v, p) stores
//     through the precomputed send_chan_ table to the reverse half-edge — a
//     random store, which the store buffer absorbs without stalling, unlike
//     the random load a sender-indexed layout would put in Recv. No
//     IncidentEdges/EndpointSlot recomputation on the hot path. With
//     NetworkOptions::relabel the blocks are laid out in BFS order, which
//     shortens the stride of those random stores on badly-labeled inputs.
//   * Epoch-stamped mailboxes: each channel carries the epoch at which it was
//     last written. A message is visible iff its stamp equals the previous
//     epoch. This removes the per-round O(2m) outbox clear and the O(2m)
//     delivered-message scan — messages are counted at send time instead.
//   * Wake-calendar worklist: each round iterates only the nodes due that
//     round — every live node when nobody sleeps — and compacts the ones
//     due again next round in place (stable, preserving the engine's node
//     order); sleepers move to a calendar bucket. Once a node halts it is
//     never touched again.
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
// Per-round complexity: O(sum of OnRound costs over visited nodes / T) per
// lane + O(#visited / T) for the compaction + O(T) reduction + one pool
// fork/join, plus serial calendar work for the nodes that sleep or wake
// that round (none in a dense run). Nothing is proportional to n or m per
// round; construction is O(n + m); Run performs no allocation beyond
// growing the per-round vectors.
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
// The 32-bit epoch stamps wrap only after ~2^31 cumulative rounds; Run
// re-arms the mailboxes at both wrap points (before a run, and — for a
// single run of ~2^31 rounds — mid-run, preserving the in-flight round's
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
  // tests; production code never touches these.
  int32_t epoch_for_testing() const { return epoch_; }
  void set_epoch_for_testing(int32_t epoch) { epoch_ = epoch; }

 private:
  friend class NodeContext;

  void SaveBoundary(SnapshotData& snap) const override;

  // Per-shard round state, cache-line padded: sent is the shard's message
  // counter (NodeContext::sent_ points here), macc its content-digest
  // accumulator (NodeContext::macc_), kept the size of the shard's
  // compacted worklist range. The wake-scheduling scratch is touched only
  // by the shard's lane during the round and read serially at the barrier:
  // visit and decision counters (summed into RoundStats), the halts this
  // round (reduced into the live count), the ranks that slept past the next
  // round (distributed into the calendar), and the wake candidates this
  // shard's sends recorded (NodeContext::notified_).
  struct alignas(64) Shard {
    int64_t sent = 0;
    uint64_t macc = 0;
    int kept = 0;
    int64_t visits = 0;
    int64_t decisions = 0;
    int halts = 0;
    std::vector<int> slept;
    std::vector<int> notified;
  };

  std::vector<int> first_;      // size n+1: CSR offsets; recv channel of
                                // (v, p) is first_[v] + p
  std::vector<int> send_chan_;  // size 2m: send channel of (v, p), i.e. the
                                // channel of the reverse half-edge
  std::vector<int> degree_;     // size n: degree of external node v (see
                                // BuildChannelTables); NodeContext::degree()
  std::vector<int> order_;      // internal rank -> external id (iota, or BFS
                                // under options.relabel); perm_ inverts it
  // Double-buffered mailboxes, each slot epoch-stamped in the Message's
  // engine_stamp field; swapped (O(1)) each round, never cleared.
  std::vector<Message> inbox_, outbox_;
  std::vector<char> halted_;
  std::vector<int> active_;  // the CURRENT ROUND's wake bucket: INTERNAL
                             // ranks, UNIQUE entries (see bucket_stamp_).
                             // When nobody sleeps it is every live rank in
                             // ascending order, so rank i's state slot and
                             // external id (order_[i]) stream sequentially
                             // even under relabel — the whole point of
                             // internal indexing.
  // Wake calendar (wake_round_ and bucket_stamp_ armed by the first run;
  // chan_owner_ and notify_stamp_ by the first run that parks a node, see
  // RunUntil). wake_round_[i] is rank i's next scheduled round
  // (kNoWakeRound = parked); a value at or below the current round means
  // the rank is awake and in the bucket — a rank that stays awake never
  // rewrites it, so dense runs leave the plane untouched, and the
  // checkpoint gather canonicalizes it to the snapshot round.
  // calendar_[r] holds ranks waking in future round r — entries go stale
  // when a message wake or an earlier visit moves the node's wake round,
  // and the visit skips them. wake_round_ needs no atomics: during a round
  // each rank is written only by the shard visiting it and all cross-rank
  // reads happen serially at the barrier. bucket_stamp_[i] == r marks rank i already
  // placed in round r's bucket, so the assembly dedups — duplicates inside
  // a bucket would let two shards visit the same node concurrently.
  // notify_stamp_/chan_owner_ implement the Send-side message-wake
  // recording described at NodeContext; notify_armed_ says whether this
  // run's sends record (some node is parked).
  std::vector<int32_t> wake_round_;
  std::vector<int32_t> bucket_stamp_;
  std::vector<std::vector<int>> calendar_;
  std::vector<int> chan_owner_;
  std::unique_ptr<std::atomic<int32_t>[]> notify_stamp_;
  bool notify_armed_ = false;
  int live_count_ = 0;    // non-halted nodes (the run's termination test)
  std::vector<Shard> shards_;
  support::ThreadPool pool_;  // num_threads lanes, persistent
  int32_t epoch_ = 1;  // monotone across runs (wrap-guarded in Run);
                       // stamps start at -1

  static const Message kNoMessage;
};

inline const Message& NodeContext::Recv(int port) const {
  if (first_ != nullptr) [[likely]] {
    const auto c = static_cast<size_t>(first_[node_] + port);
    const Message& s = inbox_[c];
    return s.engine_stamp + 1 == epoch_ ? s : Network::kNoMessage;
  }
  return internal::RefRecv(*ref_, node_, port);
}

inline void NodeContext::Send(int port, Message m) {
  if (first_ != nullptr) [[likely]] {
    const auto c = static_cast<size_t>(send_chan_[first_[node_] + port]);
    Message& s = outbox_[c];
    if (s.engine_stamp == epoch_) {
      // Second write on this channel this round: last write wins, undo the
      // earlier message's contribution to the counter (and, under content
      // digests, to the accumulator — the slot's previous writer was this
      // same (node, port), so its hash is recomputable in place).
      *sent_ -= s.present();
      if (macc_ != nullptr && s.present()) {
        *macc_ -= support::MessageHash(node_, port, s.word0, s.word1, s.size);
      }
    }
    const int32_t stamp = epoch_;
    s = m;
    s.engine_stamp = stamp;
    *sent_ += m.present();
    if (macc_ != nullptr && m.present()) {
      *macc_ += support::MessageHash(node_, port, m.word0, m.word1, m.size);
    }
    if (notify_stamp_ != nullptr &&
        (m.size != 0 || m.word0 != 0 || m.word1 != 0)) {
      // Scheduled run: record the receiver as a wake candidate, once per
      // round (epoch-stamped dedup; the relaxed exchange makes concurrent
      // shards agree on a single recorder). The observability predicate
      // matches Recv's view and the snapshot layer's deliverable set — a
      // message a sleeping receiver could not distinguish from silence must
      // not wake it, or visit counts would diverge across engines. Whether
      // the candidate is actually asleep (and whether an observable message
      // still sits in its inbox after later overwrites) is resolved at the
      // round barrier.
      const int r = chan_owner_[c];
      if (notify_stamp_[r].load(std::memory_order_relaxed) != stamp &&
          notify_stamp_[r].exchange(stamp, std::memory_order_relaxed) !=
              stamp) {
        notified_->push_back(r);
      }
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
    halted_[node_] = 1;  // worklist compaction happens after OnRound
    return;
  }
  internal::RefHalt(*ref_, node_);
}

}  // namespace treelocal::local

#endif  // TREELOCAL_LOCAL_NETWORK_H_
