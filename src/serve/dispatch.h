#ifndef TREELOCAL_SERVE_DISPATCH_H_
#define TREELOCAL_SERVE_DISPATCH_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/serve/protocol.h"
#include "src/serve/registry.h"

namespace treelocal::serve {

// The daemon's solve queue and its single dispatcher thread: the component
// that turns "batch" into "concurrent users". Requests are admitted into a
// FIFO; the dispatcher pops the head and then sweeps the rest of the queue
// for requests it can serve in the SAME pass. Every pass runs on the
// resident graph's own engine (ResidentGraph::engine), built once at
// admission, so no request pays for an engine build:
//
//  - kRakeCompress on the same resident graph coalesces into one pass with
//    one engine run per DISTINCT canonical parameter
//    (RakeCompressCanonicalK): requests whose k's are provably
//    transcript-identical share a single run and fan the engine-level
//    result back out. The distinct runs go one after another. Results are
//    bit-identical to a solo Network run of the same (graph, k) — same
//    rounds, messages, and digest chain — which is the serving-correctness
//    contract the concurrent tests pin.
//  - kThm12Node on the same graph and problem coalesces the same way, one
//    SolveNodeProblemOnTree run per distinct k.
//  - kThm15Edge and kDecomposition run solo.
//
// The engine's lane count is Registry::Options::engine_threads (treelocald's
// --threads); results are bit-identical for every value.
//
// Rake-compress runs are driven in RunUntil slices, so cancellation and
// per-request round budgets act at slice boundaries mid-run: a cancelled
// member's run keeps going while another member shares it (the shared
// transcript must not change under them) but its result is dropped, and a
// run none of whose members is still live is abandoned at the slice
// boundary (Network::AbandonRun), so the engine starts the next run fresh.
// Round-budget overruns surface as the engine's MaxRoundsExceededError,
// mapped to kFailed with the reason string.
class Dispatcher {
 public:
  struct Options {
    int max_batch = 16;     // widest coalesced pass
    int slice_rounds = 64;  // RunUntil pause cadence (cancel latency bound)
    // Admission cap: a Submit that would grow the queue past this bound is
    // bounced with Status::kRejected (and counted in stats.rejected)
    // instead of being enqueued — backpressure surfaces to the client as a
    // structured retry signal rather than unbounded daemon memory. A cap of
    // 0 rejects every solve whose queue slot is not already free (i.e. all
    // of them), which the tests use for deterministic full-queue coverage.
    int max_queue = 1024;
  };

  Dispatcher(const Registry* registry, const Options& options);
  ~Dispatcher();

  // Validates and enqueues a solve. On success returns kOk and sets
  // *ticket; otherwise returns the error and sets *error. The ticket holds
  // its own reference to the graph until it reaches a terminal state, so a
  // registry eviction cannot pull a graph out from under a queued or
  // running solve.
  Status Submit(std::shared_ptr<const ResidentGraph> graph,
                const SolveSpec& spec, uint64_t* ticket, std::string* error);

  // Snapshot of a ticket; block = wait for a terminal state. False if the
  // ticket is unknown.
  bool Fetch(uint64_t ticket, bool block, TicketState* state,
             SolveResult* result, std::string* why);

  // Requests cancellation. Queued tickets cancel immediately; running ones
  // at the next slice boundary (kRakeCompress), when their k's run would
  // start or has ended (kThm12Node), or not at all once a solo run has
  // started — the returned state is what the ticket reached. False if the
  // ticket is unknown.
  bool Cancel(uint64_t ticket, TicketState* state);

  // Fills the dispatcher-owned counters of *stats (queue/batch/engine
  // fields; the server adds its own).
  void FillStats(ServerStats* stats) const;

  // Stops accepting (subsequent Submits fail kShuttingDown), cancels
  // queued tickets, finishes the in-flight pass, and joins the thread.
  // Idempotent.
  void Stop();

 private:
  struct Ticket;
  using TicketPtr = std::shared_ptr<Ticket>;

  void WorkerLoop();
  std::vector<TicketPtr> CollectBatch(TicketPtr head);
  void RunRakeCompressPass(const std::vector<TicketPtr>& members);
  void RunThm12Pass(const std::vector<TicketPtr>& members);
  void RunSolo(const TicketPtr& t);
  void Finish(const TicketPtr& t, TicketState state, const SolveResult& res,
              const std::string& why);

  const Registry* registry_;
  Options options_;

  mutable std::mutex mu_;
  std::condition_variable cv_work_;  // queue became non-empty / stopping
  std::condition_variable cv_done_;  // some ticket reached a terminal state
  std::deque<TicketPtr> queue_;
  std::unordered_map<uint64_t, TicketPtr> tickets_;
  uint64_t next_ticket_ = 1;
  bool stopping_ = false;

  // Counters (guarded by mu_).
  uint64_t submitted_ = 0;
  uint64_t completed_ = 0;
  uint64_t failed_ = 0;
  uint64_t cancelled_ = 0;
  uint64_t rejected_ = 0;
  uint64_t batches_ = 0;
  uint64_t batched_requests_ = 0;
  uint64_t max_batch_seen_ = 0;
  uint64_t max_queue_depth_ = 0;
  uint64_t inflight_ = 0;
  uint64_t engine_rounds_ = 0;
  uint64_t engine_messages_ = 0;

  std::thread worker_;
};

}  // namespace treelocal::serve

#endif  // TREELOCAL_SERVE_DISPATCH_H_
