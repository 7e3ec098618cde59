#include "src/serve/dispatch.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <map>
#include <utility>

#include "src/core/decomposition.h"
#include "src/core/rake_compress.h"
#include "src/core/transform_edge.h"
#include "src/core/transform_node.h"
#include "src/local/network.h"
#include "src/problems/coloring.h"
#include "src/problems/edge_coloring.h"
#include "src/problems/matching.h"
#include "src/problems/mis.h"
#include "src/support/digest.h"

namespace treelocal::serve {
namespace {

// The digest a solo engine would report for this trajectory: the chain over
// per-round (active, sent) with content accumulators off. This is exactly
// how the engines fold round_digests, so a daemon response is comparable
// against Network::last_digest() or a transcript_verify replay.
uint64_t FoldDigest(const std::vector<local::RoundStats>& stats) {
  uint64_t d = support::kDigestSeed;
  for (const auto& rs : stats) {
    d = support::ChainDigest(d, rs.active_nodes, rs.messages_sent, 0);
  }
  return d;
}

// Solo-run engine budget for rake-compress (the convention the tests and
// transcript_verify use: double the Lemma 9 bound plus slack, times 3
// rounds per iteration).
int RakeCompressBudget(int64_t n, int k) {
  return 3 * (2 * RakeCompressIterationBound(n, k) + 8);
}

std::unique_ptr<NodeProblem> MakeNodeProblem(ProblemId id, int max_degree) {
  switch (id) {
    case ProblemId::kColoringDeltaPlusOne:
      return std::make_unique<ColoringProblem>(
          ColoringProblem::Mode::kDeltaPlusOne, max_degree);
    case ProblemId::kColoringDegPlusOne:
      return std::make_unique<ColoringProblem>(
          ColoringProblem::Mode::kDegPlusOne, max_degree);
    case ProblemId::kMis:
      return std::make_unique<MisProblem>();
    default:
      return nullptr;
  }
}

std::unique_ptr<EdgeProblem> MakeEdgeProblem(ProblemId id, int max_degree) {
  switch (id) {
    case ProblemId::kEdgeColoringTwoDeltaMinusOne:
      return std::make_unique<EdgeColoringProblem>(
          EdgeColoringProblem::Mode::kTwoDeltaMinusOne, max_degree);
    case ProblemId::kEdgeColoringEdgeDegreePlusOne:
      return std::make_unique<EdgeColoringProblem>(
          EdgeColoringProblem::Mode::kEdgeDegreePlusOne, max_degree);
    case ProblemId::kMatching:
      return std::make_unique<MatchingProblem>();
    default:
      return nullptr;
  }
}

// Groups the indices 0..count-1 by key(i): one group per distinct key, in
// the order each key first appears.
template <typename KeyFn>
std::vector<std::vector<size_t>> GroupByKey(size_t count, KeyFn key) {
  std::map<int, size_t> group_of;
  std::vector<std::vector<size_t>> groups;
  for (size_t i = 0; i < count; ++i) {
    auto [it, fresh] = group_of.try_emplace(key(i), groups.size());
    if (fresh) groups.emplace_back();
    groups[it->second].push_back(i);
  }
  return groups;
}

}  // namespace

struct Dispatcher::Ticket {
  uint64_t id = 0;
  // Owning: released at the terminal transition, so the registry's
  // idle-LRU eviction sees a graph as busy exactly while tickets against
  // it are queued or running.
  std::shared_ptr<const ResidentGraph> graph;
  SolveSpec spec;
  // Terminal transitions happen under the dispatcher mutex (Finish); the
  // atomics let slice-boundary checks and Fetch snapshots read without it.
  std::atomic<TicketState> state{TicketState::kQueued};
  std::atomic<bool> cancel{false};
  SolveResult result;  // written in Finish before the state store
  std::string why;
};

Dispatcher::Dispatcher(const Registry* registry, const Options& options)
    : registry_(registry), options_(options) {
  worker_ = std::thread([this] { WorkerLoop(); });
}

Dispatcher::~Dispatcher() { Stop(); }

Status Dispatcher::Submit(std::shared_ptr<const ResidentGraph> graph,
                          const SolveSpec& spec, uint64_t* ticket,
                          std::string* error) {
  if (spec.max_rounds < 0) {
    *error = "negative round budget";
    return Status::kBadRequest;
  }
  switch (spec.kind) {
    case SolveKind::kRakeCompress:
    case SolveKind::kThm12Node:
      if (!graph->is_forest) {
        *error = "rake-compress requires a forest";
        return Status::kBadRequest;
      }
      if (spec.k < 2) {
        *error = "rake-compress requires k >= 2";
        return Status::kBadRequest;
      }
      if (spec.kind == SolveKind::kThm12Node &&
          MakeNodeProblem(spec.problem, 1) == nullptr) {
        *error = "thm12 requires a node problem";
        return Status::kBadRequest;
      }
      break;
    case SolveKind::kThm15Edge:
    case SolveKind::kDecomposition:
      if (spec.a < 1) {
        *error = "arboricity bound must be >= 1";
        return Status::kBadRequest;
      }
      if (spec.k < 5 * spec.a) {
        *error = "decomposition requires k >= 5a";
        return Status::kBadRequest;
      }
      if (spec.kind == SolveKind::kThm15Edge &&
          MakeEdgeProblem(spec.problem, 1) == nullptr) {
        *error = "thm15 requires an edge problem";
        return Status::kBadRequest;
      }
      break;
  }

  auto t = std::make_shared<Ticket>();
  t->graph = std::move(graph);
  t->spec = spec;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      *error = "daemon is shutting down";
      return Status::kShuttingDown;
    }
    if (queue_.size() >= static_cast<size_t>(std::max(0, options_.max_queue))) {
      // Bounded admission: reject rather than enqueue without limit. The
      // depth in the message is the retry signal — the client should back
      // off until a Fetch/Stats shows the queue draining.
      ++rejected_;
      *error = "admission queue full (" + std::to_string(queue_.size()) +
               " queued, cap " + std::to_string(options_.max_queue) +
               "); retry after the queue drains";
      return Status::kRejected;
    }
    t->id = next_ticket_++;
    tickets_.emplace(t->id, t);
    queue_.push_back(t);
    ++submitted_;
    max_queue_depth_ = std::max(max_queue_depth_, (uint64_t)queue_.size());
  }
  cv_work_.notify_one();
  *ticket = t->id;
  return Status::kOk;
}

bool Dispatcher::Fetch(uint64_t ticket, bool block, TicketState* state,
                       SolveResult* result, std::string* why) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = tickets_.find(ticket);
  if (it == tickets_.end()) return false;
  TicketPtr t = it->second;
  if (block) {
    cv_done_.wait(lock, [&] {
      return t->state.load() >= TicketState::kDone || stopping_;
    });
  }
  *state = t->state.load();
  if (*state == TicketState::kDone) *result = t->result;
  if (*state == TicketState::kFailed) *why = t->why;
  return true;
}

bool Dispatcher::Cancel(uint64_t ticket, TicketState* state) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = tickets_.find(ticket);
  if (it == tickets_.end()) return false;
  TicketPtr t = it->second;
  t->cancel.store(true);
  if (t->state.load() == TicketState::kQueued) {
    // Cancel-before-start completes immediately and frees the queue slot.
    queue_.erase(std::remove(queue_.begin(), queue_.end(), t), queue_.end());
    t->graph.reset();
    t->state.store(TicketState::kCancelled);
    ++cancelled_;
    cv_done_.notify_all();
  }
  *state = t->state.load();
  return true;
}

void Dispatcher::FillStats(ServerStats* stats) const {
  std::lock_guard<std::mutex> lock(mu_);
  stats->requests = submitted_;
  stats->completed = completed_;
  stats->failed = failed_;
  stats->cancelled = cancelled_;
  stats->rejected = rejected_;
  stats->batches = batches_;
  stats->batched_requests = batched_requests_;
  stats->max_batch = max_batch_seen_;
  stats->queue_depth = queue_.size();
  stats->max_queue_depth = max_queue_depth_;
  stats->inflight = inflight_;
  stats->engine_rounds = engine_rounds_;
  stats->engine_messages = engine_messages_;
}

void Dispatcher::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ && !worker_.joinable()) return;
    stopping_ = true;
    for (const TicketPtr& t : queue_) {
      t->cancel.store(true);
      t->graph.reset();
      t->state.store(TicketState::kCancelled);
      ++cancelled_;
    }
    queue_.clear();
  }
  cv_work_.notify_all();
  cv_done_.notify_all();
  if (worker_.joinable()) worker_.join();
}

void Dispatcher::Finish(const TicketPtr& t, TicketState state,
                        const SolveResult& res, const std::string& why) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    t->result = res;
    t->why = why;
    // Drop the graph reference before the terminal store becomes visible:
    // a Fetch that observed the terminal state must find the graph already
    // idle (evictable) in the registry.
    t->graph.reset();
    t->state.store(state);
    --inflight_;
    switch (state) {
      case TicketState::kDone: ++completed_; break;
      case TicketState::kFailed: ++failed_; break;
      case TicketState::kCancelled: ++cancelled_; break;
      default: break;
    }
  }
  cv_done_.notify_all();
}

std::vector<Dispatcher::TicketPtr> Dispatcher::CollectBatch(TicketPtr head) {
  // Called with mu_ held. Sweeps the queue for requests the head's engine
  // pass can also serve.
  // Keep an owning copy of the head: push_back below may reallocate
  // `members`, so a reference into it would dangle mid-sweep.
  const TicketPtr h = head;
  std::vector<TicketPtr> members{std::move(head)};
  const bool coalescable = h->spec.kind == SolveKind::kRakeCompress ||
                           h->spec.kind == SolveKind::kThm12Node;
  if (coalescable) {
    for (auto it = queue_.begin();
         it != queue_.end() &&
         members.size() < static_cast<size_t>(options_.max_batch);) {
      const TicketPtr& c = *it;
      const bool match =
          c->graph == h->graph && c->spec.kind == h->spec.kind &&
          (h->spec.kind != SolveKind::kThm12Node ||
           c->spec.problem == h->spec.problem) &&
          !c->cancel.load();
      if (match) {
        members.push_back(c);
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (const TicketPtr& t : members) t->state.store(TicketState::kRunning);
  inflight_ += members.size();
  ++batches_;
  batched_requests_ += members.size();
  max_batch_seen_ = std::max(max_batch_seen_, (uint64_t)members.size());
  return members;
}

void Dispatcher::WorkerLoop() {
  for (;;) {
    TicketPtr head;
    std::vector<TicketPtr> members;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_work_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      head = queue_.front();
      queue_.pop_front();
      if (head->cancel.load()) {
        head->graph.reset();
        head->state.store(TicketState::kCancelled);
        ++cancelled_;
        cv_done_.notify_all();
        continue;
      }
      members = CollectBatch(std::move(head));
    }
    switch (members.front()->spec.kind) {
      case SolveKind::kRakeCompress:
        RunRakeCompressPass(members);
        break;
      case SolveKind::kThm12Node:
        RunThm12Pass(members);
        break;
      default:
        RunSolo(members.front());
        break;
    }
  }
}

void Dispatcher::RunRakeCompressPass(const std::vector<TicketPtr>& members) {
  // A member's Finish releases its own graph reference mid-pass (cancel at
  // a slice boundary), so the pass holds its own.
  const std::shared_ptr<const ResidentGraph> resident =
      members.front()->graph;
  const ResidentGraph& rg = *resident;
  local::Network& net = *rg.engine;
  const int64_t n = rg.graph.NumNodes();

  // Canonical-k dedup: members whose parameters provably produce identical
  // transcripts share one engine run. Runs go in order of first request.
  const auto canonical_k = [&](size_t i) {
    return RakeCompressCanonicalK(members[i]->spec.k, rg.max_degree);
  };
  std::vector<int> budgets(members.size());
  for (size_t i = 0; i < members.size(); ++i) {
    const SolveSpec& spec = members[i]->spec;
    budgets[i] = spec.max_rounds > 0 ? spec.max_rounds
                                     : RakeCompressBudget(n, spec.k);
  }

  uint64_t pass_rounds = 0, pass_messages = 0;
  std::vector<char> terminal(members.size(), 0);
  for (const std::vector<size_t>& mine :
       GroupByKey(members.size(), canonical_k)) {
    // Settles the run's members at a slice boundary `pause` (0 = before
    // the run starts): cancelled members are dropped, and a member whose
    // budget the unfinished run has passed fails. Returns whether any
    // member is still live.
    const auto settle = [&](int pause) {
      bool any_live = false;
      for (const size_t i : mine) {
        if (terminal[i]) continue;
        if (members[i]->cancel.load()) {
          // Drop the result; the shared run keeps going so the other
          // members' transcripts are untouched.
          terminal[i] = 1;
          Finish(members[i], TicketState::kCancelled, {}, "");
          continue;
        }
        if (pause > budgets[i]) {
          terminal[i] = 1;
          Finish(members[i], TicketState::kFailed, {},
                 "round budget exceeded (" + std::to_string(budgets[i]) +
                     " rounds)");
          continue;
        }
        any_live = true;
      }
      return any_live;
    };
    if (!settle(0)) continue;
    int engine_budget = 1;
    for (const size_t i : mine) {
      engine_budget = std::max(engine_budget, budgets[i]);
    }
    try {
      const std::unique_ptr<local::Algorithm> alg =
          MakeRakeCompressAlgorithm(canonical_k(mine.front()));
      int rounds = 0;
      for (int pause = options_.slice_rounds;; pause += options_.slice_rounds) {
        rounds = net.RunUntil(*alg, engine_budget, pause);
        if (net.finished()) break;
        if (!settle(pause)) break;
      }
      if (!net.finished()) {
        net.AbandonRun();  // every member dead: the next run starts fresh
        continue;
      }
      pass_rounds += (uint64_t)rounds;
      pass_messages += (uint64_t)net.messages_delivered();
      for (const size_t i : mine) {
        if (terminal[i]) continue;
        terminal[i] = 1;
        if (rounds > budgets[i]) {
          Finish(members[i], TicketState::kFailed, {},
                 "round budget exceeded (" + std::to_string(budgets[i]) +
                     " rounds)");
          continue;
        }
        SolveResult res;
        res.kind = SolveKind::kRakeCompress;
        res.valid = 1;
        res.engine_rounds = (uint32_t)rounds;
        res.total_rounds = (uint32_t)rounds;
        res.messages = net.messages_delivered();
        res.digest = net.last_digest();
        // Each iteration is 3 rounds and the run halts inside its last one
        // (phase 1 or 2), so ceil(r / 3) is the solo run's num_iterations.
        res.iterations = (uint32_t)((rounds + 2) / 3);
        Finish(members[i], TicketState::kDone, res, "");
      }
    } catch (const std::exception& e) {
      // The engine stays reusable after a throw (the next run starts
      // fresh); only this run's members fail.
      for (const size_t i : mine) {
        if (terminal[i]) continue;
        terminal[i] = 1;
        Finish(members[i], TicketState::kFailed, {}, e.what());
      }
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  engine_rounds_ += pass_rounds;
  engine_messages_ += pass_messages;
}

void Dispatcher::RunThm12Pass(const std::vector<TicketPtr>& members) {
  const std::shared_ptr<const ResidentGraph> resident =
      members.front()->graph;
  const ResidentGraph& rg = *resident;
  auto problem = MakeNodeProblem(members.front()->spec.problem,
                                 std::max(1, rg.max_degree));
  // One pipeline run per distinct k, in order of first request.
  const auto k_of = [&](size_t i) { return members[i]->spec.k; };
  uint64_t pass_rounds = 0, pass_messages = 0;
  for (const std::vector<size_t>& mine : GroupByKey(members.size(), k_of)) {
    bool any_live = false;
    for (const size_t i : mine) {
      any_live = any_live || !members[i]->cancel.load();
    }
    if (!any_live) {  // skip a run nobody is waiting for
      for (const size_t i : mine) {
        Finish(members[i], TicketState::kCancelled, {}, "");
      }
      continue;
    }
    try {
      const Thm12Result r =
          SolveNodeProblemOnTree(*problem, *rg.engine, rg.id_space,
                                 k_of(mine.front()));
      pass_rounds += (uint64_t)r.rounds_total;
      pass_messages += (uint64_t)r.engine_messages;
      for (const size_t i : mine) {
        const TicketPtr& t = members[i];
        if (t->cancel.load()) {
          Finish(t, TicketState::kCancelled, {}, "");
          continue;
        }
        if (t->spec.max_rounds > 0 &&
            r.rake_compress.engine_rounds > t->spec.max_rounds) {
          Finish(t, TicketState::kFailed, {},
                 "round budget exceeded (" +
                     std::to_string(t->spec.max_rounds) + " rounds)");
          continue;
        }
        SolveResult res;
        res.kind = SolveKind::kThm12Node;
        res.valid = r.valid ? 1 : 0;
        res.engine_rounds = (uint32_t)r.rake_compress.engine_rounds;
        res.total_rounds = (uint32_t)r.rounds_total;
        res.messages = r.engine_messages;
        res.digest = FoldDigest(r.rake_compress.round_stats);
        res.iterations = (uint32_t)r.rake_compress.num_iterations;
        Finish(t, TicketState::kDone, res, "");
      }
    } catch (const std::exception& e) {
      for (const size_t i : mine) {
        Finish(members[i], TicketState::kFailed, {}, e.what());
      }
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  engine_rounds_ += pass_rounds;
  engine_messages_ += pass_messages;
}

void Dispatcher::RunSolo(const TicketPtr& t) {
  const std::shared_ptr<const ResidentGraph> resident = t->graph;
  const ResidentGraph& rg = *resident;
  const SolveSpec& spec = t->spec;
  try {
    SolveResult res;
    if (spec.kind == SolveKind::kDecomposition) {
      DecompositionResult dr =
          RunDecomposition(*rg.engine, spec.a, 2 * spec.a, spec.k);
      res.kind = SolveKind::kDecomposition;
      res.valid = 1;
      res.engine_rounds = (uint32_t)dr.engine_rounds;
      res.total_rounds = (uint32_t)dr.engine_rounds;
      res.messages = dr.messages;
      res.digest = FoldDigest(dr.round_stats);
      res.iterations = (uint32_t)dr.num_layers;
    } else {
      auto problem =
          MakeEdgeProblem(spec.problem, std::max(1, rg.max_degree));
      Thm15Result r = SolveEdgeProblemBoundedArboricity(
          *problem, *rg.engine, rg.id_space, spec.a, spec.k);
      res.kind = SolveKind::kThm15Edge;
      res.valid = r.valid ? 1 : 0;
      res.engine_rounds = (uint32_t)r.rounds_decomposition;
      res.total_rounds = (uint32_t)r.rounds_total;
      res.messages = r.engine_messages;
      res.digest = FoldDigest(r.decomposition.round_stats);
      res.iterations = (uint32_t)r.decomposition.num_layers;
    }
    if (spec.max_rounds > 0 &&
        res.engine_rounds > (uint32_t)spec.max_rounds) {
      Finish(t, TicketState::kFailed, {},
             "round budget exceeded (" + std::to_string(spec.max_rounds) +
                 " rounds)");
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      engine_rounds_ += res.engine_rounds;
      engine_messages_ += (uint64_t)res.messages;
    }
    Finish(t, TicketState::kDone, res, "");
  } catch (const std::exception& e) {
    Finish(t, TicketState::kFailed, {}, e.what());
  }
}

}  // namespace treelocal::serve
