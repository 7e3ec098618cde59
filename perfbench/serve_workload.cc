// serve_mixed: an open loop against a treelocald-equivalent daemon.
//
// The daemon is this same binary started with --daemon in a child process
// (serve::Server with treelocald's defaults and --threads 1), so its peak
// RSS is its own and the negative control can arm Server::Options::fault.
// One generator process drives it from four threads (the machine's core
// count), each with its own connection: a thread takes the next request,
// sends it at its scheduled time with Client::Solve (which returns a ticket
// at once) and waits for its result with a blocking Client::Fetch on the
// same connection. Arrivals are a Poisson process conditioned on the
// request count: `rate * seconds` arrival times drawn uniformly over the
// window. Latency is timed from the scheduled send time, so a stall, or a
// request due while all four threads wait, is charged to the requests
// behind it.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/complexity.h"
#include "src/core/decomposition.h"
#include "src/core/rake_compress.h"
#include "src/core/transform_edge.h"
#include "src/core/transform_node.h"
#include "src/graph/generators.h"
#include "src/problems/edge_coloring.h"
#include "src/problems/mis.h"
#include "src/serve/client.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"
#include "src/support/digest.h"
#include "src/support/fault.h"
#include "src/support/rng.h"
#include "trace.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {

using namespace treelocal;

namespace {

constexpr int kServeN = 1 << 14;
constexpr int kGraphs = 2;
constexpr int kClients = 4;
// Offered load (see README.md, "serve_mixed rate"): low enough that most
// requests find the daemon idle, so the median request does not wait in the
// queue and does not swing with machine load through queueing.
constexpr double kOfferedRate = 30;
// serve_mixed boots a fresh daemon per set-up repetition; set-up (~0.3 s,
// mostly the warm-up burst) is short, so it is repeated more often than the
// solve workloads' to steady its median.
constexpr int kServeSetupReps = 9;
// Negative control: the daemon's coalesced rake-compress pass throws at
// this OnRound visit.
constexpr int64_t kFaultVisit = 500;

Graph ServeGraph(const Options& opt, int g) {
  return UniformRandomTree(kServeN, opt.seed * kGraphs + g);
}

struct MixEntry {
  const char* kind;  // per-kind metric name: serve.<kind>.p50_ms
  serve::SolveSpec spec;
  double weight;
};

// Mostly coalescible rake-compress requests, plus the three kinds the
// dispatcher runs solo (or batches only with their own kind), so a
// coalescing change that delays them shows up as a loss.
std::vector<MixEntry> Mix() {
  using serve::ProblemId;
  using serve::SolveKind;
  std::vector<MixEntry> mix;
  for (int k : {2, 3, 4, 8}) {
    mix.push_back({"rake_compress", {SolveKind::kRakeCompress,
                                     ProblemId::kNone, k, 1, 0}, 0.22});
  }
  mix.push_back({"thm12_node",
                 {SolveKind::kThm12Node, ProblemId::kMis,
                  ChooseK(kServeN, QuadraticF()), 1, 0},
                 0.03});
  mix.push_back({"thm15_edge",
                 {SolveKind::kThm15Edge,
                  ProblemId::kEdgeColoringEdgeDegreePlusOne,
                  std::max(5, ChooseK(kServeN, QuadraticF())), 1, 0},
                 0.03});
  mix.push_back({"decomposition",
                 {SolveKind::kDecomposition, ProblemId::kNone, 5, 1, 0},
                 0.06});
  return mix;
}

uint64_t FoldDigest(const std::vector<local::RoundStats>& stats) {
  uint64_t d = support::kDigestSeed;
  for (const auto& rs : stats) {
    d = support::ChainDigest(d, rs.active_nodes, rs.messages_sent, 0);
  }
  return d;
}

// What a solo run of (graph, spec) returns; every daemon response must
// equal it. The daemon assigns ids 0..n-1 (the graphs register without
// ids), so the id space is n.
serve::SolveResult SoloResult(const Graph& g, const serve::SolveSpec& spec) {
  std::vector<int64_t> ids(g.NumNodes());
  for (int i = 0; i < g.NumNodes(); ++i) ids[i] = i;
  const int64_t id_space = g.NumNodes();
  serve::SolveResult res;
  res.kind = spec.kind;
  switch (spec.kind) {
    case serve::SolveKind::kRakeCompress: {
      const RakeCompressResult r = RunRakeCompress(g, ids, spec.k);
      res.engine_rounds = res.total_rounds = r.engine_rounds;
      res.messages = r.messages;
      res.digest = FoldDigest(r.round_stats);
      res.iterations = r.num_iterations;
      break;
    }
    case serve::SolveKind::kThm12Node: {
      const Thm12Result r =
          SolveNodeProblemOnTree(MisProblem(), g, ids, id_space, spec.k);
      res.valid = r.valid;
      res.engine_rounds = r.rake_compress.engine_rounds;
      res.total_rounds = r.rounds_total;
      res.messages = r.engine_messages;
      res.digest = FoldDigest(r.rake_compress.round_stats);
      res.iterations = r.rake_compress.num_iterations;
      break;
    }
    case serve::SolveKind::kThm15Edge: {
      const EdgeColoringProblem problem(
          EdgeColoringProblem::Mode::kEdgeDegreePlusOne,
          std::max(1, g.MaxDegree()));
      const Thm15Result r = SolveEdgeProblemBoundedArboricity(
          problem, g, ids, id_space, spec.a, spec.k);
      res.valid = r.valid;
      res.engine_rounds = r.rounds_decomposition;
      res.total_rounds = r.rounds_total;
      res.messages = r.engine_messages;
      res.digest = FoldDigest(r.decomposition.round_stats);
      res.iterations = r.decomposition.num_layers;
      break;
    }
    case serve::SolveKind::kDecomposition: {
      const DecompositionResult r =
          RunDecomposition(g, ids, spec.a, 2 * spec.a, spec.k);
      res.engine_rounds = res.total_rounds = r.engine_rounds;
      res.messages = r.messages;
      res.digest = FoldDigest(r.round_stats);
      res.iterations = r.num_layers;
      break;
    }
  }
  return res;
}

// The transcript-bearing fields. `iterations` is left out: the coalesced
// rake-compress pass reports engine_rounds / 3, which is one short of a solo
// run's count when the last iteration ends early (see README.md).
bool SameAsSolo(const serve::SolveResult& got, const serve::SolveResult& want) {
  return got.kind == want.kind && got.valid == want.valid &&
         got.engine_rounds == want.engine_rounds &&
         got.total_rounds == want.total_rounds &&
         got.messages == want.messages && got.digest == want.digest;
}

// The daemon child process. Stops it on destruction (SIGKILL if it did not
// exit after Shutdown) and always reaps it.
class DaemonProcess {
 public:
  DaemonProcess() = default;
  ~DaemonProcess() { Kill(); }
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  // Starts the daemon and waits (at most 30 s) for the port it prints.
  bool Start(bool negative, std::string* error) {
    int fds[2];
    if (pipe(fds) != 0) {
      *error = "pipe failed";
      return false;
    }
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&fa, fds[0]);
    posix_spawn_file_actions_addclose(&fa, fds[1]);
    const std::string parent = std::to_string(getpid());
    const std::string visit = std::to_string(negative ? kFaultVisit : 0);
    std::vector<char*> argv = {const_cast<char*>("perfbench_driver"),
                               const_cast<char*>("--daemon"),
                               const_cast<char*>(parent.c_str()),
                               const_cast<char*>(visit.c_str()), nullptr};
    const int rc = posix_spawn(&pid_, "/proc/self/exe", &fa, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    close(fds[1]);
    if (rc != 0) {
      close(fds[0]);
      pid_ = -1;
      *error = std::string("posix_spawn: ") + std::strerror(rc);
      return false;
    }
    std::string line;
    char c = 0;
    pollfd pfd{fds[0], POLLIN, 0};
    while (poll(&pfd, 1, 30000) > 0 && read(fds[0], &c, 1) == 1 && c != '\n') {
      line += c;
    }
    close(fds[0]);
    port_ = std::atoi(line.c_str());
    if (port_ <= 0) {
      *error = "daemon did not report a port";
      Kill();
      return false;
    }
    return true;
  }

  int port() const { return port_; }
  int64_t PeakRssBytes() const { return ProcStatusBytes(pid_, "VmHWM:"); }

  // Graceful stop: the caller sent Client::Shutdown; reap, escalating to
  // SIGKILL after 10 s.
  void Reap() {
    for (int i = 0; i < 1000 && pid_ > 0; ++i) {
      if (waitpid(pid_, nullptr, WNOHANG) == pid_) pid_ = -1;
      if (pid_ > 0) usleep(10000);
    }
    Kill();
  }

 private:
  void Kill() {
    if (pid_ <= 0) return;
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }

  pid_t pid_ = -1;
  int port_ = 0;
};

// One set-up: daemon booted, graphs generated, every connection open and
// both graphs registered.
struct ServeSetup {
  DaemonProcess daemon;
  std::vector<Graph> graphs;
  std::vector<uint64_t> keys;
  serve::Client clients[kClients];  // [0] also registers, stats, shuts down
  std::vector<double> register_s;
};

bool SetUpServe(const Options& opt, ServeSetup& s, std::string* error) {
  if (!s.daemon.Start(opt.negative, error)) return false;
  for (int g = 0; g < kGraphs; ++g) {
    s.graphs.push_back(ServeGraph(opt, g));
  }
  for (serve::Client& c : s.clients) {
    if (!c.Connect("127.0.0.1", s.daemon.port(), error)) return false;
  }
  for (const Graph& g : s.graphs) {
    uint64_t key = 0;
    bool fresh = false;
    const auto t = Clock::now();
    if (!s.clients[0].RegisterGraph(g, {}, &key, &fresh, error)) {
      return false;
    }
    s.register_s.push_back(SecondsSince(t));
    s.keys.push_back(key);
  }
  return true;
}

void StopServe(ServeSetup& s) {
  std::string error;
  s.clients[0].Shutdown(&error);
  s.daemon.Reap();
}

// Warm-up burst before the timed window: the whole mix, twice over, on every
// graph, sent at once behind the heavy Thm 15 requests, so the rest queue up
// and the dispatcher runs its largest passes (every rake-compress k of a
// graph in one pass, Thm 12 in pairs). The daemon's peak RSS is then set by
// those passes, not by whether the timed arrivals happen to bunch up. Every
// response is checked against the solo run and counted as an attempt.
void WarmUpBurst(ServeSetup& s, const std::vector<MixEntry>& mix,
                 const std::vector<std::vector<serve::SolveResult>>& want,
                 Report& report) {
  std::vector<std::pair<int, int>> burst;  // (mix entry, graph)
  for (int g = 0; g < kGraphs; ++g) {
    for (int rep = 0; rep < 2; ++rep) {
      for (int m = 0; m < static_cast<int>(mix.size()); ++m) {
        burst.emplace_back(m, g);
      }
    }
  }
  std::stable_partition(burst.begin(), burst.end(), [&](const auto& b) {
    return mix[b.first].spec.kind == serve::SolveKind::kThm15Edge;
  });
  std::vector<std::pair<size_t, uint64_t>> tickets;  // (burst entry, ticket)
  std::string error;
  for (size_t i = 0; i < burst.size(); ++i) {
    const auto [m, g] = burst[i];
    uint64_t ticket = 0;
    if (s.clients[0].Solve(s.keys[g], mix[m].spec, &ticket, &error)) {
      tickets.emplace_back(i, ticket);
    } else {
      report.Attempt(false);
    }
  }
  for (const auto& [i, ticket] : tickets) {
    serve::TicketState state = serve::TicketState::kFailed;
    serve::SolveResult res;
    std::string why;
    const bool ok =
        s.clients[0].Fetch(ticket, true, &state, &res, &why, &error);
    report.Attempt(ok && state == serve::TicketState::kDone &&
                   SameAsSolo(res, want[burst[i].second][burst[i].first]));
  }
}

struct Outcome {
  Clock::time_point due;
  int graph = 0;
  int mix = 0;
  bool traced = false;
  int64_t root = -1;  // request span when traced
  double late_ms = 0;
  double submit_ms = 0;
  double latency_ms = 0;
  bool ok = false;
  uint32_t total_rounds = 0;
};

}  // namespace

Report RunServeMixed(const Options& opt) {
  Report report;
  std::string error;
  const std::vector<MixEntry> mix = Mix();

  // What every response must equal, computed before any timing: a solo run
  // of every (graph, kind).
  std::vector<std::vector<serve::SolveResult>> want(kGraphs);
  for (int g = 0; g < kGraphs; ++g) {
    const Graph graph = ServeGraph(opt, g);
    for (const MixEntry& m : mix) want[g].push_back(SoloResult(graph, m.spec));
  }

  // Set-up is everything before the timed window, the warm-up burst too:
  // boot, connect, register, burst, on a fresh daemon per repetition.
  auto s = std::make_unique<ServeSetup>();
  std::vector<double> setup, register_s;
  for (int rep = 0; rep < kServeSetupReps; ++rep) {
    if (rep > 0) {
      StopServe(*s);
      s = std::make_unique<ServeSetup>();
    }
    const auto t0 = Clock::now();
    if (!SetUpServe(opt, *s, &error)) {
      report.Fail("serve set-up: " + error);
      return report;
    }
    WarmUpBurst(*s, mix, want, report);
    setup.push_back(SecondsSince(t0));
    register_s.insert(register_s.end(), s->register_s.begin(),
                      s->register_s.end());
  }
  // The daemon's counters so far are the burst's; the timed window's are
  // the difference.
  serve::ServerStats warm;
  if (!s->clients[0].Stats(&warm, &error)) report.Fail("stats: " + error);

  // The schedule, all from the seed: arrival times, and a shuffled list
  // holding each kind exactly its share of the requests, split evenly over
  // the graphs (so the work offered does not vary with the seed).
  Rng rng(opt.seed ^ 0x5e57e5e57eULL);
  const double rate = opt.rate > 0 ? opt.rate : kOfferedRate;
  const int n = static_cast<int>(rate * opt.seconds);
  std::vector<double> at(n);
  for (double& t : at) t = rng.NextDouble() * opt.seconds;
  std::sort(at.begin(), at.end());
  std::vector<std::pair<int, int>> work;  // (mix entry, graph)
  double share = 0;
  for (int m = 0; m < static_cast<int>(mix.size()); ++m) {
    share += mix[m].weight;
    const int upto = m + 1 == static_cast<int>(mix.size())
                         ? n
                         : static_cast<int>(share * n + 0.5);
    for (int c = 0; work.size() < static_cast<size_t>(upto); ++c) {
      work.emplace_back(m, c % kGraphs);
    }
  }
  rng.Shuffle(work);
  std::vector<Outcome> out(n);
  Tracer tracer;
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  for (int i = 0; i < n; ++i) {
    Outcome& o = out[i];
    o.due = start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(at[i]));
    o.mix = work[i].first;
    o.graph = work[i].second;
    // Traced runs trace every other request; the untraced half is the
    // overhead baseline.
    o.traced = opt.trace && i % 2 == 0;
  }

  std::atomic<int> next{0};
  std::vector<Clock::time_point> last_done(kClients, start);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      serve::Client& client = s->clients[c];
      std::string err;
      for (int i; (i = next.fetch_add(1)) < n;) {
        Outcome& o = out[i];
        std::this_thread::sleep_until(o.due);
        const auto send = Clock::now();
        o.late_ms =
            std::chrono::duration<double, std::milli>(send - o.due).count();
        Tracer* tr = o.traced ? &tracer : nullptr;
        if (tr) o.root = tracer.BeginAt("serve.request", -1, i, o.due);
        uint64_t ticket = 0;
        bool ok = false;
        {
          Scope span(tr, "serve.submit", o.root, i);
          ok = client.Solve(s->keys[o.graph], mix[o.mix].spec, &ticket, &err);
        }
        o.submit_ms = std::chrono::duration<double, std::milli>(
                          Clock::now() - send)
                          .count();
        if (!ok) {  // rejected or failed at admission: counted, never fetched
          if (tr) tracer.End(o.root);
          continue;
        }
        serve::TicketState state = serve::TicketState::kFailed;
        serve::SolveResult res;
        std::string why;
        {
          Scope span(tr, "serve.fetch", o.root, i);
          ok = client.Fetch(ticket, true, &state, &res, &why, &err);
        }
        const auto done = Clock::now();
        if (tr) tracer.End(o.root);
        o.latency_ms =
            std::chrono::duration<double, std::milli>(done - o.due).count();
        o.ok = ok && state == serve::TicketState::kDone &&
               SameAsSolo(res, want[o.graph][o.mix]);
        o.total_rounds = res.total_rounds;
        last_done[c] = std::max(last_done[c], done);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  serve::ServerStats stats;
  if (!s->clients[0].Stats(&stats, &error)) report.Fail("stats: " + error);
  const double peak_rss_mb = Megabytes(s->daemon.PeakRssBytes());
  StopServe(*s);

  std::vector<double> latency, late, submit, traced_lat, untraced_lat;
  std::map<std::string, std::vector<double>> by_kind;
  std::vector<std::pair<double, int>> in_daemon;  // (ms since start, +1/-1)
  double rounds = 0;
  for (const Outcome& o : out) {
    report.Attempt(o.ok);
    late.push_back(o.late_ms);
    submit.push_back(o.submit_ms);
    if (!o.ok) continue;
    const double due_ms =
        std::chrono::duration<double, std::milli>(o.due - start).count();
    in_daemon.emplace_back(due_ms + o.late_ms, 1);
    in_daemon.emplace_back(due_ms + o.latency_ms, -1);
    latency.push_back(o.latency_ms);
    (o.traced ? traced_lat : untraced_lat).push_back(o.latency_ms);
    by_kind[mix[o.mix].kind].push_back(o.latency_ms);
    rounds += o.total_rounds;
  }
  if (latency.empty()) {
    report.Fail("no request completed");
    return report;
  }
  const double span_s =
      std::chrono::duration<double>(
          *std::max_element(last_done.begin(), last_done.end()) - start)
          .count();

  if (!opt.trace) {
    AddCatalogue(kEndToEnd,
                 {{"setup_s", Median(setup)},
                  {"op_p50_ms", Median(latency)},
                  {"ops_per_s", latency.size() / span_s},
                  {"local_rounds", rounds / latency.size()},
                  {"peak_rss_mb", peak_rss_mb}},
                 report);
    return report;
  }

  // Most requests in the daemon at once (sent, result not yet fetched)
  // during the timed window; a departure sorts before an arrival at the
  // same instant.
  std::sort(in_daemon.begin(), in_daemon.end());
  int depth = 0, max_depth = 0;
  for (const auto& event : in_daemon) {
    depth += event.second;
    max_depth = std::max(max_depth, depth);
  }

  std::map<std::string, double> values = {
      {"serve.register_s", Median(register_s)},
      {"serve.submit_ms", Median(submit)},
      {"serve.req_p99_ms", Quantile(latency, 0.99)},
      {"serve.coalesce_factor",
       stats.batches > warm.batches
           ? static_cast<double>(stats.batched_requests -
                                 warm.batched_requests) /
                 static_cast<double>(stats.batches - warm.batches)
           : 0.0},
      {"serve.max_queue_depth", static_cast<double>(max_depth)},
      {"serve.rejected", static_cast<double>(stats.rejected - warm.rejected)},
      {"serve.generator_late_ms", Quantile(late, 0.99)},
      {"trace.overhead_ratio", Median(traced_lat) / Median(untraced_lat)},
  };
  for (const auto& [kind, v] : by_kind) {
    values["serve." + kind + ".p50_ms"] = Median(v);
  }
  // Share of a traced request's time outside its submit and fetch calls:
  // generator lateness, including any wait for a free client thread.
  std::vector<double> unaccounted;
  for (const Outcome& o : out) {
    if (o.root < 0 || !o.ok) continue;
    const auto self = tracer.SelfSecondsByName(o.root);
    unaccounted.push_back(self.at("serve.request") / tracer.Seconds(o.root));
  }
  values["trace.unaccounted_frac"] = Median(unaccounted);
  AddCatalogue(kPerLayer, values, report);
  WriteTrace(opt, tracer, report);
  return report;
}

int DaemonMain(int argc, char** argv) {
  // argv: --daemon <parent pid> <fault visit, 0 = none>. Dies with the
  // generator, so an aborted run never leaves a daemon behind.
  if (argc < 4) return 2;
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (getppid() != static_cast<pid_t>(std::atoll(argv[2]))) return 1;
  const int64_t visit = std::atoll(argv[3]);
  support::FaultInjector fault =
      support::FaultInjector::ThrowAtVisit(visit > 0 ? visit : -1);
  serve::Server::Options options;
  options.engine_threads = 1;
  options.fault = visit > 0 ? &fault : nullptr;
  serve::Server server(options);
  std::string error;
  if (!server.Start(&error)) {
    std::cerr << "perfbench daemon: " << error << "\n";
    return 1;
  }
  std::cout << server.port() << std::endl;
  server.Wait();
  server.Stop();
  return 0;
}

}  // namespace perfbench
