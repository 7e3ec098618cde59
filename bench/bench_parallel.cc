// Parallel-engine acceptance driver: T-sweep scaling curves of the sharded
// round pass, gated on transcript identity.
//
// Two measurements, both on uniform-random-tree rake-compress (the
// bandwidth-bound workload ROADMAP names as the sharding target), merged
// into BENCH_engine.json as source "bench_parallel":
//   * parallel_scaling: ParallelNetwork at each T in --threads vs the same
//     engine at its default T = 1 ("serial") — per-T wall-clock (best of
//     --reps), speedup, and the per-round wall-clock trajectory. Exits
//     non-zero if any T's transcript (outputs, rounds, messages, per-round
//     RoundStats) differs from serial: the determinism contract is the
//     acceptance gate, speedup is reported but never traded against it.
//   * relabel_ablation: Network with NetworkOptions::relabel vs default
//     layout at each T in --threads, identity-gated, timed in --reps pairs
//     that alternate which engine runs first; records the median pair
//     ratio and the win count (the BFS locality ablation; see ROADMAP for
//     where relabel wins and where it loses).
//
// CI runs this at small n with --threads=4 as the smoke gate; the full-size
// run (n = 2^20 by default) produces the scaling record for ROADMAP.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/rake_compress.h"
#include "src/graph/generators.h"
#include "src/local/network.h"
#include "src/local/parallel_network.h"
#include "src/support/rng.h"

namespace treelocal {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

bool SameTranscript(const RakeCompressResult& a, const RakeCompressResult& b) {
  return a.iteration == b.iteration && a.compressed == b.compressed &&
         a.engine_rounds == b.engine_rounds && a.messages == b.messages &&
         a.round_stats == b.round_stats;
}

// Warmup + best-of-reps on a reusable engine; keeps the result and round
// trajectory of the fastest rep.
double Measure(local::Network& engine, int k, int reps,
               RakeCompressResult& out, std::vector<double>& round_seconds) {
  RunRakeCompress(engine, k);  // warmup: faults in the mailboxes
  double best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    auto t0 = Clock::now();
    RakeCompressResult r = RunRakeCompress(engine, k);
    double s = Seconds(t0);
    if (s < best) {
      best = s;
      out = std::move(r);
      round_seconds = engine.round_seconds();
    }
  }
  return best;
}

bool RunScaling(const Graph& tree, const std::vector<int64_t>& ids, int k,
                int reps, const std::vector<int>& thread_counts,
                bench::JsonWriter& json) {
  const int n = tree.NumNodes();
  std::cout << "Parallel scaling: rake-compress on a " << n
            << "-node uniform tree, k=" << k << "\n";

  local::Network serial(tree, ids);
  serial.set_record_round_times(true);
  RakeCompressResult want;
  std::vector<double> serial_rounds;
  const double serial_s = Measure(serial, k, reps, want, serial_rounds);
  std::cout << "  serial: " << serial_s << " s (" << want.engine_rounds
            << " rounds, " << want.messages << " messages)\n";

  bool ok = true;
  for (int threads : thread_counts) {
    local::ParallelNetwork par(tree, ids, threads);
    par.set_record_round_times(true);
    RakeCompressResult got;
    std::vector<double> par_rounds;
    const double par_s = Measure(par, k, reps, got, par_rounds);
    const bool identical = SameTranscript(got, want);
    ok &= identical;
    const double speedup = serial_s / par_s;
    std::cout << "  T=" << threads << ": " << par_s << " s  speedup "
              << speedup << "x  identical=" << (identical ? "yes" : "NO (BUG)")
              << "\n";

    json.BeginRecord();
    json.Field("source", "bench_parallel");
    json.Field("experiment", "parallel_scaling");
    json.Field("n", n);
    json.Field("edges", tree.NumEdges());
    json.Field("k", k);
    json.Field("threads", threads);
    json.Field("rounds", got.engine_rounds);
    json.Field("messages", got.messages);
    json.Field("serial_seconds", serial_s);
    json.Field("parallel_seconds", par_s);
    json.Field("speedup", speedup);
    json.Field("transcripts_identical", identical);
    json.Field("round_seconds", par_rounds);
  }

  // The serial trajectory rides along once per (n, k) so the per-T curves
  // have their baseline in the same file.
  std::vector<int64_t> active, sent;
  for (const auto& rs : want.round_stats) {
    active.push_back(rs.active_nodes);
    sent.push_back(rs.messages_sent);
  }
  json.BeginRecord();
  json.Field("source", "bench_parallel");
  json.Field("experiment", "parallel_scaling_serial_baseline");
  json.Field("n", n);
  json.Field("k", k);
  json.Field("rounds", want.engine_rounds);
  json.Field("messages", want.messages);
  json.Field("serial_seconds", serial_s);
  json.Field("round_active_nodes", active);
  json.Field("round_messages", sent);
  json.Field("round_seconds", serial_rounds);
  return ok;
}

// Plain and relabeled engines timed in pairs. Which engine runs first
// alternates from rep to rep: a fixed order let the second run inherit
// the first one's warm caches and the shared host's drift, which biased
// the ratio. speedup is the median of the per-pair ratios
// (plain / relabel), and relabel_wins counts the pairs relabel won.
bool RunRelabelAblation(const Graph& tree, const std::vector<int64_t>& ids,
                        int k, int reps, int threads, bench::JsonWriter& json) {
  const int n = tree.NumNodes();
  std::cout << "Relabel ablation at T=" << threads
            << ": BFS mailbox layout vs caller labels\n";

  local::Network plain(tree, ids, threads, local::NetworkOptions{});
  local::NetworkOptions opt;
  opt.relabel = true;
  local::Network relabeled(tree, ids, threads, opt);
  RunRakeCompress(plain, k);  // warmups: fault in the mailboxes
  RunRakeCompress(relabeled, k);

  RakeCompressResult want, got;
  const auto timed = [&](local::Network& engine, RakeCompressResult& out) {
    const auto t0 = Clock::now();
    RakeCompressResult r = RunRakeCompress(engine, k);
    const double s = Seconds(t0);
    out = std::move(r);
    return s;
  };
  double plain_s = 1e300, relabel_s = 1e300;
  std::vector<double> ratios;
  int relabel_wins = 0;
  for (int rep = 0; rep < reps; ++rep) {
    double p, r;
    if (rep % 2 == 0) {
      p = timed(plain, want);
      r = timed(relabeled, got);
    } else {
      r = timed(relabeled, got);
      p = timed(plain, want);
    }
    plain_s = std::min(plain_s, p);
    relabel_s = std::min(relabel_s, r);
    ratios.push_back(p / r);
    relabel_wins += r < p ? 1 : 0;
  }
  std::sort(ratios.begin(), ratios.end());
  const size_t mid = ratios.size() / 2;
  const double speedup = ratios.size() % 2 == 1
                             ? ratios[mid]
                             : (ratios[mid - 1] + ratios[mid]) / 2;

  const bool identical = SameTranscript(got, want);
  std::cout << "  default: " << plain_s << " s   relabel: " << relabel_s
            << " s   median pair speedup " << speedup << "x, relabel won "
            << relabel_wins << "/" << reps
            << "  identical=" << (identical ? "yes" : "NO (BUG)") << "\n";

  json.BeginRecord();
  json.Field("source", "bench_parallel");
  json.Field("experiment", "relabel_ablation");
  json.Field("n", n);
  json.Field("k", k);
  json.Field("threads", threads);
  json.Field("pairs", reps);
  json.Field("default_seconds", plain_s);
  json.Field("relabel_seconds", relabel_s);
  json.Field("speedup", speedup);
  json.Field("relabel_wins", relabel_wins);
  json.Field("transcripts_identical", identical);
  return identical;
}

}  // namespace
}  // namespace treelocal

int main(int argc, char** argv) {
  int n = 1 << 20;
  int reps = 3;
  int k = 2;
  std::vector<int> thread_counts = {1, 2, 4, 8};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto intval = [&](size_t prefix) { return std::atoi(arg.c_str() + prefix); };
    if (arg.rfind("--n=", 0) == 0) {
      n = intval(4);
    } else if (arg.rfind("--reps=", 0) == 0) {
      reps = intval(7);
    } else if (arg.rfind("--k=", 0) == 0) {
      k = intval(4);
    } else if (arg.rfind("--threads=", 0) == 0) {
      thread_counts.clear();
      std::stringstream ss(arg.substr(10));
      std::string tok;
      while (std::getline(ss, tok, ',')) {
        thread_counts.push_back(std::atoi(tok.c_str()));
      }
    } else {
      std::cerr << "bench_parallel: unknown flag " << arg
                << " (flags: --n= --reps= --k= --threads=a,b,c)\n";
      return 1;
    }
  }
  bool threads_valid = !thread_counts.empty();
  for (int t : thread_counts) threads_valid &= t >= 1;
  if (n < 2 || reps < 1 || k < 2 || !threads_valid) {
    std::cerr << "bench_parallel: need n >= 2, reps >= 1, k >= 2 and a "
                 "non-empty --threads list of integers >= 1\n";
    return 1;
  }

  treelocal::Graph tree = treelocal::UniformRandomTree(n, 77);
  auto ids = treelocal::DefaultIds(n, 78);

  treelocal::bench::JsonWriter json;
  bool ok = treelocal::RunScaling(tree, ids, k, reps, thread_counts, json);
  for (int threads : thread_counts) {
    ok &= treelocal::RunRelabelAblation(tree, ids, k, reps, threads, json);
  }
  json.MergeAs("bench_parallel", "BENCH_engine.json");
  std::cout << (ok ? "  wrote BENCH_engine.json\n"
                   : "TRANSCRIPT MISMATCH — failing\n");
  return ok ? 0 : 1;
}
