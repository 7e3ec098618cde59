// Experiment E12: k-sweep instance throughput. Runs the k-ablation
// rake-compress sweep (the engine-bound phase of every Theorem 12/15
// pipeline) two ways over one shared topology:
//   * sequential: one reusable T=1 Network, one Run per k;
//   * instance-parallel: W = min(hardware threads, distinct ks) workers on
//     W std::threads, each with its own reusable T=1 Network.
// Verifies every parallel instance is bit-identical to its sequential run
// (outputs, round counts, message counts, per-round stats) — the process
// exits non-zero on any divergence, which is what CI gates on — and records
// the throughput ratio in BENCH_engine.json. Also records the canonical-k
// dedup saving.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/rake_compress.h"
#include "src/graph/generators.h"
#include "src/local/network.h"
#include "src/support/rng.h"

namespace treelocal {
namespace {

using Clock = std::chrono::steady_clock;

// Records at or above this size carry "acceptance": true, which selects
// the instance-parallel record's 2.0 floor in check_bench_regression.py.
constexpr int kKSweepAcceptanceN = 1 << 18;

double Seconds(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

bool Identical(const RakeCompressResult& a, const RakeCompressResult& b) {
  return a.iteration == b.iteration && a.compressed == b.compressed &&
         a.num_iterations == b.num_iterations &&
         a.engine_rounds == b.engine_rounds && a.messages == b.messages &&
         a.round_stats == b.round_stats;
}

// Returns true iff every worker's transcripts matched the sequential ones.
bool RunKSweepAcceptance(const Graph& tree, const std::vector<int64_t>& ids,
                         const std::vector<int>& ks, int reps,
                         bench::JsonWriter& json) {
  const int n = tree.NumNodes();
  const int batch = static_cast<int>(ks.size());
  const int distinct =
      static_cast<int>(std::set<int>(ks.begin(), ks.end()).size());
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const int workers = std::max(1, std::min(hw, distinct));
  std::cout << "k-sweep acceptance: rake-compress on a " << n
            << "-node uniform tree, B=" << batch << " instances, W="
            << workers << " workers\n";

  // Both sides use pre-constructed, reusable engines and best-of-reps
  // timing after a warmup pass, so the comparison is round throughput, not
  // construction or page-fault traffic. The parallel side pays one thread
  // spawn per worker per repetition.
  local::Network seq_net(tree, ids);
  std::vector<RakeCompressResult> seq(batch);
  for (int b = 0; b < batch; ++b) seq[b] = RunRakeCompress(seq_net, ks[b]);
  double seq_s = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    auto t0 = Clock::now();
    for (int b = 0; b < batch; ++b) seq[b] = RunRakeCompress(seq_net, ks[b]);
    seq_s = std::min(seq_s, Seconds(t0));
  }

  // Worker w owns one T=1 engine and runs instances w, w + W, w + 2W, ...
  std::vector<std::unique_ptr<local::Network>> nets;
  for (int w = 0; w < workers; ++w) {
    nets.push_back(std::make_unique<local::Network>(tree, ids));
  }
  std::vector<RakeCompressResult> par(batch);
  auto run_parallel = [&] {
    std::vector<std::thread> threads;
    for (int w = 0; w < workers; ++w) {
      threads.emplace_back([&, w] {
        for (int b = w; b < batch; b += workers) {
          par[b] = RunRakeCompress(*nets[w], ks[b]);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  };
  run_parallel();
  double par_s = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    auto t0 = Clock::now();
    run_parallel();
    par_s = std::min(par_s, Seconds(t0));
  }

  bool identical = true;
  for (int b = 0; b < batch; ++b) identical &= Identical(seq[b], par[b]);
  const double speedup = seq_s / par_s;

  std::vector<int64_t> rounds, messages;
  for (const auto& r : par) {
    rounds.push_back(r.engine_rounds);
    messages.push_back(r.messages);
  }

  json.BeginRecord();
  json.Field("source", "bench_batch");
  json.Field("experiment", "k_sweep_instance_parallel");
  json.Field("family", "uniform-random");
  json.Field("n", n);
  json.Field("edges", tree.NumEdges());
  json.Field("batch", batch);
  json.Field("workers", workers);
  json.Field("ks", ks);
  json.Field("sequential_seconds", seq_s);
  json.Field("parallel_seconds", par_s);
  json.Field("speedup", speedup);
  json.Field("transcripts_identical", identical);
  json.Field("acceptance", n >= kKSweepAcceptanceN);
  json.Field("instance_rounds", rounds);
  json.Field("instance_messages", messages);

  std::cout << "  identical=" << (identical ? "yes" : "NO (BUG)")
            << "  sequential: " << seq_s << " s   " << workers
            << " workers: " << par_s << " s   throughput: " << speedup
            << "x\n";
  return identical;
}

// Shared-transcript dedup acceptance: a wide Thm12-style k-sweep whose tail
// sits at or above Delta (every such instance provably shares one
// transcript). Gates RunRakeCompressDeduped's bit-identity against one
// solo run per k on the same engine, then times the deduped sweep (U
// distinct runs plus the fan-out) against the full one (B runs).
bool RunDedupAcceptance(const Graph& tree, const std::vector<int64_t>& ids,
                        int reps, bench::JsonWriter& json) {
  const int n = tree.NumNodes();
  const int delta = tree.MaxDegree();
  const std::vector<int> ks = {2,  3,  4,  6,  8,   12,  16,  24,
                               32, 48, 64, 96, 128, 192, 256, 384};
  const int batch = static_cast<int>(ks.size());
  // Distinct canonical parameters — the same dedup rule
  // RunRakeCompressDeduped applies internally.
  std::vector<int> unique_ks;
  for (int k : ks) {
    const int canon = RakeCompressCanonicalK(k, delta);
    bool seen = false;
    for (int u : unique_ks) seen |= u == canon;
    if (!seen) unique_ks.push_back(canon);
  }
  const int unique = static_cast<int>(unique_ks.size());
  std::cout << "Dedup acceptance: k-sweep B=" << batch << " on Delta="
            << delta << " tree collapses to U=" << unique << " runs\n";

  local::Network net(tree, ids);
  std::vector<RakeCompressResult> full(batch);
  auto run_full = [&] {
    for (int b = 0; b < batch; ++b) full[b] = RunRakeCompress(net, ks[b]);
  };
  run_full();
  double full_s = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    auto t0 = Clock::now();
    run_full();
    full_s = std::min(full_s, Seconds(t0));
  }

  std::vector<RakeCompressResult> deduped = RunRakeCompressDeduped(net, ks);
  double deduped_s = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    auto t0 = Clock::now();
    deduped = RunRakeCompressDeduped(net, ks);
    deduped_s = std::min(deduped_s, Seconds(t0));
  }
  bool identical = true;
  for (int b = 0; b < batch; ++b) identical &= Identical(full[b], deduped[b]);

  json.BeginRecord();
  json.Field("source", "bench_batch");
  json.Field("experiment", "k_sweep_dedup");
  json.Field("n", n);
  json.Field("max_degree", delta);
  json.Field("batch", batch);
  json.Field("unique_instances", unique);
  json.Field("dedup_factor", double(batch) / unique);
  json.Field("full_seconds", full_s);
  json.Field("deduped_seconds", deduped_s);
  json.Field("speedup", full_s / deduped_s);
  json.Field("transcripts_identical", identical);

  std::cout << "  identical=" << (identical ? "yes" : "NO (BUG)")
            << "  full: " << full_s << " s   deduped: " << deduped_s
            << " s   speedup: " << full_s / deduped_s << "x ("
            << double(batch) / unique << "x fewer runs)\n";
  return identical;
}

}  // namespace
}  // namespace treelocal

int main(int argc, char** argv) {
  // --n=<nodes> (default 2^20), --ks=<comma list> (overrides the default
  // pair of sweeps with a single one), --reps=<best-of> (default 3).
  int n = 1 << 20;
  int reps = 3;
  std::vector<int> ks;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--n=", 0) == 0) {
      n = std::atoi(arg.c_str() + 4);
      if (n < 2) {
        std::cerr << "bench_batch: --n must be an integer >= 2\n";
        return 1;
      }
    } else if (arg.rfind("--reps=", 0) == 0) {
      reps = std::max(1, std::atoi(arg.c_str() + 7));
    } else if (arg.rfind("--ks=", 0) == 0) {
      ks.clear();
      std::stringstream ss(arg.substr(5));
      std::string item;
      while (std::getline(ss, item, ',')) ks.push_back(std::atoi(item.c_str()));
      if (ks.empty()) {
        std::cerr << "bench_batch: --ks needs a comma-separated k list\n";
        return 1;
      }
      for (int k : ks) {
        if (k < 2) {
          std::cerr << "bench_batch: every k must be >= 2\n";
          return 1;
        }
      }
    } else {
      std::cerr << "bench_batch: unknown flag " << arg << "\n";
      return 1;
    }
  }
  treelocal::Graph tree = treelocal::UniformRandomTree(n, 31);
  auto ids = treelocal::DefaultIds(n, 32);
  treelocal::bench::JsonWriter json;
  bool ok = true;
  if (!ks.empty()) {
    ok = treelocal::RunKSweepAcceptance(tree, ids, ks, reps, json);
  } else {
    // Default: the classic k-ablation list (B = 8) plus the fine-grained
    // grid (B = 32) that resolves the optimum near g(n).
    std::vector<int> classic = {2, 3, 4, 6, 8, 12, 16, 24};
    std::vector<int> fine;
    for (int k = 2; k <= 33; ++k) fine.push_back(k);
    ok &= treelocal::RunKSweepAcceptance(tree, ids, classic, reps, json);
    ok &= treelocal::RunKSweepAcceptance(tree, ids, fine, reps, json);
    ok &= treelocal::RunDedupAcceptance(tree, ids, reps, json);
  }
  json.MergeAs("bench_batch", "BENCH_engine.json");
  std::cout << "  wrote BENCH_engine.json\n";
  return ok ? 0 : 1;
}
