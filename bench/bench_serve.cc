// Experiment E13: daemon throughput where batch = concurrent users. Spins
// up an in-process treelocald server and drives it with a closed loop of
// client threads (each submits, blocks on the result, submits again) over
// one resident tree, cycling a small rake-compress k-sweep. Two daemon
// configurations over the identical workload:
//   * serial:    --max-batch 1 — every request is its own engine pass;
//   * coalesced: --max-batch 16 — the dispatcher sweeps compatible queued
//     requests into one pass on the graph's cached engine, one run per
//     distinct canonical k (RakeCompressCanonicalK).
// Every response is identity-gated against a solo-engine run of the same
// (graph, k): digest, engine rounds, and message count must all match, so
// the throughput number can never come from a wrong answer. The process
// exits non-zero on any mismatch, any failed request, or if coalescing
// never actually batched (max_batch stayed 1) — that is what CI gates on.
// Records go to BENCH_engine.json as source "bench_serve".
//
// --negative arms a deterministic mid-round FaultInjector inside the
// daemon's engines: at least one request must then fail, the gate
// must trip, and the process must exit non-zero. CI runs this as the
// liveness check for the identity gate itself.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/rake_compress.h"
#include "src/graph/generators.h"
#include "src/graph/graph.h"
#include "src/serve/client.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"
#include "src/support/fault.h"
#include "src/support/rng.h"

namespace treelocal {
namespace {

using Clock = std::chrono::steady_clock;

struct Expected {
  uint32_t rounds = 0;
  int64_t messages = 0;
  uint64_t digest = 0;
};

struct ConfigResult {
  double seconds = 0;
  uint64_t failures = 0;
  uint64_t mismatches = 0;
  serve::ServerStats stats;
};

// One daemon configuration driven to completion by `clients` closed-loop
// threads issuing `requests` solves each.
ConfigResult RunConfig(const Graph& tree, const std::vector<int>& ks,
                       const std::map<int, Expected>& want, int clients,
                       int requests, int max_batch,
                       support::FaultInjector* fault) {
  serve::Server::Options opt;
  opt.max_batch = max_batch;
  opt.fault = fault;
  serve::Server server(opt);
  std::string error;
  if (!server.Start(&error)) {
    std::cerr << "bench_serve: server start failed: " << error << "\n";
    std::exit(2);
  }

  ConfigResult out;
  std::atomic<uint64_t> failures{0}, mismatches{0};
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (int t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      serve::Client client;
      std::string err;
      if (!client.Connect("127.0.0.1", server.port(), &err)) {
        failures += requests;
        return;
      }
      uint64_t key = 0;
      bool fresh = false;
      if (!client.RegisterGraph(tree, {}, &key, &fresh, &err)) {
        failures += requests;
        return;
      }
      for (int i = 0; i < requests; ++i) {
        serve::SolveSpec spec;
        spec.kind = serve::SolveKind::kRakeCompress;
        spec.k = ks[(t + i) % ks.size()];
        serve::SolveResult result;
        if (!client.SolveAndWait(key, spec, &result, &err)) {
          ++failures;
          continue;
        }
        const Expected& e = want.at(spec.k);
        if (result.digest != e.digest || result.engine_rounds != e.rounds ||
            result.messages != e.messages) {
          ++mismatches;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  out.seconds = bench::SecondsSince(t0);

  serve::Client probe;
  if (probe.Connect("127.0.0.1", server.port(), &error)) {
    probe.Stats(&out.stats, &error);
  }
  server.Stop();
  out.failures = failures.load();
  out.mismatches = mismatches.load();
  return out;
}

}  // namespace
}  // namespace treelocal

int main(int argc, char** argv) {
  using namespace treelocal;

  int clients = 8;
  int requests = 12;
  int n = 1 << 14;
  uint64_t seed = 42;
  bool negative = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto need = [&](int& idx) -> std::string {
      if (idx + 1 >= argc) {
        std::cerr << "bench_serve: missing value for " << a << "\n";
        std::exit(2);
      }
      return argv[++idx];
    };
    if (a == "--clients") {
      clients = std::atoi(need(i).c_str());
    } else if (a == "--requests") {
      requests = std::atoi(need(i).c_str());
    } else if (a == "--n") {
      n = std::atoi(need(i).c_str());
    } else if (a == "--seed") {
      seed = std::strtoull(need(i).c_str(), nullptr, 0);
    } else if (a == "--negative") {
      negative = true;
    } else {
      std::cerr << "usage: bench_serve [--clients C] [--requests R] [--n N] "
                   "[--seed S] [--negative]\n";
      return 2;
    }
  }

  const Graph tree = UniformRandomTree(n, seed);
  std::vector<int64_t> ids(n);
  for (int i = 0; i < n; ++i) ids[i] = i;
  const std::vector<int> ks = {2, 3, 4, 8};

  // The identity gate's ground truth: solo engine runs of every k in the
  // sweep (the daemon must reproduce these bit for bit, batched or not).
  std::map<int, Expected> want;
  for (int k : ks) {
    RakeCompressResult r = RunRakeCompress(tree, ids, k);
    uint64_t d = support::kDigestSeed;
    for (const auto& rs : r.round_stats) {
      d = support::ChainDigest(d, rs.active_nodes, rs.messages_sent, 0);
    }
    want[k] = {(uint32_t)r.engine_rounds, r.messages, d};
  }

  std::cout << "Daemon closed-loop throughput: " << clients << " clients x "
            << requests << " requests, n=" << n << ", k-sweep {2,3,4,8}\n";

  if (negative) {
    // Liveness check for the gate: a mid-round engine fault must surface as
    // a failed request and a non-zero exit.
    support::FaultInjector fault = support::FaultInjector::ThrowAtVisit(500);
    ConfigResult r = RunConfig(tree, ks, want, clients, requests,
                               /*max_batch=*/16, &fault);
    std::cout << "  negative control: failures=" << r.failures
              << " mismatches=" << r.mismatches
              << " fault_fired=" << (fault.fired() ? 1 : 0) << "\n";
    if (r.failures == 0) {
      std::cerr << "bench_serve: NEGATIVE CONTROL DEAD — injected fault "
                   "produced no failed request\n";
      return 0;  // CI inverts this exit: 0 here means the gate is broken.
    }
    std::cerr << "bench_serve: negative control tripped as intended\n";
    return 1;
  }

  ConfigResult serial = RunConfig(tree, ks, want, clients, requests,
                                  /*max_batch=*/1, nullptr);
  ConfigResult coalesced = RunConfig(tree, ks, want, clients, requests,
                                     /*max_batch=*/16, nullptr);

  const uint64_t total = (uint64_t)clients * requests;
  const double serial_rps = total / serial.seconds;
  const double coalesced_rps = total / coalesced.seconds;
  const double speedup = serial.seconds / coalesced.seconds;
  const bool identical = serial.failures == 0 && serial.mismatches == 0 &&
                         coalesced.failures == 0 && coalesced.mismatches == 0;
  const bool batched = coalesced.stats.max_batch >= 2;

  std::cout << "  serial    (max-batch 1):  " << serial.seconds << " s  "
            << serial_rps << " req/s  batches=" << serial.stats.batches
            << "\n  coalesced (max-batch 16): " << coalesced.seconds << " s  "
            << coalesced_rps << " req/s  batches=" << coalesced.stats.batches
            << " max_batch=" << coalesced.stats.max_batch << "\n  speedup: "
            << speedup << "x  identity: " << (identical ? "yes" : "NO (BUG)")
            << "\n";

  bench::JsonWriter json;
  json.BeginRecord();
  json.Field("source", "bench_serve");
  json.Field("experiment", "daemon_closed_loop");
  json.Field("family", "uniform-random");
  json.Field("n", n);
  json.Field("clients", clients);
  json.Field("requests_per_client", requests);
  json.Field("ks", ks);
  json.Field("serial_seconds", serial.seconds);
  json.Field("coalesced_seconds", coalesced.seconds);
  json.Field("serial_rps", serial_rps);
  json.Field("coalesced_rps", coalesced_rps);
  json.Field("speedup", speedup);
  // Named so tools/check_bench_regression.py applies its identity gate.
  json.Field("transcripts_identical", identical);
  json.Field("serial_batches", (int64_t)serial.stats.batches);
  json.Field("coalesced_batches", (int64_t)coalesced.stats.batches);
  json.Field("coalesced_max_batch", (int64_t)coalesced.stats.max_batch);
  json.MergeAs("bench_serve", "BENCH_engine.json");
  std::cout << "  wrote BENCH_engine.json\n";

  if (!identical) {
    std::cerr << "bench_serve: IDENTITY GATE FAILED\n";
    return 1;
  }
  if (!batched) {
    std::cerr << "bench_serve: coalescing never batched (max_batch stayed "
              << coalesced.stats.max_batch << ")\n";
    return 1;
  }
  if (speedup <= 1.0) {
    std::cerr << "bench_serve: coalesced slower than serial (" << speedup
              << "x)\n";
    return 1;
  }
  return 0;
}
