// Checkpoint/resume overhead driver, identity-gated: measures what the
// crash-safety layer costs on the acceptance-sized rake-compress workload
// (n = 2^20 uniform random tree by default) and refuses to report numbers
// whose recovered run is not bit-identical to the uninterrupted one.
//
// Records merged into BENCH_engine.json as source "bench_snapshot":
//   * checkpoint_resume: wall-clock of a mid-run Checkpoint (serialize +
//     integrity hash), of ReadSnapshot-side Resume validation, and of the
//     resumed run to completion, plus the snapshot byte size. The gate:
//     resumed rounds/messages/final digest must equal the uninterrupted
//     run's.
//   * digest_overhead: run time with the always-on counter chain only vs
//     NetworkOptions::digest_messages (per-send content hashing), same
//     engine, same workload — the cost of full-content transcripts.
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "bench/bench_util.h"
#include "src/core/rake_compress.h"
#include "src/graph/generators.h"
#include "src/local/network.h"
#include "src/local/snapshot.h"
#include "src/support/rng.h"

namespace treelocal {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Flags {
  int n = 1 << 20;
  int k = 2;
  int reps = 3;
};

bool RunCheckpointResume(const Graph& tree, const std::vector<int64_t>& ids,
                         const Flags& f, bench::JsonWriter& json) {
  // Uninterrupted reference run (also warms the page cache / allocator).
  local::Network clean(tree, ids);
  auto clean_alg = MakeRakeCompressAlgorithm(f.k);
  const int max_rounds = 3 * (2 * RakeCompressIterationBound(tree.NumNodes(),
                                                             f.k) + 8);
  auto t0 = Clock::now();
  const int rounds = clean.Run(*clean_alg, max_rounds);
  const double run_s = Seconds(t0);
  const uint64_t want_digest = clean.last_digest();
  const int64_t want_messages = clean.messages_delivered();

  const int pause = rounds / 2;
  double checkpoint_s = 1e300, resume_validate_s = 1e300,
         resumed_run_s = 1e300;
  size_t snapshot_bytes = 0;
  bool identical = true;
  for (int rep = 0; rep < f.reps; ++rep) {
    local::Network net(tree, ids);
    auto alg = MakeRakeCompressAlgorithm(f.k);
    net.RunUntil(*alg, max_rounds, pause);
    std::ostringstream out;
    t0 = Clock::now();
    net.Checkpoint(out);
    checkpoint_s = std::min(checkpoint_s, Seconds(t0));
    const std::string bytes = out.str();
    snapshot_bytes = bytes.size();

    local::Network resumed(tree, ids);
    auto ralg = MakeRakeCompressAlgorithm(f.k);
    std::istringstream in(bytes);
    t0 = Clock::now();
    resumed.Resume(in);  // parse + integrity + validation
    resume_validate_s = std::min(resume_validate_s, Seconds(t0));
    t0 = Clock::now();
    const int resumed_rounds = resumed.Run(*ralg, max_rounds);
    resumed_run_s = std::min(resumed_run_s, Seconds(t0));
    identical &= resumed_rounds == rounds &&
                 resumed.messages_delivered() == want_messages &&
                 resumed.last_digest() == want_digest;
  }

  json.BeginRecord();
  json.Field("source", "bench_snapshot");
  json.Field("experiment", "checkpoint_resume");
  json.Field("n", tree.NumNodes());
  json.Field("edges", tree.NumEdges());
  json.Field("k", f.k);
  json.Field("rounds", rounds);
  json.Field("messages", want_messages);
  json.Field("pause_round", pause);
  json.Field("uninterrupted_seconds", run_s);
  json.Field("checkpoint_seconds", checkpoint_s);
  json.Field("resume_validate_seconds", resume_validate_s);
  json.Field("resumed_run_seconds", resumed_run_s);
  json.Field("snapshot_bytes", static_cast<int64_t>(snapshot_bytes));
  json.Field("transcripts_identical", identical);
  std::cout << "  checkpoint_resume: n=" << tree.NumNodes() << " rounds="
            << rounds << " snapshot=" << snapshot_bytes / (1024.0 * 1024.0)
            << " MiB checkpoint=" << checkpoint_s << "s resume_validate="
            << resume_validate_s << "s identical=" << identical << "\n";
  return identical;
}

bool RunDigestOverhead(const Graph& tree, const std::vector<int64_t>& ids,
                       const Flags& f, bench::JsonWriter& json) {
  const int max_rounds = 3 * (2 * RakeCompressIterationBound(tree.NumNodes(),
                                                             f.k) + 8);
  double counters_s = 1e300, content_s = 1e300;
  uint64_t counters_digest = 0, content_digest = 0;
  {
    local::Network net(tree, ids);
    for (int rep = 0; rep < f.reps + 1; ++rep) {  // rep 0 = warmup
      auto alg = MakeRakeCompressAlgorithm(f.k);
      auto t0 = Clock::now();
      net.Run(*alg, max_rounds);
      if (rep > 0) counters_s = std::min(counters_s, Seconds(t0));
    }
    counters_digest = net.last_digest();
  }
  {
    local::NetworkOptions opt;
    opt.digest_messages = true;
    local::Network net(tree, ids, opt);
    for (int rep = 0; rep < f.reps + 1; ++rep) {
      auto alg = MakeRakeCompressAlgorithm(f.k);
      auto t0 = Clock::now();
      net.Run(*alg, max_rounds);
      if (rep > 0) content_s = std::min(content_s, Seconds(t0));
    }
    content_digest = net.last_digest();
  }
  // Sanity, not timing: the two levels must chain different values on any
  // run that sends messages, and repeated runs already proved stability.
  const bool distinct = counters_digest != content_digest;

  json.BeginRecord();
  json.Field("source", "bench_snapshot");
  json.Field("experiment", "digest_overhead");
  json.Field("n", tree.NumNodes());
  json.Field("k", f.k);
  json.Field("counters_only_seconds", counters_s);
  json.Field("content_digest_seconds", content_s);
  json.Field("content_overhead_ratio", content_s / counters_s);
  json.Field("digest_levels_distinct", distinct);
  std::cout << "  digest_overhead: counters=" << counters_s << "s content="
            << content_s << "s ratio=" << content_s / counters_s << "\n";
  return distinct;
}

}  // namespace
}  // namespace treelocal

int main(int argc, char** argv) {
  treelocal::Flags f;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--n=", 0) == 0) {
      f.n = std::atoi(arg.c_str() + 4);
    } else if (arg.rfind("--k=", 0) == 0) {
      f.k = std::atoi(arg.c_str() + 4);
    } else if (arg.rfind("--reps=", 0) == 0) {
      f.reps = std::atoi(arg.c_str() + 7);
    } else {
      std::cerr << "bench_snapshot: unknown flag " << arg
                << " (flags: --n= --k= --reps=)\n";
      return 1;
    }
  }
  if (f.n < 2 || f.k < 2 || f.reps < 1) {
    std::cerr << "bench_snapshot: need n >= 2, k >= 2, reps >= 1\n";
    return 1;
  }

  treelocal::Graph tree = treelocal::UniformRandomTree(f.n, 77);
  auto ids = treelocal::DefaultIds(f.n, 78);

  treelocal::bench::JsonWriter json;
  bool ok = treelocal::RunCheckpointResume(tree, ids, f, json);
  ok &= treelocal::RunDigestOverhead(tree, ids, f, json);
  json.MergeAs("bench_snapshot", "BENCH_engine.json");
  std::cout << (ok ? "  wrote BENCH_engine.json\n"
                   : "IDENTITY GATE FAILED — not trusting these numbers\n");
  return ok ? 0 : 1;
}
