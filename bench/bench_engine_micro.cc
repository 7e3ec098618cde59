// Experiment E11: google-benchmark microbenchmarks of the substrate — the
// LOCAL engine's round throughput, Linial color reduction, Cole-Vishkin,
// rake-and-compress, and line-graph construction. These quantify the cost
// of *simulating* a round, not the LOCAL round complexity itself.
//
// In addition to the microbenchmarks, main() runs the engine acceptance
// measurement: optimized vs reference engine on a million-node rake-compress
// (same algorithm, same transcript), writing the machine-readable trajectory
// to BENCH_engine.json — total speedup plus the per-round (active nodes,
// cost) series showing the optimized engine's round cost tracks the live
// node count rather than n.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <iostream>

#include "bench/bench_util.h"
#include "src/algos/cole_vishkin.h"
#include "src/algos/linial.h"
#include "src/core/decomposition.h"
#include "src/core/rake_compress.h"
#include "src/graph/generators.h"
#include "src/graph/linegraph.h"
#include "src/local/network.h"
#include "src/local/reference_network.h"
#include "src/support/rng.h"

namespace treelocal {
namespace {

class BroadcastK : public local::Algorithm {
 public:
  explicit BroadcastK(int rounds) : rounds_(rounds) {}
  void OnRound(local::NodeContext& ctx) override {
    if (ctx.round() >= rounds_) {
      ctx.Halt();
      return;
    }
    ctx.Broadcast(local::Message::Of(ctx.round()));
  }

 private:
  int rounds_;
};

void BM_EngineBroadcastRounds(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Graph g = UniformRandomTree(n, 1);
  auto ids = DefaultIds(n, 2);
  // One engine for the whole benchmark: Run is reusable with no
  // reallocation, so this measures round throughput, not allocator traffic.
  local::Network net(g, ids);
  for (auto _ : state) {
    BroadcastK alg(10);
    benchmark::DoNotOptimize(net.Run(alg, 20));
  }
  state.SetItemsProcessed(state.iterations() * int64_t{10} * n);
}
BENCHMARK(BM_EngineBroadcastRounds)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

void BM_EngineBroadcastRoundsReference(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Graph g = UniformRandomTree(n, 1);
  auto ids = DefaultIds(n, 2);
  local::ReferenceNetwork net(g, ids);
  for (auto _ : state) {
    BroadcastK alg(10);
    benchmark::DoNotOptimize(net.Run(alg, 20));
  }
  state.SetItemsProcessed(state.iterations() * int64_t{10} * n);
}
BENCHMARK(BM_EngineBroadcastRoundsReference)
    ->Arg(1 << 10)
    ->Arg(1 << 14)
    ->Arg(1 << 17);

void BM_Linial(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Graph g = BoundedDegreeRandomTree(n, 8, 3);
  auto ids = DefaultIds(n, 4);
  int64_t space = int64_t{n} * n * n;
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunLinial(g, ids, space));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Linial)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

void BM_ColeVishkin(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Graph g = Path(n);
  auto ids = DefaultIds(n, 5);
  std::vector<int> parent(n, -1);
  for (int v = 1; v < n; ++v) parent[v] = v - 1;
  int64_t space = int64_t{n} * n * n;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ColeVishkin3Color(g, ids, parent, space));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ColeVishkin)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

void BM_RakeCompress(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Graph g = UniformRandomTree(n, 6);
  auto ids = DefaultIds(n, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunRakeCompress(g, ids, 4));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RakeCompress)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

void BM_Decomposition(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Graph g = ForestUnion(n, 3, 8);
  auto ids = DefaultIds(n, 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunDecomposition(g, ids, 3, 6, 15));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Decomposition)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 16);

void BM_BuildLineGraph(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Graph g = BoundedDegreeRandomTree(n, 6, 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildLineGraph(g));
  }
  state.SetItemsProcessed(state.iterations() * g.NumEdges());
}
BENCHMARK(BM_BuildLineGraph)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 16);

void BM_UniformRandomTree(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(UniformRandomTree(n, ++seed));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_UniformRandomTree)->Arg(1 << 10)->Arg(1 << 16);

// Engine acceptance measurement: one million-node rake-compress, optimized
// vs reference engine. Writes BENCH_engine.json and prints a summary.
// Returns false if the two engines' transcripts diverged (a bug).
bool MeasureRakeCompress(const std::string& family, const Graph& tree,
                         const std::vector<int64_t>& ids, int k,
                         bench::JsonWriter& json) {
  using Clock = std::chrono::steady_clock;
  const int n = tree.NumNodes();
  const int kReps = 3;  // min-of-N: robust against scheduler noise
  std::cout << "Engine acceptance: rake-compress on a " << n << "-node "
            << family << " tree, k=" << k << "\n";

  // Both engines are constructed once and reused (the optimized engine's
  // Run is reallocation-free by design; the reference engine refills its
  // mailboxes but reuses the buffers), so min-of-N measures round
  // throughput, not allocator or page-fault traffic. One shared protocol
  // (warmup + best-of-kReps) so the two sides can never diverge. Only the
  // optimized engine's rounds are timed: the reference engine's O(n) tail
  // rounds would trip the tail-cost bound in check_bench_regression.py.
  auto measure = [&](local::Engine& engine, RakeCompressResult& out,
                     std::vector<double>* round_s) {
    RunRakeCompress(engine, k);  // warmup: faults in the mailboxes
    double best = 1e300;
    for (int rep = 0; rep < kReps; ++rep) {
      auto t0 = Clock::now();
      RakeCompressResult r = RunRakeCompress(engine, k);
      double s = std::chrono::duration<double>(Clock::now() - t0).count();
      if (s < best) {
        best = s;
        out = std::move(r);
        if (round_s != nullptr) {
          *round_s = engine.round_seconds();
        }
      }
    }
    return best;
  };

  local::Network net(tree, ids);
  net.set_record_round_times(true);
  RakeCompressResult fast;
  std::vector<double> fast_round_s;
  double fast_s = measure(net, fast, &fast_round_s);

  local::ReferenceNetwork ref_net(tree, ids);
  RakeCompressResult ref;
  double ref_s = measure(ref_net, ref, nullptr);

  const bool identical = fast.iteration == ref.iteration &&
                         fast.compressed == ref.compressed &&
                         fast.engine_rounds == ref.engine_rounds &&
                         fast.messages == ref.messages &&
                         fast.round_stats == ref.round_stats;
  const double speedup = ref_s / fast_s;

  // Per-round trajectory: active nodes and measured cost. The optimized
  // engine's per-round cost must decay with active_nodes; the tail rounds
  // (most nodes halted) must be far cheaper than round 0.
  std::vector<int64_t> active, sent;
  for (const auto& rs : fast.round_stats) {
    active.push_back(rs.active_nodes);
    sent.push_back(rs.messages_sent);
  }
  double head_cost_per_round = 0, tail_cost_per_round = 0;
  const size_t rounds = fast_round_s.size();
  const size_t head = std::min<size_t>(3, rounds);
  for (size_t r = 0; r < head; ++r) head_cost_per_round += fast_round_s[r];
  head_cost_per_round /= std::max<size_t>(head, 1);
  size_t tail_from = rounds - std::min<size_t>(3, rounds);
  for (size_t r = tail_from; r < rounds; ++r) {
    tail_cost_per_round += fast_round_s[r];
  }
  tail_cost_per_round /= std::max<size_t>(rounds - tail_from, 1);

  json.BeginRecord();
  json.Field("source", "bench_engine_micro");
  json.Field("experiment", "rake_compress_engine_acceptance");
  json.Field("family", family);
  json.Field("n", n);
  json.Field("edges", tree.NumEdges());
  json.Field("k", k);
  json.Field("rounds", fast.engine_rounds);
  json.Field("messages", fast.messages);
  json.Field("optimized_seconds", fast_s);
  json.Field("reference_seconds", ref_s);
  json.Field("speedup", speedup);
  json.Field("optimized_rounds_per_sec", fast.engine_rounds / fast_s);
  json.Field("reference_rounds_per_sec", ref.engine_rounds / ref_s);
  json.Field("transcripts_identical", identical);
  json.Field("round_active_nodes", active);
  json.Field("round_messages", sent);
  json.Field("round_seconds", fast_round_s);
  json.Field("head_mean_round_seconds", head_cost_per_round);
  json.Field("tail_mean_round_seconds", tail_cost_per_round);

  std::cout << "  rounds=" << fast.engine_rounds
            << " messages=" << fast.messages << " identical="
            << (identical ? "yes" : "NO (BUG)") << "\n"
            << "  optimized: " << fast_s << " s   reference: " << ref_s
            << " s   speedup: " << speedup << "x\n"
            << "  per-round cost head/tail: " << head_cost_per_round << " / "
            << tail_cost_per_round << " s (active "
            << (active.empty() ? 0 : active.front()) << " -> "
            << (active.empty() ? 0 : active.back()) << ")\n";
  return identical;
}

// Returns false if any engine pair diverged, so CI fails on lost identity.
bool RunEngineAcceptance(int n) {
  auto ids = DefaultIds(n, 22);
  bench::JsonWriter json;
  bool ok = true;
  // The balanced binary tree under k = 2 is the long-trajectory workload:
  // only the leaf layer rakes each iteration, so the run takes Theta(log n)
  // iterations with a geometrically shrinking active set — the worklist's
  // headline case. The uniform tree collapses in O(1) iterations, so its
  // rounds stay all-active-heavy; both are reported.
  {
    Graph tree = MakeTree(TreeFamily::kBinary, n, 21);
    ok &= MeasureRakeCompress("balanced-binary", tree, ids, 2, json);
  }
  {
    Graph tree = UniformRandomTree(n, 21);
    ok &= MeasureRakeCompress("uniform-random", tree, ids, 2, json);
    ok &= MeasureRakeCompress("uniform-random", tree, ids, 4, json);
  }
  json.MergeAs("bench_engine_micro", "BENCH_engine.json");
  std::cout << "  wrote BENCH_engine.json\n";
  return ok;
}

}  // namespace
}  // namespace treelocal

int main(int argc, char** argv) {
  // --engine_n=<n> overrides the acceptance run's size; --engine_only skips
  // the google-benchmark microbenchmarks.
  int engine_n = 1 << 20;
  bool engine_only = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--engine_n=", 0) == 0) {
      engine_n = std::atoi(arg.c_str() + 11);
      if (engine_n < 2) {
        std::cerr << "bench_engine_micro: --engine_n must be an integer >= 2, "
                     "got \""
                  << arg.c_str() + 11 << "\"\n";
        return 1;
      }
    } else if (arg == "--engine_only") {
      engine_only = true;
    }
  }
  if (!engine_only) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  return treelocal::RunEngineAcceptance(engine_n) ? 0 : 1;
}
