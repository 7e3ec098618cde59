// Experiment E8 (Theorem 3): (edge-degree+1)-edge coloring on trees.
//
// Three series are reported:
//   (1) measured  — the full pipeline run end-to-end with our implemented
//       f(Delta) = O~(Delta^2) base algorithm and k = g(n) for that f
//       (every phase measured on the engine);
//   (2) modeled   — the paper's configuration: k = g(n) for
//       f(Delta) = log^12(Delta) [BBKO22b]; decomposition/split/gather are
//       *measured* with that k, only the base phase round count is modeled
//       as f(k) + log* n (DESIGN.md substitution #1);
//   (3) analytic  — the paper's O(log^{12/13} n) curve and the
//       Omega(log n / log log n) MIS/MM barrier it separates from, extended
//       in log-space far beyond feasible n to exhibit the crossover.
// Plus the phase-2/3 acceptance: the engine-native base + fused forest
// split vs the host-side oracle (tests/oracle/) at n = 2^accept_exp on one
// shared decomposition, identity-gated, speedup recorded in BENCH_engine.json
// (experiment "edge_pipeline_phase23", acceptance=true when the size is the
// real 2^18+ measurement rather than a CI smoke run). And the edge-base
// breakdown at the same size: RunEdgeBase's phases at T=1, which must sum
// to its wall time within 10% ("edge_base_breakdown").
//
// Flags: --n_lo= --n_hi= (measured sweep exponents, default 10..18),
// --accept_exp= (default 20), --reps= (acceptance best-of, default 3).
#include <chrono>
#include <cmath>
#include <iostream>
#include <numeric>
#include <string>

#include "bench/bench_util.h"
#include "src/core/complexity.h"
#include "src/core/forest_split.h"
#include "src/core/transform_edge.h"
#include "src/graph/generators.h"
#include "src/graph/semigraph.h"
#include "src/local/network.h"
#include "src/problems/edge_coloring.h"
#include "src/support/mathutil.h"
#include "src/support/rng.h"
#include "src/support/table.h"
#include "tests/oracle/host_oracle.h"

namespace treelocal {
namespace {

using Clock = std::chrono::steady_clock;
using bench::EmitTrajectory;
using bench::SameLabeling;

bool RunMeasured(int n_lo, int n_hi, bench::JsonWriter& json) {
  bool all_identical = true;
  Table table({"n", "k", "rounds", "decomp", "base", "split", "gather",
               "log2n", "valid"});
  for (int n : bench::PowersOfTwo(n_lo, n_hi)) {
    Graph tree = UniformRandomTree(n, 3);
    auto ids = DefaultIds(n, 4);
    EdgeColoringProblem problem(EdgeColoringProblem::Mode::kEdgeDegreePlusOne,
                                tree.MaxDegree());
    int k = std::max(5, ChooseK(n, QuadraticF()));
    local::Network net(tree, ids);
    net.set_record_round_times(true);
    auto t0 = Clock::now();
    auto result = SolveEdgeProblemBoundedArboricity(problem, net,
                                                    bench::IdSpace(n), 1, k);
    double engine_s = bench::SecondsSince(t0);
    t0 = Clock::now();
    auto legacy = oracle::SolveEdgeProblemBoundedArboricity(
        problem, tree, ids, bench::IdSpace(n), 1, k);
    double legacy_s = bench::SecondsSince(t0);
    bool identical = SameLabeling(tree, result.labeling, legacy.labeling) &&
                     result.rounds_total == legacy.rounds_total;
    all_identical &= identical;
    table.AddRow({Table::Num(n), Table::Num(k), Table::Num(result.rounds_total),
                  Table::Num(result.rounds_decomposition),
                  Table::Num(result.rounds_base),
                  Table::Num(result.rounds_split),
                  Table::Num(result.rounds_gather),
                  Table::Num(std::log2(double(n)), 1),
                  (result.valid && identical) ? "yes" : "NO"});

    json.BeginRecord();
    json.Field("source", "bench_thm3_edge_coloring");
    json.Field("experiment", "thm3_pipeline");
    json.Field("n", n);
    json.Field("k", k);
    json.Field("rounds", result.rounds_total);
    json.Field("engine_seconds", engine_s);
    json.Field("legacy_seconds", legacy_s);
    json.Field("speedup", legacy_s / engine_s);
    json.Field("transcripts_identical", identical);
    json.Field("valid", result.valid);
    EmitTrajectory(json, "decomp", result.decomposition.round_stats,
                   result.round_seconds_decomposition);
    EmitTrajectory(json, "base_sweep", result.base_stats.sweep_round_stats,
                   result.round_seconds_base_sweep);
    EmitTrajectory(json, "split", result.split.round_stats,
                   result.round_seconds_split);
  }
  table.Print(
      "E8a: (edge-degree+1)-edge coloring on trees, measured engine-native "
      "pipeline (implemented f(Delta)=O~(Delta^2) base), identity-gated");
  table.WriteCsv("bench_thm3_measured");
  table.WriteJson("bench_thm3_measured");
  return all_identical;
}

// Phase-2/3 acceptance: one decomposition, then the engine-native base +
// fused multi-forest split vs the oracle base + per-forest split, best-of
// reps each, identity-gated, on two workloads:
//   * uniform tree (a = 1) — Theorem 15's degenerate tree case. Here the
//     engine's wins (no Subgraph compaction, flat-key IDs, O(|E1|) split)
//     and the faithful round simulation's costs (announcement sends, cache
//     interference on the shared greedy) cancel to ~parity, so this record
//     is reported but NOT floored.
//   * union of 2 random forests (a = 2) — the bounded-arboricity workload
//     the theorem is actually about; the larger G[E2] line graph makes the
//     engine's construction wins structural. This record carries
//     acceptance=true and check_bench_regression.py floors it at 0.8x (a
//     collapse detector — this container's wall-clock noise band is wider
//     than the structural win; the deterministic gate is transcript
//     identity).
bool RunPhase23Acceptance(int accept_exp, int reps, bench::JsonWriter& json) {
  const int n = 1 << accept_exp;
  struct Workload {
    std::string name;
    Graph graph;
    int a;
    bool floored;
  };
  std::vector<Workload> workloads;
  workloads.push_back({"uniform_tree", UniformRandomTree(n, 5), 1, false});
  workloads.push_back({"forest_union_a2", ForestUnion(n, 2, 7), 2, true});

  bool all_identical = true;
  for (const Workload& w : workloads) {
    const Graph& g = w.graph;
    auto ids = DefaultIds(g.NumNodes(), 6);
    const int64_t space = bench::IdSpace(g.NumNodes());
    EdgeColoringProblem problem(EdgeColoringProblem::Mode::kEdgeDegreePlusOne,
                                g.MaxDegree());
    int k = std::max(5 * w.a, ChooseK(n, QuadraticF()));

    local::Network net(g, ids);
    auto decomp = RunDecomposition(net, w.a, 2 * w.a, k);
    std::vector<char> typical_mask(g.NumEdges(), 0);
    for (int e = 0; e < g.NumEdges(); ++e) {
      typical_mask[e] = decomp.atypical[e] ? 0 : 1;
    }
    SemiGraph e2 = SemiGraph::EdgeInduced(g, typical_mask);

    // Interleaved best-of-reps: pairing each engine rep with an oracle rep
    // keeps slow machine-load drift out of the ratio (the two sides see
    // the same conditions within a pair).
    HalfEdgeLabeling h_engine(g), h_legacy(g);
    ForestSplitResult split_engine, split_legacy;
    double engine_s = 1e300, legacy_s = 1e300;
    for (int rep = 0; rep < reps; ++rep) {
      h_engine = HalfEdgeLabeling(g);
      auto t0 = Clock::now();
      RunEdgeBase(net, problem, e2, space, h_engine);
      split_engine = SplitAtypicalForests(net, decomp, w.a, space);
      engine_s = std::min(engine_s, bench::SecondsSince(t0));

      h_legacy = HalfEdgeLabeling(g);
      t0 = Clock::now();
      oracle::RunEdgeBase(problem, e2, ids, space, h_legacy);
      split_legacy = oracle::SplitAtypicalForests(g, ids, space, decomp, w.a);
      legacy_s = std::min(legacy_s, bench::SecondsSince(t0));
    }
    bool identical =
        SameLabeling(g, h_engine, h_legacy) &&
        split_engine.forest_of_edge == split_legacy.forest_of_edge &&
        split_engine.star_class_of_edge == split_legacy.star_class_of_edge &&
        split_engine.cv_rounds == split_legacy.cv_rounds;
    all_identical &= identical;

    json.BeginRecord();
    json.Field("source", "bench_thm3_edge_coloring");
    json.Field("experiment", "edge_pipeline_phase23");
    json.Field("workload", w.name);
    json.Field("acceptance", w.floored && accept_exp >= 18);
    json.Field("n", n);
    json.Field("a", w.a);
    json.Field("k", k);
    json.Field("engine_seconds", engine_s);
    json.Field("legacy_seconds", legacy_s);
    json.Field("speedup", legacy_s / engine_s);
    json.Field("transcripts_identical", identical);
    std::cout << "phase-2/3 " << w.name << " at n=2^" << accept_exp
              << ": engine " << engine_s << " s, legacy " << legacy_s
              << " s, speedup " << legacy_s / engine_s << "x, identical="
              << (identical ? "yes" : "NO (BUG)") << "\n";
  }
  return all_identical;
}

// Edge-base breakdown (T=1): RunEdgeBase on G[E2] of the Thm15 workload
// (uniform tree, seed 1, DefaultIds seed 2, a = 1, k = max(5, ChooseK)),
// with the host engine's round timer armed so RunEdgeBase also times its
// host-side phases. Best-of-reps by wall time; the record gives each
// phase's seconds, the sweep's engine time from round_seconds() and its
// set-up outside the rounds, and the sweep's decisions and ns per decision.
// The phases are consecutive laps of one clock, so the 10% gate on their
// sum against the measured wall time catches a phase the record leaves
// out. Also fails if the labeling differs from the host-side oracle's.
bool RunEdgeBaseBreakdown(int exp, int reps, bench::JsonWriter& json) {
  const int n = 1 << exp;
  Graph tree = UniformRandomTree(n, 1);
  auto ids = DefaultIds(n, 2);
  const int64_t space = bench::IdSpace(n);
  EdgeColoringProblem problem(EdgeColoringProblem::Mode::kEdgeDegreePlusOne,
                              tree.MaxDegree());
  const int k = std::max(5, ChooseK(n, QuadraticF()));
  local::Network net(tree, ids);
  auto decomp = RunDecomposition(net, 1, 2, k);
  std::vector<char> typical_mask(tree.NumEdges(), 0);
  for (int e = 0; e < tree.NumEdges(); ++e) {
    typical_mask[e] = decomp.atypical[e] ? 0 : 1;
  }
  SemiGraph e2 = SemiGraph::EdgeInduced(tree, typical_mask);

  net.set_record_round_times(true);
  HalfEdgeLabeling h(tree);
  BaseRunStats best;
  double wall_s = 1e300, sweep_s = 0;
  for (int rep = 0; rep < reps; ++rep) {
    h = HalfEdgeLabeling(tree);
    auto t0 = Clock::now();
    BaseRunStats stats = RunEdgeBase(net, problem, e2, space, h);
    const double wall = bench::SecondsSince(t0);
    if (wall < wall_s) {
      wall_s = wall;
      best = std::move(stats);
      const std::vector<double>& rs = net.round_seconds();
      sweep_s = std::accumulate(rs.begin(), rs.end(), 0.0);
    }
  }
  HalfEdgeLabeling h_oracle(tree);
  oracle::RunEdgeBase(problem, e2, ids, space, h_oracle);
  const bool identical = SameLabeling(tree, h, h_oracle);

  const BaseRunStats::EdgePhaseSeconds& ph = best.edge_phase_seconds;
  const std::pair<const char*, double> phases[] = {
      {"semi_edges_s", ph.semi_edges},   {"line_graph_s", ph.line_graph},
      {"line_ids_s", ph.line_ids},       {"line_engine_s", ph.line_engine},
      {"line_linial_s", ph.linial},      {"ranks_owners_s", ph.ranks_owners},
      {"sweep_engine_s", sweep_s},
      {"sweep_setup_s", ph.sweep - sweep_s}};
  double sum_s = 0;
  for (const auto& [name, s] : phases) sum_s += s;
  const double miss = std::abs(wall_s - sum_s) / wall_s;
  const bool sums = miss <= 0.10;
  const int64_t decisions = bench::TotalDecisions(best.sweep_round_stats);

  json.BeginRecord();
  json.Field("source", "bench_thm3_edge_coloring");
  json.Field("experiment", "edge_base_breakdown");
  json.Field("n", n);
  json.Field("k", k);
  json.Field("threads", 1);
  json.Field("reps", reps);
  json.Field("wall_s", wall_s);
  for (const auto& [name, s] : phases) json.Field(name, s);
  json.Field("phases_sum_s", sum_s);
  json.Field("phases_miss_frac", miss);
  json.Field("sweep_decisions", decisions);
  json.Field("sweep_ns_per_decision",
             decisions ? sweep_s * 1e9 / decisions : 0.0);
  json.Field("sweep_visits", bench::TotalVisits(best.sweep_round_stats));
  json.Field("linial_rounds", best.linial_rounds);
  json.Field("matches_oracle", identical);

  std::cout << "edge-base breakdown at n=2^" << exp << ", T=1 (best of "
            << reps << "): RunEdgeBase " << wall_s << " s\n";
  for (const auto& [name, s] : phases) {
    std::cout << "  " << name << " " << s << "\n";
  }
  std::cout << "  phases sum " << sum_s << " s (miss " << 100 * miss
            << "%" << (sums ? "" : ", ABOVE 10% (BUG)") << "); "
            << decisions << " decisions, "
            << (decisions ? sweep_s * 1e9 / decisions : 0.0)
            << " ns/decision; labeling "
            << (identical ? "matches" : "DIFFERS FROM (BUG)") << " oracle\n";
  return sums && identical;
}

void RunModeled(int n_lo, int n_hi) {
  // Paper configuration: f(Delta) = log^12(Delta), k = g(n) with
  // g^{f(g)} = n, so the base phase costs f(g(n)) = log^{12/13}(n) rounds
  // asymptotically — that value is charged as the model. The decomposition,
  // split and gather phases are *measured* by running the real pipeline
  // (with k clamped to Theorem 15's k >= 5a requirement, which at feasible
  // n exceeds the tiny g(n) — the asymptotic regime needs n = 2^(2^13+)).
  auto f = PolylogF(12.0);
  Table table({"n", "g(n)", "k(run)", "decomp+split+gather(meas)",
               "base=f(g) (model)", "total(model)", "barrier", "valid"});
  for (int n : bench::PowersOfTwo(n_lo, n_hi)) {
    Graph tree = UniformRandomTree(n, 5);
    auto ids = DefaultIds(n, 6);
    EdgeColoringProblem problem(EdgeColoringProblem::Mode::kEdgeDegreePlusOne,
                                tree.MaxDegree());
    double g = SolveG(double(n), f);
    int k = std::max(5, static_cast<int>(g));
    auto result = SolveEdgeProblemBoundedArboricity(problem, tree, ids,
                                                    bench::IdSpace(n), 1, k);
    double measured_overhead = result.rounds_decomposition +
                               result.rounds_split + result.rounds_gather;
    double base_model = f(g) + LogStar(double(n));
    table.AddRow({Table::Num(n), Table::Num(g, 2), Table::Num(k),
                  Table::Num(measured_overhead, 0),
                  Table::Num(base_model, 1),
                  Table::Num(measured_overhead + base_model, 1),
                  Table::Num(BarrierLogOverLogLog(double(n)), 1),
                  result.valid ? "yes" : "NO"});
  }
  table.Print(
      "E8b: Theorem 3 configuration (f = log^12 Delta [BBKO22b]; base "
      "phase modeled at f(g(n)) = log^{12/13} n, other phases measured)");
  table.WriteCsv("bench_thm3_modeled");
  table.WriteJson("bench_thm3_modeled");
}

void RunAnalytic() {
  // The separation is asymptotic: in log-space, with L = log2 n, the paper
  // curve is L^{12/13} and the barrier is L / log2 L; the ratio
  // log2(L)/L^{1/13} -> 0. Report the curves across 30 orders of magnitude.
  Table table({"log2(n)", "paper L^(12/13)", "barrier L/log2L",
               "ratio paper/barrier", "paperWins"});
  for (double big_l : {16., 64., 256., 1024., 4096., 65536., 1e6, 1e9, 1e12,
                       1e18, 1e24, 1e30}) {
    double paper = std::pow(big_l, 12.0 / 13.0);
    double barrier = big_l / std::log2(big_l);
    table.AddRow({Table::Num(big_l, 0), Table::Num(paper, 1),
                  Table::Num(barrier, 1), Table::Num(paper / barrier, 3),
                  paper < barrier ? "yes" : "no"});
  }
  table.Print(
      "E8c: analytic separation, log-space (crossover at L = (log2 L)^13)");
  table.WriteCsv("bench_thm3_analytic");
  table.WriteJson("bench_thm3_analytic");
}

}  // namespace
}  // namespace treelocal

int main(int argc, char** argv) {
  int n_lo = 10, n_hi = 18, accept_exp = 20, reps = 3;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--n_lo=", 0) == 0) {
      n_lo = std::atoi(arg.c_str() + 7);
    } else if (arg.rfind("--n_hi=", 0) == 0) {
      n_hi = std::atoi(arg.c_str() + 7);
    } else if (arg.rfind("--accept_exp=", 0) == 0) {
      accept_exp = std::atoi(arg.c_str() + 13);
    } else if (arg.rfind("--reps=", 0) == 0) {
      reps = std::max(1, std::atoi(arg.c_str() + 7));
    } else {
      std::cerr << "bench_thm3_edge_coloring: unknown flag " << arg << "\n";
      return 1;
    }
  }
  if (n_lo < 4 || n_hi > 24 || n_lo > n_hi || accept_exp < 10 ||
      accept_exp > 24) {
    std::cerr << "bench_thm3_edge_coloring: exponents out of range\n";
    return 1;
  }
  treelocal::bench::JsonWriter json;
  bool ok = treelocal::RunMeasured(n_lo, n_hi, json);
  ok &= treelocal::RunPhase23Acceptance(accept_exp, reps, json);
  ok &= treelocal::RunEdgeBaseBreakdown(accept_exp, reps, json);
  treelocal::RunModeled(n_lo, n_hi);
  treelocal::RunAnalytic();
  json.MergeAs("bench_thm3_edge_coloring", "BENCH_engine.json");
  std::cout << "  wrote BENCH_engine.json\n";
  return ok ? 0 : 1;
}
