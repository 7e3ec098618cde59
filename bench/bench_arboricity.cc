// Experiment E9 (Theorem 3 / 15, arboricity form): (edge-degree+1)-edge
// coloring on graphs of arboricity a — unions of a random forests plus
// planar grid workloads. The round count should scale as O(a + f(g) + ...)
// with an additive-in-a gather term, and stay valid throughout.
//
// The arboricity sweep runs the ENGINE-NATIVE pipeline on an explicit,
// timing-armed host engine, gated on bit-identity against the legacy path
// (exit non-zero on divergence), and merges per-phase round trajectories +
// speedups into BENCH_engine.json as source "bench_arboricity". This is
// where the fused multi-forest Cole-Vishkin earns its keep: legacy phase 3
// rebuilt a Subgraph per forest (2a of them).
//
// Flags: --n_exp= (sweep size, default 14), --planar_max_side= (default
// 256), --match_exp= (default 13). CI smoke: --n_exp=11 --planar_max_side=64
// --match_exp=10.
#include <chrono>
#include <iostream>
#include <string>

#include "bench/bench_util.h"
#include "src/core/complexity.h"
#include "src/core/transform_edge.h"
#include "src/graph/generators.h"
#include "src/local/network.h"
#include "src/problems/edge_coloring.h"
#include "src/problems/matching.h"
#include "src/support/rng.h"
#include "src/support/table.h"

namespace treelocal {
namespace {

using Clock = std::chrono::steady_clock;
using bench::EmitTrajectory;
using bench::SameLabeling;

bool RunArboricitySweep(int n_exp, bench::JsonWriter& json) {
  const int n = 1 << n_exp;
  bool all_identical = true;
  Table table({"graph", "a", "k", "rounds", "decomp", "base", "split",
               "gather", "atypicalEdges", "speedup", "valid"});
  for (int a : {1, 2, 3, 4, 5, 6, 8}) {
    Graph g = ForestUnion(n, a, 100 + a);
    auto ids = DefaultIds(g.NumNodes(), 7);
    EdgeColoringProblem problem(EdgeColoringProblem::Mode::kEdgeDegreePlusOne,
                                g.MaxDegree());
    int k = std::max(5 * a, ChooseK(n, QuadraticF()));

    local::Network net(g, ids);
    net.set_record_round_times(true);
    auto t0 = Clock::now();
    auto result = SolveEdgeProblemBoundedArboricity(problem, net,
                                                    bench::IdSpace(n), a, k);
    double engine_s = bench::SecondsSince(t0);
    t0 = Clock::now();
    auto legacy = SolveEdgeProblemBoundedArboricityLegacy(
        problem, g, ids, bench::IdSpace(n), a, k);
    double legacy_s = bench::SecondsSince(t0);
    bool identical = SameLabeling(g, result.labeling, legacy.labeling) &&
                     result.rounds_total == legacy.rounds_total;
    all_identical &= identical;

    table.AddRow({"union-a" + std::to_string(a), Table::Num(a), Table::Num(k),
                  Table::Num(result.rounds_total),
                  Table::Num(result.rounds_decomposition),
                  Table::Num(result.rounds_base),
                  Table::Num(result.rounds_split),
                  Table::Num(result.rounds_gather),
                  Table::Num(result.num_atypical),
                  Table::Num(legacy_s / engine_s, 2),
                  (result.valid && identical) ? "yes" : "NO"});

    json.BeginRecord();
    json.Field("source", "bench_arboricity");
    json.Field("experiment", "arboricity_pipeline");
    json.Field("n", g.NumNodes());
    json.Field("a", a);
    json.Field("k", k);
    json.Field("atypical_edges", result.num_atypical);
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
      "E9a: arboricity sweep, (edge-degree+1)-edge coloring "
      "(engine-native, identity-gated)");
  table.WriteCsv("bench_arboricity_sweep");
  table.WriteJson("bench_arboricity_sweep");
  return all_identical;
}

void RunPlanar(int max_side) {
  // Theorem 3's punchline for constant arboricity: planar-style graphs.
  Table table({"graph", "n", "a", "k", "rounds", "decomp", "base", "split",
               "gather", "valid"});
  struct W {
    std::string name;
    Graph graph;
    int a;
  };
  std::vector<W> workloads;
  for (int side : {32, 64, 128, 256}) {
    if (side > max_side) continue;
    workloads.push_back({"grid", Grid(side, side), 2});
    workloads.push_back({"trigrid", TriangulatedGrid(side, side), 3});
  }
  for (auto& w : workloads) {
    auto ids = DefaultIds(w.graph.NumNodes(), 8);
    EdgeColoringProblem problem(EdgeColoringProblem::Mode::kEdgeDegreePlusOne,
                                w.graph.MaxDegree());
    int k =
        std::max(5 * w.a, ChooseK(w.graph.NumNodes(), QuadraticF()));
    auto result = SolveEdgeProblemBoundedArboricity(
        problem, w.graph, ids, bench::IdSpace(w.graph.NumNodes()), w.a, k);
    table.AddRow({w.name, Table::Num(w.graph.NumNodes()), Table::Num(w.a),
                  Table::Num(k), Table::Num(result.rounds_total),
                  Table::Num(result.rounds_decomposition),
                  Table::Num(result.rounds_base),
                  Table::Num(result.rounds_split),
                  Table::Num(result.rounds_gather),
                  result.valid ? "yes" : "NO"});
  }
  table.Print("E9b: planar-style graphs (constant arboricity)");
  table.WriteCsv("bench_arboricity_planar");
  table.WriteJson("bench_arboricity_planar");
}

void RunMatchingArboricity(int match_exp) {
  const int n = 1 << match_exp;
  MatchingProblem mm;
  Table table({"a", "k", "rounds", "gather(=12a)", "valid"});
  for (int a : {1, 2, 3, 5, 8}) {
    Graph g = ForestUnion(n, a, 200 + a);
    auto ids = DefaultIds(g.NumNodes(), 9);
    int k = std::max(5 * a, ChooseK(n, QuadraticF()));
    auto result =
        SolveEdgeProblemBoundedArboricity(mm, g, ids, bench::IdSpace(n), a, k);
    table.AddRow({Table::Num(a), Table::Num(k),
                  Table::Num(result.rounds_total),
                  Table::Num(result.rounds_gather),
                  result.valid ? "yes" : "NO"});
  }
  table.Print("E9c: maximal matching across arboricity (additive O(a) term)");
  table.WriteCsv("bench_arboricity_matching");
  table.WriteJson("bench_arboricity_matching");
}

}  // namespace
}  // namespace treelocal

int main(int argc, char** argv) {
  int n_exp = 14, planar_max_side = 256, match_exp = 13;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--n_exp=", 0) == 0) {
      n_exp = std::atoi(arg.c_str() + 8);
    } else if (arg.rfind("--planar_max_side=", 0) == 0) {
      planar_max_side = std::atoi(arg.c_str() + 18);
    } else if (arg.rfind("--match_exp=", 0) == 0) {
      match_exp = std::atoi(arg.c_str() + 12);
    } else {
      std::cerr << "bench_arboricity: unknown flag " << arg << "\n";
      return 1;
    }
  }
  if (n_exp < 8 || n_exp > 22 || match_exp < 8 || match_exp > 22) {
    std::cerr << "bench_arboricity: exponents out of range\n";
    return 1;
  }
  treelocal::bench::JsonWriter json;
  bool ok = treelocal::RunArboricitySweep(n_exp, json);
  treelocal::RunPlanar(planar_max_side);
  treelocal::RunMatchingArboricity(match_exp);
  json.MergeAs("bench_arboricity", "BENCH_engine.json");
  std::cout << "  wrote BENCH_engine.json\n";
  return ok ? 0 : 1;
}
