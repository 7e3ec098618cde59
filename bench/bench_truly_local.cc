// Experiment E12: the truly local complexity f(Delta) of the implemented
// base algorithms, measured directly — the function the whole
// transformation is parameterized by. For each Delta, run the base
// algorithm on bounded-degree trees at fixed n and report the f(Delta) term
// (sweep schedule length) and the log* term (Linial engine rounds)
// separately, plus f(Delta)/Delta^2 to exhibit the Theta~(Delta^2) shape.
//
// The baselines now run ENGINE-NATIVE (Linial over induced host ports +
// engine class sweep); every row is gated on bit-identity against the
// host-side oracle base (tests/oracle/) on the whole graph, and contributes
// its symmetry-breaking + sweep round trajectories and wall-clock speedup
// to BENCH_engine.json as source "bench_truly_local".
//
// Flags: --n_exp= (default 13), --logstar_max_exp= (default 18). CI smoke:
// --n_exp=11 --logstar_max_exp=13.
#include <chrono>
#include <cmath>
#include <iostream>
#include <string>

#include "bench/bench_util.h"
#include "src/core/baseline.h"
#include "src/graph/generators.h"
#include "src/graph/semigraph.h"
#include "src/local/network.h"
#include "src/problems/matching.h"
#include "src/problems/mis.h"
#include "src/support/mathutil.h"
#include "src/support/rng.h"
#include "src/support/table.h"
#include "tests/oracle/host_oracle.h"

namespace treelocal {
namespace {

using Clock = std::chrono::steady_clock;
using bench::SameLabeling;

void EmitBaseTrajectories(bench::JsonWriter& json, const BaseRunStats& stats,
                          const std::vector<double>& sweep_seconds) {
  bench::EmitTrajectory(json, "linial", stats.linial_round_stats, {});
  bench::EmitTrajectory(json, "sweep", stats.sweep_round_stats,
                        sweep_seconds);
}

bool RunNodeF(int n_exp, bench::JsonWriter& json) {
  const int n = 1 << n_exp;
  MisProblem mis;
  bool all_identical = true;
  Table table({"Delta", "f(Delta)=classes", "logstar=linial", "total",
               "f/Delta^2", "speedup", "valid"});
  for (int delta : {2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64}) {
    Graph g = BoundedDegreeRandomTree(n, delta, 77 + delta);
    int d = g.MaxDegree();
    auto ids = DefaultIds(n, 78);
    local::Network net(g, ids);
    net.set_record_round_times(true);
    auto t0 = Clock::now();
    auto result = RunNodeBaseline(net, mis, bench::IdSpace(n));
    double engine_s = bench::SecondsSince(t0);
    t0 = Clock::now();
    HalfEdgeLabeling legacy(g);
    BaseRunStats legacy_stats = oracle::RunNodeBase(
        mis, SemiGraph::Whole(g), ids, bench::IdSpace(n), legacy);
    double legacy_s = bench::SecondsSince(t0);
    bool identical = SameLabeling(g, result.labeling, legacy) &&
                     result.rounds_total == legacy_stats.rounds;
    all_identical &= identical;
    table.AddRow({Table::Num(d), Table::Num(result.stats.num_classes),
                  Table::Num(result.stats.linial_rounds),
                  Table::Num(result.rounds_total),
                  Table::Num(double(result.stats.num_classes) / (d * d), 2),
                  Table::Num(legacy_s / engine_s, 2),
                  (result.valid && identical) ? "yes" : "NO"});

    json.BeginRecord();
    json.Field("source", "bench_truly_local");
    json.Field("experiment", "node_base_f_delta");
    json.Field("n", n);
    json.Field("max_degree", d);
    json.Field("classes", result.stats.num_classes);
    json.Field("linial_rounds", result.stats.linial_rounds);
    json.Field("engine_seconds", engine_s);
    json.Field("legacy_seconds", legacy_s);
    json.Field("speedup", legacy_s / engine_s);
    json.Field("transcripts_identical", identical);
    json.Field("valid", result.valid);
    EmitBaseTrajectories(json, result.stats, net.round_seconds());
  }
  table.Print(
      "E12a: truly local complexity of the node base algorithm "
      "(MIS; engine-native, identity-gated; f(Delta) = Linial floor, log* "
      "term separate)");
  table.WriteCsv("bench_truly_local_node");
  table.WriteJson("bench_truly_local_node");
  return all_identical;
}

bool RunEdgeF(int n_exp, bench::JsonWriter& json) {
  const int n = 1 << n_exp;
  MatchingProblem mm;
  bool all_identical = true;
  Table table({"Delta", "edgeDeg", "f=classes", "2*linial", "total",
               "f/edgeDeg^2", "speedup", "valid"});
  for (int delta : {2, 3, 4, 6, 8, 12, 16, 24}) {
    Graph g = BoundedDegreeRandomTree(n, delta, 99 + delta);
    int ed = g.MaxEdgeDegree();
    auto ids = DefaultIds(n, 100);
    local::Network net(g, ids);
    net.set_record_round_times(true);
    auto t0 = Clock::now();
    auto result = RunEdgeBaseline(net, mm, bench::IdSpace(n));
    double engine_s = bench::SecondsSince(t0);
    t0 = Clock::now();
    HalfEdgeLabeling legacy(g);
    BaseRunStats legacy_stats = oracle::RunEdgeBase(
        mm, SemiGraph::Whole(g), ids, bench::IdSpace(n), legacy);
    double legacy_s = bench::SecondsSince(t0);
    bool identical = SameLabeling(g, result.labeling, legacy) &&
                     result.rounds_total == legacy_stats.rounds;
    all_identical &= identical;
    table.AddRow({Table::Num(g.MaxDegree()), Table::Num(ed),
                  Table::Num(result.stats.num_classes),
                  Table::Num(result.stats.linial_rounds),
                  Table::Num(result.rounds_total),
                  Table::Num(double(result.stats.num_classes) / (ed * ed), 2),
                  Table::Num(legacy_s / engine_s, 2),
                  (result.valid && identical) ? "yes" : "NO"});

    json.BeginRecord();
    json.Field("source", "bench_truly_local");
    json.Field("experiment", "edge_base_f_delta");
    json.Field("n", n);
    json.Field("max_degree", g.MaxDegree());
    json.Field("max_edge_degree", ed);
    json.Field("classes", result.stats.num_classes);
    json.Field("linial_rounds", result.stats.linial_rounds);
    json.Field("engine_seconds", engine_s);
    json.Field("legacy_seconds", legacy_s);
    json.Field("speedup", legacy_s / engine_s);
    json.Field("transcripts_identical", identical);
    json.Field("valid", result.valid);
    EmitBaseTrajectories(json, result.stats, net.round_seconds());
  }
  table.Print(
      "E12b: truly local complexity of the edge base algorithm "
      "(matching via L(G); engine-native, identity-gated; f as a function "
      "of the edge-degree)");
  table.WriteCsv("bench_truly_local_edge");
  table.WriteJson("bench_truly_local_edge");
  return all_identical;
}

void RunLogStarTerm(int max_exp) {
  // The additive log* n term: fix Delta, grow n — the symmetry-breaking
  // rounds must stay (near-)constant while n grows by orders of magnitude.
  MisProblem mis;
  Table table({"n", "Delta", "linialRounds", "logstar(n^3)", "classes"});
  for (int n : bench::PowersOfTwo(8, max_exp)) {
    Graph g = BoundedDegreeRandomTree(n, 4, 55);
    auto ids = DefaultIds(n, 56);
    auto result = RunNodeBaseline(mis, g, ids, bench::IdSpace(n));
    table.AddRow({Table::Num(n), Table::Num(g.MaxDegree()),
                  Table::Num(result.stats.linial_rounds),
                  Table::Num(LogStar(std::pow(double(n), 3.0))),
                  Table::Num(result.stats.num_classes)});
  }
  table.Print("E12c: the additive log* n term at fixed Delta = 4");
  table.WriteCsv("bench_truly_local_logstar");
  table.WriteJson("bench_truly_local_logstar");
}

}  // namespace
}  // namespace treelocal

int main(int argc, char** argv) {
  int n_exp = 13, logstar_max_exp = 18;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--n_exp=", 0) == 0) {
      n_exp = std::atoi(arg.c_str() + 8);
    } else if (arg.rfind("--logstar_max_exp=", 0) == 0) {
      logstar_max_exp = std::atoi(arg.c_str() + 18);
    } else {
      std::cerr << "bench_truly_local: unknown flag " << arg << "\n";
      return 1;
    }
  }
  if (n_exp < 8 || n_exp > 22 || logstar_max_exp < 8 ||
      logstar_max_exp > 24) {
    std::cerr << "bench_truly_local: exponents out of range\n";
    return 1;
  }
  treelocal::bench::JsonWriter json;
  bool ok = treelocal::RunNodeF(n_exp, json);
  ok &= treelocal::RunEdgeF(n_exp, json);
  treelocal::RunLogStarTerm(logstar_max_exp);
  json.MergeAs("bench_truly_local", "BENCH_engine.json");
  std::cout << "  wrote BENCH_engine.json\n";
  return ok ? 0 : 1;
}
