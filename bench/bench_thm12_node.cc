// Experiment E6 (Theorem 12): MIS and (deg+1)-coloring on trees via the
// transformation with k = g(n), against the direct base algorithm (whose
// cost is driven by the input Delta) and the Theta(log n / log log n)
// reference shape the tight bounds for MIS predict on trees.
#include <cmath>
#include <iostream>

#include "bench/bench_util.h"
#include "src/core/baseline.h"
#include "src/core/complexity.h"
#include "src/core/rake_compress.h"
#include "src/core/transform_node.h"
#include "src/graph/generators.h"
#include "src/local/network.h"
#include "src/problems/coloring.h"
#include "src/problems/mis.h"
#include "src/support/rng.h"
#include "src/support/table.h"

namespace treelocal {
namespace {

// Returns false if any re-timed decomposition trajectory failed to
// reproduce the pipeline's (a determinism bug); main fails the run on it.
bool RunProblem(const NodeProblem& problem, const std::string& title,
                const std::string& csv, bench::JsonWriter& json) {
  Table table({"family", "n", "Delta", "k=g(n)", "rounds", "decomp", "base",
               "gather", "baselineRounds", "logn/loglogn", "valid"});
  bool all_reproduced = true;
  for (TreeFamily family :
       {TreeFamily::kUniform, TreeFamily::kBalanced3, TreeFamily::kRecursive}) {
    for (int n : bench::PowersOfTwo(10, 18)) {
      Graph tree = MakeTree(family, n, 5);
      auto ids = DefaultIds(tree.NumNodes(), 6);
      int64_t space = bench::IdSpace(tree.NumNodes());
      // Our base algorithms have f(Delta) ~ Delta^2 (up to log factors).
      int k = ChooseK(tree.NumNodes(), QuadraticF());

      auto transformed =
          SolveNodeProblemOnTree(problem, tree, ids, space, k);
      auto baseline = RunNodeBaseline(problem, tree, ids, space);

      table.AddRow(
          {TreeFamilyName(family), Table::Num(tree.NumNodes()),
           Table::Num(tree.MaxDegree()), Table::Num(k),
           Table::Num(transformed.rounds_total),
           Table::Num(transformed.rounds_decomposition),
           Table::Num(transformed.rounds_base),
           Table::Num(transformed.rounds_gather),
           Table::Num(baseline.rounds_total),
           Table::Num(BarrierLogOverLogLog(tree.NumNodes()), 1),
           (transformed.valid && baseline.valid) ? "yes" : "NO"});

      // Per-phase engine trajectory. Phase 1 dominates the engine cost and
      // carries a full round trajectory; a separate timed engine run
      // (rake-compress is deterministic, so its transcript must equal the
      // one SolveNodeProblemOnTree just produced — checked below and
      // gated via the exit code) supplies the wall-clock curve. Phases
      // 2-3 contribute scalar round/message costs: the base phase's
      // engine work is folded into accounted helpers and the gather is
      // analytic, so neither has a per-round curve to emit.
      local::Network net(tree, ids);
      net.set_record_round_times(true);
      RakeCompressResult timed = RunRakeCompress(net, k);
      std::vector<double> decomp_seconds = net.round_seconds();
      std::vector<int64_t> active, sent;
      for (const auto& rs : transformed.rake_compress.round_stats) {
        active.push_back(rs.active_nodes);
        sent.push_back(rs.messages_sent);
      }
      const bool trajectory_matches =
          timed.round_stats == transformed.rake_compress.round_stats;
      all_reproduced &= trajectory_matches;

      json.BeginRecord();
      json.Field("source", "bench_thm12_node");
      json.Field("experiment", csv);
      json.Field("family", TreeFamilyName(family));
      json.Field("n", tree.NumNodes());
      json.Field("k", k);
      json.Field("rounds_total", transformed.rounds_total);
      json.Field("rounds_decomposition", transformed.rounds_decomposition);
      json.Field("rounds_base", transformed.rounds_base);
      json.Field("rounds_gather", transformed.rounds_gather);
      json.Field("engine_messages", transformed.engine_messages);
      json.Field("base_linial_rounds", transformed.base_stats.linial_rounds);
      json.Field("base_messages", transformed.base_stats.messages);
      json.Field("decomp_round_active_nodes", active);
      json.Field("decomp_round_messages", sent);
      json.Field("decomp_round_seconds", decomp_seconds);
      json.Field("decomp_trajectory_reproduced", trajectory_matches);
    }
  }
  table.Print(title);
  table.WriteCsv(csv);
  table.WriteJson(csv);
  return all_reproduced;
}

}  // namespace
}  // namespace treelocal

int main() {
  treelocal::bench::JsonWriter json;
  treelocal::MisProblem mis;
  bool ok = treelocal::RunProblem(
      mis, "E6a: Theorem 12 on MIS (transformed vs direct base algorithm)",
      "bench_thm12_mis", json);
  treelocal::ColoringProblem coloring(
      treelocal::ColoringProblem::Mode::kDegPlusOne, 0);
  ok &= treelocal::RunProblem(
      coloring,
      "E6b: Theorem 12 on (deg+1)-coloring (transformed vs direct)",
      "bench_thm12_coloring", json);
  json.MergeAs("bench_thm12_node", "BENCH_engine.json");
  if (!ok) {
    std::cerr << "bench_thm12_node: decomposition trajectory failed to "
                 "reproduce (determinism bug)\n";
  }
  return ok ? 0 : 1;
}
