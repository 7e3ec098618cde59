// Experiments E1-E3 (Lemmas 9, 10, 11): rake-and-compress invariants,
// measured against the paper's bounds across tree families, n, and k.
#include <algorithm>
#include <iostream>

#include "bench/bench_util.h"
#include "src/core/rake_compress.h"
#include "src/graph/algorithms.h"
#include "src/local/network.h"
#include "src/graph/generators.h"
#include "src/support/mathutil.h"
#include "src/support/rng.h"
#include "src/support/table.h"

namespace treelocal {
namespace {

void Run() {
  Table table({"family", "n", "k", "iters", "iterBound(L9)", "maxDegTC",
               "k(L10)", "maxDiamTR", "diamBound(L11)", "rounds"});
  bench::JsonWriter json;
  std::vector<TreeFamily> families = {
      TreeFamily::kUniform, TreeFamily::kBalanced3, TreeFamily::kPath,
      TreeFamily::kStar, TreeFamily::kCaterpillar};
  for (TreeFamily family : families) {
    for (int n : bench::PowersOfTwo(10, 17)) {
      for (int k : {2, 4, 16}) {
        Graph tree = MakeTree(family, n, 42);
        auto ids = DefaultIds(tree.NumNodes(), 43);
        // Explicit engine so the per-round wall-clock trajectory rides
        // along with the active-count curve.
        local::Network net(tree, ids);
        net.set_record_round_times(true);
        auto result = RunRakeCompress(net, k);
        std::vector<double> round_seconds = net.round_seconds();

        // Lemma 10 observable: degree of T_C's underlying graph.
        std::vector<int> c_degree(tree.NumNodes(), 0);
        for (int e = 0; e < tree.NumEdges(); ++e) {
          auto [u, v] = tree.Endpoints(e);
          if (result.compressed[u] && result.compressed[v]) {
            ++c_degree[u];
            ++c_degree[v];
          }
        }
        int max_deg_tc =
            *std::max_element(c_degree.begin(), c_degree.end());

        // Lemma 11 observable: max raked component diameter.
        std::vector<char> raked(tree.NumNodes(), 0);
        for (int v = 0; v < tree.NumNodes(); ++v) {
          raked[v] = !result.compressed[v];
        }
        int num = 0;
        auto comp = MaskedComponents(tree, raked, &num);
        auto diam = MaskedTreeComponentDiameters(tree, raked, comp, num);
        int max_diam = 0;
        for (int d : diam) max_diam = std::max(max_diam, d);
        double logk_n = LogBase(std::max(2, tree.NumNodes()), k);
        int diam_bound = static_cast<int>(4 * (logk_n + 1) + 2);

        table.AddRow({TreeFamilyName(family), Table::Num(tree.NumNodes()),
                      Table::Num(k), Table::Num(result.num_iterations),
                      Table::Num(RakeCompressIterationBound(tree.NumNodes(), k)),
                      Table::Num(max_deg_tc), Table::Num(k),
                      Table::Num(max_diam), Table::Num(diam_bound),
                      Table::Num(result.engine_rounds)});

        // Machine-readable perf trajectory: the engine's per-round active
        // set and message volume, which the round cost must track.
        std::vector<int64_t> active, sent;
        for (const auto& rs : result.round_stats) {
          active.push_back(rs.active_nodes);
          sent.push_back(rs.messages_sent);
        }
        json.BeginRecord();
        json.Field("source", "bench_rake_compress");
        json.Field("family", TreeFamilyName(family));
        json.Field("n", tree.NumNodes());
        json.Field("k", k);
        json.Field("iterations", result.num_iterations);
        json.Field("rounds", result.engine_rounds);
        json.Field("messages", result.messages);
        json.Field("round_active_nodes", active);
        json.Field("round_messages", sent);
        json.Field("round_seconds", round_seconds);
      }
    }
  }
  table.Print(
      "E1-E3: Algorithm 1 (rake-and-compress) vs Lemmas 9/10/11 bounds");
  table.WriteCsv("bench_rake_compress");
  json.MergeAs("bench_rake_compress", "BENCH_engine.json");
}

}  // namespace
}  // namespace treelocal

int main() {
  treelocal::Run();
  return 0;
}
