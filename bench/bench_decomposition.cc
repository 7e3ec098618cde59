// Experiments E4-E5 (Lemmas 13, 14 + Section 4 structure): the paper's new
// (b,k)-decomposition on bounded-arboricity graphs.
#include <algorithm>
#include <iostream>

#include "bench/bench_util.h"
#include "src/core/decomposition.h"
#include "src/core/forest_split.h"
#include "src/local/network.h"
#include "src/graph/generators.h"
#include "src/graph/subgraph.h"
#include "src/graph/algorithms.h"
#include "src/support/rng.h"
#include "src/support/table.h"

namespace treelocal {
namespace {

struct Workload {
  std::string name;
  Graph graph;
  int a;
};

void Run() {
  Table table({"graph", "n", "a", "k", "layers", "layerBound(L13)",
               "maxDegE2", "k(L14)", "maxAtypPerNode", "b=2a", "starsOK",
               "rounds"});
  std::vector<Workload> workloads;
  for (int a : {1, 2, 3, 5}) {
    for (int n : {1 << 10, 1 << 12, 1 << 14, 1 << 16}) {
      workloads.push_back(
          {"union-a" + std::to_string(a), ForestUnion(n, a, 7 * a + n), a});
    }
  }
  workloads.push_back({"grid", Grid(128, 128), 2});
  workloads.push_back({"trigrid", TriangulatedGrid(128, 128), 3});
  // Hub-heavy workloads: max degree ~ n with arboricity <= a; these force
  // multiple layers and a nonempty atypical edge set E1.
  for (int a : {2, 3, 5}) {
    for (int n : {1 << 10, 1 << 13}) {
      workloads.push_back(
          {"starunion-a" + std::to_string(a), StarUnion(n, a, 13 * a), a});
      workloads.push_back(
          {"hubbed-a" + std::to_string(a), HubbedForest(n, a, 17 * a), a});
    }
  }

  bench::JsonWriter json;
  for (const Workload& w : workloads) {
    for (int mult : {1, 4}) {
      int k = 5 * w.a * mult;
      auto ids = DefaultIds(w.graph.NumNodes(), 11);
      // Explicit engine so the decomposition's engine trajectory (active
      // counts, message volume, per-round wall-clock) lands in
      // BENCH_engine.json like the other drivers'.
      local::Network net(w.graph, ids);
      net.set_record_round_times(true);
      auto result = RunDecomposition(net, w.a, 2 * w.a, k);
      std::vector<double> round_seconds = net.round_seconds();

      std::vector<int> typ_deg(w.graph.NumNodes(), 0);
      std::vector<int> atyp_out(w.graph.NumNodes(), 0);
      for (int e = 0; e < w.graph.NumEdges(); ++e) {
        auto [u, v] = w.graph.Endpoints(e);
        if (result.atypical[e]) {
          ++atyp_out[result.LowerEndpoint(w.graph, e, ids)];
        } else {
          ++typ_deg[u];
          ++typ_deg[v];
        }
      }
      int max_typ = *std::max_element(typ_deg.begin(), typ_deg.end());
      int max_atyp = *std::max_element(atyp_out.begin(), atyp_out.end());

      // Star structure check over all F_{i,j}.
      auto split = SplitAtypicalForests(net, result, w.a,
                                        bench::IdSpace(w.graph.NumNodes()));
      bool stars_ok = true;
      for (const auto& forest : split.stars) {
        for (const auto& star_class : forest) {
          if (star_class.empty()) continue;
          std::vector<char> mask(w.graph.NumEdges(), 0);
          for (int e : star_class) mask[e] = 1;
          Subgraph sub = InduceByEdges(w.graph, mask);
          for (int e = 0; e < sub.graph.NumEdges(); ++e) {
            auto [u, v] = sub.graph.Endpoints(e);
            if (sub.graph.Degree(u) > 1 && sub.graph.Degree(v) > 1) {
              stars_ok = false;
            }
          }
        }
      }

      table.AddRow(
          {w.name, Table::Num(w.graph.NumNodes()), Table::Num(w.a),
           Table::Num(k), Table::Num(result.num_layers),
           Table::Num(DecompositionIterationBound(w.graph.NumNodes(), w.a, k)),
           Table::Num(max_typ), Table::Num(k), Table::Num(max_atyp),
           Table::Num(2 * w.a), stars_ok ? "yes" : "NO",
           Table::Num(result.engine_rounds)});

      // Machine-readable engine trajectory for this decomposition run.
      std::vector<int64_t> active, sent;
      for (const auto& rs : result.round_stats) {
        active.push_back(rs.active_nodes);
        sent.push_back(rs.messages_sent);
      }
      json.BeginRecord();
      json.Field("source", "bench_decomposition");
      json.Field("experiment", "decomposition_trajectory");
      json.Field("graph", w.name);
      json.Field("n", w.graph.NumNodes());
      json.Field("edges", w.graph.NumEdges());
      json.Field("a", w.a);
      json.Field("k", k);
      json.Field("layers", result.num_layers);
      json.Field("rounds", result.engine_rounds);
      json.Field("messages", result.messages);
      json.Field("round_active_nodes", active);
      json.Field("round_messages", sent);
      json.Field("round_seconds", round_seconds);
    }
  }
  table.Print("E4-E5: Algorithm 3 decomposition vs Lemmas 13/14 bounds");
  table.WriteCsv("bench_decomposition");
  table.WriteJson("bench_decomposition");
  json.MergeAs("bench_decomposition", "BENCH_engine.json");
}

}  // namespace
}  // namespace treelocal

int main() {
  treelocal::Run();
  return 0;
}
