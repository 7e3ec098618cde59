// Explorer for the two decompositions at the heart of the paper: prints the
// layer structure of Algorithm 1 (rake-and-compress) on a tree and of
// Algorithm 3 (the new (b,k)-compress) on a bounded-arboricity graph.
//
//   ./examples/decomposition_explorer [n] [k]
#include <cstdlib>
#include <iostream>
#include <map>

#include "src/core/decomposition.h"
#include "src/core/forest_split.h"
#include "src/core/rake_compress.h"
#include "src/graph/algorithms.h"
#include "src/graph/generators.h"
#include "src/local/network.h"
#include "src/support/mathutil.h"
#include "src/support/rng.h"

int main(int argc, char** argv) {
  using namespace treelocal;
  int n = argc > 1 ? std::atoi(argv[1]) : 1 << 12;
  int k = argc > 2 ? std::atoi(argv[2]) : 3;

  {
    Graph tree = UniformRandomTree(n, 1);
    auto ids = DefaultIds(n, 2);
    auto rc = RunRakeCompress(tree, ids, k);
    std::map<int, std::pair<int64_t, int64_t>> per_iteration;  // (C_i, R_i)
    for (int v = 0; v < n; ++v) {
      if (rc.compressed[v]) {
        ++per_iteration[rc.iteration[v]].first;
      } else {
        ++per_iteration[rc.iteration[v]].second;
      }
    }
    std::cout << "Algorithm 1 (rake-and-compress), uniform tree n = " << n
              << ", k = " << k << ": " << rc.num_iterations
              << " iterations, " << rc.engine_rounds << " engine rounds\n";
    for (const auto& [iter, counts] : per_iteration) {
      std::cout << "  iteration " << iter << ": |C_" << iter
                << "| = " << counts.first << ", |R_" << iter
                << "| = " << counts.second << "\n";
    }
    std::vector<char> raked(n, 0);
    for (int v = 0; v < n; ++v) raked[v] = !rc.compressed[v];
    int num = 0;
    auto comp = MaskedComponents(tree, raked, &num);
    auto diam = MaskedTreeComponentDiameters(tree, raked, comp, num);
    int max_diam = 0;
    for (int d : diam) max_diam = std::max(max_diam, d);
    std::cout << "  raked part: " << num << " components, max diameter "
              << max_diam << " (Lemma 11 bound "
              << static_cast<int>(4 * (LogBase(n, k) + 1) + 2) << ")\n\n";
  }

  {
    const int a = 2;
    Graph g = StarUnion(n, a, 3);
    auto ids = DefaultIds(g.NumNodes(), 4);
    int kk = std::max(k, 5 * a);
    auto decomp = RunDecomposition(g, ids, a, 2 * a, kk);
    std::map<int, int64_t> layer_sizes;
    for (int v = 0; v < g.NumNodes(); ++v) ++layer_sizes[decomp.layer[v]];
    int64_t atypical = 0;
    for (int e = 0; e < g.NumEdges(); ++e) atypical += decomp.atypical[e];
    std::cout << "Algorithm 3 ((b,k)-decomposition), union of " << a
              << " stars, n = " << n << ", k = " << kk << ", b = " << 2 * a
              << ": " << decomp.num_layers << " layers, "
              << decomp.engine_rounds << " engine rounds\n";
    for (const auto& [layer, size] : layer_sizes) {
      std::cout << "  layer " << layer << ": " << size << " nodes\n";
    }
    std::cout << "  |E1| (atypical) = " << atypical << ", |E2| (typical) = "
              << g.NumEdges() - atypical << "\n";
    local::Network net(g, ids);
    auto split = SplitAtypicalForests(net, decomp, a, int64_t{n} * n * n);
    std::cout << "  forest split: " << split.num_forests
              << " forests, CV rounds " << split.cv_rounds << "\n";
    for (int f = 0; f < split.num_forests; ++f) {
      int64_t edges = 0;
      for (int j = 0; j < 3; ++j) edges += split.stars[f][j].size();
      if (edges == 0) continue;
      std::cout << "    F_" << f + 1 << ": " << edges << " edges in stars of "
                << "classes {" << split.stars[f][0].size() << ", "
                << split.stars[f][1].size() << ", "
                << split.stars[f][2].size() << "}\n";
    }
  }
  return 0;
}
