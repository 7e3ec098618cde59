// General-purpose CLI runner: pick a problem, a tree/graph family, a size
// and (optionally) k, and run either the transformation pipeline or the
// direct base algorithm, printing the round breakdown.
//
//   ./examples/run_pipeline <problem> <family> <n> [k] [--baseline]
//
//   problem: mis | coloring | deg-coloring | list-coloring |
//            matching | edge-coloring | 2d1-edge-coloring
//   family : path | star | balanced3 | balanced8 | uniform | recursive |
//            caterpillar | binary, and for the edge problems also
//            grid | trigrid | union2 | union3 | starunion2 | hubbed3
//
// The node problems run Theorem 12's pipeline, which takes a forest: on a
// family with cycles run_pipeline says so and exits 2 before solving
// (--baseline runs the base algorithm alone and accepts any family).
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>

#include "src/core/baseline.h"
#include "src/core/complexity.h"
#include "src/core/transform_edge.h"
#include "src/core/transform_node.h"
#include "src/graph/algorithms.h"
#include "src/graph/generators.h"
#include "src/problems/coloring.h"
#include "src/problems/edge_coloring.h"
#include "src/problems/list_coloring.h"
#include "src/problems/matching.h"
#include "src/problems/mis.h"
#include "src/support/rng.h"

namespace {

using namespace treelocal;

Graph MakeGraph(const std::string& family, int n, int* arboricity) {
  *arboricity = 1;
  if (family == "grid") {
    *arboricity = 2;
    int side = std::max(2, static_cast<int>(std::sqrt(double(n))));
    return Grid(side, side);
  }
  if (family == "trigrid") {
    *arboricity = 3;
    int side = std::max(2, static_cast<int>(std::sqrt(double(n))));
    return TriangulatedGrid(side, side);
  }
  if (family == "union2") {
    *arboricity = 2;
    return ForestUnion(n, 2, 1);
  }
  if (family == "union3") {
    *arboricity = 3;
    return ForestUnion(n, 3, 1);
  }
  if (family == "starunion2") {
    *arboricity = 2;
    return StarUnion(n, 2, 1);
  }
  if (family == "hubbed3") {
    *arboricity = 3;
    return HubbedForest(n, 3, 1);
  }
  for (TreeFamily f : AllTreeFamilies()) {
    if (TreeFamilyName(f) == family) return MakeTree(f, n, 1);
  }
  throw std::invalid_argument("unknown family: " + family);
}

int Usage() {
  std::cerr
      << "usage: run_pipeline <problem> <family> <n> [k] [--baseline]\n"
         "  problem: mis | coloring | deg-coloring | list-coloring |\n"
         "           matching | edge-coloring | 2d1-edge-coloring\n"
         "  family : path star balanced3 balanced8 uniform recursive\n"
         "           caterpillar binary (forests: every problem)\n"
         "           grid trigrid union2 union3 starunion2 hubbed3\n"
         "           (arboricity 2-3: edge problems, or --baseline)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 4) return Usage();
  std::string problem_name = argv[1];
  std::string family = argv[2];
  int n = std::atoi(argv[3]);
  int k = argc > 4 && argv[4][0] != '-' ? std::atoi(argv[4]) : 0;
  bool baseline = false;
  for (int i = 4; i < argc; ++i) {
    if (std::strcmp(argv[i], "--baseline") == 0) baseline = true;
  }

  int a = 1;
  Graph g = MakeGraph(family, n, &a);
  n = g.NumNodes();
  auto ids = DefaultIds(n, 2);
  int64_t id_space = int64_t{std::max(n, 2)} * std::max(n, 2) * std::max(n, 2);
  if (k == 0) k = std::max(5 * a, ChooseK(n, QuadraticF()));

  std::cout << "problem=" << problem_name << " family=" << family
            << " n=" << n << " m=" << g.NumEdges()
            << " Delta=" << g.MaxDegree() << " arboricity<=" << a
            << " k=" << k << (baseline ? " [baseline]" : " [transformed]")
            << "\n";

  // Theorem 12's rake-and-compress pipeline takes a forest; on a graph with
  // cycles it would run until the engine's round cap. The baseline (the
  // base algorithm on the whole graph) has no such precondition.
  const bool node_problem = problem_name == "mis" ||
                            problem_name == "coloring" ||
                            problem_name == "deg-coloring" ||
                            problem_name == "list-coloring";
  if (node_problem && !baseline && !IsForest(g)) {
    std::cerr << "run_pipeline: " << problem_name
              << " runs Theorem 12, which takes a forest, but family "
              << family << " has cycles (arboricity <= " << a
              << "); use a forest family\n";
    return 2;
  }

  auto report_node = [&](const NodeProblem& p) {
    if (baseline) {
      auto r = RunNodeBaseline(p, g, ids, id_space);
      std::cout << "rounds=" << r.rounds_total
                << " valid=" << (r.valid ? "yes" : "NO") << "\n";
      return r.valid;
    }
    auto r = SolveNodeProblemOnTree(p, g, ids, id_space, k);
    std::cout << "rounds=" << r.rounds_total << " (decomp "
              << r.rounds_decomposition << " base " << r.rounds_base
              << " gather " << r.rounds_gather << ") valid="
              << (r.valid ? "yes" : "NO") << "\n";
    return r.valid;
  };
  auto report_edge = [&](const EdgeProblem& p) {
    if (baseline) {
      auto r = RunEdgeBaseline(p, g, ids, id_space);
      std::cout << "rounds=" << r.rounds_total
                << " valid=" << (r.valid ? "yes" : "NO") << "\n";
      return r.valid;
    }
    auto r = SolveEdgeProblemBoundedArboricity(p, g, ids, id_space, a, k);
    std::cout << "rounds=" << r.rounds_total << " (decomp "
              << r.rounds_decomposition << " base " << r.rounds_base
              << " split " << r.rounds_split << " stars " << r.rounds_gather
              << ") valid=" << (r.valid ? "yes" : "NO") << "\n";
    return r.valid;
  };

  bool ok = false;
  if (problem_name == "mis") {
    ok = report_node(MisProblem());
  } else if (problem_name == "coloring") {
    ok = report_node(
        ColoringProblem(ColoringProblem::Mode::kDeltaPlusOne, g.MaxDegree()));
  } else if (problem_name == "deg-coloring") {
    ok = report_node(ColoringProblem(ColoringProblem::Mode::kDegPlusOne, 0));
  } else if (problem_name == "list-coloring") {
    ok = report_node(ListColoringProblem(
        ListColoringProblem::RandomLists(g, 1, 10LL * std::max(n, 16), 3)));
  } else if (problem_name == "matching") {
    ok = report_edge(MatchingProblem());
  } else if (problem_name == "edge-coloring") {
    ok = report_edge(EdgeColoringProblem(
        EdgeColoringProblem::Mode::kEdgeDegreePlusOne, g.MaxDegree()));
  } else if (problem_name == "2d1-edge-coloring") {
    ok = report_edge(EdgeColoringProblem(
        EdgeColoringProblem::Mode::kTwoDeltaMinusOne, g.MaxDegree()));
  } else {
    return Usage();
  }
  return ok ? 0 : 1;
}
