#include "src/core/baseline.h"

#include "src/graph/semigraph.h"

namespace treelocal {

namespace {

template <typename RunBase>
BaselineResult RunBaselineImpl(const Problem& problem, const Graph& g,
                               RunBase&& run_base) {
  BaselineResult result;
  result.labeling = HalfEdgeLabeling(g);
  SemiGraph whole = SemiGraph::Whole(g);
  result.stats = run_base(whole, result.labeling);
  result.rounds_total = result.stats.rounds;
  result.valid = problem.ValidateGraph(g, result.labeling, &result.why);
  return result;
}

}  // namespace

BaselineResult RunNodeBaseline(const NodeProblem& problem, const Graph& g,
                               const std::vector<int64_t>& ids,
                               int64_t id_space) {
  return RunBaselineImpl(problem, g, [&](const SemiGraph& s,
                                         HalfEdgeLabeling& h) {
    return RunNodeBase(problem, s, ids, id_space, h);
  });
}

BaselineResult RunEdgeBaseline(const EdgeProblem& problem, const Graph& g,
                               const std::vector<int64_t>& ids,
                               int64_t id_space) {
  return RunBaselineImpl(problem, g, [&](const SemiGraph& s,
                                         HalfEdgeLabeling& h) {
    return RunEdgeBase(problem, s, ids, id_space, h);
  });
}

BaselineResult RunNodeBaseline(local::Network& net,
                               const NodeProblem& problem,
                               int64_t id_space) {
  return RunBaselineImpl(problem, net.graph(), [&](const SemiGraph& s,
                                                   HalfEdgeLabeling& h) {
    return RunNodeBase(net, problem, s, id_space, h);
  });
}

BaselineResult RunEdgeBaseline(local::Network& net,
                               const EdgeProblem& problem,
                               int64_t id_space) {
  return RunBaselineImpl(problem, net.graph(), [&](const SemiGraph& s,
                                                   HalfEdgeLabeling& h) {
    return RunEdgeBase(net, problem, s, id_space, h);
  });
}

}  // namespace treelocal
