// The three solve workloads: rake_compress_mmap, edge_coloring_tree and
// mis_tree. Each runs in its own process (run.py starts one per workload),
// so peak_rss_mb is the workload's own high-water mark.
//
// Untraced runs time the public entry point a user calls. Traced runs
// alternate an untraced solve (the overhead baseline) with a replay of the
// same pipeline through its public phase functions, one span per call; the
// replay must reproduce the untraced solve bit for bit.
#include <algorithm>
#include <filesystem>
#include <iostream>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "src/algos/base_algorithms.h"
#include "src/core/complexity.h"
#include "src/core/decomposition.h"
#include "src/core/forest_split.h"
#include "src/core/rake_compress.h"
#include "src/core/transform_edge.h"
#include "src/core/transform_node.h"
#include "src/graph/algorithms.h"
#include "src/graph/compact_graph.h"
#include "src/graph/generators.h"
#include "src/graph/graph_view.h"
#include "src/graph/semigraph.h"
#include "src/local/network.h"
#include "src/local/parallel_network.h"
#include "src/problems/edge_coloring.h"
#include "src/problems/mis.h"
#include "src/support/fault.h"
#include "src/support/rng.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

using namespace treelocal;

namespace {

// The negative control's trigger: the 1000th OnRound dispatch of the first
// fault-armed engine run throws, well inside round 0 of every workload.
constexpr int64_t kFaultVisit = 1000;

// Per-name samples across the solves of a run; reported as medians.
class Samples {
 public:
  void Add(const std::string& name, double v) { s_[name].push_back(v); }
  void AddSpans(const std::map<std::string, double>& self_seconds) {
    for (const auto& [name, v] : self_seconds) {
      if (name != "solve") Add(name + "_s", v);
    }
  }
  std::map<std::string, double> Medians() const {
    std::map<std::string, double> out;
    for (const auto& [name, v] : s_) out[name] = Median(v);
    return out;
  }

 private:
  std::map<std::string, std::vector<double>> s_;
};

// Engine-side accounting of one solve: the round timer of every engine run
// the benchmark can read back, and the RoundStats totals.
struct EngineCounters {
  double run_s = 0;
  double head_s = 0;
  double base_sweep_s = 0;  // the base algorithm's class-sweep run
  int64_t messages = 0;
  int64_t visits = 0;
  int64_t decisions = 0;

  void AddRun(const std::vector<double>& round_seconds) {
    if (round_seconds.empty()) return;
    head_s += round_seconds.front();
    run_s += std::accumulate(round_seconds.begin(), round_seconds.end(), 0.0);
  }
  // The base phase's sweep is the last run on the host engine, so its round
  // timer is what the engine holds right after RunEdgeBase / RunNodeBase.
  void AddBaseSweep(const std::vector<double>& round_seconds) {
    AddRun(round_seconds);
    base_sweep_s =
        std::accumulate(round_seconds.begin(), round_seconds.end(), 0.0);
  }
  void AddStats(const std::vector<local::RoundStats>& stats) {
    for (const local::RoundStats& rs : stats) {
      messages += rs.messages_sent;
      visits += rs.visits;
      decisions += rs.decisions;
    }
  }
  void AddTo(Samples& s) const {
    s.Add("local.run_s", run_s);
    s.Add("local.head_round_s", head_s);
    s.Add("local.tail_round_s", run_s - head_s);
    s.Add("local.ns_per_message", messages ? run_s * 1e9 / messages : 0.0);
    s.Add("local.messages", static_cast<double>(messages));
    s.Add("local.visits", static_cast<double>(visits));
    s.Add("local.decisions", static_cast<double>(decisions));
    s.Add("local.useful_visit_ratio",
          visits ? static_cast<double>(decisions) / visits : 0.0);
    s.Add("algos.base_sweep_s", base_sweep_s);
  }
};

bool SameLabeling(const Graph& g, const HalfEdgeLabeling& a,
                  const HalfEdgeLabeling& b) {
  for (int e = 0; e < g.NumEdges(); ++e) {
    if (a.GetSlot(e, 0) != b.GetSlot(e, 0)) return false;
    if (a.GetSlot(e, 1) != b.GetSlot(e, 1)) return false;
  }
  return true;
}

// Runs op(i) until `seconds` have passed and at least `min_ops` ran. op
// returns the seconds of its own timed region (checks stay outside it).
template <typename Op>
std::vector<double> TimedLoop(double seconds, int min_ops, Op&& op) {
  std::vector<double> times;
  const auto start = Clock::now();
  while (static_cast<int>(times.size()) < min_ops ||
         SecondsSince(start) < seconds) {
    times.push_back(op(static_cast<int64_t>(times.size())));
  }
  return times;
}

void AddEndToEnd(const std::vector<double>& setup,
                 const std::vector<double>& times, double rounds,
                 Report& report) {
  const double total = std::accumulate(times.begin(), times.end(), 0.0);
  // Every operation's time, readable: it tells noise within a run (bursts)
  // from noise between runs (the host's load level).
  std::cerr << "  op seconds:";
  for (double t : times) std::cerr << " " << t;
  std::cerr << "\n";
  AddCatalogue(kEndToEnd,
               {{"setup_s", Median(setup)},
                {"op_p50_ms", Median(times) * 1e3},
                {"ops_per_s", times.size() / total},
                {"local_rounds", rounds},
                {"peak_rss_mb", Megabytes(ProcStatusBytes(0, "VmHWM:"))}},
               report);
}

// Adds the trace-wide metrics and the per-layer catalogue, checks the
// stated tolerance, and writes the spans out.
void FinishTraced(const Options& opt, const Tracer& tracer,
                  const std::vector<int64_t>& roots,
                  const std::vector<double>& untraced, Samples& samples,
                  Report& report) {
  std::vector<double> whole, unaccounted;
  for (int64_t root : roots) {
    const auto self = tracer.SelfSecondsByName(root);
    whole.push_back(tracer.Seconds(root));
    unaccounted.push_back(self.at("solve") / whole.back());
    samples.AddSpans(self);
  }
  std::map<std::string, double> values = samples.Medians();
  values["trace.overhead_ratio"] = Median(whole) / Median(untraced);
  values["trace.unaccounted_frac"] = Median(unaccounted);
  const double worst =
      *std::max_element(unaccounted.begin(), unaccounted.end());
  if (worst > kUnaccountedTolerance) {
    report.Fail("traced phases leave " + std::to_string(worst) +
                " of the solve unaccounted (tolerance " +
                std::to_string(kUnaccountedTolerance) + ")");
  }
  AddCatalogue(kPerLayer, values, report);
  WriteTrace(opt, tracer, report);
}

// ---------------------------------------------------------------------------
// rake_compress_mmap: rake-compress k=2 on a 2^20-node uniform random tree,
// opened with CompactGraph::OpenMapped from a .cgr built in set-up, run on a
// reused caller-owned ParallelNetwork. T=1: at T=2 the solve time swings
// with the tree (355-534 ms over seeds 1-5, an IQR of 42% of the median)
// while T=1 holds within 1% (README.md, "Why T=1").
// ---------------------------------------------------------------------------
constexpr int kRakeN = 1 << 20;
constexpr int kRakeK = 2;
constexpr int kRakeThreads = 1;

struct RakeSetup {
  Graph tree;
  std::vector<int64_t> ids;
  // Heap-held: the engine keeps a view of the graph, which must not move.
  std::unique_ptr<CompactGraph> mapped;
  std::unique_ptr<local::ParallelNetwork> net;
  double open_s = 0;
  double ctor_s = 0;
  double ctor_rss_mb = 0;
};

std::unique_ptr<RakeSetup> SetUpRake(const Options& opt,
                                     const std::string& cgr_path,
                                     support::FaultInjector* fault) {
  auto s = std::make_unique<RakeSetup>();
  s->tree = UniformRandomTree(kRakeN, opt.seed);
  s->ids = DefaultIds(kRakeN, opt.seed + 1);
  CompactGraph::FromGraph(s->tree).WriteFile(cgr_path);
  auto t = Clock::now();
  s->mapped =
      std::make_unique<CompactGraph>(CompactGraph::OpenMapped(cgr_path));
  s->open_s = SecondsSince(t);
  local::NetworkOptions options;
  options.fault = fault;
  const int64_t rss0 = ProcStatusBytes(0, "VmRSS:");
  t = Clock::now();
  s->net = std::make_unique<local::ParallelNetwork>(*s->mapped, s->ids,
                                                    kRakeThreads, options);
  s->ctor_s = SecondsSince(t);
  s->ctor_rss_mb = Megabytes(ProcStatusBytes(0, "VmRSS:") - rss0);
  return s;
}

// A full Degree/NeighborAt walk through the GraphView seam; the checksum
// keeps the walk from being optimized away and cross-checks the backends.
int64_t ScanGraph(GraphView g) {
  int64_t acc = 0;
  for (int v = 0; v < g.NumNodes(); ++v) {
    const int d = g.Degree(v);
    for (int p = 0; p < d; ++p) acc += g.NeighborAt(v, p) ^ p;
  }
  return acc;
}

}  // namespace

Report RunRakeCompressMmap(const Options& opt) {
  Report report;
  support::FaultInjector fault =
      support::FaultInjector::ThrowAtVisit(kFaultVisit);
  support::FaultInjector* armed = opt.negative ? &fault : nullptr;
  const std::string cgr_path = opt.work_dir + "/rake-" +
                               std::to_string(opt.seed) + ".cgr";

  std::unique_ptr<RakeSetup> s;
  std::vector<double> setup;
  Samples samples;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    s.reset();
    const auto t0 = Clock::now();
    s = SetUpRake(opt, cgr_path, armed);
    setup.push_back(SecondsSince(t0));
    samples.Add("graph.open_s", s->open_s);
    samples.Add("local.ctor_s", s->ctor_s);
    samples.Add("local.ctor_rss_mb", s->ctor_rss_mb);
  }

  // Correctness oracle: a solo serial run over the in-memory CSR. Every
  // .cgr solve must reproduce its outputs and digest chain.
  local::Network csr_solo(s->tree, s->ids);
  const RakeCompressResult ref = RunRakeCompress(csr_solo, kRakeK);
  const std::vector<uint64_t> ref_digests = csr_solo.round_digests();
  auto solve_ok = [&](const RakeCompressResult& r,
                      const std::vector<uint64_t>& digests) {
    return r.engine_rounds == ref.engine_rounds && r.messages == ref.messages &&
           r.iteration == ref.iteration && r.compressed == ref.compressed &&
           digests == ref_digests;
  };
  // One timed .cgr solve; every solve (the warm-up too) is an attempt.
  auto solve = [&](local::ParallelNetwork& net) {
    const auto t = Clock::now();
    try {
      const RakeCompressResult r = RunRakeCompress(net, kRakeK);
      const double dt = SecondsSince(t);
      report.Attempt(solve_ok(r, net.round_digests()));
      return dt;
    } catch (const std::exception&) {
      report.Attempt(false);
      return SecondsSince(t);
    }
  };
  solve(*s->net);  // warm-up: faults the mapping in, sizes the worklists

  if (!opt.trace) {
    const std::vector<double> times =
        TimedLoop(opt.seconds, 3, [&](int64_t) { return solve(*s->net); });
    AddEndToEnd(setup, times, ref.engine_rounds, report);
    std::filesystem::remove(cgr_path);
    return report;
  }

  // Traced: per iteration an untraced .cgr solve, an untraced solve of the
  // same engine over the in-memory CSR (graph.backend_overhead_s), a GraphView
  // scan, and a traced .cgr solve with the engine's round timer armed.
  Tracer tracer;
  local::ParallelNetwork csr_net(s->tree, s->ids, kRakeThreads);
  const int64_t csr_scan = ScanGraph(s->tree);
  std::vector<double> untraced, csr_times;
  std::vector<int64_t> roots;
  TimedLoop(opt.seconds, 2, [&](int64_t i) {
    untraced.push_back(solve(*s->net));
    csr_times.push_back(solve(csr_net));
    int64_t scan_id = -1;
    {
      Scope scan(&tracer, "graph.scan", -1, i);
      scan_id = scan.id();
      if (ScanGraph(*s->mapped) != csr_scan) {
        report.Fail("GraphView scan of the .cgr differs from the CSR's");
      }
    }
    samples.Add("graph.scan_s", tracer.Seconds(scan_id));
    s->net->set_record_round_times(true);
    RakeCompressResult r;
    {
      Scope root(&tracer, "solve", -1, i);
      roots.push_back(root.id());
      Scope call(&tracer, "core.rake_compress", root.id(), i);
      r = RunRakeCompress(*s->net, kRakeK);
    }
    s->net->set_record_round_times(false);
    report.Attempt(solve_ok(r, s->net->round_digests()));
    EngineCounters c;
    c.AddRun(s->net->round_seconds());
    c.AddStats(r.round_stats);
    c.AddTo(samples);
    return 0.0;
  });
  samples.Add("graph.bytes_per_edge",
              static_cast<double>(s->mapped->MemoryBytes()) /
                  static_cast<double>(s->mapped->NumEdges()));
  samples.Add("graph.backend_overhead_s",
              Median(untraced) - Median(csr_times));
  FinishTraced(opt, tracer, roots, untraced, samples, report);
  std::filesystem::remove(cgr_path);
  return report;
}

namespace {

// Everything a solve workload needs besides its pipeline: the tree, its
// LOCAL ids, and the polynomial id space.
struct TreeInput {
  Graph tree;
  std::vector<int64_t> ids;
  int64_t id_space = 0;
};

std::vector<double> SetUpTree(int n, uint64_t seed, TreeInput& in) {
  std::vector<double> setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    in = TreeInput{};
    const auto t0 = Clock::now();
    in.tree = UniformRandomTree(n, seed);
    in.ids = DefaultIds(n, seed + 1);
    in.id_space = IdSpace(n);
    setup.push_back(SecondsSince(t0));
  }
  return setup;
}

// Builds the host engine inside the replay's own span, as the public entry
// points build theirs.
std::unique_ptr<local::Network> BuildEngine(Tracer* tr, int64_t parent,
                                            int64_t req, const Graph& g,
                                            const std::vector<int64_t>& ids,
                                            support::FaultInjector* fault) {
  Scope s(tr, "local.ctor", parent, req);
  local::NetworkOptions options;
  options.fault = fault;
  auto net = std::make_unique<local::Network>(g, ids, options);
  net->set_record_round_times(tr != nullptr);
  return net;
}

// Theorem 15 pipeline (SolveEdgeProblemBoundedArboricity on a fresh engine)
// replayed through its public phase functions, one span per call under the
// caller's root span `p`. Mirrors src/core/transform_edge.cc step for step.
Thm15Result ReplayEdge(const EdgeProblem& problem, const TreeInput& in, int a,
                       int k, Tracer* tr, int64_t p, int64_t req,
                       support::FaultInjector* fault, EngineCounters& c) {
  const Graph& g = in.tree;
  Thm15Result result;
  result.a = a;
  result.k = k;
  {
    Scope s(tr, "core.glue", p, req);
    result.labeling = HalfEdgeLabeling(g);
  }
  std::unique_ptr<local::Network> net =
      BuildEngine(tr, p, req, g, in.ids, fault);
  {
    Scope s(tr, "core.decomposition", p, req);
    result.decomposition = RunDecomposition(*net, a, 2 * a, k);
  }
  c.AddRun(net->round_seconds());
  result.rounds_decomposition = result.decomposition.engine_rounds;
  std::vector<char> typical_mask;
  {
    Scope s(tr, "core.glue", p, req);
    typical_mask.assign(g.NumEdges(), 0);
    for (int e = 0; e < g.NumEdges(); ++e) {
      if (result.decomposition.atypical[e]) {
        ++result.num_atypical;
      } else {
        typical_mask[e] = 1;
        ++result.num_typical;
      }
    }
  }
  SemiGraph e2;
  {
    Scope s(tr, "graph.semigraph", p, req);
    e2 = SemiGraph::EdgeInduced(g, typical_mask);
  }
  {
    Scope s(tr, "algos.base", p, req);
    result.base_stats =
        RunEdgeBase(*net, problem, e2, in.id_space, result.labeling);
  }
  c.AddBaseSweep(net->round_seconds());
  result.rounds_base = result.base_stats.rounds;
  {
    Scope s(tr, "core.split", p, req);
    result.split =
        SplitAtypicalForests(*net, result.decomposition, a, in.id_space);
  }
  c.AddRun(result.split.round_seconds);
  {
    Scope stages(tr, "core.star_stages", p, req);
    result.rounds_split = result.split.cv_rounds + 1;
    for (int f = 0; f < result.split.num_forests; ++f) {
      for (int j = 0; j < 3; ++j) {
        result.rounds_gather += 2;
        const std::vector<int>& star_edges = result.split.stars[f][j];
        if (star_edges.empty()) continue;
        std::vector<int> ordered = star_edges;
        std::sort(ordered.begin(), ordered.end());
        Scope s(tr, "problems.complete", stages.id(), req);
        problem.CompleteEdges(g, ordered, result.labeling);
      }
    }
  }
  result.rounds_total = result.rounds_decomposition + result.rounds_base +
                        result.rounds_split + result.rounds_gather;
  result.engine_messages =
      result.decomposition.messages + result.base_stats.messages;
  {
    Scope s(tr, "problems.validate", p, req);
    result.valid = problem.ValidateGraph(g, result.labeling, &result.why);
  }
  {
    Scope s(tr, "local.free", p, req);
    net.reset();
  }
  c.AddStats(result.decomposition.round_stats);
  c.AddStats(result.base_stats.linial_round_stats);
  c.AddStats(result.base_stats.sweep_round_stats);
  c.AddStats(result.split.round_stats);
  return result;
}

// Theorem 12 pipeline (SolveNodeProblemOnTree) replayed likewise; mirrors
// src/core/transform_node.cc.
Thm12Result ReplayNode(const NodeProblem& problem, const TreeInput& in, int k,
                       Tracer* tr, int64_t p, int64_t req,
                       support::FaultInjector* fault, EngineCounters& c) {
  const Graph& tree = in.tree;
  const int n = tree.NumNodes();
  Thm12Result result;
  result.k = k;
  {
    Scope s(tr, "core.glue", p, req);
    result.labeling = HalfEdgeLabeling(tree);
  }
  std::unique_ptr<local::Network> net =
      BuildEngine(tr, p, req, tree, in.ids, fault);
  {
    Scope s(tr, "core.rake_compress", p, req);
    result.rake_compress = RunRakeCompress(*net, k);
  }
  c.AddRun(net->round_seconds());
  result.rounds_decomposition = result.rake_compress.engine_rounds;
  std::vector<char> compressed_mask, raked_mask;
  {
    Scope s(tr, "core.glue", p, req);
    compressed_mask.assign(n, 0);
    raked_mask.assign(n, 0);
    for (int v = 0; v < n; ++v) {
      if (result.rake_compress.compressed[v]) {
        compressed_mask[v] = 1;
        ++result.num_compressed;
      } else {
        raked_mask[v] = 1;
        ++result.num_raked;
      }
    }
  }
  SemiGraph tc;
  {
    Scope s(tr, "graph.semigraph", p, req);
    tc = SemiGraph::NodeInduced(tree, compressed_mask);
  }
  {
    Scope s(tr, "algos.base", p, req);
    result.base_stats =
        RunNodeBase(*net, problem, tc, in.id_space, result.labeling);
  }
  c.AddBaseSweep(net->round_seconds());
  result.rounds_base = result.base_stats.rounds;
  std::vector<int64_t> leader_key(n, 0);
  {
    Scope s(tr, "core.glue", p, req);
    std::vector<int> by_order(n);
    std::iota(by_order.begin(), by_order.end(), 0);
    std::sort(by_order.begin(), by_order.end(), [&](int x, int y) {
      return result.rake_compress.Lower(x, y, in.ids);
    });
    for (int r = 0; r < n; ++r) leader_key[by_order[r]] = r;
  }
  std::vector<ComponentLeader> components;
  {
    Scope s(tr, "graph.component_leaders", p, req);
    components = MaskedComponentLeaders(tree, raked_mask, leader_key);
  }
  result.num_rake_components = static_cast<int>(components.size());
  {
    Scope gather(tr, "core.gather", p, req);
    for (const ComponentLeader& comp : components) {
      std::vector<int> order = comp.nodes;
      std::sort(order.begin(), order.end(), [&](int x, int y) {
        return leader_key[x] < leader_key[y];
      });
      {
        Scope s(tr, "problems.complete", gather.id(), req);
        problem.CompleteNodes(tree, order, result.labeling);
      }
      result.rounds_gather =
          std::max(result.rounds_gather, 2 * comp.eccentricity + 1);
      result.max_rake_component_diameter =
          std::max(result.max_rake_component_diameter, comp.eccentricity);
    }
  }
  result.rounds_total = result.rounds_decomposition + result.rounds_base +
                        result.rounds_gather;
  result.engine_messages =
      result.rake_compress.messages + result.base_stats.messages;
  {
    Scope s(tr, "problems.validate", p, req);
    result.valid = problem.ValidateGraph(tree, result.labeling, &result.why);
  }
  {
    Scope s(tr, "local.free", p, req);
    net.reset();
  }
  c.AddStats(result.rake_compress.round_stats);
  c.AddStats(result.base_stats.linial_round_stats);
  c.AddStats(result.base_stats.sweep_round_stats);
  return result;
}

// The shared driver of the two pipeline workloads. `solve()` is the public
// entry point; `replay(tracer, parent, req, fault, counters)` the phase
// replay; and `layers(result, samples)` adds the workload's own counts.
template <typename Result, typename Solve, typename Replay, typename Layers>
Report RunPipelineWorkload(const Options& opt, const TreeInput& in,
                           const std::vector<double>& setup, Solve&& solve,
                           Replay&& replay, Layers&& layers) {
  Report report;
  support::FaultInjector fault =
      support::FaultInjector::ThrowAtVisit(kFaultVisit);
  // Reference (and warm-up): the public entry point, never fault-armed.
  const Result ref = solve();
  report.Attempt(ref.valid);
  auto same = [&](const Result& r) {
    return r.valid && r.rounds_total == ref.rounds_total &&
           r.engine_messages == ref.engine_messages &&
           SameLabeling(in.tree, r.labeling, ref.labeling);
  };
  // An untraced solve: the public entry point, or under the negative
  // control the replay on a fault-armed engine (the public entry points
  // build their engines without options).
  auto untraced = [&](int64_t req) {
    const auto t = Clock::now();
    try {
      EngineCounters c;
      const Result r =
          opt.negative ? replay(nullptr, -1, req, &fault, c) : solve();
      const double dt = SecondsSince(t);
      report.Attempt(same(r));
      return dt;
    } catch (const std::exception&) {
      report.Attempt(false);
      return SecondsSince(t);
    }
  };

  if (!opt.trace) {
    const std::vector<double> times = TimedLoop(opt.seconds, 3, untraced);
    AddEndToEnd(setup, times, ref.rounds_total, report);
    return report;
  }

  Tracer tracer;
  Samples samples;
  std::vector<double> base;
  std::vector<int64_t> roots;
  TimedLoop(opt.seconds, 2, [&](int64_t i) {
    base.push_back(untraced(2 * i));
    EngineCounters c;
    Result r;
    {
      Scope root(&tracer, "solve", -1, 2 * i + 1);
      roots.push_back(root.id());
      r = replay(&tracer, root.id(), 2 * i + 1, nullptr, c);
    }
    const bool ok = same(r);
    if (!ok) report.Fail("phase replay differs from the untraced solve");
    report.Attempt(ok);
    c.AddTo(samples);
    samples.Add("algos.linial_rounds", r.base_stats.linial_rounds);
    samples.Add("algos.classes",
                static_cast<double>(r.base_stats.num_classes));
    layers(r, samples);
    return 0.0;
  });
  FinishTraced(opt, tracer, roots, base, samples, report);
  return report;
}

}  // namespace

Report RunEdgeColoringTree(const Options& opt) {
  constexpr int kN = 1 << 20;
  constexpr int kA = 1;
  const int k = std::max(5, ChooseK(kN, QuadraticF()));
  TreeInput in;
  const std::vector<double> setup = SetUpTree(kN, opt.seed, in);
  const EdgeColoringProblem problem(
      EdgeColoringProblem::Mode::kEdgeDegreePlusOne, in.tree.MaxDegree());
  return RunPipelineWorkload<Thm15Result>(
      opt, in, setup,
      [&] {
        return SolveEdgeProblemBoundedArboricity(problem, in.tree, in.ids,
                                                 in.id_space, kA, k);
      },
      [&](Tracer* tr, int64_t parent, int64_t req,
          support::FaultInjector* fault, EngineCounters& c) {
        return ReplayEdge(problem, in, kA, k, tr, parent, req, fault, c);
      },
      [&](const Thm15Result& r, Samples& s) {
        s.Add("core.atypical_edges", static_cast<double>(r.num_atypical));
      });
}

Report RunMisTree(const Options& opt) {
  constexpr int kN = 1 << 18;
  const int k = ChooseK(kN, QuadraticF());
  TreeInput in;
  const std::vector<double> setup = SetUpTree(kN, opt.seed, in);
  const MisProblem problem;
  return RunPipelineWorkload<Thm12Result>(
      opt, in, setup,
      [&] {
        return SolveNodeProblemOnTree(problem, in.tree, in.ids, in.id_space,
                                      k);
      },
      [&](Tracer* tr, int64_t parent, int64_t req,
          support::FaultInjector* fault, EngineCounters& c) {
        return ReplayNode(problem, in, k, tr, parent, req, fault, c);
      },
      [&](const Thm12Result& r, Samples& s) {
        s.Add("core.rake_components", r.num_rake_components);
      });
}

}  // namespace perfbench
