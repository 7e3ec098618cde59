// The benchmark's four workloads and the metric catalogue they report.
//
// Every workload reports the same metric names: with tracing off the
// end-to-end set, with tracing on the per-module set. A per-module metric of
// a module the workload does not exercise reads 0 (e.g. serve.* on the
// solve workloads), so a metric's meaning never depends on the workload.
// The catalogue must match BENCHMARK.json; run.py checks that it does.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <map>
#include <stdexcept>
#include <string>

#include "common.h"

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

inline constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"op_p50_ms", "ms"},
    {"ops_per_s", "1/s"},
    {"local_rounds", "rounds"},
    {"peak_rss_mb", "MB"},
};

inline constexpr MetricDef kPerLayer[] = {
    {"graph.open_s", "s"},
    {"graph.bytes_per_edge", "B/edge"},
    {"graph.scan_s", "s"},
    {"graph.backend_overhead_s", "s"},
    {"graph.semigraph_s", "s"},
    {"graph.component_leaders_s", "s"},
    {"local.ctor_s", "s"},
    {"local.ctor_rss_mb", "MB"},
    {"local.free_s", "s"},
    {"local.run_s", "s"},
    {"local.head_round_s", "s"},
    {"local.tail_round_s", "s"},
    {"local.ns_per_message", "ns"},
    {"local.messages", "count"},
    {"local.visits", "count"},
    {"local.decisions", "count"},
    {"local.useful_visit_ratio", "ratio"},
    {"core.rake_compress_s", "s"},
    {"core.rake_components", "count"},
    {"core.decomposition_s", "s"},
    {"core.split_s", "s"},
    {"core.star_stages_s", "s"},
    {"core.atypical_edges", "count"},
    {"core.gather_s", "s"},
    {"core.glue_s", "s"},
    {"algos.base_s", "s"},
    {"algos.base_sweep_s", "s"},
    {"algos.linial_rounds", "rounds"},
    {"algos.classes", "count"},
    {"problems.complete_s", "s"},
    {"problems.validate_s", "s"},
    {"serve.register_s", "s"},
    {"serve.submit_ms", "ms"},
    {"serve.rake_compress.p50_ms", "ms"},
    {"serve.thm12_node.p50_ms", "ms"},
    {"serve.thm15_edge.p50_ms", "ms"},
    {"serve.decomposition.p50_ms", "ms"},
    {"serve.req_p99_ms", "ms"},
    {"serve.coalesce_factor", "ratio"},
    {"serve.max_queue_depth", "count"},
    {"serve.rejected", "count"},
    {"serve.generator_late_ms", "ms"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.unaccounted_frac", "ratio"},
};

// Adds every metric of `defs` to `report` in catalogue order, taking values
// from `values` (0 for a metric the workload does not exercise). Throws
// std::logic_error on a value whose name is not in the catalogue.
template <size_t N>
void AddCatalogue(const MetricDef (&defs)[N],
                  const std::map<std::string, double>& values,
                  Report& report) {
  for (const auto& [name, value] : values) {
    bool known = false;
    for (const MetricDef& d : defs) known = known || name == d.name;
    if (!known) throw std::logic_error("metric not in catalogue: " + name);
  }
  for (const MetricDef& d : defs) {
    const auto it = values.find(d.name);
    report.Add(d.name, it == values.end() ? 0.0 : it->second, d.unit);
  }
}

// Set-up is repeated this many times per run and its median reported, so a
// single slow allocation or page-cache miss does not set setup_s.
inline constexpr int kSetupReps = 5;

// The traced run's stated tolerance: the root span of a traced solve may
// spend at most this share of its duration outside its child spans (the
// phases must add up to the whole).
inline constexpr double kUnaccountedTolerance = 0.02;

Report RunRakeCompressMmap(const Options& opt);
Report RunEdgeColoringTree(const Options& opt);
Report RunMisTree(const Options& opt);
Report RunServeMixed(const Options& opt);

// The daemon half of serve_mixed: a treelocald-equivalent server process
// (see serve_workload.cc).
int DaemonMain(int argc, char** argv);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
