// Graph-backend comparison: the uncompressed CSR Graph vs CompactGraph
// (resident image) vs CompactGraph (mmap-opened file) under the same
// engine workload. For each size the three backends run rake-compress on
// the identical tree and the bench GATES on bit-identical transcripts —
// rounds, messages, and the folded digest chain — before reporting
// bytes/edge and the CSR compression ratio. A transcript mismatch is an
// exit-code failure (the numbers would be meaningless), which is how CI
// consumes this binary.
//
//   bench_graph_backend [--reps=R] [--ns=16384,65536,...] [--k=K]
//   bench_graph_backend --huge[=N]   # >= 10^8-edge streamed build + mmap solve
//
// The --huge mode is the out-of-core acceptance run: a recursive random
// tree is streamed through CompactGraph::Builder (never holding an edge
// list or a CSR), written to disk, mmap-opened, and solved. Memory is
// reported honestly in two parts: graph residency (RSS growth from
// opening + fully scanning the mapped image — the number bounded well
// below the CSR footprint) and the whole-process peak during the solve,
// which is dominated by engine mailbox state and would dwarf ANY graph
// backend. Both record kinds also carry the engine's own bytes per
// structure (Network::EngineMemory) after construction and after the
// solve, so that engine share is itemized rather than inferred.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <fstream>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/rake_compress.h"
#include "src/graph/compact_graph.h"
#include "src/graph/generators.h"
#include "src/graph/graph.h"
#include "src/graph/graph_view.h"
#include "src/local/network.h"
#include "src/support/digest.h"

namespace treelocal {
namespace {

using Clock = std::chrono::steady_clock;

uint64_t FoldDigest(const std::vector<local::RoundStats>& stats) {
  uint64_t d = support::kDigestSeed;
  for (const auto& rs : stats) {
    d = support::ChainDigest(d, rs.active_nodes, rs.messages_sent, 0);
  }
  return d;
}

std::string HexDigest(uint64_t d) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, d);
  return buf;
}

struct BackendRun {
  double seconds = 1e300;
  int rounds = 0;
  int64_t messages = 0;
  uint64_t digest = 0;
};

// Best-of-reps rake-compress on a caller-owned engine; the transcript
// fields come from the last run (they are identical across reps by the
// determinism contract, which the comparison below re-checks anyway).
BackendRun TimeBackend(local::Network& net, int k, int reps) {
  BackendRun r;
  RakeCompressResult res = RunRakeCompress(net, k);
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = Clock::now();
    res = RunRakeCompress(net, k);
    r.seconds = std::min(r.seconds, bench::SecondsSince(t0));
  }
  r.rounds = res.engine_rounds;
  r.messages = res.messages;
  r.digest = FoldDigest(res.round_stats);
  return r;
}

// Network::EngineMemory() parts as <prefix>_<part>_bytes fields: the
// engine's side of the memory picture the graph byte counts draw. Taken
// after construction ("engine_ctor") and after the solve ("engine_run"),
// when the state plane and run log exist too.
void EmitEngineBytes(bench::JsonWriter& json, const std::string& prefix,
                     const local::EngineBytes& b) {
  const auto field = [&](const char* part, size_t bytes) {
    json.Field(prefix + "_" + part + "_bytes", static_cast<int64_t>(bytes));
  };
  field("channel_tables", b.channel_tables);
  field("mailboxes", b.mailboxes);
  field("worklist", b.worklist);
  field("ids", b.ids);
  field("state_plane", b.state_plane);
  field("run_log", b.run_log);
  field("total", b.total());
}

bool RunBackendComparison(int n, int k, int reps, bench::JsonWriter& json) {
  const Graph g = UniformRandomTree(n, 7);
  const std::vector<int64_t> ids = [&] {
    std::vector<int64_t> v(n);
    for (int i = 0; i < n; ++i) v[i] = i;
    return v;
  }();

  const CompactGraph compact = CompactGraph::FromGraph(g);
  const std::string path =
      "bench_graph_backend_" + std::to_string(n) + ".cgr";
  compact.WriteFile(path);
  const CompactGraph mapped = CompactGraph::OpenMapped(path);

  const int64_t m = g.NumEdges();
  const double bytes_per_edge =
      static_cast<double>(compact.MemoryBytes()) / static_cast<double>(m);
  const double ratio = static_cast<double>(g.MemoryBytes()) /
                       static_cast<double>(compact.MemoryBytes());

  local::Network csr_net(g, ids);
  local::Network compact_net(compact, ids);
  local::Network mapped_net(mapped, ids);
  const local::EngineBytes ctor_bytes = compact_net.EngineMemory();
  const BackendRun csr = TimeBackend(csr_net, k, reps);
  const BackendRun ram = TimeBackend(compact_net, k, reps);
  const BackendRun map = TimeBackend(mapped_net, k, reps);

  const bool identical =
      csr.rounds == ram.rounds && csr.rounds == map.rounds &&
      csr.messages == ram.messages && csr.messages == map.messages &&
      csr.digest == ram.digest && csr.digest == map.digest;

  json.BeginRecord();
  json.Field("source", "bench_graph_backend");
  json.Field("experiment", "compact_backend");
  json.Field("family", "uniform-random");
  json.Field("n", n);
  json.Field("edges", m);
  json.Field("k", k);
  json.Field("csr_bytes", static_cast<int64_t>(g.MemoryBytes()));
  json.Field("cgr_bytes", static_cast<int64_t>(compact.MemoryBytes()));
  json.Field("compact_bytes_per_edge", bytes_per_edge);
  json.Field("compact_ratio", ratio);
  json.Field("csr_seconds", csr.seconds);
  json.Field("compact_seconds", ram.seconds);
  json.Field("mapped_seconds", map.seconds);
  json.Field("rounds", csr.rounds);
  json.Field("messages", csr.messages);
  json.Field("digest", HexDigest(csr.digest));
  json.Field("transcripts_identical", identical);
  json.Field("peak_rss_bytes", bench::PeakRssBytes());
  EmitEngineBytes(json, "engine_ctor", ctor_bytes);
  EmitEngineBytes(json, "engine_run", compact_net.EngineMemory());

  std::cout << "n=" << n << " m=" << m << "  " << bytes_per_edge
            << " bytes/edge (csr/" << ratio << ")  csr " << csr.seconds
            << " s  compact " << ram.seconds << " s  mapped " << map.seconds
            << " s  identical=" << (identical ? "yes" : "NO (BUG)")
            << "  digest=" << HexDigest(csr.digest) << "\n";
  std::remove(path.c_str());
  return identical;
}

// Streamed out-of-core acceptance: recursive random trees stream with O(1)
// generator state, and their edges (parent < child) arrive as arcs we sort
// once — the only O(m) transient — before feeding the builder, which holds
// the growing COMPRESSED image, never a CSR.
bool RunHuge(int64_t n, int k, bench::JsonWriter& json) {
  std::cout << "huge: streaming recursive tree n=" << n << "\n";
  const auto t_build = Clock::now();
  std::vector<uint64_t> arcs;
  arcs.reserve(2 * (n - 1));
  MakeTreeStreamed(TreeFamily::kRecursive, static_cast<int>(n), 42,
                   [&](int u, int v) {
                     arcs.push_back(static_cast<uint64_t>(u) << 32 |
                                    static_cast<uint32_t>(v));
                     arcs.push_back(static_cast<uint64_t>(v) << 32 |
                                    static_cast<uint32_t>(u));
                   });
  std::sort(arcs.begin(), arcs.end());
  CompactGraph::Builder builder(n);
  for (const uint64_t a : arcs) {
    builder.AddArc(static_cast<int64_t>(a >> 32),
                   static_cast<int64_t>(a & 0xffffffffu));
  }
  arcs.clear();
  arcs.shrink_to_fit();
  const std::string image = builder.FinishImage();
  const int64_t cgr_bytes = static_cast<int64_t>(image.size());
  const std::string path = "bench_graph_backend_huge.cgr";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(image.data(), static_cast<std::streamsize>(image.size()));
    if (!out) {
      std::cerr << "bench_graph_backend: cannot write " << path << "\n";
      return false;
    }
  }
  const double build_seconds = bench::SecondsSince(t_build);

  // Graph residency: RSS growth from mmap-opening the file and faulting
  // the whole adjacency stream in via a full edge scan. This is the
  // apples-to-apples number against the CSR footprint a Graph would pin.
  const int64_t m = n - 1;
  const int64_t csr_bytes = 4 * ((n + 1) + 2 * m + 2 * m + m + m);
  const int64_t rss_before_open = bench::CurrentRssBytes();
  const auto t_open = Clock::now();
  const CompactGraph mapped = CompactGraph::OpenMapped(path);
  const double open_seconds = bench::SecondsSince(t_open);
  int64_t scanned_edges = 0;
  mapped.ForEachEdge([&](int64_t, int, int) { ++scanned_edges; });
  const int64_t graph_rss_bytes =
      bench::CurrentRssBytes() - rss_before_open;
  if (scanned_edges != m) {
    std::cerr << "bench_graph_backend: scan saw " << scanned_edges
              << " edges, expected " << m << "\n";
    std::remove(path.c_str());
    return false;
  }

  std::cout << "  built+wrote in " << build_seconds << " s, " << cgr_bytes
            << " bytes (" << static_cast<double>(cgr_bytes) / m
            << " bytes/edge vs csr " << csr_bytes
            << "); open " << open_seconds << " s, graph residency "
            << graph_rss_bytes << " bytes after full scan\n";

  const auto t_solve = Clock::now();
  std::vector<int64_t> ids(n);
  for (int64_t i = 0; i < n; ++i) ids[i] = i;
  local::Network net(mapped, ids);
  const local::EngineBytes ctor_bytes = net.EngineMemory();
  const RakeCompressResult res = RunRakeCompress(net, k);
  const double solve_seconds = bench::SecondsSince(t_solve);
  const uint64_t digest = FoldDigest(res.round_stats);

  json.BeginRecord();
  // Distinct source: the huge run must not displace the identity-gated
  // small-n records when MergeAs replaces same-source records.
  json.Field("source", "bench_graph_backend_huge");
  json.Field("experiment", "compact_backend_huge");
  json.Field("family", "recursive");
  json.Field("n", n);
  json.Field("edges", m);
  json.Field("k", k);
  json.Field("csr_bytes", csr_bytes);
  json.Field("cgr_bytes", cgr_bytes);
  json.Field("compact_bytes_per_edge",
             static_cast<double>(cgr_bytes) / static_cast<double>(m));
  json.Field("compact_ratio",
             static_cast<double>(csr_bytes) / static_cast<double>(cgr_bytes));
  json.Field("build_seconds", build_seconds);
  json.Field("open_seconds", open_seconds);
  json.Field("graph_rss_bytes", graph_rss_bytes);
  json.Field("solve_seconds", solve_seconds);
  json.Field("rounds", res.engine_rounds);
  json.Field("messages", res.messages);
  json.Field("digest", HexDigest(digest));
  // Whole-process peak: dominated by engine mailboxes/ids (O(n) engine
  // state), NOT the graph backend — recorded so the residency claim above
  // cannot be mistaken for a solve-memory claim.
  json.Field("solve_peak_rss_bytes", bench::PeakRssBytes());
  EmitEngineBytes(json, "engine_ctor", ctor_bytes);
  EmitEngineBytes(json, "engine_run", net.EngineMemory());

  std::cout << "  solved: rounds=" << res.engine_rounds
            << " messages=" << res.messages << " digest=" << HexDigest(digest)
            << " in " << solve_seconds
            << " s (process peak RSS " << bench::PeakRssBytes() << ")\n";
  std::remove(path.c_str());
  return true;
}

}  // namespace
}  // namespace treelocal

int main(int argc, char** argv) {
  int reps = 3;
  int k = 3;
  std::vector<int> ns = {1 << 14, 1 << 16, 1 << 20};
  bool huge = false;
  int64_t huge_n = 100000001;  // 10^8 edges
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--reps=", 0) == 0) {
      reps = std::max(1, std::atoi(arg.c_str() + 7));
    } else if (arg.rfind("--k=", 0) == 0) {
      k = std::atoi(arg.c_str() + 4);
      if (k < 2) {
        std::cerr << "bench_graph_backend: --k must be >= 2\n";
        return 1;
      }
    } else if (arg.rfind("--ns=", 0) == 0) {
      ns.clear();
      std::stringstream ss(arg.substr(5));
      std::string item;
      while (std::getline(ss, item, ',')) {
        const int n = std::atoi(item.c_str());
        if (n < 2) {
          std::cerr << "bench_graph_backend: every n must be >= 2\n";
          return 1;
        }
        ns.push_back(n);
      }
    } else if (arg == "--huge" || arg.rfind("--huge=", 0) == 0) {
      huge = true;
      if (arg.size() > 7) huge_n = std::strtoll(arg.c_str() + 7, nullptr, 10);
      if (huge_n < 2 || huge_n > INT32_MAX) {
        std::cerr << "bench_graph_backend: --huge needs 2 <= n <= 2^31-1\n";
        return 1;
      }
    } else {
      std::cerr << "bench_graph_backend: unknown flag " << arg << "\n";
      return 1;
    }
  }

  treelocal::bench::JsonWriter json;
  bool ok = true;
  if (huge) {
    ok = treelocal::RunHuge(huge_n, k, json);
  } else {
    for (const int n : ns) {
      ok &= treelocal::RunBackendComparison(n, k, reps, json);
    }
  }
  json.MergeAs(huge ? "bench_graph_backend_huge" : "bench_graph_backend",
               "BENCH_engine.json");
  std::cout << "  wrote BENCH_engine.json\n";
  return ok ? 0 : 1;
}
