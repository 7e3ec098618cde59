// Streaming edge-list -> .cgr converter and mmap-backed solve driver for
// the CompactGraph backend (src/graph/compact_graph.h).
//
//   graph_convert convert --output out.cgr (--input edges.txt [--binary]
//                         | --gen SPEC) [--nodes N] [--chunk-mb MB]
//       Build a validated .cgr from an edge list without ever holding it in
//       memory: arcs are packed into fixed-size chunks, each chunk is
//       sorted and spilled to a temp run file next to the output, and a
//       k-way merge streams the deduplicated arc sequence straight into
//       CompactGraph::Builder (external-memory sort; peak RSS is one chunk
//       plus the growing compressed image, independent of m).
//
//       --input reads SNAP-style text ("u v" per line, '#' comments) or,
//       with --binary, packed little-endian uint32 pairs. Self-loops and
//       out-of-range endpoints are structured errors naming the offending
//       line/pair; duplicate edges (and both-direction listings) collapse.
//       --gen skips the file and streams a generator instead:
//         --gen <family>:<n>:<seed>        (families as in transcript_verify)
//         --gen forest_union:<n>:<a>:<seed>
//
//   graph_convert solve <in.cgr> --k K [--engine network|parallel|reference]
//                       [--threads T] [--load]
//       Open the .cgr (mmap by default; --load reads + fully validates it
//       in memory), run rake-compress with parameter k under iota ids, and
//       print rounds / messages / final_digest — byte-comparable to the
//       last_digest of a Graph-backed `transcript_verify record` of the
//       same workload, which is exactly the CI round-trip gate. Peak RSS
//       is reported so the out-of-core claim is checkable from the log.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <numeric>
#include <queue>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/rake_compress.h"
#include "src/graph/compact_graph.h"
#include "src/graph/generators.h"
#include "src/local/network.h"
#include "src/local/parallel_network.h"
#include "src/local/reference_network.h"

namespace {

using treelocal::CompactGraph;
using treelocal::CompactGraphError;

[[noreturn]] void Usage(const std::string& err) {
  if (!err.empty()) std::cerr << "error: " << err << "\n";
  std::cerr
      << "usage: graph_convert convert --output out.cgr\n"
         "           (--input edges.txt [--binary] | --gen SPEC)\n"
         "           [--nodes N] [--chunk-mb MB]\n"
         "       graph_convert solve <in.cgr> --k K [--engine E] "
         "[--threads T] [--load]\n"
         "gen specs: <family>:<n>:<seed> | forest_union:<n>:<a>:<seed>\n"
         "families: path star balanced3 balanced8 uniform recursive "
         "caterpillar binary\n"
         "engines: network parallel reference\n";
  std::exit(2);
}

// ---------------------------------------------------------------------------
// External-memory arc sorter: Add() both directed arcs of every edge packed
// as (node << 32 | neighbor); Drain() yields the globally sorted,
// deduplicated arc sequence — exactly CompactGraph::Builder's input
// contract. Chunks above the budget spill to run files; a merge with
// buffered readers never re-materializes the list.
class ArcSorter {
 public:
  ArcSorter(size_t chunk_arcs, std::string run_prefix)
      : chunk_arcs_(std::max<size_t>(chunk_arcs, 1024)),
        run_prefix_(std::move(run_prefix)) {
    chunk_.reserve(chunk_arcs_);
  }
  ~ArcSorter() {
    for (size_t r = 0; r < runs_; ++r) std::remove(RunPath(r).c_str());
  }

  void Add(uint64_t arc) {
    if (chunk_.size() == chunk_arcs_) Spill();
    chunk_.push_back(arc);
  }

  size_t runs() const { return runs_; }
  int64_t duplicates() const { return duplicates_; }

  // f(uint64_t arc) over the sorted unique sequence. Single use.
  template <typename F>
  void Drain(F&& f) {
    SortDedup(chunk_);
    if (runs_ == 0) {
      for (uint64_t arc : chunk_) f(arc);
      return;
    }
    if (!chunk_.empty()) Spill();  // final partial chunk joins the merge
    std::vector<uint64_t>().swap(chunk_);

    struct Run {
      std::ifstream in;
      std::vector<uint64_t> buf;
      size_t pos = 0;
      bool Fill() {
        buf.resize(1 << 16);
        in.read(reinterpret_cast<char*>(buf.data()),
                static_cast<std::streamsize>(buf.size() * sizeof(uint64_t)));
        buf.resize(static_cast<size_t>(in.gcount()) / sizeof(uint64_t));
        pos = 0;
        return !buf.empty();
      }
    };
    std::vector<std::unique_ptr<Run>> rs;
    using Head = std::pair<uint64_t, size_t>;  // (value, run index)
    std::priority_queue<Head, std::vector<Head>, std::greater<>> heap;
    for (size_t r = 0; r < runs_; ++r) {
      auto run = std::make_unique<Run>();
      run->in.open(RunPath(r), std::ios::binary);
      if (!run->in) {
        throw CompactGraphError("graph_convert: cannot reopen sort run " +
                                RunPath(r));
      }
      if (run->Fill()) heap.emplace(run->buf[run->pos], rs.size());
      rs.push_back(std::move(run));
    }
    bool have_last = false;
    uint64_t last = 0;
    while (!heap.empty()) {
      auto [value, r] = heap.top();
      heap.pop();
      if (!have_last || value != last) {
        f(value);
        last = value;
        have_last = true;
      } else {
        ++duplicates_;
      }
      Run& run = *rs[r];
      if (++run.pos < run.buf.size() || run.Fill()) {
        heap.emplace(run.buf[run.pos], r);
      }
    }
  }

 private:
  std::string RunPath(size_t r) const {
    return run_prefix_ + ".run" + std::to_string(r);
  }

  void SortDedup(std::vector<uint64_t>& v) {
    std::sort(v.begin(), v.end());
    const size_t before = v.size();
    v.erase(std::unique(v.begin(), v.end()), v.end());
    duplicates_ += static_cast<int64_t>(before - v.size());
  }

  void Spill() {
    SortDedup(chunk_);
    std::ofstream out(RunPath(runs_), std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(chunk_.data()),
              static_cast<std::streamsize>(chunk_.size() * sizeof(uint64_t)));
    out.flush();
    if (!out) {
      throw CompactGraphError("graph_convert: write to sort run " +
                              RunPath(runs_) + " failed (disk full?)");
    }
    ++runs_;
    chunk_.clear();
  }

  size_t chunk_arcs_;
  std::string run_prefix_;
  std::vector<uint64_t> chunk_;
  size_t runs_ = 0;
  int64_t duplicates_ = 0;
};

struct ConvertOptions {
  std::string output;
  std::string input;
  std::string gen;
  bool binary = false;
  int64_t nodes = -1;  // -1: infer max id + 1 (file inputs)
  int chunk_mb = 256;
};

constexpr int64_t kMaxNode = (int64_t{1} << 31) - 1;

// Feeds one undirected edge into the sorter as two packed arcs, with the
// structured validation the loader contract promises. `where` names the
// offending input location in errors.
void AddEdge(ArcSorter& sorter, int64_t u, int64_t v, int64_t node_limit,
             const std::string& where) {
  if (u == v) {
    throw CompactGraphError("graph_convert: self-loop " + std::to_string(u) +
                            " at " + where);
  }
  if (u < 0 || v < 0 || u > kMaxNode || v > kMaxNode ||
      (node_limit >= 0 && (u >= node_limit || v >= node_limit))) {
    throw CompactGraphError(
        "graph_convert: endpoint out of range at " + where + ": (" +
        std::to_string(u) + ", " + std::to_string(v) + ")" +
        (node_limit >= 0 ? " with --nodes " + std::to_string(node_limit)
                         : ""));
  }
  sorter.Add(static_cast<uint64_t>(u) << 32 | static_cast<uint64_t>(v));
  sorter.Add(static_cast<uint64_t>(v) << 32 | static_cast<uint64_t>(u));
}

// Text loader: "u v" per line, '#' comments, blank lines skipped. Returns
// max node id seen (-1 if none).
int64_t ReadTextEdges(const std::string& path, ArcSorter& sorter,
                      int64_t node_limit) {
  std::ifstream in(path);
  if (!in) throw CompactGraphError("graph_convert: cannot open " + path);
  std::string line;
  int64_t max_id = -1;
  int64_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const char* p = line.c_str();
    while (*p == ' ' || *p == '\t') ++p;
    if (*p == '\0' || *p == '#') continue;
    char* end = nullptr;
    errno = 0;
    const long long u = std::strtoll(p, &end, 10);
    if (end == p || errno != 0) {
      throw CompactGraphError("graph_convert: unparsable line " +
                              std::to_string(lineno) + " of " + path);
    }
    p = end;
    const long long v = std::strtoll(p, &end, 10);
    if (end == p || errno != 0) {
      throw CompactGraphError("graph_convert: line " + std::to_string(lineno) +
                              " of " + path + " has no second endpoint");
    }
    AddEdge(sorter, u, v, node_limit,
            path + ":" + std::to_string(lineno));
    max_id = std::max<int64_t>(max_id, std::max(u, v));
  }
  return max_id;
}

// Binary loader: packed little-endian uint32 pairs, one per edge.
int64_t ReadBinaryEdges(const std::string& path, ArcSorter& sorter,
                        int64_t node_limit) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw CompactGraphError("graph_convert: cannot open " + path);
  int64_t max_id = -1;
  int64_t pair_index = 0;
  std::vector<uint32_t> buf(1 << 16);
  while (true) {
    in.read(reinterpret_cast<char*>(buf.data()),
            static_cast<std::streamsize>(buf.size() * sizeof(uint32_t)));
    const size_t got = static_cast<size_t>(in.gcount());
    if (got % (2 * sizeof(uint32_t)) != 0) {
      throw CompactGraphError(
          "graph_convert: " + path +
          " is not a whole number of uint32 endpoint pairs");
    }
    const size_t words = got / sizeof(uint32_t);
    for (size_t i = 0; i + 1 < words; i += 2, ++pair_index) {
      const int64_t u = buf[i], v = buf[i + 1];
      AddEdge(sorter, u, v, node_limit,
              path + " pair " + std::to_string(pair_index));
      max_id = std::max(max_id, std::max(u, v));
    }
    if (got < buf.size() * sizeof(uint32_t)) break;
  }
  return max_id;
}

// --gen SPEC: streams a generator through the same sorter path as file
// input (the generators emit unsorted, possibly duplicated edges; the
// external sort is what canonicalizes them). Returns the node count.
int64_t StreamGenerator(const std::string& spec, ArcSorter& sorter) {
  std::vector<std::string> parts;
  size_t pos = 0;
  while (pos <= spec.size()) {
    const size_t colon = spec.find(':', pos);
    parts.push_back(spec.substr(pos, colon - pos));
    if (colon == std::string::npos) break;
    pos = colon + 1;
  }
  auto arg = [&](size_t i) -> int64_t {
    if (i >= parts.size()) Usage("gen spec '" + spec + "' is missing fields");
    return std::stoll(parts[i]);
  };
  const auto emit = [&](int u, int v) {
    AddEdge(sorter, u, v, -1, "gen '" + spec + "'");
  };
  if (parts[0] == "forest_union") {
    const int64_t n = arg(1), a = arg(2), seed = arg(3);
    treelocal::ForestUnionStreamed(static_cast<int>(n), static_cast<int>(a),
                                   static_cast<uint64_t>(seed), emit);
    return n;
  }
  for (treelocal::TreeFamily f : treelocal::AllTreeFamilies()) {
    if (treelocal::TreeFamilyName(f) == parts[0]) {
      const int64_t n = arg(1), seed = arg(2);
      return treelocal::MakeTreeStreamed(f, static_cast<int>(n),
                                         static_cast<uint64_t>(seed), emit);
    }
  }
  Usage("unknown gen family '" + parts[0] + "'");
}

int Convert(const ConvertOptions& opt) {
  const auto t0 = std::chrono::steady_clock::now();
  const size_t chunk_arcs =
      (static_cast<size_t>(opt.chunk_mb) << 20) / sizeof(uint64_t);
  ArcSorter sorter(chunk_arcs, opt.output);

  int64_t n;
  if (!opt.gen.empty()) {
    n = StreamGenerator(opt.gen, sorter);
    if (opt.nodes >= 0) n = std::max(n, opt.nodes);
  } else {
    const int64_t max_id = opt.binary
                               ? ReadBinaryEdges(opt.input, sorter, opt.nodes)
                               : ReadTextEdges(opt.input, sorter, opt.nodes);
    n = opt.nodes >= 0 ? opt.nodes : max_id + 1;
  }
  if (n > kMaxNode + 1) {
    throw CompactGraphError("graph_convert: node count " + std::to_string(n) +
                            " exceeds the 2^31 - 1 node limit");
  }
  const double read_s = treelocal::bench::SecondsSince(t0);

  CompactGraph::Builder builder(n);
  int64_t arcs = 0;
  sorter.Drain([&](uint64_t arc) {
    builder.AddArc(static_cast<int64_t>(arc >> 32),
                   static_cast<int64_t>(arc & 0xffffffffu));
    ++arcs;
  });
  const CompactGraph g = builder.Finish();  // full structural validation
  g.WriteFile(opt.output);
  // Reopen mapped: proves the file on disk round-trips through the
  // cheap-validation open path consumers will use.
  const CompactGraph mapped = CompactGraph::OpenMapped(opt.output);

  const int64_t m = g.NumEdges();
  const double bpe = m > 0 ? static_cast<double>(g.MemoryBytes()) / m : 0.0;
  // Uncompressed-CSR footprint of the same graph (Graph::MemoryBytes's
  // formula: offset_ + nbr_ + inc_ + edge_u_ + edge_v_ as 4-byte ints).
  const int64_t csr_bytes = 4 * ((n + 1) + 2 * m + 2 * m + m + m);
  std::printf(
      "n=%lld m=%lld max_degree=%d duplicates_dropped=%lld\n",
      static_cast<long long>(n), static_cast<long long>(m), g.MaxDegree(),
      static_cast<long long>(sorter.duplicates()));
  std::printf(
      "cgr_bytes=%lld bytes_per_edge=%.3f csr_bytes=%lld csr_ratio=%.2f "
      "sort_runs=%zu\n",
      static_cast<long long>(g.MemoryBytes()), bpe,
      static_cast<long long>(csr_bytes),
      g.MemoryBytes() > 0
          ? static_cast<double>(csr_bytes) / static_cast<double>(g.MemoryBytes())
          : 0.0,
      sorter.runs());
  std::printf(
      "read_seconds=%.3f total_seconds=%.3f peak_rss_bytes=%lld "
      "mapped_ok=%d\n",
      read_s, treelocal::bench::SecondsSince(t0),
      static_cast<long long>(treelocal::bench::PeakRssBytes()),
      mapped.NumEdges() == m ? 1 : 0);
  std::printf("wrote %s\n", opt.output.c_str());
  (void)arcs;
  return 0;
}

// ---------------------------------------------------------------------------
// solve: the CI round-trip's second half.

struct SolveOptions {
  std::string path;
  std::string engine = "network";
  int k = 2;
  int threads = 2;
  bool load = false;  // FromFile (full validation) instead of OpenMapped
};

int Solve(const SolveOptions& opt) {
  const CompactGraph g = opt.load ? CompactGraph::FromFile(opt.path)
                                  : CompactGraph::OpenMapped(opt.path);
  std::printf("opened %s n=%d m=%lld mapped=%d graph_rss_bytes=%lld\n",
              opt.path.c_str(), g.NumNodes(),
              static_cast<long long>(g.NumEdges()), g.mapped() ? 1 : 0,
              static_cast<long long>(treelocal::bench::CurrentRssBytes()));
  std::vector<int64_t> ids(g.NumNodes());
  std::iota(ids.begin(), ids.end(), 0);
  std::unique_ptr<treelocal::local::Algorithm> alg =
      treelocal::MakeRakeCompressAlgorithm(opt.k);
  const int bound = treelocal::RakeCompressIterationBound(
      std::max(g.NumNodes(), 1), opt.k);
  const int max_rounds = 3 * (2 * bound + 8);
  std::unique_ptr<treelocal::local::Engine> net;
  if (opt.engine == "parallel") {
    net = std::make_unique<treelocal::local::ParallelNetwork>(g, ids,
                                                              opt.threads);
  } else if (opt.engine == "reference") {
    net = std::make_unique<treelocal::local::ReferenceNetwork>(g, ids);
  } else if (opt.engine == "network") {
    net = std::make_unique<treelocal::local::Network>(g, ids);
  } else {
    Usage("unknown engine '" + opt.engine + "'");
  }
  const int rounds = net->Run(*alg, max_rounds);
  std::printf("rounds=%d messages=%lld final_digest=0x%016llx\n", rounds,
              static_cast<long long>(net->messages_delivered()),
              static_cast<unsigned long long>(net->last_digest()));
  std::printf("peak_rss_bytes=%lld current_rss_bytes=%lld\n",
              static_cast<long long>(treelocal::bench::PeakRssBytes()),
              static_cast<long long>(treelocal::bench::CurrentRssBytes()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) Usage("mode required (convert | solve)");
  const std::string mode = argv[1];
  auto need = [&](int i) -> std::string {
    if (i + 1 >= argc) Usage(std::string(argv[i]) + " needs a value");
    return argv[i + 1];
  };
  try {
    if (mode == "convert") {
      ConvertOptions opt;
      for (int i = 2; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--output") {
          opt.output = need(i++);
        } else if (a == "--input") {
          opt.input = need(i++);
        } else if (a == "--gen") {
          opt.gen = need(i++);
        } else if (a == "--binary") {
          opt.binary = true;
        } else if (a == "--nodes") {
          opt.nodes = std::stoll(need(i++));
        } else if (a == "--chunk-mb") {
          opt.chunk_mb = std::stoi(need(i++));
          if (opt.chunk_mb < 1) Usage("--chunk-mb must be >= 1");
        } else {
          Usage("unknown convert flag '" + a + "'");
        }
      }
      if (opt.output.empty()) Usage("--output is required");
      if (opt.gen.empty() == opt.input.empty()) {
        Usage("exactly one of --input / --gen is required");
      }
      return Convert(opt);
    }
    if (mode == "solve") {
      if (argc < 3) Usage("solve needs a .cgr path");
      SolveOptions opt;
      opt.path = argv[2];
      for (int i = 3; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--k") {
          opt.k = std::stoi(need(i++));
        } else if (a == "--engine") {
          opt.engine = need(i++);
        } else if (a == "--threads") {
          opt.threads = std::stoi(need(i++));
        } else if (a == "--load") {
          opt.load = true;
        } else {
          Usage("unknown solve flag '" + a + "'");
        }
      }
      return Solve(opt);
    }
    Usage("unknown mode '" + mode + "'");
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
