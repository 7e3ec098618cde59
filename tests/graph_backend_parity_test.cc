// Backend parity: a CompactGraph-backed engine run — in-RAM or mmap-opened
// from a .cgr file — must be bit-identical to the Graph-backed run on the
// same input: digest chains, rounds, message totals, and full RoundStats
// (including the visit/decision observability counters). Pinned across the
// whole engine matrix (Network / ParallelNetwork / ReferenceNetwork,
// T in {1, 2, 8}) on trees, forests, star unions (one with center streams
// longer than 254 bytes), hubbed forests, and multi-component graphs.
// This is THE determinism contract of the compressed backend: ports name
// positions in the shared sorted adjacency, so nothing transcript-bearing
// may depend on which backend served them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/rake_compress.h"
#include "src/graph/compact_graph.h"
#include "src/graph/generators.h"
#include "src/graph/graph.h"
#include "src/graph/graph_view.h"
#include "src/local/network.h"
#include "src/local/parallel_network.h"
#include "src/local/reference_network.h"
#include "src/local/snapshot.h"
#include "src/support/digest.h"
#include "src/support/rng.h"

namespace treelocal {
namespace {

// A temp .cgr written from `g`, mmap-opened, deleted on destruction.
struct MappedCgr {
  std::string path;
  CompactGraph graph;
  explicit MappedCgr(const CompactGraph& g, const std::string& tag) {
    path = ::testing::TempDir() + "backend_parity_" + tag + ".cgr";
    g.WriteFile(path);
    graph = CompactGraph::OpenMapped(path);
  }
  ~MappedCgr() { std::remove(path.c_str()); }
};

// Runs on every engine and every graph: each node folds its received words
// into per-node state and re-broadcasts for a fixed number of rounds, so
// every port, channel, and degree lookup the backend serves feeds the
// digest chain. Halts uniformly at kRounds.
class EchoAlgorithm : public local::Algorithm {
 public:
  static constexpr int kRounds = 5;
  explicit EchoAlgorithm(GraphView g) : g_(g) {}
  size_t StateBytes() const override { return sizeof(int64_t); }
  void InitState(int node, void* state) override {
    *static_cast<int64_t*>(state) = g_.Degree(node) * 1315423911LL + node;
  }
  void OnRound(local::NodeContext& ctx) override {
    int64_t& acc = ctx.State<int64_t>();
    for (int p = 0; p < ctx.degree(); ++p) {
      const local::Message& msg = ctx.Recv(p);
      if (msg.present()) {
        // Wrapping fold: the accumulator overflows int64 within a few
        // rounds, which is undefined on signed arithmetic.
        acc = static_cast<int64_t>(static_cast<uint64_t>(acc) * 31 +
                                   static_cast<uint64_t>(msg.word0));
      }
    }
    if (ctx.round() >= kRounds) {
      ctx.Halt();
      return;
    }
    // The accumulator and a round/degree tag in one (wrapping) word.
    ctx.Broadcast(local::Message::Of(static_cast<int64_t>(
        static_cast<uint64_t>(acc) * 1000003 + ctx.round() + ctx.degree())));
  }

 private:
  GraphView g_;
};

struct RunRecord {
  int rounds = 0;
  int64_t messages = 0;
  uint64_t digest = 0;
  std::vector<local::RoundStats> stats;
  bool operator==(const RunRecord& o) const {
    return rounds == o.rounds && messages == o.messages &&
           digest == o.digest && stats == o.stats;
  }
};

// One engine config applied to one backend.
RunRecord RunConfig(GraphView g, const std::vector<int64_t>& ids,
                    const std::string& engine, int threads) {
  EchoAlgorithm alg(g);
  const int max_rounds = EchoAlgorithm::kRounds + 4;
  RunRecord rec;
  if (engine == "network") {
    local::Network net(g, ids);
    rec.rounds = net.Run(alg, max_rounds);
    rec.messages = net.messages_delivered();
    rec.digest = net.last_digest();
    rec.stats = net.round_stats();
  } else if (engine == "parallel") {
    local::ParallelNetwork net(g, ids, threads);
    rec.rounds = net.Run(alg, max_rounds);
    rec.messages = net.messages_delivered();
    rec.digest = net.last_digest();
    rec.stats = net.round_stats();
  } else {
    local::ReferenceNetwork net(g, ids);
    rec.rounds = net.Run(alg, max_rounds);
    rec.messages = net.messages_delivered();
    rec.digest = net.last_digest();
    rec.stats = net.round_stats();
  }
  return rec;
}

struct Workload {
  std::string name;
  Graph graph;
};

// Two disjoint uniform trees plus isolated nodes — the multi-component case.
Graph MultiComponent(int n_each, uint64_t seed) {
  std::vector<std::pair<int, int>> edges;
  const Graph a = UniformRandomTree(n_each, seed);
  const Graph b = UniformRandomTree(n_each, seed + 1);
  for (int e = 0; e < a.NumEdges(); ++e) edges.push_back(a.Endpoints(e));
  for (int e = 0; e < b.NumEdges(); ++e) {
    auto [u, v] = b.Endpoints(e);
    edges.emplace_back(u + n_each, v + n_each);
  }
  return Graph::FromEdges(2 * n_each + 3, std::move(edges));  // +3 isolated
}

std::vector<Workload> Workloads() {
  std::vector<Workload> w;
  w.push_back({"tree", UniformRandomTree(257, 11)});
  w.push_back({"forest_union", ForestUnion(120, 3, 5)});
  w.push_back({"star_union", StarUnion(150, 2, 7)});
  w.push_back({"hubbed", HubbedForest(140, 3, 9)});
  w.push_back({"multi_component", MultiComponent(90, 13)});
  // Two spanning stars: each center's degree is ~n, so its stream passes
  // the 255-byte long-stream sentinel and its block is wide.
  w.push_back({"long_stream_star_union", StarUnion(600, 2, 7)});
  return w;
}

TEST(GraphBackendParityTest, EngineMatrixBitIdentical) {
  struct Config {
    const char* engine;
    int threads;
  };
  const std::vector<Config> configs = {
      {"network", 1},  {"parallel", 1}, {"parallel", 2}, {"parallel", 8},
      {"reference", 1},
  };
  for (const Workload& w : Workloads()) {
    const Graph& g = w.graph;
    const CompactGraph compact = CompactGraph::FromGraph(g);
    MappedCgr mapped(compact, w.name);
    ASSERT_EQ(compact.NumNodes(), g.NumNodes()) << w.name;
    ASSERT_EQ(compact.NumEdges(), g.NumEdges()) << w.name;
    if (w.name == "long_stream_star_union") {
      ASSERT_GE(compact.MaxDegree(), 255);  // >= 255 entries, >= 255 bytes
    }
    const auto ids = DefaultIds(g.NumNodes(), 1000 + g.NumNodes());
    for (const Config& c : configs) {
      const RunRecord base = RunConfig(g, ids, c.engine, c.threads);
      const RunRecord ram = RunConfig(compact, ids, c.engine, c.threads);
      const RunRecord map = RunConfig(mapped.graph, ids, c.engine, c.threads);
      const std::string tag =
          w.name + "/" + c.engine + "/T" + std::to_string(c.threads);
      EXPECT_EQ(base.digest, ram.digest) << tag;
      EXPECT_TRUE(base == ram) << tag << " (in-RAM compact diverged)";
      EXPECT_TRUE(base == map) << tag << " (mmap compact diverged)";
    }
  }
}

// The production pipeline on forests: rake-compress outputs, rounds,
// messages, and digests must agree across backends on every engine.
TEST(GraphBackendParityTest, RakeCompressPipelineParity) {
  for (const char* family : {"tree", "multi"}) {
    const Graph g = std::string(family) == "tree" ? UniformRandomTree(400, 21)
                                                  : MultiComponent(150, 23);
    const CompactGraph compact = CompactGraph::FromGraph(g);
    MappedCgr mapped(compact, std::string("rc_") + family);
    const auto ids = DefaultIds(g.NumNodes(), 77);
    const int k = 3;
    const RakeCompressResult base = RunRakeCompress(g, ids, k);
    for (const CompactGraph* cg :
         {&compact, const_cast<const CompactGraph*>(&mapped.graph)}) {
      const RakeCompressResult got = RunRakeCompress(*cg, ids, k);
      EXPECT_EQ(base.iteration, got.iteration) << family;
      EXPECT_EQ(base.engine_rounds, got.engine_rounds) << family;
      EXPECT_EQ(base.messages, got.messages) << family;
      EXPECT_EQ(base.round_stats, got.round_stats) << family;
      local::ReferenceNetwork ref_net(*cg, ids);
      const RakeCompressResult ref = RunRakeCompress(ref_net, k);
      EXPECT_EQ(base.round_stats, ref.round_stats) << family;
      local::Network net(*cg, ids);
      const auto deduped = RunRakeCompressDeduped(net, {k, k + 5});
      EXPECT_EQ(base.iteration, deduped[0].iteration) << family;
      EXPECT_EQ(base.round_stats, deduped[0].round_stats) << family;
    }
  }
}

// Records what the engine reports as each node's degree: ctx.degree() in
// round 0, then how many ports carried the round-0 Broadcast (which walks
// the same degree) into round 1.
class DegreeProbe : public local::Algorithm {
 public:
  struct Slot {
    int32_t degree;
    int32_t received;
  };
  size_t StateBytes() const override { return sizeof(Slot); }
  void OnRound(local::NodeContext& ctx) override {
    Slot& slot = ctx.State<Slot>();
    if (ctx.round() == 0) {
      slot.degree = ctx.degree();
      ctx.Broadcast(local::Message::Of(1));
      return;
    }
    for (int p = 0; p < slot.degree; ++p) {
      slot.received += ctx.Recv(p).present();
    }
    ctx.Halt();
  }
};

// ctx.degree() is the difference of two adjacent offsets of the engine's
// rank-ordered channel CSR, built once at construction; it must equal
// GraphView::Degree(v) for every node on every backend (node v's block
// sits at its BFS rank, not at v), on the solo engine at T in {1, 4}.
// The star's center stream exceeds 254 bytes, so the compact backend
// answers its degree from a wide block's explicit offsets.
TEST(GraphBackendParityTest, ContextDegreeMatchesGraph) {
  const std::vector<Workload> workloads = {
      {"hubbed", HubbedForest(140, 3, 9)}, {"star", Star(400)}};
  for (const Workload& w : workloads) {
    const CompactGraph compact = CompactGraph::FromGraph(w.graph);
    MappedCgr mapped(compact, "degree_" + w.name);
    if (w.name == "star") {
      ASSERT_GE(compact.MaxDegree(), 255);
    }
    const auto ids = DefaultIds(w.graph.NumNodes(), 5);
    const int n = w.graph.NumNodes();
    for (const GraphView g :
         {GraphView(w.graph), GraphView(compact), GraphView(mapped.graph)}) {
      const std::string backend = g.csr() != nullptr ? "csr"
                                  : g.compact()->mapped() ? "mapped"
                                                          : "compact";
      const std::string tag = w.name + "/" + backend;
      for (int threads : {1, 4}) {
        local::Network net(g, ids, threads, local::NetworkOptions{});
        DegreeProbe alg;
        net.Run(alg, 4);
        for (int v = 0; v < n; ++v) {
          const auto& slot = net.StateAt<DegreeProbe::Slot>(v);
          ASSERT_EQ(slot.degree, g.Degree(v))
              << tag << "/T" << threads << " node " << v;
          ASSERT_EQ(slot.received, g.Degree(v))
              << tag << "/T" << threads << " node " << v;
        }
      }
    }
  }
}

// graph_convert's promise in-process: a CompactGraph built by streaming the
// generator's edges through Builder in sorted-arc order equals (same image
// bytes) the one re-encoded from the eager Graph — and the streamed
// generators emit exactly the eager edge lists.
TEST(GraphBackendParityTest, StreamedGeneratorsMatchEager) {
  for (TreeFamily family : AllTreeFamilies()) {
    const int n = 153;
    const uint64_t seed = 31;
    const Graph eager = MakeTree(family, n, seed);
    std::vector<std::pair<int, int>> streamed;
    const int streamed_n = MakeTreeStreamed(
        family, n, seed, [&](int u, int v) { streamed.emplace_back(u, v); });
    EXPECT_EQ(streamed_n, eager.NumNodes()) << TreeFamilyName(family);
    ASSERT_EQ(static_cast<int>(streamed.size()), eager.NumEdges())
        << TreeFamilyName(family);
    for (int e = 0; e < eager.NumEdges(); ++e) {
      const auto [u, v] = streamed[static_cast<size_t>(e)];
      EXPECT_EQ(std::minmax(u, v),
                std::minmax(eager.EdgeU(e), eager.EdgeV(e)))
          << TreeFamilyName(family) << " edge " << e;
    }
  }
  // ForestUnionStreamed: the deduplicated support of the emitted multiset
  // is ForestUnion's edge set (sorted-arc dedup is what graph_convert does).
  const int n = 120, a = 3;
  const uint64_t seed = 17;
  const Graph eager = ForestUnion(n, a, seed);
  std::vector<uint64_t> arcs;
  ForestUnionStreamed(n, a, seed, [&](int u, int v) {
    arcs.push_back(static_cast<uint64_t>(u) << 32 | static_cast<uint32_t>(v));
    arcs.push_back(static_cast<uint64_t>(v) << 32 | static_cast<uint32_t>(u));
  });
  std::sort(arcs.begin(), arcs.end());
  arcs.erase(std::unique(arcs.begin(), arcs.end()), arcs.end());
  CompactGraph::Builder builder(n);
  for (uint64_t arc : arcs) {
    builder.AddArc(static_cast<int64_t>(arc >> 32),
                   static_cast<int64_t>(arc & 0xffffffffu));
  }
  const CompactGraph streamed = builder.Finish();
  const CompactGraph reencoded = CompactGraph::FromGraph(eager);
  EXPECT_EQ(streamed.Serialize(), reencoded.Serialize());
}

// Checkpoint/resume stays within the compact backend: pause a
// CompactGraph-backed run, resume it on a fresh CompactGraph-backed engine
// (mmap-opened this time), and the final digest must equal the
// uninterrupted Graph-backed run's.
TEST(GraphBackendParityTest, CompactCheckpointResume) {
  const Graph g = UniformRandomTree(500, 41);
  const CompactGraph compact = CompactGraph::FromGraph(g);
  MappedCgr mapped(compact, "ckpt");
  const auto ids = DefaultIds(g.NumNodes(), 43);
  const int k = 2;

  const int budget = 3 * (2 * RakeCompressIterationBound(500, k) + 8);
  local::Network full(g, ids);
  auto alg_full = MakeRakeCompressAlgorithm(k);
  full.Run(*alg_full, budget);

  local::Network recorder(compact, ids);
  auto alg = MakeRakeCompressAlgorithm(k);
  recorder.RunUntil(*alg, budget, 4);
  ASSERT_TRUE(recorder.paused());
  std::stringstream snap;
  recorder.Checkpoint(snap);

  local::Network resumed(mapped.graph, ids);
  resumed.Resume(snap);
  auto alg2 = MakeRakeCompressAlgorithm(k);
  resumed.Run(*alg2, budget);
  EXPECT_EQ(resumed.last_digest(), full.last_digest());
}

// A graph whose input edge order is already the canonical (min, max)-sorted
// order (a path): the Graph keeps the snapshot hash it always had, and
// cross-backend resume works.
TEST(GraphBackendParityTest, CrossBackendResumeOnCanonicalOrder) {
  const Graph g = Path(300);
  const CompactGraph compact = CompactGraph::FromGraph(g);
  std::vector<int64_t> ids(g.NumNodes());
  std::iota(ids.begin(), ids.end(), 0);
  EXPECT_EQ(local::GraphHash(g), local::GraphHash(compact));

  const int k = 2;
  const int budget = 3 * (2 * RakeCompressIterationBound(300, k) + 8);
  local::Network recorder(g, ids);
  auto alg = MakeRakeCompressAlgorithm(k);
  recorder.RunUntil(*alg, budget, 1);
  ASSERT_TRUE(recorder.paused());
  std::stringstream snap;
  recorder.Checkpoint(snap);

  local::Network resumed(compact, ids);
  resumed.Resume(snap);
  auto alg2 = MakeRakeCompressAlgorithm(k);
  resumed.Run(*alg2, budget);

  local::Network full(g, ids);
  auto alg3 = MakeRakeCompressAlgorithm(k);
  full.Run(*alg3, budget);
  EXPECT_EQ(resumed.last_digest(), full.last_digest());
}

// Snapshots bind to the topology, not to a backend's edge numbering: a
// Graph built from a shuffled edge list numbers its edges differently from
// its CompactGraph, yet both hash alike, checkpoint the same canonical
// image, and resume each other's mid-run checkpoints to a byte-identical
// final image.
TEST(GraphBackendParityTest, CrossBackendResumeOnShuffledInput) {
  EXPECT_EQ(local::GraphHash(Graph::FromEdges(4, {{2, 3}, {0, 1}, {1, 2}})),
            local::GraphHash(Path(4)));

  const int n = 400, k = 3;
  const Graph tree = UniformRandomTree(n, 71);
  std::vector<std::pair<int, int>> edges;
  for (int e = 0; e < tree.NumEdges(); ++e) {
    // Shuffled order, endpoints flipped on every other edge.
    edges.emplace_back(e % 2 ? tree.EdgeV(e) : tree.EdgeU(e),
                       e % 2 ? tree.EdgeU(e) : tree.EdgeV(e));
  }
  Rng rng(72);
  rng.Shuffle(edges);
  const Graph shuffled = Graph::FromEdges(n, edges);
  const CompactGraph compact = CompactGraph::FromGraph(shuffled);
  bool same_numbering = true;
  compact.ForEachEdge([&](int64_t e, int u, int v) {
    same_numbering &= shuffled.Endpoints(static_cast<int>(e)) ==
                      std::make_pair(u, v);
  });
  ASSERT_FALSE(same_numbering);
  std::vector<int64_t> ids(n);
  std::iota(ids.begin(), ids.end(), 0);
  EXPECT_EQ(local::GraphHash(shuffled), local::GraphHash(compact));

  local::NetworkOptions options;
  options.digest_messages = true;
  const int budget = 3 * (2 * RakeCompressIterationBound(n, k) + 8);
  auto checkpoint = [&](GraphView g, int pause) {
    local::Network net(g, ids, options);
    auto alg = MakeRakeCompressAlgorithm(k);
    net.RunUntil(*alg, budget, pause);
    std::stringstream out;
    net.Checkpoint(out);
    return out.str();
  };
  auto resume_to_end = [&](GraphView g, const std::string& bytes) {
    local::Network net(g, ids, options);
    std::stringstream in(bytes);
    net.Resume(in);
    auto alg = MakeRakeCompressAlgorithm(k);
    net.Run(*alg, budget);
    std::stringstream out;
    net.Checkpoint(out);
    return out.str();
  };
  const std::string want = checkpoint(shuffled, -1);
  EXPECT_EQ(checkpoint(compact, -1), want);
  for (int pause : {1, 5}) {
    SCOPED_TRACE("pause " + std::to_string(pause));
    EXPECT_EQ(resume_to_end(compact, checkpoint(shuffled, pause)), want);
    EXPECT_EQ(resume_to_end(shuffled, checkpoint(compact, pause)), want);
  }
}

}  // namespace
}  // namespace treelocal
