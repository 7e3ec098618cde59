// Registry residency quota: max_graphs / max_bytes caps with idle-LRU
// eviction. The serving contract under eviction is threefold and pinned
// here end-to-end over the wire: (1) a graph busy with a queued or running
// solve is never evicted — its in-flight results are bit-identical to a
// solo run even when churn evicts everything idle around it; (2) an
// evicted graph re-registers cleanly (fresh admission, same content key,
// same digests afterwards); (3) when the quota is full of busy graphs,
// registration fails with the structured kRejected retry signal — naming
// the counts — instead of unbounded residency. The eviction counter rides
// the kStats wire round-trip.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/decomposition.h"
#include "src/core/rake_compress.h"
#include "src/graph/generators.h"
#include "src/graph/graph.h"
#include "src/local/network.h"
#include "src/local/reference_network.h"
#include "src/serve/client.h"
#include "src/serve/protocol.h"
#include "src/serve/registry.h"
#include "src/serve/server.h"

namespace treelocal::serve {
namespace {

class ServeQuotaTest : public ::testing::Test {
 protected:
  void StartServer(const Server::Options& opt) {
    server_ = std::make_unique<Server>(opt);
    std::string error;
    ASSERT_TRUE(server_->Start(&error)) << error;
  }

  std::unique_ptr<Client> Connect() {
    auto c = std::make_unique<Client>();
    std::string error;
    EXPECT_TRUE(c->Connect("127.0.0.1", server_->port(), &error)) << error;
    return c;
  }

  std::unique_ptr<Server> server_;
};

std::vector<std::pair<int32_t, int32_t>> EdgesOf(const Graph& g) {
  std::vector<std::pair<int32_t, int32_t>> edges;
  edges.reserve(g.NumEdges());
  for (int e = 0; e < g.NumEdges(); ++e) edges.push_back(g.Endpoints(e));
  return edges;
}

// Direct registry semantics, no sockets: LRU order, the bytes cap, and
// the structured over-quota error.
TEST_F(ServeQuotaTest, RegistryEvictsIdleLruAndNamesCountsWhenFull) {
  Registry reg(Registry::Options{/*max_graphs=*/2, /*max_bytes=*/0});
  const auto admit = [&](int seed) {
    const Graph g = UniformRandomTree(40, seed);
    const auto edges = EdgesOf(g);
    bool fresh = false;
    Registry::AdmitResult result = Registry::AdmitResult::kInvalid;
    std::string error;
    auto rg = reg.Register(g.NumNodes(), edges, {}, &fresh, &result, &error);
    EXPECT_TRUE(rg != nullptr) << error;
    EXPECT_EQ(result, Registry::AdmitResult::kAdmitted);
    return rg;
  };

  auto a = admit(1);
  auto b = admit(2);
  const uint64_t key_a = a->key, key_b = b->key;
  // Touch a so b becomes the LRU entry, then release both client refs —
  // only then are they idle and evictable.
  EXPECT_TRUE(reg.Find(key_a) != nullptr);
  a.reset();
  b.reset();

  auto c = admit(3);
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_EQ(reg.evictions(), 1u);
  EXPECT_TRUE(reg.Find(key_b) == nullptr) << "LRU entry should be evicted";
  EXPECT_TRUE(reg.Find(key_a) != nullptr) << "recently used entry survives";

  // With every resident graph busy (we hold c, and a's handle re-fetched),
  // a fresh registration has no victim: structured kOverQuota naming the
  // resident count.
  auto a_again = reg.Find(key_a);
  {
    const Graph g = UniformRandomTree(40, 4);
    const auto edges = EdgesOf(g);
    bool fresh = false;
    Registry::AdmitResult result = Registry::AdmitResult::kAdmitted;
    std::string error;
    auto rg = reg.Register(g.NumNodes(), edges, {}, &fresh, &result, &error);
    EXPECT_TRUE(rg == nullptr);
    EXPECT_EQ(result, Registry::AdmitResult::kOverQuota);
    EXPECT_NE(error.find("2 resident"), std::string::npos) << error;
    EXPECT_NE(error.find("no idle graph to evict"), std::string::npos)
        << error;
  }
  EXPECT_EQ(reg.evictions(), 1u);

  // A bytes cap smaller than any single graph rejects even an empty
  // registry's first admission — the error names the byte counts.
  Registry tiny(Registry::Options{/*max_graphs=*/0, /*max_bytes=*/64});
  const Graph g = Path(10);
  const auto edges = EdgesOf(g);
  bool fresh = false;
  Registry::AdmitResult result = Registry::AdmitResult::kAdmitted;
  std::string error;
  auto rg = tiny.Register(g.NumNodes(), edges, {}, &fresh, &result, &error);
  EXPECT_TRUE(rg == nullptr);
  EXPECT_EQ(result, Registry::AdmitResult::kOverQuota);
  EXPECT_NE(error.find("cap 64"), std::string::npos) << error;
}

// Each resident graph's engine is part of its quota charge and dies with
// it: the bytes cap counts the engine, and evicting an idle graph releases
// the engine's bytes along with the graph's.
TEST_F(ServeQuotaTest, EvictingIdleGraphReleasesItsEngine) {
  const Graph ga = UniformRandomTree(2000, 5);
  const Graph gb = UniformRandomTree(2000, 6);
  const size_t graph_bytes = ga.MemoryBytes() + 2000 * sizeof(int64_t);
  const auto admit = [](Registry& reg, const Graph& g,
                        Registry::AdmitResult* result) {
    bool fresh = false;
    std::string error;
    return reg.Register(g.NumNodes(), EdgesOf(g), {}, &fresh, result, &error);
  };

  // A cap that fits the graph and its ids but not its engine rejects it.
  Registry::AdmitResult result = Registry::AdmitResult::kAdmitted;
  Registry graph_only(Registry::Options{0, graph_bytes});
  EXPECT_TRUE(admit(graph_only, ga, &result) == nullptr);
  EXPECT_EQ(result, Registry::AdmitResult::kOverQuota);

  Registry reg(Registry::Options{/*max_graphs=*/1, /*max_bytes=*/0});
  auto a = admit(reg, ga, &result);
  ASSERT_TRUE(a != nullptr);
  ASSERT_TRUE(a->engine != nullptr);
  const size_t engine_bytes = a->engine->EngineMemory().total();
  // At least the two 2m-slot mailboxes of 12-byte slots.
  EXPECT_GE(engine_bytes, size_t{2 * 2 * 12} * a->graph.NumEdges());
  EXPECT_EQ(a->memory_bytes, graph_bytes + engine_bytes);
  EXPECT_EQ(reg.resident_bytes(), a->memory_bytes);

  const std::weak_ptr<const ResidentGraph> evicted = a;
  a.reset();  // idle: only the registry holds it
  auto b = admit(reg, gb, &result);
  ASSERT_TRUE(b != nullptr);
  EXPECT_EQ(reg.evictions(), 1u);
  EXPECT_TRUE(evicted.expired()) << "the evicted entry and its engine live on";
  EXPECT_EQ(reg.resident_bytes(), b->memory_bytes);
}

// Over the wire: a graph with an outstanding ticket survives quota
// pressure (the register that would need to evict it is kRejected); once
// the ticket drains it is evictable, the eviction counter shows up in
// kStats, and the evicted graph re-registers fresh with an unchanged
// digest.
TEST_F(ServeQuotaTest, BusyGraphIsNotEvictedAndRejectionIsStructured) {
  Server::Options opt;
  opt.max_graphs = 1;
  StartServer(opt);
  auto c = Connect();
  std::string error;

  const Graph tree = UniformRandomTree(20000, 17);
  uint64_t key = 0;
  bool fresh = false;
  ASSERT_TRUE(c->RegisterGraph(tree, {}, &key, &fresh, &error)) << error;
  EXPECT_TRUE(fresh);

  // Baseline digest from a quiet solve.
  SolveSpec spec;
  spec.kind = SolveKind::kRakeCompress;
  spec.k = 3;
  SolveResult baseline;
  ASSERT_TRUE(c->SolveAndWait(key, spec, &baseline, &error)) << error;

  // Submit a stack of tickets without fetching: from the moment a Submit
  // succeeds, its ticket holds the graph until it reaches a terminal
  // state, so the quota has no idle victim while any of them is queued or
  // running and the second registration must be bounced with the
  // structured retry status.
  uint64_t tickets[4] = {};
  for (uint64_t& t : tickets) {
    ASSERT_TRUE(c->Solve(key, spec, &t, &error)) << error;
  }
  const Graph other = UniformRandomTree(80, 19);
  uint64_t other_key = 0;
  std::string reject_error;
  EXPECT_FALSE(
      c->RegisterGraph(other, {}, &other_key, &fresh, &reject_error));
  EXPECT_NE(reject_error.find("rejected"), std::string::npos)
      << reject_error;
  EXPECT_NE(reject_error.find("no idle graph to evict"), std::string::npos)
      << reject_error;

  // The in-flight solves are unaffected by the quota pressure: each one
  // lands kDone with the quiet-run result (coalesced or not).
  for (const uint64_t t : tickets) {
    TicketState state = TicketState::kQueued;
    SolveResult res;
    std::string why;
    ASSERT_TRUE(c->Fetch(t, /*block=*/true, &state, &res, &why, &error))
        << error;
    ASSERT_EQ(state, TicketState::kDone) << why;
    EXPECT_EQ(res, baseline);
  }

  // Drained tickets = idle graph: the registration now evicts it. The
  // engine pass drops its own graph reference a beat after the last
  // ticket's terminal state becomes fetchable, hence the short retry.
  bool registered = false;
  for (int attempt = 0; attempt < 200 && !registered; ++attempt) {
    registered = c->RegisterGraph(other, {}, &other_key, &fresh, &error);
    if (!registered) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ASSERT_TRUE(registered) << error;
  EXPECT_TRUE(fresh);
  ServerStats stats;
  ASSERT_TRUE(c->Stats(&stats, &error)) << error;
  EXPECT_EQ(stats.evicted, 1u);
  EXPECT_EQ(stats.graphs, 1u);

  // The evicted key is gone; solving it is a structured kUnknownGraph.
  uint64_t dead_ticket = 0;
  std::string unknown_error;
  EXPECT_FALSE(c->Solve(key, spec, &dead_ticket, &unknown_error));
  EXPECT_NE(unknown_error.find("unknown-graph"), std::string::npos)
      << unknown_error;

  // Re-registration is clean — fresh admission, same content key, and the
  // digest of the same workload is unchanged by the eviction round-trip.
  uint64_t key2 = 0;
  ASSERT_TRUE(c->RegisterGraph(tree, {}, &key2, &fresh, &error)) << error;
  EXPECT_TRUE(fresh);
  EXPECT_EQ(key2, key);
  SolveResult after;
  ASSERT_TRUE(c->SolveAndWait(key2, spec, &after, &error)) << error;
  EXPECT_EQ(after, baseline);
}

// Resident engines take Network's BFS layout at every size: on a graph
// above 2^18 nodes (where resident engines once switched to the caller's
// labels) the daemon's rake-compress is byte-identical to ReferenceNetwork
// on the caller's labels, and its decomposition to a solo Network.
TEST_F(ServeQuotaTest, LargeResidentGraphRunsRelabeled) {
  const Graph above = UniformRandomTree((1 << 18) + 1, 42);
  StartServer(Server::Options{});
  auto c = Connect();
  std::string error;
  uint64_t key = 0;
  bool fresh = false;
  ASSERT_TRUE(c->RegisterGraph(above, {}, &key, &fresh, &error)) << error;

  const int n = above.NumNodes();
  std::vector<int64_t> ids(n);
  for (int v = 0; v < n; ++v) ids[v] = v;

  SolveSpec spec;
  spec.kind = SolveKind::kRakeCompress;
  spec.k = 2;
  SolveResult got;
  ASSERT_TRUE(c->SolveAndWait(key, spec, &got, &error)) << error;
  local::ReferenceNetwork reference(above, ids);
  const RakeCompressResult rc = RunRakeCompress(reference, 2);
  SolveResult want;
  want.kind = SolveKind::kRakeCompress;
  want.engine_rounds = want.total_rounds = rc.engine_rounds;
  want.messages = rc.messages;
  want.digest = reference.last_digest();
  want.iterations = rc.num_iterations;
  EXPECT_TRUE(got == want);

  spec.kind = SolveKind::kDecomposition;
  spec.a = 1;
  spec.k = 5;
  ASSERT_TRUE(c->SolveAndWait(key, spec, &got, &error)) << error;
  local::Network solo(above, ids);
  const DecompositionResult dr = RunDecomposition(solo, 1, 2, 5);
  want.kind = SolveKind::kDecomposition;
  want.engine_rounds = want.total_rounds = dr.engine_rounds;
  want.messages = dr.messages;
  want.digest = solo.last_digest();
  want.iterations = dr.num_layers;
  EXPECT_TRUE(got == want);
}

// Churn: one thread solving a pinned workload while another registers a
// stream of distinct graphs through a 2-graph quota. Every solve digest
// must equal the quiet baseline (re-registering on eviction), and the
// final stats must show real eviction traffic with the resident count
// still under the cap.
TEST_F(ServeQuotaTest, ConcurrentChurnKeepsDigestsStable) {
  Server::Options opt;
  opt.max_graphs = 2;
  StartServer(opt);

  const Graph tree = UniformRandomTree(300, 29);
  SolveSpec spec;
  spec.kind = SolveKind::kRakeCompress;
  spec.k = 2;

  SolveResult baseline;
  {
    auto c = Connect();
    std::string error;
    uint64_t key = 0;
    bool fresh = false;
    ASSERT_TRUE(c->RegisterGraph(tree, {}, &key, &fresh, &error)) << error;
    ASSERT_TRUE(c->SolveAndWait(key, spec, &baseline, &error)) << error;
  }

  std::atomic<int> solves_ok{0};
  std::atomic<int> mismatches{0};
  std::thread solver([&] {
    auto c = Connect();
    std::string error;
    for (int i = 0; i < 25; ++i) {
      // The churn thread may have evicted the workload between iterations;
      // registering again is the documented client recovery and must be
      // transcript-invisible.
      uint64_t key = 0;
      bool fresh = false;
      if (!c->RegisterGraph(tree, {}, &key, &fresh, &error)) continue;
      SolveResult res;
      if (!c->SolveAndWait(key, spec, &res, &error)) continue;
      ++solves_ok;
      if (!(res == baseline)) ++mismatches;
    }
  });
  std::thread churner([&] {
    auto c = Connect();
    std::string error;
    for (int i = 0; i < 40; ++i) {
      const Graph g = UniformRandomTree(60, 1000 + i);
      uint64_t key = 0;
      bool fresh = false;
      // kRejected while both residents are busy is expected and harmless.
      c->RegisterGraph(g, {}, &key, &fresh, &error);
    }
  });
  solver.join();
  churner.join();

  EXPECT_GT(solves_ok.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);

  auto c = Connect();
  std::string error;
  ServerStats stats;
  ASSERT_TRUE(c->Stats(&stats, &error)) << error;
  EXPECT_GT(stats.evicted, 0u);
  EXPECT_LE(stats.graphs, 2u);
}

}  // namespace
}  // namespace treelocal::serve
