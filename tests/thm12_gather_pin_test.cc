// Pins Theorem 12's phase-3 outputs (Algorithm 2: gather every rake
// component at its highest node) to recorded values, so the gather's round
// charge — the paper's cost measure — cannot drift when the component
// bookkeeping behind it is reworked. Each row was recorded once and must be
// reproduced by the solo, sharded (T=3) and k-sweep
// (SolveNodeProblemOnTreeBatch, ks = {2,3,5}) entry points alike, down to
// an FNV-1a hash of the final labeling.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/transform_node.h"
#include "src/graph/generators.h"
#include "src/problems/coloring.h"
#include "src/problems/mis.h"
#include "src/support/rng.h"

namespace treelocal {
namespace {

enum class Pinned { kMis, kColoring };

struct Pin {
  int n;
  Pinned problem;
  int k;
  int num_rake_components;
  int max_rake_component_diameter;
  int rounds_gather;
  int rounds_total;
  uint64_t labeling_hash;
};

// Uniform random tree with seed 7, DefaultIds seed 8, id space n^3.
constexpr Pin kPins[] = {
    {16384, Pinned::kMis, 2, 6227, 2, 5, 72, 0xf5a4d754565bc57cull},
    {16384, Pinned::kMis, 3, 3832, 1, 3, 135, 0x6734e70c126b0163ull},
    {16384, Pinned::kMis, 5, 308, 0, 1, 178, 0x5515184c2d84e601ull},
    {16384, Pinned::kColoring, 2, 6227, 2, 5, 72, 0xeebd8dd3b285f43cull},
    {16384, Pinned::kColoring, 3, 3832, 1, 3, 135, 0x6dc10938244944bfull},
    {16384, Pinned::kColoring, 5, 308, 0, 1, 178, 0x9df0647c723dea07ull},
    {65536, Pinned::kMis, 2, 24988, 3, 7, 74, 0x554acd04c53a9d5full},
    {65536, Pinned::kMis, 3, 16104, 1, 3, 135, 0x74e7bfcbe45f39b6ull},
    {65536, Pinned::kMis, 5, 1365, 0, 1, 178, 0xa72b319acdc649a8ull},
    {65536, Pinned::kColoring, 2, 24988, 3, 7, 74, 0x94dd23849a4c1e18ull},
    {65536, Pinned::kColoring, 3, 16104, 1, 3, 135, 0x43164a3ae6e4f93dull},
    {65536, Pinned::kColoring, 5, 1365, 0, 1, 178, 0x38b80543f785e457ull},
};

uint64_t LabelingHash(const Graph& g, const HalfEdgeLabeling& labeling) {
  uint64_t h = 1469598103934665603ull;
  for (int e = 0; e < g.NumEdges(); ++e) {
    for (int slot = 0; slot < 2; ++slot) {
      h ^= static_cast<uint64_t>(labeling.GetSlot(e, slot));
      h *= 1099511628211ull;
    }
  }
  return h;
}

std::unique_ptr<NodeProblem> MakeProblem(Pinned p) {
  if (p == Pinned::kMis) return std::make_unique<MisProblem>();
  return std::make_unique<ColoringProblem>(
      ColoringProblem::Mode::kDegPlusOne, 0);
}

void ExpectPinned(const Pin& pin, const Graph& tree, const Thm12Result& r,
                  const char* entry) {
  SCOPED_TRACE(testing::Message()
               << entry << " n=" << pin.n << " problem="
               << (pin.problem == Pinned::kMis ? "mis" : "coloring")
               << " k=" << pin.k);
  EXPECT_TRUE(r.valid) << r.why;
  EXPECT_EQ(r.num_rake_components, pin.num_rake_components);
  EXPECT_EQ(r.max_rake_component_diameter, pin.max_rake_component_diameter);
  EXPECT_EQ(r.rounds_gather, pin.rounds_gather);
  EXPECT_EQ(r.rounds_total, pin.rounds_total);
  EXPECT_EQ(LabelingHash(tree, r.labeling), pin.labeling_hash);
}

TEST(Thm12GatherPinTest, SoloParallelAndBatchMatchRecordedValues) {
  const std::vector<int> ks = {2, 3, 5};
  for (int n : {1 << 14, 1 << 16}) {
    const Graph tree = UniformRandomTree(n, 7);
    const std::vector<int64_t> ids = DefaultIds(n, 8);
    const int64_t id_space = static_cast<int64_t>(n) * n * n;
    for (Pinned p : {Pinned::kMis, Pinned::kColoring}) {
      const auto problem = MakeProblem(p);
      const std::vector<Thm12Result> batch =
          SolveNodeProblemOnTreeBatch(*problem, tree, ids, id_space, ks);
      ASSERT_EQ(batch.size(), ks.size());
      for (size_t i = 0; i < ks.size(); ++i) {
        const int k = ks[i];
        const Pin* pin = nullptr;
        for (const Pin& candidate : kPins) {
          if (candidate.n == n && candidate.problem == p && candidate.k == k) {
            pin = &candidate;
          }
        }
        ASSERT_NE(pin, nullptr);
        ExpectPinned(*pin, tree,
                     SolveNodeProblemOnTree(*problem, tree, ids, id_space, k),
                     "solo");
        ExpectPinned(*pin, tree,
                     SolveNodeProblemOnTree(*problem, tree, ids, id_space, k,
                                            3),
                     "parallel");
        ExpectPinned(*pin, tree, batch[i], "batch");
      }
    }
  }
}

}  // namespace
}  // namespace treelocal
