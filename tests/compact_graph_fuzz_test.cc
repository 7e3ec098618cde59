// .cgr loader fuzz matrices in the PR-6 snapshot style: every byte-prefix
// truncation, every single-bit flip, and footer-repatched payload
// mutations (including targeted varint-continuation and gap corruption in
// the stream section) must yield a structured CompactGraphError — never UB,
// a crash, or an over-allocation. The suite rides the ASan+UBSan CI job,
// where an out-of-bounds decode fails the build instead of silently
// surviving. The workload includes a long stream (>= 255 bytes) so the
// wide-block and sentinel parse paths are inside the fuzzed image, plus a
// multi-block tree for the len8 prefix-sum path.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "src/graph/compact_graph.h"
#include "src/graph/generators.h"
#include "src/graph/graph.h"
#include "src/support/digest.h"
#include "src/support/fault.h"

namespace treelocal {
namespace {

// Tree spanning several 32-node blocks, with node 0 of degree 420 (stream
// comfortably past the 255-byte sentinel, so the image carries a wide
// block).
std::string FuzzImage() {
  std::vector<std::pair<int, int>> edges;
  const int n = 512;
  for (int v = 1; v <= 420; ++v) edges.emplace_back(0, v);
  for (int v = 421; v < n; ++v) edges.emplace_back(v - 400, v);
  const Graph g = Graph::FromEdges(n, std::move(edges));
  const CompactGraph cg = CompactGraph::FromGraph(g);
  EXPECT_GE(cg.MaxDegree(), 255);  // >= 255 entries: a stream >= 255 bytes
  return cg.Serialize();
}

// Recomputes the integrity footer over a mutated payload so the structural
// validators — not the hash — are what stands between the mutation and the
// parser.
std::string RepatchFooter(std::string bytes) {
  const size_t payload = bytes.size() - 8;
  const uint64_t h = support::Fnv1a64(bytes.data(), payload);
  for (int i = 0; i < 8; ++i) {
    bytes[payload + i] = static_cast<char>(h >> (8 * i));
  }
  return bytes;
}

// A parse that succeeds must yield a graph whose accessors hold together —
// the "no partial parse accepted" half of the contract. Walking every edge
// and degree under ASan is what turns latent OOB into a test failure.
void ExpectCoherent(const CompactGraph& g) {
  int64_t edges_seen = 0;
  int64_t degree_sum = 0;
  g.ForEachEdge([&](int64_t e, int u, int v) {
    EXPECT_EQ(e, edges_seen);
    EXPECT_LT(u, v);
    EXPECT_LT(v, g.NumNodes());
    ++edges_seen;
  });
  EXPECT_EQ(edges_seen, g.NumEdges());
  for (int v = 0; v < g.NumNodes(); ++v) degree_sum += g.Degree(v);
  EXPECT_EQ(degree_sum, 2 * g.NumEdges());
}

TEST(CompactGraphFuzzTest, EveryPrefixTruncationFailsCleanly) {
  const std::string bytes = FuzzImage();
  ASSERT_GT(bytes.size(), 600u);
  for (size_t keep = 0; keep < bytes.size(); ++keep) {
    EXPECT_THROW(CompactGraph::FromBytes(support::TruncateBytes(bytes, keep)),
                 CompactGraphError)
        << "prefix of " << keep << " bytes parsed";
  }
  EXPECT_NO_THROW(CompactGraph::FromBytes(bytes));
}

TEST(CompactGraphFuzzTest, EveryByteBitFlipFailsCleanly) {
  const std::string bytes = FuzzImage();
  for (size_t byte = 0; byte < bytes.size(); ++byte) {
    const size_t bit = byte * 8 + (byte % 8);
    EXPECT_THROW(CompactGraph::FromBytes(support::FlipBit(bytes, bit)),
                 CompactGraphError)
        << "bit flip at byte " << byte << " parsed";
  }
}

// Adversarial corruption with a passing hash: every payload byte XORed
// with patterns chosen to hit varint continuations (0x80: turns a
// terminator into a dangling continuation or vice versa), gap values
// (0x7f: blows a small gap out of range / breaks minimality), and a
// generic scramble (0x2b). The structural decode must reject or the
// surviving image must be fully coherent; nothing else may escape.
TEST(CompactGraphFuzzTest, PatchedFooterMutationsNeverEscapeCleanErrors) {
  const std::string bytes = FuzzImage();
  const size_t payload = bytes.size() - 8;
  int64_t parsed = 0, rejected = 0;
  for (const unsigned char pattern : {0x2b, 0x80, 0x7f}) {
    for (size_t byte = 0; byte < payload; ++byte) {
      std::string mutated = bytes;
      mutated[byte] = static_cast<char>(mutated[byte] ^ pattern);
      mutated = RepatchFooter(std::move(mutated));
      try {
        const CompactGraph g = CompactGraph::FromBytes(std::move(mutated));
        ExpectCoherent(g);
        ++parsed;
      } catch (const CompactGraphError&) {
        ++rejected;
      }
      // Any other exception type (or UB under ASan/UBSan) fails the test.
    }
  }
  EXPECT_GT(rejected, 0);
  EXPECT_EQ(parsed + rejected, 3 * static_cast<int64_t>(payload));
}

// The mmap open path shares the cheap validation (streamed footer hash,
// header and section bounds) — truncations and flips of the on-disk file
// must fail with the same structured error, with the file actually going
// through OpenMapped.
TEST(CompactGraphFuzzTest, MappedOpenRejectsTruncationsAndFlips) {
  const std::string bytes = FuzzImage();
  const std::string path = ::testing::TempDir() + "fuzz_mapped.cgr";
  const auto write = [&](const std::string& content) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(content.data(), static_cast<std::streamsize>(content.size()));
  };
  // Every 13th truncation point plus the boundaries (full I/O per probe).
  for (size_t keep = 0; keep < bytes.size(); keep += 13) {
    write(support::TruncateBytes(bytes, keep));
    EXPECT_THROW(CompactGraph::OpenMapped(path), CompactGraphError)
        << "mapped prefix of " << keep << " bytes parsed";
  }
  for (size_t byte = 0; byte < bytes.size(); byte += 13) {
    write(support::FlipBit(bytes, byte * 8 + (byte % 8)));
    EXPECT_THROW(CompactGraph::OpenMapped(path), CompactGraphError)
        << "mapped bit flip at byte " << byte << " parsed";
  }
  write(bytes);
  EXPECT_NO_THROW(CompactGraph::OpenMapped(path));
  std::remove(path.c_str());
}

// Header-level adversarial fields with a passing hash: n, m, max_degree,
// stream_bytes and wide_blocks blown up must be rejected by the range and
// division-form bounds checks before any allocation sized from them (the
// "never over-allocation" half).
TEST(CompactGraphFuzzTest, OversizedHeaderCountsAreStructuredErrors) {
  const std::string bytes = FuzzImage();
  const auto with_u64 = [&](size_t offset, uint64_t value) {
    std::string mutated = bytes;
    for (int i = 0; i < 8; ++i) {
      mutated[offset + i] = static_cast<char>(value >> (8 * i));
    }
    return RepatchFooter(std::move(mutated));
  };
  // Header layout: magic(8) version(4) flags(4) n(8) m(8) max_degree(8)
  // stream_bytes(8) wide_blocks(8).
  const size_t n_off = 16, m_off = 24, max_degree_off = 32, stream_off = 40,
               wide_blocks_off = 48;
  for (const auto& [offset, value] :
       std::vector<std::pair<size_t, uint64_t>>{
           {n_off, uint64_t{1} << 40},           // n beyond the node limit
           {n_off, ~uint64_t{0}},                // negative n
           {m_off, uint64_t{1} << 60},           // m past any real graph
           {max_degree_off, uint64_t{1} << 40},  // max_degree beyond n
           {max_degree_off, ~uint64_t{0}},       // negative max_degree
           {stream_off, ~uint64_t{0}},           // stream_bytes past the file
           {wide_blocks_off, uint64_t{1} << 60},  // wide_off section overflows
       }) {
    EXPECT_THROW(CompactGraph::FromBytes(with_u64(offset, value)),
                 CompactGraphError)
        << "header u64 at " << offset << " = " << value << " parsed";
  }
}

}  // namespace
}  // namespace treelocal
