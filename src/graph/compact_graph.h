#ifndef TREELOCAL_GRAPH_COMPACT_GRAPH_H_
#define TREELOCAL_GRAPH_COMPACT_GRAPH_H_

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/graph/graph.h"

namespace treelocal {

// Thrown on any .cgr parse, validation, build, or I/O failure — never UB.
class CompactGraphError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Compressed immutable graph backend: sorted adjacency stored as
// delta-gap LEB128 varint byte streams, ~4-6 bytes/edge on tree-like
// graphs against the uncompressed CSR Graph's ~28 (nbr_ + inc_ +
// edge_u_/edge_v_ + offset_). The same simple-undirected-graph contract
// as Graph: nodes 0..n-1, per-node adjacency sorted ascending by
// neighbor, ports name positions in that order — so a CompactGraph-backed
// engine run is bit-identical to a Graph-backed one (ports, and therefore
// channels, transcripts, and digests, depend only on the sorted adjacency,
// which both backends share).
//
// On-disk format version 2 (magic "TLCGR1", little-endian, 8-aligned
// sections):
//   header: magic (8) | version u32 | flags u32 | n i64 | m i64 |
//           max_degree i64 | stream_bytes u64 | wide_blocks u64
//   sections (each padded to 8 bytes):
//     block_base  ceil(n/32) u64 — per 32-node block: bit 63 set marks a
//                 WIDE block whose low bits index wide_off; clear means
//                 the value is the stream offset of node 32b, and node
//                 offsets inside the block are len8 prefix sums
//     wide_off    33 u64 per wide block: explicit per-node offsets + end
//     len8        n u8 — node stream byte length; 255 = long-stream
//                 sentinel (stream >= 255 bytes; its block is wide)
//     stream      concatenated per-node adjacency streams
//   footer: FNV-1a u64 over all preceding bytes
// Images of any other version are refused; regenerate them with
// graph_convert.
//
// Stream encoding per node: entries sorted strictly ascending; the first
// entry is the absolute neighbor id, every later entry the gap from its
// predecessor (>= 1, stored raw). Varints are LEB128 (7 bits per byte,
// high bit = continuation), minimal-length; Degree(v) is the count of
// continuation-clear bytes in the node's stream.
//
// The backend is scan-only: every per-node query decodes the node's
// stream from its start. Engines read it once, in one ascending pass, to
// build their channel tables; nothing random-accesses edges by id.
// ForEachEdge numbers edges canonically: edge e is the e-th upper entry
// (v < u) in stream order, i.e. edges sorted lexicographically by
// (min, max). A Graph built from that sorted edge list has identical edge
// numbering.
class CompactGraph {
 public:
  CompactGraph() = default;
  ~CompactGraph();
  CompactGraph(CompactGraph&& other) noexcept;
  CompactGraph& operator=(CompactGraph&& other) noexcept;
  CompactGraph(const CompactGraph&) = delete;
  CompactGraph& operator=(const CompactGraph&) = delete;

  // Re-encodes an existing Graph (adjacency already sorted). O(n + m).
  static CompactGraph FromGraph(const Graph& g);

  // Parses and FULLY validates an in-memory image: integrity footer,
  // header ranges, section bounds (division-form, no overflow), then an
  // O(n + m) structural decode — monotone offsets, strictly-ascending
  // in-range entries, minimal varints, per-node lengths vs the index,
  // adjacency symmetry, entry total 2m and max_degree. Throws
  // CompactGraphError on any defect.
  static CompactGraph FromBytes(std::string bytes);

  // Reads the whole file into memory, then FromBytes validation.
  static CompactGraph FromFile(const std::string& path);

  // Memory-maps the file read-only so the OS pages adjacency on demand.
  // Integrity is verified by a STREAMING read of the footer hash (small
  // constant RSS — the mapping itself stays cold) plus full header and
  // section-bounds validation; the O(n + m) structural decode is skipped
  // so opening a 10^8-edge file does not fault the whole stream in. Use
  // FromFile when the producer is untrusted.
  static CompactGraph OpenMapped(const std::string& path);

  // The serialized image (header + sections + footer), as FromBytes
  // accepts and WriteFile writes.
  std::string Serialize() const { return std::string(
      reinterpret_cast<const char*>(data_), size_); }
  void WriteFile(const std::string& path) const;

  int NumNodes() const { return n_; }
  int64_t NumEdges() const { return m_; }
  int MaxDegree() const { return max_degree_; }
  bool mapped() const { return map_addr_ != nullptr; }
  // Total image bytes — the backend's whole memory footprint (resident
  // for FromBytes/FromGraph, demand-paged for OpenMapped).
  size_t MemoryBytes() const { return size_; }

  int Degree(int v) const {
    const unsigned char* p = stream_ + NodeOffset(v);
    const uint32_t len = NodeLen(v);
    int deg = 0;
    for (uint32_t i = 0; i < len; ++i) deg += (p[i] & 0x80) == 0;
    return deg;
  }

  // Neighbors in ascending order; f(int neighbor).
  template <typename F>
  void ForEachNeighbor(int v, F&& f) const {
    const unsigned char* p = stream_ + NodeOffset(v);
    const unsigned char* const end = p + NodeLen(v);
    int prev = 0;
    while (p < end) {
      prev += static_cast<int>(DecodeVarint(p));
      f(prev);
    }
  }

  // Neighbor at port p: an O(p) decode of v's stream.
  int NeighborAt(int v, int p) const;

  // Port of neighbor u in v's adjacency, or -1: a decode of v's stream up
  // to the first entry >= u.
  int PortOf(int v, int u) const;

  // Sequential O(n + m) scan emitting f(int64_t e, int u, int v) with
  // u < v and e ascending 0..m-1: the canonical edge numbering.
  template <typename F>
  void ForEachEdge(F&& f) const {
    int64_t e = 0;
    for (int v = 0; v < n_; ++v) {
      ForEachNeighbor(v, [&](int u) {
        if (u > v) f(e++, v, u);
      });
    }
  }

  // Streaming construction: feed every directed arc (v, u) — both
  // directions of every edge — sorted lexicographically by (v, u). The
  // builder holds the growing compressed image, never the edge list.
  class Builder {
   public:
    explicit Builder(int64_t n);
    void AddArc(int64_t v, int64_t u);
    // Seals remaining nodes/blocks and serializes the image. The builder
    // is spent afterwards.
    std::string FinishImage();
    // FinishImage + full FromBytes validation.
    CompactGraph Finish() { return FromBytes(FinishImage()); }

   private:
    void CloseNode();
    void CloseBlock();

    int64_t n_;
    int64_t cur_ = 0;          // node currently being encoded
    int64_t degree_ = 0;       // entries of cur_ so far
    int64_t prev_ = -1;        // last entry value of cur_
    uint64_t node_start_ = 0;  // stream offset of cur_'s first byte
    int64_t total_entries_ = 0;
    int64_t total_uppers_ = 0;
    int max_degree_ = 0;
    bool finished_ = false;
    std::string stream_;
    std::vector<uint8_t> len8_;
    std::vector<uint64_t> block_base_;
    std::vector<uint64_t> wide_off_;
    std::vector<uint64_t> block_offsets_;  // per-node offsets in open block
    bool block_wide_ = false;
  };

 private:
  static constexpr uint64_t kMagic = 0x0031524743'4c54ull;  // "TLCGR1\0\0"
  static constexpr uint32_t kVersion = 2;

  // Decodes one minimal-length LEB128 varint, advancing p. The caller
  // guarantees p points into a validated stream (FromBytes proved every
  // varint terminates in-bounds; OpenMapped trusts the producer +
  // integrity hash, and the public entry points bounds-check v/p).
  static uint32_t DecodeVarint(const unsigned char*& p) {
    uint32_t v = *p & 0x7f;
    int shift = 7;
    while ((*p++ & 0x80) != 0) {
      v |= static_cast<uint32_t>(*p & 0x7f) << shift;
      shift += 7;
    }
    return v;
  }

  uint64_t NodeOffset(int v) const {
    const uint64_t base = block_base_[v >> 5];
    if ((base & kWideBit) != 0) {
      return wide_off_[33 * (base & ~kWideBit) + (v & 31)];
    }
    uint64_t off = base;
    for (int w = v & ~31; w < v; ++w) off += len8_[w];
    return off;
  }
  uint32_t NodeLen(int v) const {
    const uint8_t len = len8_[v];
    if (len != 255) return len;
    const uint64_t base = block_base_[v >> 5];
    const uint64_t* wo = wide_off_ + 33 * (base & ~kWideBit);
    return static_cast<uint32_t>(wo[(v & 31) + 1] - wo[v & 31]);
  }

  void Parse(bool full_validation);
  void CheckNode(int v, const char* who) const;

  static constexpr uint64_t kWideBit = 1ull << 63;

  // Image storage: exactly one of owned_ / the mapping holds the bytes;
  // all section pointers alias into it.
  std::string owned_;
  void* map_addr_ = nullptr;
  size_t map_len_ = 0;
  const unsigned char* data_ = nullptr;
  size_t size_ = 0;

  int n_ = 0;
  int64_t m_ = 0;
  int max_degree_ = 0;
  uint64_t stream_bytes_ = 0;
  uint64_t wide_blocks_ = 0;
  const uint64_t* block_base_ = nullptr;
  const uint64_t* wide_off_ = nullptr;
  const unsigned char* len8_ = nullptr;
  const unsigned char* stream_ = nullptr;
};

}  // namespace treelocal

#endif  // TREELOCAL_GRAPH_COMPACT_GRAPH_H_
