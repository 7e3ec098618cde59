#include "src/graph/compact_graph.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <type_traits>

#include "src/support/digest.h"

namespace treelocal {

namespace {

constexpr size_t kHeaderBytes = 8 + 4 + 4 + 8 + 8 + 8 + 8 + 8;  // 56

size_t Pad8(size_t x) { return (x + 7) & ~size_t{7}; }

void AppendU32(std::string& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}
void AppendU64(std::string& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void Fail(const std::string& msg) {
  throw CompactGraphError("invalid .cgr image: " + msg);
}
void Require(bool ok, const std::string& msg) {
  if (!ok) Fail(msg);
}

// Minimal-length LEB128 of a non-negative value < 2^32.
void AppendVarint(std::string& out, uint32_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>(v | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

}  // namespace

CompactGraph::~CompactGraph() {
  if (map_addr_ != nullptr) munmap(map_addr_, map_len_);
}

CompactGraph::CompactGraph(CompactGraph&& other) noexcept {
  *this = std::move(other);
}

CompactGraph& CompactGraph::operator=(CompactGraph&& other) noexcept {
  if (this == &other) return *this;
  if (map_addr_ != nullptr) munmap(map_addr_, map_len_);
  owned_ = std::move(other.owned_);
  map_addr_ = other.map_addr_;
  map_len_ = other.map_len_;
  other.map_addr_ = nullptr;
  other.map_len_ = 0;
  n_ = other.n_;
  m_ = other.m_;
  max_degree_ = other.max_degree_;
  stream_bytes_ = other.stream_bytes_;
  wide_blocks_ = other.wide_blocks_;
  // Section pointers alias the image; re-derive for the owned case (the
  // string's buffer may move with it), copy for the mapped case.
  if (!owned_.empty()) {
    data_ = reinterpret_cast<const unsigned char*>(owned_.data());
    size_ = owned_.size();
    const ptrdiff_t shift = data_ - other.data_;
    const auto move_ptr = [shift](auto*& p) {
      if (p != nullptr) {
        p = reinterpret_cast<std::remove_reference_t<decltype(p)>>(
            reinterpret_cast<const unsigned char*>(p) + shift);
      }
    };
    block_base_ = other.block_base_;
    wide_off_ = other.wide_off_;
    len8_ = other.len8_;
    stream_ = other.stream_;
    move_ptr(block_base_);
    move_ptr(wide_off_);
    move_ptr(len8_);
    move_ptr(stream_);
  } else {
    data_ = other.data_;
    size_ = other.size_;
    block_base_ = other.block_base_;
    wide_off_ = other.wide_off_;
    len8_ = other.len8_;
    stream_ = other.stream_;
  }
  other.data_ = nullptr;
  other.size_ = 0;
  return *this;
}

// ---------------------------------------------------------------------------
// Parsing and validation
// ---------------------------------------------------------------------------

void CompactGraph::Parse(bool full_validation) {
  Require(size_ >= kHeaderBytes + 8, "shorter than header + footer");
  const unsigned char* p = data_;
  const auto read_u32 = [&p]() {
    uint32_t v;
    std::memcpy(&v, p, 4);
    p += 4;
    return v;
  };
  const auto read_u64 = [&p]() {
    uint64_t v;
    std::memcpy(&v, p, 8);
    p += 8;
    return v;
  };
  const uint64_t magic = read_u64();
  Require(magic == kMagic, "bad magic (not a .cgr file)");
  const uint32_t version = read_u32();
  if (version != kVersion) {
    throw CompactGraphError(".cgr version " + std::to_string(version) +
                            " unsupported (this build reads version " +
                            std::to_string(kVersion) +
                            " only; regenerate the file with graph_convert)");
  }
  const uint32_t flags = read_u32();
  Require(flags == 0, "unknown flag bits set");
  const int64_t n64 = static_cast<int64_t>(read_u64());
  const int64_t m64 = static_cast<int64_t>(read_u64());
  Require(n64 >= 0 && n64 <= INT32_MAX,
          "node count " + std::to_string(n64) + " outside [0, 2^31)");
  Require(m64 >= 0, "negative edge count");
  n_ = static_cast<int>(n64);
  m_ = m64;
  const int64_t max_degree64 = static_cast<int64_t>(read_u64());
  stream_bytes_ = read_u64();
  wide_blocks_ = read_u64();
  Require(max_degree64 >= 0 && max_degree64 <= n_,
          "max_degree outside [0, n]");
  max_degree_ = static_cast<int>(max_degree64);

  const uint64_t nb = (static_cast<uint64_t>(n_) + 31) / 32;
  Require(wide_blocks_ <= nb, "more wide blocks than blocks");
  // Section bounds, division form so corrupt counts cannot overflow the
  // product before the check rejects them.
  const size_t body = size_ - 8;  // excludes the integrity footer
  size_t off = kHeaderBytes;
  const auto take = [&](uint64_t count, uint64_t elem_bytes,
                        const char* what) {
    Require(elem_bytes == 0 || count <= (body - off) / elem_bytes,
            std::string(what) + " section larger than the remaining image");
    const unsigned char* section = data_ + off;
    off = Pad8(off + count * elem_bytes);
    Require(off <= body, std::string(what) + " section padding overruns");
    return section;
  };
  block_base_ = reinterpret_cast<const uint64_t*>(take(nb, 8, "block_base"));
  wide_off_ =
      reinterpret_cast<const uint64_t*>(take(33 * wide_blocks_, 8, "wide_off"));
  len8_ = take(static_cast<uint64_t>(n_), 1, "len8");
  stream_ = take(stream_bytes_, 1, "stream");
  Require(off == body, "trailing bytes after the stream section");

  // Cheap structural bounds that keep every accessor inside the image,
  // validated even on the mmap fast path: the index tables are O(n) to
  // scan without touching the stream pages.
  uint64_t prev_end = 0;
  for (uint64_t b = 0; b < nb; ++b) {
    const uint64_t base = block_base_[b];
    if ((base & kWideBit) != 0) {
      const uint64_t w = base & ~kWideBit;
      Require(w < wide_blocks_, "wide-block index out of range");
      const uint64_t* wo = wide_off_ + 33 * w;
      Require(wo[0] == prev_end, "wide block offset breaks stream continuity");
      for (int j = 0; j < 33; ++j) {
        Require(wo[j] <= stream_bytes_, "wide offset past the stream");
        if (j > 0) Require(wo[j] >= wo[j - 1], "wide offsets not monotone");
      }
      // NodeLen reads len8 unless it is the sentinel, so the two must agree.
      const uint64_t lo = 32 * b;
      const uint64_t hi = std::min<uint64_t>(lo + 32, n_);
      for (uint64_t v = lo; v < hi; ++v) {
        const uint64_t len = wo[v - lo + 1] - wo[v - lo];
        Require(len8_[v] == 255 ? len >= 255 && len <= UINT32_MAX
                                : len == len8_[v],
                "wide-block offsets disagree with len8");
      }
      prev_end = wo[32];
    } else {
      Require(base == prev_end, "block offset breaks stream continuity");
      uint64_t end = base;
      const uint64_t lo = 32 * b;
      const uint64_t hi = std::min<uint64_t>(lo + 32, n_);
      for (uint64_t v = lo; v < hi; ++v) {
        Require(len8_[v] != 255, "long-stream sentinel inside a narrow block");
        end += len8_[v];
      }
      Require(end <= stream_bytes_, "narrow block runs past the stream");
      prev_end = end;
    }
  }
  Require(n_ == 0 || prev_end == stream_bytes_,
          "blocks do not cover the whole stream");

  if (full_validation) {
    // Full O(n + m) structural decode. Pass 1: per-node streams (varint
    // shape, ranges, ordering, degree and upper totals). Pass 2:
    // adjacency symmetry via an expected-lowers CSR — when node v is
    // decoded, every u < v already recorded what v's lower entries must
    // be, in order.
    std::vector<int64_t> lower_off(static_cast<size_t>(n_) + 1, 0);
    int64_t entries = 0;
    int64_t uppers = 0;
    int computed_max_degree = 0;
    for (int v = 0; v < n_; ++v) {
      const uint64_t node_off = NodeOffset(v);
      const uint64_t len = NodeLen(v);
      Require(node_off + len <= stream_bytes_, "node stream past the end");
      const unsigned char* q = stream_ + node_off;
      const unsigned char* const end = q + len;
      int deg = 0;
      int node_uppers = 0;
      int prev = -1;
      int64_t i = 0;
      // Error messages are built only on failure: this loop runs 2m times.
      while (q < end) {
        const unsigned char* const vstart = q;
        uint64_t raw = 0;
        int shift = 0;
        while (true) {
          if (q >= end) Fail("varint runs past the node stream");
          const unsigned char byte = *q++;
          if (shift >= 35) Fail("varint longer than 5 bytes");
          raw |= static_cast<uint64_t>(byte & 0x7f) << shift;
          shift += 7;
          if ((byte & 0x80) == 0) {
            if (q - vstart != 1 && byte == 0) {
              Fail("non-minimal varint encoding");
            }
            break;
          }
        }
        if (raw > static_cast<uint64_t>(INT32_MAX)) Fail("entry overflows");
        if (i > 0 && raw == 0) Fail("zero gap entry");
        // The first entry is absolute; int64 keeps prev + gap from
        // overflowing before the range check below.
        const int64_t value = (i == 0 ? 0 : prev) + static_cast<int64_t>(raw);
        // value > prev implies value >= 0 (prev starts at -1).
        if (value <= prev || value >= n_ || value == v) {
          Fail("adjacency of node " + std::to_string(v) + " at entry " +
               std::to_string(i) + " is not a strictly ascending in-range " +
               "neighbor list (value " + std::to_string(value) + ")");
        }
        prev = static_cast<int>(value);
        ++deg;
        node_uppers += value > v ? 1 : 0;
        ++i;
      }
      entries += deg;
      uppers += node_uppers;
      lower_off[static_cast<size_t>(v) + 1] = deg - node_uppers;
      computed_max_degree = std::max(computed_max_degree, deg);
    }
    Require(uppers == m_, "upper-entry total disagrees with m");
    Require(entries == 2 * m_, "entry total is not 2m (asymmetric adjacency)");
    Require(computed_max_degree == max_degree_,
            "max_degree disagrees with the stream");
    for (int v = 0; v < n_; ++v) lower_off[v + 1] += lower_off[v];
    std::vector<int32_t> expected(static_cast<size_t>(lower_off[n_]));
    std::vector<int64_t> cursor(lower_off.begin(), lower_off.end() - 1);
    for (int v = 0; v < n_; ++v) {
      // Every u < v naming v as an upper has already been decoded, so
      // expected[lower_off[v]..cursor[v]) is final. Equal counts plus the
      // pointwise compare of two strictly-ascending sequences pins exact
      // set equality — without the count check, unfilled zero-initialized
      // slots could alias a claimed neighbor 0.
      int64_t j = lower_off[v];
      bool ok = cursor[v] == lower_off[v + 1];
      ForEachNeighbor(v, [&](int u) {
        if (u < v) {
          ok = ok && j < lower_off[v + 1] && expected[j] == u;
          ++j;
        } else {
          if (cursor[u] < lower_off[u + 1]) expected[cursor[u]] = v;
          ++cursor[u];
        }
      });
      Require(ok && j == lower_off[v + 1],
              "asymmetric adjacency at node " + std::to_string(v) +
                  " (a neighbor list names it but it does not reciprocate)");
    }
  }
}

CompactGraph CompactGraph::FromBytes(std::string bytes) {
  CompactGraph g;
  g.owned_ = std::move(bytes);
  g.data_ = reinterpret_cast<const unsigned char*>(g.owned_.data());
  g.size_ = g.owned_.size();
  Require(g.size_ >= 8, "shorter than the integrity footer");
  uint64_t stored = 0;
  for (int i = 0; i < 8; ++i) {
    stored |= static_cast<uint64_t>(g.data_[g.size_ - 8 + i]) << (8 * i);
  }
  const uint64_t actual = support::Fnv1a64(g.data_, g.size_ - 8);
  if (stored != actual) {
    throw CompactGraphError(
        ".cgr integrity hash mismatch (truncated or corrupted file)");
  }
  g.Parse(/*full_validation=*/true);
  return g;
}

CompactGraph CompactGraph::FromFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw CompactGraphError("cannot open " + path);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (in.bad()) throw CompactGraphError("read error on " + path);
  return FromBytes(std::move(bytes));
}

CompactGraph CompactGraph::OpenMapped(const std::string& path) {
  const int fd = open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw CompactGraphError("cannot open " + path + ": " +
                            std::strerror(errno));
  }
  struct stat st{};
  if (fstat(fd, &st) != 0 || st.st_size < 0) {
    close(fd);
    throw CompactGraphError("cannot stat " + path);
  }
  const size_t size = static_cast<size_t>(st.st_size);
  if (size < 8) {
    close(fd);
    throw CompactGraphError(path + ": shorter than the integrity footer");
  }
  // Streaming integrity check through a small buffer: faults no mapping
  // pages, so the open itself stays at constant RSS and the stream is
  // paged in lazily by actual adjacency access.
  {
    std::ifstream in(path, std::ios::binary);
    std::vector<char> buf(1 << 20);
    uint64_t h = support::kDigestSeed;
    size_t remaining = size - 8;
    while (remaining > 0) {
      const size_t chunk = std::min(remaining, buf.size());
      in.read(buf.data(), static_cast<std::streamsize>(chunk));
      if (static_cast<size_t>(in.gcount()) != chunk) {
        close(fd);
        throw CompactGraphError("read error on " + path);
      }
      h = support::Fnv1a64(buf.data(), chunk, h);
      remaining -= chunk;
    }
    char footer[8];
    in.read(footer, 8);
    uint64_t stored = 0;
    for (int i = 0; i < 8; ++i) {
      stored |= static_cast<uint64_t>(static_cast<uint8_t>(footer[i]))
                << (8 * i);
    }
    if (!in || stored != h) {
      close(fd);
      throw CompactGraphError(
          path + ": integrity hash mismatch (truncated or corrupted file)");
    }
  }
  void* addr = mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  close(fd);
  if (addr == MAP_FAILED) {
    throw CompactGraphError("mmap failed on " + path + ": " +
                            std::strerror(errno));
  }
  CompactGraph g;
  g.map_addr_ = addr;
  g.map_len_ = size;
  g.data_ = static_cast<const unsigned char*>(addr);
  g.size_ = size;
  try {
    g.Parse(/*full_validation=*/false);
  } catch (...) {
    throw;  // g's destructor unmaps
  }
  return g;
}

void CompactGraph::WriteFile(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw CompactGraphError("cannot create " + path);
  out.write(reinterpret_cast<const char*>(data_),
            static_cast<std::streamsize>(size_));
  if (!out) throw CompactGraphError("write error on " + path);
}

// ---------------------------------------------------------------------------
// Accessors
// ---------------------------------------------------------------------------

void CompactGraph::CheckNode(int v, const char* who) const {
  if (v < 0 || v >= n_) {
    throw CompactGraphError(std::string(who) + ": node " + std::to_string(v) +
                            " out of range [0, " + std::to_string(n_) + ")");
  }
}

int CompactGraph::NeighborAt(int v, int p) const {
  CheckNode(v, "CompactGraph::NeighborAt");
  if (p >= 0) {
    const unsigned char* q = stream_ + NodeOffset(v);
    const unsigned char* const end = q + NodeLen(v);
    int prev = 0;
    for (int i = 0; q < end; ++i) {
      prev += static_cast<int>(DecodeVarint(q));
      if (i == p) return prev;
    }
  }
  throw CompactGraphError("CompactGraph::NeighborAt: port out of range");
}

int CompactGraph::PortOf(int v, int u) const {
  CheckNode(v, "CompactGraph::PortOf");
  const unsigned char* q = stream_ + NodeOffset(v);
  const unsigned char* const end = q + NodeLen(v);
  int prev = 0;
  for (int i = 0; q < end; ++i) {
    prev += static_cast<int>(DecodeVarint(q));
    if (prev == u) return i;
    if (prev > u) return -1;
  }
  return -1;
}

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

CompactGraph CompactGraph::FromGraph(const Graph& g) {
  Builder b(g.NumNodes());
  for (int v = 0; v < g.NumNodes(); ++v) {
    for (int u : g.Neighbors(v)) b.AddArc(v, u);
  }
  return b.Finish();
}

CompactGraph::Builder::Builder(int64_t n) : n_(n) {
  if (n < 0 || n > INT32_MAX) {
    throw CompactGraphError("CompactGraph::Builder: node count " +
                            std::to_string(n) + " outside [0, 2^31)");
  }
  len8_.reserve(static_cast<size_t>(n));
}

void CompactGraph::Builder::AddArc(int64_t v, int64_t u) {
  if (finished_) throw CompactGraphError("Builder: AddArc after Finish");
  if (v < 0 || v >= n_ || u < 0 || u >= n_) {
    throw CompactGraphError("Builder: arc (" + std::to_string(v) + ", " +
                            std::to_string(u) + ") endpoint outside [0, " +
                            std::to_string(n_) + ")");
  }
  if (u == v) {
    throw CompactGraphError("Builder: self-loop at node " + std::to_string(v));
  }
  if (v < cur_) {
    throw CompactGraphError("Builder: arcs not sorted (node " +
                            std::to_string(v) + " after node " +
                            std::to_string(cur_) + ")");
  }
  while (cur_ < v) {
    CloseNode();
  }
  if (u <= prev_) {
    throw CompactGraphError(
        "Builder: adjacency of node " + std::to_string(v) +
        (u == prev_ ? " has duplicate neighbor " : " not sorted at neighbor ") +
        std::to_string(u));
  }
  AppendVarint(stream_, static_cast<uint32_t>(degree_ == 0 ? u : u - prev_));
  prev_ = u;
  ++degree_;
  ++total_entries_;
  if (u > v) ++total_uppers_;
}

void CompactGraph::Builder::CloseNode() {
  const uint64_t len = stream_.size() - node_start_;
  if (len >= 255) {
    // Long stream: sentinel length, and the whole block goes wide.
    if (len > UINT32_MAX) {
      throw CompactGraphError("Builder: node stream exceeds 4 GiB");
    }
    len8_.push_back(255);
    block_wide_ = true;
  } else {
    len8_.push_back(static_cast<uint8_t>(len));
  }
  block_offsets_.push_back(node_start_);
  node_start_ = stream_.size();
  max_degree_ = std::max(max_degree_, static_cast<int>(degree_));
  degree_ = 0;
  prev_ = -1;
  ++cur_;
  if ((cur_ & 31) == 0 || cur_ == n_) CloseBlock();
}

void CompactGraph::Builder::CloseBlock() {
  if (block_offsets_.empty()) return;
  if (block_wide_) {
    block_base_.push_back(kWideBit | (wide_off_.size() / 33));
    for (uint64_t off : block_offsets_) wide_off_.push_back(off);
    // Pad the partial final block; the end entry is the stream size.
    while (wide_off_.size() % 33 != 32) wide_off_.push_back(stream_.size());
    wide_off_.push_back(stream_.size());
  } else {
    block_base_.push_back(block_offsets_[0]);
  }
  block_offsets_.clear();
  block_wide_ = false;
}

std::string CompactGraph::Builder::FinishImage() {
  if (finished_) throw CompactGraphError("Builder: Finish called twice");
  while (cur_ < n_) CloseNode();
  finished_ = true;
  if (total_entries_ != 2 * total_uppers_) {
    throw CompactGraphError(
        "Builder: entry total " + std::to_string(total_entries_) +
        " is not twice the upper total " + std::to_string(total_uppers_) +
        " — some edge was fed in one direction only");
  }
  std::string out;
  const size_t wide_blocks = wide_off_.size() / 33;
  out.reserve(kHeaderBytes + 8 * (block_base_.size() + wide_off_.size()) +
              Pad8(len8_.size()) + Pad8(stream_.size()) + 8);
  AppendU64(out, kMagic);
  AppendU32(out, kVersion);
  AppendU32(out, 0);  // flags
  AppendU64(out, static_cast<uint64_t>(n_));
  AppendU64(out, static_cast<uint64_t>(total_uppers_));
  AppendU64(out, static_cast<uint64_t>(max_degree_));
  AppendU64(out, stream_.size());
  AppendU64(out, wide_blocks);
  const auto pad = [&out]() { out.append(Pad8(out.size()) - out.size(), '\0'); };
  for (uint64_t b : block_base_) AppendU64(out, b);
  for (uint64_t o : wide_off_) AppendU64(out, o);
  out.append(reinterpret_cast<const char*>(len8_.data()), len8_.size());
  pad();
  out.append(stream_);
  pad();
  const uint64_t hash = support::Fnv1a64(out.data(), out.size());
  AppendU64(out, hash);
  std::string().swap(stream_);  // the builder is spent; free the big buffer
  return out;
}

}  // namespace treelocal
