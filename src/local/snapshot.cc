#include "src/local/snapshot.h"

#include <algorithm>
#include <istream>
#include <iterator>
#include <ostream>

#include "src/support/digest.h"

namespace treelocal::local {

namespace {

using support::ChainDigest;
using support::Fnv1a64;
using support::kDigestSeed;

// ---------------------------------------------------------------------------
// Little-endian fixed-width byte encoding (platform-independent: the
// snapshot is a wire artifact, not an in-memory dump).
// ---------------------------------------------------------------------------

class ByteWriter {
 public:
  void U8(uint8_t v) { bytes_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) bytes_.push_back(static_cast<char>(v >> (8 * i)));
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes_.push_back(static_cast<char>(v >> (8 * i)));
  }
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void Raw(const void* data, size_t n) {
    const char* p = static_cast<const char*>(data);
    bytes_.append(p, n);
  }

  const std::string& bytes() const { return bytes_; }

 private:
  std::string bytes_;
};

// Bounds-checked cursor over the (already integrity-verified) payload.
// Every read still validates remaining length, so even a hash-colliding
// corruption can only produce a clean SnapshotError, never UB.
class ByteReader {
 public:
  ByteReader(const char* data, size_t size) : data_(data), size_(size) {}

  uint8_t U8() {
    Need(1, "u8");
    return static_cast<uint8_t>(data_[pos_++]);
  }
  uint32_t U32() {
    Need(4, "u32");
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }
  uint64_t U64() {
    Need(8, "u64");
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }
  int32_t I32() { return static_cast<int32_t>(U32()); }
  int64_t I64() { return static_cast<int64_t>(U64()); }
  void Raw(void* dst, size_t n, const char* what) {
    Need(n, what);
    std::copy(data_ + pos_, data_ + pos_ + n, static_cast<char*>(dst));
    pos_ += n;
  }

  size_t remaining() const { return size_ - pos_; }

 private:
  void Need(size_t n, const char* what) {
    if (size_ - pos_ < n) {
      throw SnapshotError(std::string("truncated snapshot: need ") +
                          std::to_string(n) + " bytes for " + what + " at offset " +
                          std::to_string(pos_) + ", have " +
                          std::to_string(size_ - pos_));
    }
  }

  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

void Check(bool ok, const std::string& msg) {
  if (!ok) throw SnapshotError("invalid snapshot: " + msg);
}

// Structural validation shared by ReadSnapshot (untrusted bytes) and
// WriteSnapshot (engine-built images — cheap insurance against engine
// bugs): sizes, ranges, ordering, and the digest chain linkage.
void ValidateData(const SnapshotData& snap) {
  if (snap.version != kSnapshotVersion) {
    throw SnapshotVersionError(snap.version, kSnapshotVersion);
  }
  Check(snap.n >= 0, "negative node count");
  Check(snap.m >= 0, "negative edge count");
  Check(snap.round >= 0, "negative round");
  Check(static_cast<int64_t>(snap.edges.size()) == snap.m,
        "edge list size disagrees with m");
  Check(static_cast<int32_t>(snap.ids.size()) == snap.n,
        "id list size disagrees with n");
  for (const auto& [u, v] : snap.edges) {
    Check(u >= 0 && v >= 0 && u < snap.n && v < snap.n,
          "edge endpoint out of range [0, n)");
    Check(u < v, "edge endpoints not in canonical u < v order");
  }
  const SnapshotData::RunSection& run = snap.run;
  Check(run.rounds_completed >= 0 && run.rounds_completed <= snap.round,
        "rounds_completed outside [0, round]");
  Check(static_cast<int32_t>(run.rounds.size()) <= snap.round,
        "more round records than executed rounds");
  uint64_t digest = kDigestSeed;
  for (const SnapshotRound& r : run.rounds) {
    Check(r.stats.active_nodes >= 0, "negative active-node count");
    Check(r.stats.messages_sent >= 0, "negative message count");
    Check(r.stats.visits >= 0, "negative visit count");
    Check(r.stats.decisions >= 0, "negative decision count");
    digest = ChainDigest(digest, r.stats.active_nodes,
                         r.stats.messages_sent, r.msg_acc);
    Check(r.digest == digest, "digest chain broken at round record");
  }
  Check(static_cast<int32_t>(run.halted.size()) == snap.n,
        "halt-flag section size disagrees with n");
  int halted_count = 0;
  for (char h : run.halted) {
    Check(h == 0 || h == 1, "halt flag not 0/1");
    halted_count += h;
  }
  if (snap.finished) {
    Check(halted_count == snap.n, "finished snapshot with live nodes");
  }
  Check(run.state.size() ==
            static_cast<size_t>(snap.n) * run.state_stride,
        "state plane size disagrees with n * stride");
  const SnapshotMessage* prev = nullptr;
  for (const SnapshotMessage& msg : run.deliverable) {
    Check(msg.node >= 0 && msg.node < snap.n,
          "deliverable message node out of range [0, n)");
    Check(msg.port >= 0 && static_cast<int64_t>(msg.port) < 2 * snap.m,
          "deliverable message port out of range");
    Check(msg.size <= 1, "deliverable message size " +
                             std::to_string(msg.size) + " not in {0, 1}");
    if (prev != nullptr) {
      Check(prev->node < msg.node ||
                (prev->node == msg.node && prev->port < msg.port),
            "deliverable messages not strictly sorted by (node, port)");
    }
    prev = &msg;
  }
  // Canonical form: a fully-halted run records no deliverables (no node
  // will ever Recv them — see Network::SaveBoundary).
  if (snap.n > 0 && halted_count == snap.n) {
    Check(run.deliverable.empty(),
          "fully-halted run records deliverable messages");
  }
}

// Every edge as (min, max), sorted ascending: GraphHash's edge order and
// the snapshot's edge section.
std::vector<std::pair<int32_t, int32_t>> CanonicalEdges(GraphView g) {
  std::vector<std::pair<int32_t, int32_t>> edges;
  edges.reserve(static_cast<size_t>(g.NumEdges()));
  g.ForEachEdge([&](int64_t, int u, int v) {
    edges.emplace_back(std::min(u, v), std::max(u, v));
  });
  // CompactGraph and sorted-input Graphs already enumerate canonically.
  if (!std::is_sorted(edges.begin(), edges.end())) {
    std::sort(edges.begin(), edges.end());
  }
  return edges;
}

// FNV-1a over (n, m, canonical edge endpoints): GraphHash's definition.
uint64_t HashEdges(int32_t n, int64_t m,
                   const std::vector<std::pair<int32_t, int32_t>>& edges) {
  uint64_t h = kDigestSeed;
  h = Fnv1a64(&n, sizeof(n), h);
  h = Fnv1a64(&m, sizeof(m), h);
  for (const auto& [u, v] : edges) {
    const int32_t uv[2] = {u, v};
    h = Fnv1a64(uv, sizeof(uv), h);
  }
  return h;
}

}  // namespace

uint64_t GraphHash(GraphView g) {
  return HashEdges(g.NumNodes(), g.NumEdges(), CanonicalEdges(g));
}

uint64_t IdsHash(const std::vector<int64_t>& ids) {
  return Fnv1a64(ids.data(), ids.size() * sizeof(int64_t));
}

void WriteSnapshot(std::ostream& out, const SnapshotData& snap) {
  ValidateData(snap);
  ByteWriter w;
  w.U64(kSnapshotMagic);
  w.U32(snap.version);
  w.U32(snap.digest_messages ? kSnapshotFlagDigestMessages : 0);
  w.U32(static_cast<uint32_t>(snap.engine_kind));
  w.I32(snap.round);
  w.U32(snap.finished ? 1 : 0);
  w.I32(snap.n);
  w.I64(snap.m);
  w.U64(snap.graph_hash);
  w.U64(snap.ids_hash);
  for (const auto& [u, v] : snap.edges) {
    w.I32(u);
    w.I32(v);
  }
  for (int64_t id : snap.ids) w.I64(id);
  const SnapshotData::RunSection& run = snap.run;
  w.I64(run.messages_delivered);
  w.I32(run.rounds_completed);
  w.U32(static_cast<uint32_t>(run.rounds.size()));
  for (const SnapshotRound& r : run.rounds) {
    w.I32(r.stats.active_nodes);
    w.I64(r.stats.messages_sent);
    w.I64(r.stats.visits);
    w.I64(r.stats.decisions);
    w.U64(r.msg_acc);
    w.U64(r.digest);
  }
  w.Raw(run.halted.data(), run.halted.size());
  w.U32(run.state_stride);
  w.Raw(run.state.data(), run.state.size());
  w.U32(static_cast<uint32_t>(run.deliverable.size()));
  for (const SnapshotMessage& msg : run.deliverable) {
    w.I32(msg.node);
    w.I32(msg.port);
    w.I64(msg.word0);
    w.U8(msg.size);
  }
  const uint64_t file_hash = Fnv1a64(w.bytes().data(), w.bytes().size());
  out.write(w.bytes().data(), static_cast<std::streamsize>(w.bytes().size()));
  char footer[8];
  for (int i = 0; i < 8; ++i) footer[i] = static_cast<char>(file_hash >> (8 * i));
  out.write(footer, 8);
  if (!out) throw SnapshotError("snapshot write failed (stream error)");
}

SnapshotData ReadSnapshot(std::istream& in) {
  std::string buf(std::istreambuf_iterator<char>(in), {});
  if (buf.size() < 8) {
    throw SnapshotError("truncated snapshot: shorter than the integrity footer");
  }
  const size_t body = buf.size() - 8;
  uint64_t stored = 0;
  for (int i = 0; i < 8; ++i) {
    stored |= static_cast<uint64_t>(static_cast<uint8_t>(buf[body + i]))
              << (8 * i);
  }
  const uint64_t actual = Fnv1a64(buf.data(), body);
  if (stored != actual) {
    throw SnapshotError(
        "snapshot integrity hash mismatch (truncated or corrupted file)");
  }

  ByteReader r(buf.data(), body);
  SnapshotData snap;
  const uint64_t magic = r.U64();
  Check(magic == kSnapshotMagic, "bad magic (not a treelocal snapshot)");
  snap.version = r.U32();
  if (snap.version != kSnapshotVersion) {
    throw SnapshotVersionError(snap.version, kSnapshotVersion);
  }
  const uint32_t flags = r.U32();
  Check((flags & ~kSnapshotFlagDigestMessages) == 0, "unknown flag bits set");
  snap.digest_messages = (flags & kSnapshotFlagDigestMessages) != 0;
  const uint32_t kind = r.U32();
  snap.engine_kind = static_cast<SnapshotEngineKind>(kind);
  Check(snap.engine_kind == SnapshotEngineKind::kNetwork ||
            snap.engine_kind == SnapshotEngineKind::kReferenceNetwork,
        "unknown engine kind " + std::to_string(kind));
  snap.round = r.I32();
  snap.finished = r.U32() != 0;
  snap.n = r.I32();
  snap.m = r.I64();
  snap.graph_hash = r.U64();
  snap.ids_hash = r.U64();
  Check(snap.n >= 0 && snap.m >= 0, "negative graph dimensions");
  // Reject absurd sizes before any resize: the remaining payload bounds
  // every section, so a corrupted count fails here instead of allocating.
  // Division form, so a near-INT64_MAX count cannot overflow the product.
  Check(static_cast<uint64_t>(snap.m) <= r.remaining() / 8,
        "edge list larger than the remaining payload");
  snap.edges.resize(static_cast<size_t>(snap.m));
  for (auto& [u, v] : snap.edges) {
    u = r.I32();
    v = r.I32();
  }
  Check(static_cast<uint64_t>(snap.n) <= r.remaining() / 8,
        "id list larger than the remaining payload");
  snap.ids.resize(static_cast<size_t>(snap.n));
  for (int64_t& id : snap.ids) id = r.I64();
  SnapshotData::RunSection& run = snap.run;
  run.messages_delivered = r.I64();
  run.rounds_completed = r.I32();
  const uint32_t round_count = r.U32();
  Check(static_cast<uint64_t>(round_count) * 44 <= r.remaining(),
        "round records larger than the remaining payload");
  run.rounds.resize(round_count);
  for (SnapshotRound& rec : run.rounds) {
    rec.stats.active_nodes = r.I32();
    rec.stats.messages_sent = r.I64();
    rec.stats.visits = r.I64();
    rec.stats.decisions = r.I64();
    rec.msg_acc = r.U64();
    rec.digest = r.U64();
  }
  run.halted.resize(static_cast<size_t>(snap.n));
  r.Raw(run.halted.data(), run.halted.size(), "halt flags");
  run.state_stride = r.U32();
  const uint64_t state_bytes =
      static_cast<uint64_t>(snap.n) * run.state_stride;
  Check(state_bytes <= r.remaining(),
        "state plane larger than the remaining payload");
  run.state.resize(state_bytes);
  r.Raw(run.state.data(), run.state.size(), "state plane");
  const uint32_t msg_count = r.U32();
  Check(static_cast<uint64_t>(msg_count) * 17 <= r.remaining(),
        "deliverable list larger than the remaining payload");
  run.deliverable.resize(msg_count);
  for (SnapshotMessage& msg : run.deliverable) {
    msg.node = r.I32();
    msg.port = r.I32();
    msg.word0 = r.I64();
    msg.size = r.U8();
  }
  Check(r.remaining() == 0, "trailing bytes after the run section");
  ValidateData(snap);
  return snap;
}

Graph ReconstructGraph(const SnapshotData& snap) {
  std::vector<std::pair<int, int>> edges;
  edges.reserve(snap.edges.size());
  for (const auto& [u, v] : snap.edges) edges.emplace_back(u, v);
  Graph g = Graph::FromEdges(snap.n, std::move(edges));
  const uint64_t h = GraphHash(g);
  if (h != snap.graph_hash) {
    throw SnapshotError(
        "reconstructed graph does not match the stored graph hash");
  }
  return g;
}

namespace internal {

void SetInputSections(GraphView g, const std::vector<int64_t>& ids,
                      SnapshotData& snap) {
  snap.n = g.NumNodes();
  snap.m = g.NumEdges();
  snap.edges = CanonicalEdges(g);
  snap.graph_hash = HashEdges(snap.n, snap.m, snap.edges);
  snap.ids_hash = IdsHash(ids);
  snap.ids = ids;
}

void ValidateForEngine(const SnapshotData& snap, GraphView g,
                       const std::vector<int64_t>& ids, bool digest_messages,
                       const char* engine_name) {
  const std::string who = std::string(engine_name) + "::Resume: ";
  if (snap.n != g.NumNodes() || snap.m != g.NumEdges() ||
      snap.graph_hash != GraphHash(g)) {
    throw SnapshotError(who +
                        "snapshot graph hash does not match this engine's "
                        "graph (different topology)");
  }
  if (snap.ids_hash != IdsHash(ids)) {
    throw SnapshotError(who +
                        "snapshot id hash does not match this engine's ids");
  }
  if (snap.digest_messages != digest_messages) {
    throw SnapshotError(
        who +
        "digest_messages setting differs from the snapshot's — the resumed "
        "digest chain would diverge from the uninterrupted run");
  }
  if (static_cast<int32_t>(snap.run.rounds.size()) != snap.round) {
    throw SnapshotError(
        who + "solo snapshot must carry one round record per executed round");
  }
  for (const SnapshotMessage& msg : snap.run.deliverable) {
    if (msg.port >= g.Degree(msg.node)) {
      throw SnapshotError(who + "deliverable message port " +
                          std::to_string(msg.port) + " out of range for node " +
                          std::to_string(msg.node) + " (degree " +
                          std::to_string(g.Degree(msg.node)) + ")");
    }
  }
}

}  // namespace internal

}  // namespace treelocal::local
