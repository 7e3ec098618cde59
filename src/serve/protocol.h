#ifndef TREELOCAL_SERVE_PROTOCOL_H_
#define TREELOCAL_SERVE_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace treelocal::serve {

// Wire protocol of treelocald, the resident solver daemon. Deliberately
// small: every message is one length-prefixed frame
//
//   [u32 magic "TLD1"][u32 payload_len][payload_len bytes]
//
// with all integers little-endian. A request payload is [u8 opcode][body];
// a response payload is [u8 status][body] where status 0 is success and
// anything else is a Status error code followed by a length-prefixed
// message string. The codec below is pure byte manipulation with no socket
// or engine dependencies, so the malformed-frame fuzz tests exercise
// exactly the code the daemon runs, decoder-first.
//
// Robustness contract (pinned by tests/serve_protocol_test.cc): decoding
// NEVER reads out of bounds and NEVER throws; every strict prefix of a
// valid encoding fails with a structured error (all variable-length parts
// carry explicit counts and a decode must consume its payload exactly), and
// arbitrarily corrupted bytes either decode to a well-formed request or
// fail the same way — the daemon answers with an error frame and lives on.

inline constexpr uint32_t kMagic = 0x31444C54u;  // "TLD1" little-endian
inline constexpr uint32_t kProtocolVersion = 1;
// Frames above this payload size are rejected before any allocation — a
// corrupted length prefix must not become a multi-GiB read.
inline constexpr uint32_t kMaxFramePayload = 1u << 26;  // 64 MiB
inline constexpr size_t kFrameHeaderBytes = 8;

enum class Op : uint8_t {
  kPing = 0,
  kRegisterGraph = 1,
  kSolve = 2,
  kFetch = 3,
  kCancel = 4,
  kStats = 5,
  kShutdown = 6,
};

enum class Status : uint8_t {
  kOk = 0,
  kMalformedFrame = 1,  // header/body truncated or trailing bytes
  kBadMagic = 2,
  kOversizeFrame = 3,
  kBadRequest = 4,   // decoded fine, semantically invalid
  kBadGraph = 5,     // edge list rejected at admission
  kUnknownGraph = 6,
  kUnknownTicket = 7,
  kShuttingDown = 8,
  kInternal = 9,
  kRejected = 10,  // admission queue full; retry after a drain
};

const char* StatusName(Status s);

// What the daemon solves. kRakeCompress and kThm12Node requests on the same
// resident graph coalesce into one pass with one engine run per distinct
// parameter (batch = concurrent users); kThm15Edge and kDecomposition run
// solo. Every run is on the dispatcher thread, on the graph's engine.
enum class SolveKind : uint8_t {
  kRakeCompress = 0,
  kThm12Node = 1,
  kThm15Edge = 2,
  kDecomposition = 3,
};

// Problem selector for the theorem pipelines (ignored by kRakeCompress and
// kDecomposition). Node problems pair with kThm12Node, edge problems with
// kThm15Edge; a mismatch is kBadRequest.
enum class ProblemId : uint8_t {
  kNone = 0,
  kColoringDeltaPlusOne = 1,
  kColoringDegPlusOne = 2,
  kMis = 3,
  kEdgeColoringTwoDeltaMinusOne = 4,
  kEdgeColoringEdgeDegreePlusOne = 5,
  kMatching = 6,
};

struct SolveSpec {
  SolveKind kind = SolveKind::kRakeCompress;
  ProblemId problem = ProblemId::kNone;
  int32_t k = 2;
  int32_t a = 1;           // arboricity bound (kThm15Edge / kDecomposition)
  int32_t max_rounds = 0;  // engine-round budget; 0 = paper bound
};

// Ticket lifecycle as reported by kFetch / kCancel.
enum class TicketState : uint8_t {
  kQueued = 0,
  kRunning = 1,
  kDone = 2,
  kCancelled = 3,
  kFailed = 4,
};

const char* TicketStateName(TicketState s);

// Engine-level result of a solve. `digest` is the transcript digest chain
// of the run's engine-bound phase (rake-compress / decomposition rounds),
// folded from the per-round stats exactly as the engines fold it — so it is
// cross-checkable against a solo Network run or a transcript_verify replay
// of the same workload.
struct SolveResult {
  SolveKind kind = SolveKind::kRakeCompress;
  uint8_t valid = 1;            // pipeline validity (theorem kinds)
  uint32_t engine_rounds = 0;   // rounds of the digest-bearing phase
  uint32_t total_rounds = 0;    // whole-pipeline rounds (== engine_rounds
                                // for the bare engine kinds)
  int64_t messages = 0;         // engine messages of that phase
  uint64_t digest = 0;
  uint32_t iterations = 0;      // rake-compress iterations / decomposition
                                // layers; 0 for the theorem kinds
  friend bool operator==(const SolveResult&, const SolveResult&) = default;
};

// Counters returned by kStats. Fill factor of the coalescing dispatcher is
// batched_requests / batches; queue_depth and inflight must both drain to 0
// when the daemon is idle (the fuzz tests pin that no malformed request
// leaks a queue slot).
struct ServerStats {
  uint64_t graphs = 0;
  uint64_t requests = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t cancelled = 0;
  uint64_t rejected = 0;          // solves bounced by the admission cap
  uint64_t evicted = 0;           // graphs dropped by the registry quota
  uint64_t batches = 0;           // dispatcher engine passes
  uint64_t batched_requests = 0;  // requests served by those passes
  uint64_t max_batch = 0;         // widest coalesced pass
  uint64_t queue_depth = 0;
  uint64_t max_queue_depth = 0;
  uint64_t inflight = 0;
  uint64_t engine_rounds = 0;
  uint64_t engine_messages = 0;
  uint64_t protocol_errors = 0;
  uint64_t uptime_micros = 0;
  friend bool operator==(const ServerStats&, const ServerStats&) = default;
};

// Decoded request: `op` selects which of the optional sections is
// meaningful.
struct Request {
  Op op = Op::kPing;
  // kRegisterGraph
  int32_t n = 0;
  std::vector<std::pair<int32_t, int32_t>> edges;
  std::vector<int64_t> ids;  // empty = server assigns 0..n-1
  // kSolve
  uint64_t graph_key = 0;
  SolveSpec spec;
  // kFetch / kCancel
  uint64_t ticket = 0;
  bool block = false;  // kFetch: wait for a terminal state
};

// Decoded response.
struct Response {
  Status status = Status::kOk;
  std::string error;  // non-empty iff status != kOk
  // kPing
  uint32_t version = 0;
  // kRegisterGraph
  uint64_t graph_key = 0;
  int32_t n = 0;
  int32_t m = 0;
  bool fresh = false;  // newly admitted (vs already resident)
  // kSolve
  uint64_t ticket = 0;
  // kFetch / kCancel
  TicketState state = TicketState::kQueued;
  SolveResult result;  // meaningful iff state == kDone
  std::string why;     // failure reason iff state == kFailed
  // kStats
  ServerStats stats;
};

// --- bounded-buffer codec ---------------------------------------------------

// Little-endian append-only writer.
class ByteWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(v); }
  void U32(uint32_t v);
  void U64(uint64_t v);
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void Str(const std::string& s);
  std::vector<uint8_t> Take() { return std::move(buf_); }
  const std::vector<uint8_t>& bytes() const { return buf_; }

 private:
  std::vector<uint8_t> buf_;
};

// Bounds-checked little-endian reader. Reads past the end set fail() and
// return zero values; callers check ok() once at the end (and Exhausted()
// to reject trailing bytes) instead of sprinkling branches.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  uint8_t U8();
  uint32_t U32();
  uint64_t U64();
  int32_t I32() { return static_cast<int32_t>(U32()); }
  int64_t I64() { return static_cast<int64_t>(U64()); }
  std::string Str();

  bool ok() const { return !fail_; }
  bool Exhausted() const { return pos_ == size_ && !fail_; }
  size_t remaining() const { return size_ - pos_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool fail_ = false;
};

// --- framing ----------------------------------------------------------------

// Prepends the frame header to a payload.
std::vector<uint8_t> EncodeFrame(const std::vector<uint8_t>& payload);

// Validates an 8-byte frame header; on kOk, *payload_len is the body size
// the caller must read next.
Status DecodeFrameHeader(const uint8_t* header, size_t size,
                         uint32_t* payload_len);

// --- requests ---------------------------------------------------------------

std::vector<uint8_t> EncodePing();
std::vector<uint8_t> EncodeRegisterGraph(
    int32_t n, const std::vector<std::pair<int32_t, int32_t>>& edges,
    const std::vector<int64_t>& ids);
std::vector<uint8_t> EncodeSolve(uint64_t graph_key, const SolveSpec& spec);
std::vector<uint8_t> EncodeFetch(uint64_t ticket, bool block);
std::vector<uint8_t> EncodeCancel(uint64_t ticket);
std::vector<uint8_t> EncodeStats();
std::vector<uint8_t> EncodeShutdown();

// Decodes a request payload (the bytes after the frame header). Returns
// kOk and fills *out, or a structured error; never throws, never reads out
// of bounds.
Status DecodeRequest(const uint8_t* payload, size_t size, Request* out);

// --- responses --------------------------------------------------------------

std::vector<uint8_t> EncodeError(Status status, const std::string& message);
std::vector<uint8_t> EncodePingResponse();
std::vector<uint8_t> EncodeRegisterGraphResponse(uint64_t key, int32_t n,
                                                 int32_t m, bool fresh);
std::vector<uint8_t> EncodeSolveResponse(uint64_t ticket);
std::vector<uint8_t> EncodeFetchResponse(TicketState state,
                                         const SolveResult& result,
                                         const std::string& why);
std::vector<uint8_t> EncodeCancelResponse(TicketState state);
std::vector<uint8_t> EncodeStatsResponse(const ServerStats& stats);
std::vector<uint8_t> EncodeShutdownResponse();

// Decodes a response payload for a given request opcode (the client knows
// what it asked). Same robustness contract as DecodeRequest.
Status DecodeResponse(Op op, const uint8_t* payload, size_t size,
                      Response* out);

}  // namespace treelocal::serve

#endif  // TREELOCAL_SERVE_PROTOCOL_H_
