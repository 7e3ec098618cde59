// Crash-safety contract of the snapshot subsystem (src/local/snapshot.h):
//   * checkpoint at any round boundary, resume in a fresh process-equivalent
//     engine, and the continued run is bit-identical to the uninterrupted
//     one — for every engine class x relabel on/off x thread count, and
//     across engine classes (the image is canonical);
//   * the byte format round-trips, and every truncation or corruption of
//     the byte stream fails with a clean SnapshotError, never UB.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/rake_compress.h"
#include "src/graph/generators.h"
#include "src/graph/graph.h"
#include "src/local/network.h"
#include "src/local/parallel_network.h"
#include "src/local/reference_network.h"
#include "src/local/snapshot.h"
#include "src/support/digest.h"
#include "src/support/fault.h"
#include "src/support/rng.h"

namespace treelocal {
namespace {

using local::Algorithm;
using local::Network;
using local::NetworkOptions;
using local::ParallelNetwork;
using local::ReadSnapshot;
using local::ReconstructGraph;
using local::ReferenceNetwork;
using local::kSnapshotVersion;
using local::SnapshotData;
using local::SnapshotEngineKind;
using local::SnapshotError;
using local::SnapshotVersionError;
using local::WriteSnapshot;

constexpr int kMaxRounds = 1000;

std::string CheckpointBytes(const local::Engine& net) {
  std::ostringstream out;
  net.Checkpoint(out);
  return out.str();
}

SnapshotData ParseBytes(const std::string& bytes) {
  std::istringstream in(bytes);
  return ReadSnapshot(in);
}

void ResumeBytes(local::Engine& net, const std::string& bytes) {
  std::istringstream in(bytes);
  net.Resume(in);
}

// The uninterrupted run's final canonical image — the "want" of every
// bit-identity comparison below. Taken on the serial Network without
// relabel; every other configuration must reproduce it exactly (up to the
// informational engine tag, which the caller normalizes).
SnapshotData FinalImage(const Graph& g, const std::vector<int64_t>& ids,
                        int k, bool digest_messages) {
  NetworkOptions opt;
  opt.digest_messages = digest_messages;
  Network net(g, ids, opt);
  auto alg = MakeRakeCompressAlgorithm(k);
  net.Run(*alg, kMaxRounds);
  return ParseBytes(CheckpointBytes(net));
}

// Checkpoints `make()` at round `pause` (or at completion when pause < 0),
// resumes the bytes into a SECOND fresh `make()` engine with a fresh
// algorithm object, runs to completion, and requires the final canonical
// image to equal `want` exactly (engine tag normalized).
template <typename MakeEngine>
void ExpectResumeBitIdentical(const Graph& g, int k, int pause,
                              const SnapshotData& want, MakeEngine make,
                              const std::string& label) {
  SCOPED_TRACE(label + " pause=" + std::to_string(pause));
  std::string bytes;
  {
    auto net = make();
    auto alg = MakeRakeCompressAlgorithm(k);
    if (pause >= 0) {
      net->RunUntil(*alg, kMaxRounds, pause);
      ASSERT_TRUE(net->paused());
    } else {
      net->Run(*alg, kMaxRounds);
      ASSERT_TRUE(net->finished());
    }
    bytes = CheckpointBytes(*net);
  }
  auto net = make();
  auto alg = MakeRakeCompressAlgorithm(k);
  ResumeBytes(*net, bytes);
  net->Run(*alg, kMaxRounds);
  ASSERT_TRUE(net->finished());
  SnapshotData got = ParseBytes(CheckpointBytes(*net));
  got.engine_kind = want.engine_kind;
  EXPECT_TRUE(got == want) << "resumed final image diverged from the "
                              "uninterrupted run";
}

TEST(SnapshotTest, ResumeBitIdentityMatrix) {
  const int n = 300, k = 3;
  const Graph g = UniformRandomTree(n, 91);
  const auto ids = DefaultIds(n, 92);
  for (bool digest_messages : {false, true}) {
    SCOPED_TRACE(std::string("digest_messages=") +
                 (digest_messages ? "1" : "0"));
    const SnapshotData want = FinalImage(g, ids, k, digest_messages);
    NetworkOptions plain, relabel;
    plain.digest_messages = relabel.digest_messages = digest_messages;
    relabel.relabel = true;
    for (int pause : {0, 1, 4, -1}) {
      ExpectResumeBitIdentical(
          g, k, pause, want,
          [&] { return std::make_unique<Network>(g, ids, plain); },
          "Network");
      ExpectResumeBitIdentical(
          g, k, pause, want,
          [&] { return std::make_unique<Network>(g, ids, relabel); },
          "Network+relabel");
      for (int threads : {1, 2, 8}) {
        ExpectResumeBitIdentical(
            g, k, pause, want,
            [&] {
              return std::make_unique<ParallelNetwork>(g, ids, threads,
                                                       relabel);
            },
            "ParallelNetwork T=" + std::to_string(threads));
      }
      ExpectResumeBitIdentical(
          g, k, pause, want,
          [&] { return std::make_unique<ReferenceNetwork>(g, ids, plain); },
          "ReferenceNetwork");
    }
  }
}

// The canonical-image guarantee in its rawest form: the snapshot an engine
// writes at round r is identical across every engine configuration except
// for the informational engine tag.
TEST(SnapshotTest, MidRunSnapshotsIdenticalAcrossEngines) {
  const int n = 257, k = 2, pause = 3;
  const Graph g = RandomRecursiveTree(n, 17);
  const auto ids = DefaultIds(n, 18);
  NetworkOptions plain, relabel;
  relabel.relabel = true;
  std::vector<SnapshotData> snaps;
  auto record = [&](auto net) {
    auto alg = MakeRakeCompressAlgorithm(k);
    net->RunUntil(*alg, kMaxRounds, pause);
    ASSERT_TRUE(net->paused());
    snaps.push_back(ParseBytes(CheckpointBytes(*net)));
  };
  record(std::make_unique<Network>(g, ids, plain));
  record(std::make_unique<Network>(g, ids, relabel));
  record(std::make_unique<ParallelNetwork>(g, ids, 8, relabel));
  record(std::make_unique<ReferenceNetwork>(g, ids, plain));
  EXPECT_EQ(snaps[0].engine_kind, SnapshotEngineKind::kNetwork);
  EXPECT_EQ(snaps[2].engine_kind, SnapshotEngineKind::kNetwork);
  EXPECT_EQ(snaps[3].engine_kind, SnapshotEngineKind::kReferenceNetwork);
  for (size_t i = 1; i < snaps.size(); ++i) {
    SnapshotData norm = snaps[i];
    norm.engine_kind = snaps[0].engine_kind;
    EXPECT_TRUE(norm == snaps[0]) << "engine config " << i
                                  << " wrote a different canonical image";
  }
}

// Checkpoint on one engine class, resume on another: the canonical image
// carries no layout, so every (recorder, resumer) pair must continue to the
// same final image. The T=1 Network pairs cross the relabel boundary in
// both directions, which pins the checkpoint gather, the resume scatter
// and the rank-order worklist rebuild.
TEST(SnapshotTest, CrossEngineResume) {
  const int n = 220, k = 3, pause = 2;
  const Graph g = BoundedDegreeRandomTree(n, 5, 33);
  const auto ids = DefaultIds(n, 34);
  const SnapshotData want = FinalImage(g, ids, k, /*digest_messages=*/true);
  NetworkOptions plain, relabel;
  plain.digest_messages = relabel.digest_messages = true;
  relabel.relabel = true;

  std::vector<std::string> recordings;
  auto record = [&](auto net) {
    auto alg = MakeRakeCompressAlgorithm(k);
    net->RunUntil(*alg, kMaxRounds, pause);
    ASSERT_TRUE(net->paused());
    recordings.push_back(CheckpointBytes(*net));
  };
  record(std::make_unique<Network>(g, ids, relabel));
  record(std::make_unique<Network>(g, ids, plain));
  record(std::make_unique<ParallelNetwork>(g, ids, 4, plain));
  record(std::make_unique<ReferenceNetwork>(g, ids, plain));

  auto finish_and_check = [&](auto net, const std::string& bytes) {
    auto alg = MakeRakeCompressAlgorithm(k);
    ResumeBytes(*net, bytes);
    net->Run(*alg, kMaxRounds);
    SnapshotData got = ParseBytes(CheckpointBytes(*net));
    got.engine_kind = want.engine_kind;
    EXPECT_TRUE(got == want);
  };
  for (size_t i = 0; i < recordings.size(); ++i) {
    SCOPED_TRACE("recording " + std::to_string(i));
    finish_and_check(std::make_unique<Network>(g, ids, plain), recordings[i]);
    finish_and_check(std::make_unique<Network>(g, ids, relabel),
                     recordings[i]);
    finish_and_check(std::make_unique<ParallelNetwork>(g, ids, 8, relabel),
                     recordings[i]);
    finish_and_check(std::make_unique<ReferenceNetwork>(g, ids, plain),
                     recordings[i]);
  }
}

// One engine class writes one tag: Network checkpoints are byte-identical
// at T = 1 and T = 4 as written — no tag normalization — mid-run and at the
// finish. Images tagged kParallelNetwork (what Network wrote at T > 1
// before) stay readable and resume like any other tag.
TEST(SnapshotTest, ThreadCountsWriteIdenticalBytes) {
  const int n = 300, k = 2;
  const Graph g = UniformRandomTree(n, 71);
  const auto ids = DefaultIds(n, 72);
  const SnapshotData want = FinalImage(g, ids, k, /*digest_messages=*/false);
  auto bytes_at = [&](Network& net, int pause) {
    auto alg = MakeRakeCompressAlgorithm(k);
    if (pause >= 0) {
      net.RunUntil(*alg, kMaxRounds, pause);
    } else {
      net.Run(*alg, kMaxRounds);
    }
    return CheckpointBytes(net);
  };
  std::string mid;
  for (const int pause : {3, -1}) {
    SCOPED_TRACE("pause=" + std::to_string(pause));
    Network serial(g, ids);
    ParallelNetwork sharded(g, ids, 4);
    const std::string bytes = bytes_at(serial, pause);
    EXPECT_EQ(bytes_at(sharded, pause), bytes);
    EXPECT_EQ(ParseBytes(bytes).engine_kind, SnapshotEngineKind::kNetwork);
    if (pause >= 0) mid = bytes;
  }

  SnapshotData tagged = ParseBytes(mid);
  tagged.engine_kind = SnapshotEngineKind::kParallelNetwork;
  std::ostringstream tagged_out;
  WriteSnapshot(tagged_out, tagged);
  EXPECT_EQ(ParseBytes(tagged_out.str()).engine_kind,
            SnapshotEngineKind::kParallelNetwork);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("resume T=" + std::to_string(threads));
    ParallelNetwork net(g, ids, threads);
    auto alg = MakeRakeCompressAlgorithm(k);
    ResumeBytes(net, tagged_out.str());
    net.Run(*alg, kMaxRounds);
    EXPECT_TRUE(ParseBytes(CheckpointBytes(net)) == want);
  }
}

// A finished engine's checkpoint, resumed and "run" again, is a no-op that
// reproduces the exact same bytes — replaying a completed transcript is
// idempotent.
TEST(SnapshotTest, FinishedSnapshotRoundTripsByteExact) {
  const int n = 150, k = 2;
  const Graph g = UniformRandomTree(n, 55);
  const auto ids = DefaultIds(n, 56);
  Network net(g, ids);
  auto alg = MakeRakeCompressAlgorithm(k);
  const int rounds = net.Run(*alg, kMaxRounds);
  const std::string bytes = CheckpointBytes(net);

  Network net2(g, ids);
  auto alg2 = MakeRakeCompressAlgorithm(k);
  ResumeBytes(net2, bytes);
  EXPECT_EQ(net2.Run(*alg2, kMaxRounds), rounds);
  EXPECT_EQ(net2.messages_delivered(), net.messages_delivered());
  EXPECT_EQ(CheckpointBytes(net2), bytes);
}

// Read-compat for images the retired batch engine wrote: the kBatchNetwork
// tag is informational, so a single-instance image carrying it resumes on
// Network bit-identically; a multi-instance image still parses but every
// engine refuses to resume it, with a SnapshotError naming the count.
TEST(SnapshotTest, BatchTaggedImagesParseAndOnlyOneInstanceResumes) {
  const int n = 140, k = 3, pause = 2;
  const Graph g = UniformRandomTree(n, 61);
  const auto ids = DefaultIds(n, 62);
  const SnapshotData want = FinalImage(g, ids, k, /*digest_messages=*/false);

  Network solo(g, ids);
  auto alg = MakeRakeCompressAlgorithm(k);
  solo.RunUntil(*alg, kMaxRounds, pause);
  ASSERT_TRUE(solo.paused());
  SnapshotData tagged = ParseBytes(CheckpointBytes(solo));
  tagged.engine_kind = SnapshotEngineKind::kBatchNetwork;
  std::ostringstream tagged_out;
  WriteSnapshot(tagged_out, tagged);
  {
    SCOPED_TRACE("one instance, batch tag");
    const SnapshotData parsed = ParseBytes(tagged_out.str());
    EXPECT_EQ(parsed.engine_kind, SnapshotEngineKind::kBatchNetwork);
    Network net(g, ids);
    auto alg2 = MakeRakeCompressAlgorithm(k);
    ResumeBytes(net, tagged_out.str());
    net.Run(*alg2, kMaxRounds);
    SnapshotData got = ParseBytes(CheckpointBytes(net));
    got.engine_kind = want.engine_kind;
    EXPECT_TRUE(got == want);
  }

  SnapshotData two = tagged;
  two.batch = 2;
  two.instances.push_back(two.instances[0]);
  std::ostringstream two_out;
  WriteSnapshot(two_out, two);
  const SnapshotData parsed = ParseBytes(two_out.str());
  EXPECT_EQ(parsed.batch, 2);
  EXPECT_EQ(parsed.instances.size(), 2u);
  auto expect_rejected = [&](auto& net, const std::string& label) {
    SCOPED_TRACE(label);
    try {
      ResumeBytes(net, two_out.str());
      FAIL() << "a 2-instance image resumed";
    } catch (const SnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find("2 instances"), std::string::npos)
          << e.what();
    }
  };
  Network net(g, ids);
  expect_rejected(net, "Network");
  ParallelNetwork par(g, ids, 2);
  expect_rejected(par, "ParallelNetwork");
  ReferenceNetwork ref(g, ids);
  expect_rejected(ref, "ReferenceNetwork");
  // A rejected resume leaves the engine unchanged and usable.
  auto alg3 = MakeRakeCompressAlgorithm(k);
  net.Run(*alg3, kMaxRounds);
  SnapshotData got = ParseBytes(CheckpointBytes(net));
  EXPECT_TRUE(got == want);
}

// Digest chains are part of the bit-identity contract directly (not just
// via snapshots): every engine produces the same per-round chain at both
// digest levels, and the content level actually changes the chain.
TEST(SnapshotTest, DigestChainsIdenticalAcrossEngines) {
  const int n = 200, k = 2;
  const Graph g = UniformRandomTree(n, 41);
  const auto ids = DefaultIds(n, 42);
  for (bool digest_messages : {false, true}) {
    NetworkOptions opt;
    opt.digest_messages = digest_messages;
    NetworkOptions relabel = opt;
    relabel.relabel = true;

    Network net(g, ids, opt);
    auto a1 = MakeRakeCompressAlgorithm(k);
    net.Run(*a1, kMaxRounds);

    ParallelNetwork par(g, ids, 8, relabel);
    auto a2 = MakeRakeCompressAlgorithm(k);
    par.Run(*a2, kMaxRounds);

    ReferenceNetwork ref(g, ids, opt);
    auto a3 = MakeRakeCompressAlgorithm(k);
    ref.Run(*a3, kMaxRounds);

    EXPECT_EQ(net.round_digests(), par.round_digests());
    EXPECT_EQ(net.round_digests(), ref.round_digests());
    EXPECT_EQ(net.round_message_accs(), par.round_message_accs());
    EXPECT_EQ(net.round_message_accs(), ref.round_message_accs());
    EXPECT_EQ(net.last_digest(), net.round_digests().back());
    if (digest_messages) {
      // The content level folds message words in: a run that sends anything
      // must chain differently from the counters-only level.
      Network plain_net(g, ids);
      auto a5 = MakeRakeCompressAlgorithm(k);
      plain_net.Run(*a5, kMaxRounds);
      EXPECT_NE(net.last_digest(), plain_net.last_digest());
      for (uint64_t acc : plain_net.round_message_accs()) EXPECT_EQ(acc, 0u);
    }
  }
}

TEST(SnapshotTest, ReconstructGraphRoundTrips) {
  const Graph g = BoundedDegreeRandomTree(90, 4, 13);
  const auto ids = DefaultIds(90, 14);
  Network net(g, ids);
  auto alg = MakeRakeCompressAlgorithm(2);
  net.Run(*alg, kMaxRounds);
  const SnapshotData snap = ParseBytes(CheckpointBytes(net));
  const Graph rebuilt = ReconstructGraph(snap);
  EXPECT_EQ(rebuilt.NumNodes(), g.NumNodes());
  EXPECT_EQ(rebuilt.NumEdges(), g.NumEdges());
  EXPECT_EQ(local::GraphHash(rebuilt), snap.graph_hash);
}

// --- Failure-path hardening -----------------------------------------------

// A one-round trivial algorithm with a different state stride than
// rake-compress, for the stride-mismatch resume check.
class HaltNowAlg : public Algorithm {
 public:
  size_t StateBytes() const override { return 1; }
  void OnRound(local::NodeContext& ctx) override { ctx.Halt(); }
};

// Pauses at round 1: every node is still live (rake-compress marks nothing
// before round 1 when the max degree exceeds k) and the round-0 degree
// broadcasts leave 2m deliverable messages in the image.
std::string RecordMidRun(const Graph& g, const std::vector<int64_t>& ids,
                         int k, bool digest_messages = false) {
  NetworkOptions opt;
  opt.digest_messages = digest_messages;
  Network net(g, ids, opt);
  auto alg = MakeRakeCompressAlgorithm(k);
  net.RunUntil(*alg, kMaxRounds, 1);
  EXPECT_TRUE(net.paused());
  return CheckpointBytes(net);
}

TEST(SnapshotTest, ResumeRejectsContractViolations) {
  const Graph g = UniformRandomTree(64, 5);
  const auto ids = DefaultIds(64, 6);
  const std::string bytes = RecordMidRun(g, ids, 2);

  // The uninterrupted run, and a checkpoint three rounds in.
  auto rake = MakeRakeCompressAlgorithm(2);
  Network whole(g, ids);
  const int total = whole.Run(*rake, kMaxRounds);
  Network recorder(g, ids);
  ASSERT_EQ(recorder.RunUntil(*rake, kMaxRounds, 3), 3);
  ASSERT_TRUE(recorder.paused());
  ASSERT_GT(total, 3);
  const std::string at3 = CheckpointBytes(recorder);

  for (const bool reference : {false, true}) {
    SCOPED_TRACE(reference ? "ReferenceNetwork" : "Network");
    const auto make = [&](const Graph& graph,
                          const std::vector<int64_t>& engine_ids,
                          const NetworkOptions& opt)
        -> std::unique_ptr<local::Engine> {
      if (reference) {
        return std::make_unique<ReferenceNetwork>(graph, engine_ids, opt);
      }
      return std::make_unique<Network>(graph, engine_ids, opt);
    };
    {  // Checkpoint of an engine that never ran.
      auto fresh = make(g, ids, {});
      std::ostringstream out;
      EXPECT_THROW(fresh->Checkpoint(out), SnapshotError);
    }
    {  // Wrong graph.
      const Graph other = UniformRandomTree(64, 99);
      auto net = make(other, ids, {});
      EXPECT_THROW(ResumeBytes(*net, bytes), SnapshotError);
    }
    {  // Same graph, different id assignment.
      auto net = make(g, DefaultIds(64, 1234), {});
      EXPECT_THROW(ResumeBytes(*net, bytes), SnapshotError);
    }
    {  // Digest-level mismatch: the chain would silently diverge, so resume
      // refuses up front.
      NetworkOptions opt;
      opt.digest_messages = true;
      auto net = make(g, ids, opt);
      EXPECT_THROW(ResumeBytes(*net, bytes), SnapshotError);
    }
    {  // Resume validates lazily against the algorithm's stride at RunUntil,
      // and the rejected call leaves the snapshot armed: the retry with the
      // right algorithm resumes at round 3. Pause round 1 is behind it, so
      // the resumed run completes (a fresh start would pause at round 1),
      // and the round timer sees only the resumed rounds.
      auto net = make(g, ids, {});
      ResumeBytes(*net, at3);
      HaltNowAlg wrong;
      EXPECT_THROW(net->Run(wrong, kMaxRounds), SnapshotError);
      net->set_record_round_times(true);
      auto retry = MakeRakeCompressAlgorithm(2);
      EXPECT_EQ(net->RunUntil(*retry, kMaxRounds, 1), total);
      EXPECT_TRUE(net->finished());
      EXPECT_EQ(net->round_seconds().size(), static_cast<size_t>(total - 3));
      EXPECT_EQ(net->round_digests(), whole.round_digests());
      EXPECT_EQ(net->round_stats(), whole.round_stats());
      EXPECT_EQ(net->messages_delivered(), whole.messages_delivered());
    }
  }
}

TEST(SnapshotTest, WriteRejectsTamperedData) {
  const Graph g = BalancedRegularTree(20, 3);
  const auto ids = DefaultIds(20, 7);
  const SnapshotData good = ParseBytes(RecordMidRun(g, ids, 2));
  auto expect_rejected = [](SnapshotData bad, const char* what) {
    std::ostringstream out;
    EXPECT_THROW(WriteSnapshot(out, bad), SnapshotError) << what;
  };
  {
    SnapshotData bad = good;
    ASSERT_FALSE(bad.instances[0].rounds.empty());
    bad.instances[0].rounds.back().digest ^= 1;
    expect_rejected(bad, "broken digest chain");
  }
  {
    SnapshotData bad = good;
    bad.instances[0].halted[3] = 2;
    expect_rejected(bad, "halt flag out of {0,1}");
  }
  {
    SnapshotData bad = good;
    ASSERT_GE(bad.instances[0].deliverable.size(), 2u);
    std::swap(bad.instances[0].deliverable.front(),
              bad.instances[0].deliverable.back());
    expect_rejected(bad, "unsorted deliverables");
  }
  {
    SnapshotData bad = good;
    bad.finished = true;  // but live nodes remain at round 2
    expect_rejected(bad, "finished with live nodes");
  }
  {
    SnapshotData bad = good;
    bad.edges[0] = {5, 2};  // violates canonical u < v
    expect_rejected(bad, "non-canonical edge order");
  }
  {
    SnapshotData bad = good;
    bad.instances[0].state.pop_back();
    expect_rejected(bad, "state plane size mismatch");
  }
  {  // The writer-side version check is the same structured error.
    SnapshotData bad = good;
    bad.version = kSnapshotVersion + 1;
    std::ostringstream out;
    EXPECT_THROW(WriteSnapshot(out, bad), SnapshotVersionError);
  }
  {
    SnapshotData bad = good;
    bad.instances[0].wake[3] = -1;  // below the snapshot round
    expect_rejected(bad, "wake round before the snapshot round");
  }
}

// Every byte-prefix truncation of a valid snapshot must fail with a clean
// SnapshotError (the integrity footer plus bounds-checked parsing — never
// a crash, never a partial parse accepted).
TEST(SnapshotTest, EveryPrefixTruncationFailsCleanly) {
  const Graph g = BalancedRegularTree(12, 3);
  const auto ids = DefaultIds(12, 3);
  const std::string bytes = RecordMidRun(g, ids, 2);
  ASSERT_GT(bytes.size(), 100u);
  for (size_t keep = 0; keep < bytes.size(); ++keep) {
    std::istringstream in(support::TruncateBytes(bytes, keep));
    EXPECT_THROW(ReadSnapshot(in), SnapshotError)
        << "prefix of " << keep << " bytes parsed";
  }
  // The untruncated stream still parses.
  EXPECT_NO_THROW(ParseBytes(bytes));
}

// Any single bit flip anywhere in the file — payload or footer — breaks
// the integrity hash and fails cleanly.
TEST(SnapshotTest, EveryByteBitFlipFailsCleanly) {
  const Graph g = BalancedRegularTree(12, 3);
  const auto ids = DefaultIds(12, 3);
  const std::string bytes = RecordMidRun(g, ids, 2, /*digest_messages=*/true);
  for (size_t byte = 0; byte < bytes.size(); ++byte) {
    const size_t bit = byte * 8 + (byte % 8);
    std::istringstream in(support::FlipBit(bytes, bit));
    EXPECT_THROW(ReadSnapshot(in), SnapshotError)
        << "bit flip at byte " << byte << " parsed";
  }
}

// Adversarial (not accidental) corruption: mutate a payload byte AND
// recompute the integrity footer so the hash passes. The structural
// validators behind it must still either reject with SnapshotError or
// accept a genuinely well-formed image — nothing else may escape.
TEST(SnapshotTest, PatchedFooterMutationsNeverEscapeCleanErrors) {
  const Graph g = BalancedRegularTree(12, 3);
  const auto ids = DefaultIds(12, 3);
  const std::string bytes = RecordMidRun(g, ids, 2);
  const size_t payload = bytes.size() - 8;
  int parsed = 0, rejected = 0;
  for (size_t byte = 0; byte < payload; ++byte) {
    std::string mutated = bytes;
    mutated[byte] = static_cast<char>(mutated[byte] ^ 0x2b);
    const uint64_t h = support::Fnv1a64(mutated.data(), payload);
    for (int i = 0; i < 8; ++i) {
      mutated[payload + i] = static_cast<char>(h >> (8 * i));
    }
    std::istringstream in(mutated);
    try {
      ReadSnapshot(in);
      ++parsed;  // e.g. the informational engine-kind byte
    } catch (const SnapshotError&) {
      ++rejected;
    }
    // Any other exception type (or UB) fails the test by escaping.
  }
  EXPECT_GT(rejected, 0);
  EXPECT_EQ(parsed + rejected, static_cast<int>(payload));
}

// Satellite: version hardening. A payload whose version field names an
// older or future format (footer re-hashed, so integrity passes) must be
// rejected with the structured SnapshotVersionError naming both the found
// and the supported version — not a generic parse failure halfway through
// a layout that silently changed shape between versions.
TEST(SnapshotTest, VersionMismatchIsAStructuredError) {
  const Graph g = BalancedRegularTree(12, 3);
  const auto ids = DefaultIds(12, 3);
  const std::string bytes = RecordMidRun(g, ids, 2);
  const size_t payload = bytes.size() - 8;
  // Version is the u32 after the 8-byte magic.
  const auto with_version = [&](uint32_t ver) {
    std::string mutated = bytes;
    for (int i = 0; i < 4; ++i) {
      mutated[8 + i] = static_cast<char>(ver >> (8 * i));
    }
    const uint64_t h = support::Fnv1a64(mutated.data(), payload);
    for (int i = 0; i < 8; ++i) {
      mutated[payload + i] = static_cast<char>(h >> (8 * i));
    }
    return mutated;
  };
  for (const uint32_t ver : {uint32_t{1}, kSnapshotVersion + 1}) {
    std::istringstream in(with_version(ver));
    try {
      ReadSnapshot(in);
      FAIL() << "version " << ver << " parsed";
    } catch (const SnapshotVersionError& e) {
      EXPECT_EQ(e.found(), ver);
      EXPECT_EQ(e.expected(), kSnapshotVersion);
      const std::string what = e.what();
      EXPECT_NE(what.find(std::to_string(ver)), std::string::npos);
      EXPECT_NE(what.find(std::to_string(kSnapshotVersion)),
                std::string::npos);
    }
  }
  EXPECT_NO_THROW(ParseBytes(with_version(kSnapshotVersion)));
}

}  // namespace
}  // namespace treelocal
