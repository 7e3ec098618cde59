// Wake-round scheduling (Algorithm::InitialWakeRound / NodeContext::
// SleepUntil): the engine visits a node only in rounds where it declared it
// acts, waking it early whenever an observable message arrives. The
// contract under test:
//   * transcripts (round stats, message counts, digest chains, outputs) are
//     bit-identical to a run with NetworkOptions::wake_scheduling off, which
//     ignores sleeps and visits every live node every round — only
//     RoundStats::visits shrinks — across every engine, relabel, and thread
//     count;
//   * an incoming observable message always wakes a sleeping node for the
//     delivery round, even if it just re-slept (or re-parked) that round;
//   * calendar entries left stale by an early wake, or duplicated by a node
//     that stayed awake into its declared round, cost no extra visit;
//   * sleeping past max_rounds is the structured MaxRoundsExceededError,
//     not a hang, and the engine stays reusable;
//   * FaultInjector::OnVisit fires per REAL visit, so the n-th-visit kill
//     site lands later in a scheduled run than in one ignoring sleeps;
//   * engine reuse re-arms the calendar and the bucket-dedup stamps (round
//     numbers restart per run, so stale stamps must not swallow wakes);
//   * a mid-run checkpoint with populated wake buckets resumes
//     bit-identically on a different engine AND across the scheduled /
//     unscheduled boundary in both directions (the wake plane is data, but
//     honoring it is a resume-side choice).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/graph/generators.h"
#include "src/local/network.h"
#include "src/local/parallel_network.h"
#include "src/local/reference_network.h"
#include "src/support/fault.h"
#include "src/support/rng.h"

namespace treelocal {
namespace {

using local::Algorithm;
using local::kNoWakeRound;
using local::MaxRoundsExceededError;
using local::Message;
using local::Network;
using local::NetworkOptions;
using local::NodeContext;
using local::ParallelNetwork;
using local::ReferenceNetwork;

constexpr int kMaxRounds = 1 << 20;

// Staged sweep: node v broadcasts exactly once, in round rank(v), and every
// node halts in round K-1. Identical observable behavior whether or not the
// engine honors sleeps; when it does, a node is visited at its rank round,
// at message wakes (a neighbor's broadcast), and at the final round.
class StagedSweep : public Algorithm {
 public:
  StagedSweep(int num_rounds, int mult) : k_(num_rounds), mult_(mult) {}

  int InitialWakeRound(int node) const override { return Rank(node); }

  void OnRound(NodeContext& ctx) override {
    const int rank = Rank(ctx.node());
    const int r = ctx.round();
    if (r == rank) ctx.Broadcast(Message::Of(ctx.id()));
    if (r >= k_ - 1) {
      ctx.Halt();
      return;
    }
    // Message-woken early (or just acted): next action is my rank round if
    // still ahead, else the shared final round.
    ctx.SleepUntil(r < rank ? rank : k_ - 1);
  }

 private:
  int Rank(int node) const { return (node * mult_) % k_; }
  const int k_;
  const int mult_;
};

// StagedSweep that also folds every received message into an
// engine-managed state slot, so scheduled runs on a relabeled engine pin
// the state plane's internal-rank addressing as well as the transcript.
class StagedSweepAcc : public StagedSweep {
 public:
  using StagedSweep::StagedSweep;
  size_t StateBytes() const override { return sizeof(int64_t); }
  void InitState(int node, void* state) override {
    *static_cast<int64_t*>(state) = node;
  }
  void OnRound(NodeContext& ctx) override {
    int64_t& acc = ctx.State<int64_t>();
    for (int p = 0; p < ctx.degree(); ++p) {
      const Message& m = ctx.Recv(p);
      if (m.present()) acc = acc * 31 + m.word0;
    }
    StagedSweep::OnRound(ctx);
  }
};

// Every node parks forever at round 0; the run must hit max_rounds.
class ParkForever : public Algorithm {
 public:
  void OnRound(NodeContext& ctx) override { ctx.SleepUntil(kNoWakeRound); }
};

class HaltNowAlg : public Algorithm {
 public:
  void OnRound(NodeContext& ctx) override { ctx.Halt(); }
};

// Star poke: the center broadcasts in rounds 0 and 3 and halts in round 4;
// spokes park until a message arrives, count received messages in engine
// state, halt at the second one, and RE-PARK inside their first wake round.
// Scheduled visits per spoke: exactly two (both message wakes).
class StarPoke : public Algorithm {
 public:
  int InitialWakeRound(int node) const override {
    return node == 0 ? 0 : kNoWakeRound;
  }
  size_t StateBytes() const override { return sizeof(int32_t); }
  void InitState(int, void* state) override {
    *static_cast<int32_t*>(state) = 0;
  }

  void OnRound(NodeContext& ctx) override {
    const int r = ctx.round();
    if (ctx.node() == 0) {
      if (r == 0 || r == 3) ctx.Broadcast(Message::Of(r + 1));
      if (r >= 4) {
        ctx.Halt();
        return;
      }
      ctx.SleepUntil(r < 3 ? 3 : 4);
      return;
    }
    int32_t& msgs = ctx.State<int32_t>();
    for (int p = 0; p < ctx.degree(); ++p) {
      if (ctx.Recv(p).present()) ++msgs;
    }
    if (msgs >= 2) {
      ctx.Halt();
      return;
    }
    ctx.SleepUntil(kNoWakeRound);  // re-park inside the wake round
  }
};

// Star whose spokes leave stale and duplicate calendar entries behind. The
// center broadcasts in round 0 and halts, which wakes every spoke for
// round 1 ahead of its declared first round. Then:
//   * even spokes (declared round 2) stay awake through round 2 and halt
//     in round 3: in round 2 the spoke is both a survivor and the owner of
//     its round-2 calendar entry, which must not make it run twice;
//   * spokes with v % 4 == 1 (declared round 5) halt in round 1, leaving a
//     calendar entry for a halted node;
//   * spokes with v % 4 == 3 (declared round 5) re-sleep to round 8 and
//     halt there, leaving a stale round-5 entry.
// Each OnRound counts itself in the node's state slot.
class StaleEntries : public Algorithm {
 public:
  int InitialWakeRound(int node) const override {
    return node == 0 ? 0 : node % 2 == 0 ? 2 : 5;
  }
  size_t StateBytes() const override { return sizeof(int32_t); }
  void OnRound(NodeContext& ctx) override {
    ++ctx.State<int32_t>();
    const int v = ctx.node();
    const int r = ctx.round();
    if (v == 0) {
      ctx.Broadcast(Message::Of(1));
      ctx.Halt();
    } else if (v % 2 == 0) {
      if (r >= 3) ctx.Halt();
    } else if (v % 4 == 1 || r >= 8) {
      ctx.Halt();
    } else {
      ctx.SleepUntil(8);
    }
  }
  // Visits each node must see: the center once, even spokes in rounds
  // 1-3, the v % 4 == 1 spokes in round 1, the others in rounds 1 and 8.
  static int32_t WantVisits(int v) {
    return v == 0 ? 1 : v % 2 == 0 ? 3 : v % 4 == 1 ? 1 : 2;
  }
};

struct Transcript {
  std::vector<local::RoundStats> stats;
  std::vector<uint64_t> digests;
  int64_t messages = 0;
  int64_t visits = 0;
  int64_t active = 0;
};

Transcript Capture(const local::Engine& net) {
  Transcript t;
  t.stats = net.round_stats();
  t.digests = net.round_digests();
  t.messages = net.messages_delivered();
  for (const auto& rs : net.round_stats()) {
    t.visits += rs.visits;
    t.active += rs.active_nodes;
  }
  return t;
}

// RoundStats::operator== covers only active/sent (visits are scheduling-
// dependent by design), so cross-mode comparisons use the full Transcript.
void ExpectSameTranscript(const Transcript& got, const Transcript& want) {
  EXPECT_EQ(got.stats, want.stats);
  EXPECT_EQ(got.digests, want.digests);
  EXPECT_EQ(got.messages, want.messages);
}

std::string CheckpointBytes(const local::Engine& net) {
  std::ostringstream out;
  net.Checkpoint(out);
  return out.str();
}

void ResumeBytes(local::Engine& net, const std::string& bytes) {
  std::istringstream in(bytes);
  net.Resume(in);
}

TEST(WakeSchedulerTest, ScheduledMatchesUnscheduledOnEveryEngine) {
  const int n = 180, K = 12;
  const Graph g = UniformRandomTree(n, 901);
  const auto ids = DefaultIds(n, 902);

  // Ground truth: serial run ignoring sleeps.
  NetworkOptions off;
  off.wake_scheduling = false;
  off.relabel = false;
  Network base(g, ids, off);
  StagedSweep base_alg(K, 7);
  ASSERT_EQ(base.Run(base_alg, kMaxRounds), K);
  const Transcript want = Capture(base);
  EXPECT_EQ(want.visits, want.active);  // every live node, every round
  EXPECT_EQ(base.wakes(), 0);

  {
    Network net(g, ids);
    StagedSweep alg(K, 7);
    EXPECT_EQ(net.Run(alg, kMaxRounds), K);
    const Transcript got = Capture(net);
    ExpectSameTranscript(got, want);
    EXPECT_LT(got.visits, want.visits);
    EXPECT_GT(net.wakes(), 0);
  }
  {
    NetworkOptions opt;
    opt.relabel = false;
    Network net(g, ids, opt);
    StagedSweep alg(K, 7);
    EXPECT_EQ(net.Run(alg, kMaxRounds), K);
    ExpectSameTranscript(Capture(net), want);
  }
  for (int t : {1, 2, 8}) {
    for (bool relabel : {false, true}) {
      NetworkOptions opt;
      opt.relabel = relabel;
      ParallelNetwork net(g, ids, t, opt);
      StagedSweep alg(K, 7);
      EXPECT_EQ(net.Run(alg, kMaxRounds), K);
      const Transcript got = Capture(net);
      ExpectSameTranscript(got, want);
      EXPECT_LT(got.visits, want.visits);
    }
  }
  {
    ReferenceNetwork net(g, ids);
    StagedSweep alg(K, 7);
    EXPECT_EQ(net.Run(alg, kMaxRounds), K);
    const Transcript got = Capture(net);
    ExpectSameTranscript(got, want);
    EXPECT_LT(got.visits, want.visits);
  }
  // Other schedules with engine-managed state: a relabeled engine, with
  // scheduling on or off, matches the plain run ignoring sleeps in
  // transcript and final state, and its visits match the plain run's in
  // the same mode.
  for (int mult : {5, 11}) {
    auto run = [&](bool relabel, bool scheduled) {
      NetworkOptions opt;
      opt.relabel = relabel;
      opt.wake_scheduling = scheduled;
      Network net(g, ids, opt);
      StagedSweepAcc alg(K, mult);
      EXPECT_EQ(net.Run(alg, kMaxRounds), K);
      std::vector<int64_t> state(n);
      for (int v = 0; v < n; ++v) state[v] = net.StateAt<int64_t>(v);
      return std::make_pair(Capture(net), state);
    };
    const auto plain = run(false, false);
    const auto plain_scheduled = run(false, true);
    for (bool scheduled : {false, true}) {
      SCOPED_TRACE("mult=" + std::to_string(mult) +
                   " scheduled=" + std::to_string(scheduled));
      const auto got = run(true, scheduled);
      ExpectSameTranscript(got.first, plain.first);
      EXPECT_EQ(got.second, plain.second);
      EXPECT_EQ(got.first.visits,
                (scheduled ? plain_scheduled : plain).first.visits);
    }
    EXPECT_LT(plain_scheduled.first.visits, plain.first.visits);
  }
}

TEST(WakeSchedulerTest, MessageWakesParkedNodeAndReParkHolds) {
  const int n = 40;
  const Graph g = Star(n);
  const auto ids = DefaultIds(n, 17);

  NetworkOptions off;
  off.wake_scheduling = false;
  Network base(g, ids, off);
  StarPoke base_alg;
  const int rounds = base.Run(base_alg, kMaxRounds);
  EXPECT_EQ(rounds, 5);  // center halts in round 4
  const Transcript want = Capture(base);

  for (int t : {1, 3}) {
    ParallelNetwork net(g, ids, t);
    StarPoke alg;
    EXPECT_EQ(net.Run(alg, kMaxRounds), rounds);
    const Transcript got = Capture(net);
    ExpectSameTranscript(got, want);
    // Center: rounds 0, 3, 4. Each spoke: exactly its two message wakes.
    EXPECT_EQ(got.visits, 3 + 2 * (n - 1));
    EXPECT_EQ(net.wakes(), 2 * (n - 1));
  }
  {
    Network net(g, ids);
    StarPoke alg;
    EXPECT_EQ(net.Run(alg, kMaxRounds), rounds);
    EXPECT_EQ(Capture(net).visits, 3 + 2 * (n - 1));
  }
  {
    ReferenceNetwork net(g, ids);
    StarPoke alg;
    EXPECT_EQ(net.Run(alg, kMaxRounds), rounds);
    EXPECT_EQ(Capture(net).visits, 3 + 2 * (n - 1));
  }
}

TEST(WakeSchedulerTest, StaleAndDuplicateCalendarEntriesVisitOnce) {
  const int n = 41;
  const Graph g = Star(n);
  const auto ids = DefaultIds(n, 19);
  int64_t want_visits = 0;
  for (int v = 0; v < n; ++v) want_visits += StaleEntries::WantVisits(v);

  const auto check = [&](local::Engine& net, const std::string& label) {
    SCOPED_TRACE(label);
    StaleEntries alg;
    EXPECT_EQ(net.Run(alg, kMaxRounds), 9);
    for (int v = 0; v < n; ++v) {
      EXPECT_EQ(net.StateAt<int32_t>(v), StaleEntries::WantVisits(v))
          << "node " << v;
    }
    EXPECT_EQ(Capture(net).visits, want_visits);
  };
  NetworkOptions caller_labels, relabel;
  caller_labels.relabel = false;
  for (int t : {1, 3}) {
    ParallelNetwork net(g, ids, t, caller_labels);
    check(net, "T=" + std::to_string(t));
    ParallelNetwork relabeled(g, ids, t, relabel);
    check(relabeled, "relabel T=" + std::to_string(t));
  }
  ReferenceNetwork reference(g, ids);
  check(reference, "reference");
}

TEST(WakeSchedulerTest, SleepPastMaxRoundsIsStructuredNotAHang) {
  const int n = 24;
  const Graph g = BalancedRegularTree(n, 3);
  const auto ids = DefaultIds(n, 5);

  const auto drill = [&](auto& net) {
    ParkForever park;
    try {
      net.Run(park, 10);
      FAIL() << "parked run completed";
    } catch (const MaxRoundsExceededError& e) {
      EXPECT_EQ(e.round(), 10);
      EXPECT_EQ(e.active_nodes(), n);
    }
    // Rounds tick with zero visits while everyone sleeps; the engine stays
    // reusable afterwards.
    ASSERT_EQ(net.round_stats().size(), 10u);
    EXPECT_EQ(net.round_stats().back().active_nodes, n);
    EXPECT_EQ(net.round_stats().back().visits, 0);
    HaltNowAlg halt;
    EXPECT_EQ(net.Run(halt, 4), 1);
  };
  Network serial(g, ids);
  drill(serial);
  ParallelNetwork parallel(g, ids, 2);
  drill(parallel);
  ReferenceNetwork reference(g, ids);
  drill(reference);
}

TEST(WakeSchedulerTest, ThrowAtVisitCountsOnlyRealVisits) {
  const int n = 120, K = 10;
  const Graph g = UniformRandomTree(n, 33);
  const auto ids = DefaultIds(n, 34);

  Network clean(g, ids);
  StagedSweep clean_alg(K, 7);
  clean.Run(clean_alg, kMaxRounds);
  const Transcript t = Capture(clean);
  ASSERT_LT(t.visits, t.active);

  // The t.visits-th visit is the scheduled run's LAST dispatch, which
  // happens in the final round; the run ignoring sleeps burns through the
  // same budget on idle visits and dies strictly earlier.
  support::FaultInjector sched_fault =
      support::FaultInjector::ThrowAtVisit(t.visits);
  NetworkOptions sched_opt;
  sched_opt.fault = &sched_fault;
  Network sched(g, ids, sched_opt);
  StagedSweep sched_alg(K, 7);
  int sched_round = -1;
  try {
    sched.Run(sched_alg, kMaxRounds);
    FAIL() << "visit fault did not fire";
  } catch (const support::FaultInjectedError& e) {
    sched_round = e.round();
  }
  EXPECT_EQ(sched_round, K - 1);

  support::FaultInjector legacy_fault =
      support::FaultInjector::ThrowAtVisit(t.visits);
  NetworkOptions legacy_opt;
  legacy_opt.fault = &legacy_fault;
  legacy_opt.wake_scheduling = false;
  Network legacy(g, ids, legacy_opt);
  StagedSweep legacy_alg(K, 7);
  int legacy_round = -1;
  try {
    legacy.Run(legacy_alg, kMaxRounds);
    FAIL() << "visit fault did not fire";
  } catch (const support::FaultInjectedError& e) {
    legacy_round = e.round();
  }
  EXPECT_LT(legacy_round, sched_round);
}

TEST(WakeSchedulerTest, EngineReuseRearmsCalendarAndDedupStamps) {
  const int n = 150, K = 14;
  const Graph g = UniformRandomTree(n, 6000);
  const auto ids = DefaultIds(n, 6001);

  // Three back-to-back scheduled runs on ONE engine, with a dense run
  // wedged in between. Round numbers restart at 0 every run, so stale
  // round-keyed scheduler state (calendar buckets, parallel bucket-dedup
  // stamps) from run i must not swallow wake visits in run i+1 — the
  // regression here was a parallel run losing nodes forever to a stale
  // stamp that happened to equal one of the next run's round numbers.
  const auto drill = [&](auto& net) {
    StagedSweep first(K, 7);
    net.Run(first, kMaxRounds);
    const Transcript want = Capture(net);
    HaltNowAlg wedge;
    net.Run(wedge, 4);
    for (int rerun = 0; rerun < 2; ++rerun) {
      StagedSweep again(K, 7);
      net.Run(again, kMaxRounds);
      const Transcript got = Capture(net);
      ExpectSameTranscript(got, want);
      EXPECT_EQ(got.visits, want.visits) << "rerun " << rerun;
    }
  };
  Network serial(g, ids);
  drill(serial);
  ParallelNetwork parallel(g, ids, 3);
  drill(parallel);
  ReferenceNetwork reference(g, ids);
  drill(reference);
}

TEST(WakeSchedulerTest, MidSweepCheckpointResumesAcrossEnginesAndModes) {
  const int n = 160, K = 16;
  const Graph g = UniformRandomTree(n, 77);
  const auto ids = DefaultIds(n, 78);

  // Clean scheduled run end-to-end: the target transcript.
  Network clean(g, ids);
  StagedSweep clean_alg(K, 7);
  ASSERT_EQ(clean.Run(clean_alg, kMaxRounds), K);
  const Transcript want = Capture(clean);
  const std::string want_bytes = CheckpointBytes(clean);

  // Pause mid-sweep with calendars still holding future wake buckets.
  Network paused(g, ids);
  StagedSweep paused_alg(K, 7);
  paused.RunUntil(paused_alg, kMaxRounds, K / 2);
  ASSERT_TRUE(paused.paused());
  const std::string mid = CheckpointBytes(paused);

  {
    // Same engine kind, scheduled resume: byte-identical finish.
    Network net(g, ids);
    StagedSweep alg(K, 7);
    ResumeBytes(net, mid);
    EXPECT_EQ(net.Run(alg, kMaxRounds), K);
    ExpectSameTranscript(Capture(net), want);
    EXPECT_EQ(CheckpointBytes(net), want_bytes);  // visits included
  }
  {
    // Different engine, scheduled resume.
    ParallelNetwork net(g, ids, 2);
    StagedSweep alg(K, 7);
    ResumeBytes(net, mid);
    EXPECT_EQ(net.Run(alg, kMaxRounds), K);
    const Transcript got = Capture(net);
    ExpectSameTranscript(got, want);
    EXPECT_EQ(got.visits, want.visits);
  }
  {
    // Scheduled checkpoint, UNSCHEDULED resume: the wake plane is data the
    // resumed engine is free to ignore — transcript still lands identical.
    NetworkOptions off;
    off.wake_scheduling = false;
    Network net(g, ids, off);
    StagedSweep alg(K, 7);
    ResumeBytes(net, mid);
    EXPECT_EQ(net.Run(alg, kMaxRounds), K);
    const Transcript got = Capture(net);
    ExpectSameTranscript(got, want);
    EXPECT_GT(got.visits, want.visits);  // idle visits are back
    for (size_t r = K / 2; r < got.stats.size(); ++r) {
      EXPECT_EQ(got.stats[r].visits, got.stats[r].active_nodes) << r;
    }
    EXPECT_EQ(net.wakes(), 0);
  }
  {
    // Unscheduled checkpoint, SCHEDULED resume: every live node's recorded
    // wake round is the snapshot round, so the scheduler starts from "all
    // awake" and re-buckets as nodes sleep — still bit-identical.
    NetworkOptions off;
    off.wake_scheduling = false;
    Network unsched(g, ids, off);
    StagedSweep unsched_alg(K, 7);
    unsched.RunUntil(unsched_alg, kMaxRounds, K / 2);
    ASSERT_TRUE(unsched.paused());
    const std::string mid_unsched = CheckpointBytes(unsched);

    Network net(g, ids);
    StagedSweep alg(K, 7);
    ResumeBytes(net, mid_unsched);
    EXPECT_EQ(net.Run(alg, kMaxRounds), K);
    const Transcript got = Capture(net);
    ExpectSameTranscript(got, want);
    // No byte-identity claim here: the snapshot's round history records the
    // visits that actually happened — the first half ignored sleeps, and
    // the resume round itself still visits every live node (the unscheduled
    // checkpoint marks them all awake at the snapshot round). From the
    // round after, the calendar has re-formed and visits match.
    for (size_t r = K / 2 + 1; r < got.stats.size(); ++r) {
      EXPECT_EQ(got.stats[r].visits, want.stats[r].visits) << r;
    }
  }
}

}  // namespace
}  // namespace treelocal
