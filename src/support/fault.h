#ifndef TREELOCAL_SUPPORT_FAULT_H_
#define TREELOCAL_SUPPORT_FAULT_H_

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace treelocal::support {

// Deterministic fault injection for the engine family's crash-safety
// contract (ISSUE: every injected fault must end in a clean structured
// error or a verified-identical recovery — never UB, never a silent wrong
// answer). An armed FaultInjector is handed to an engine via
// NetworkOptions::fault; the engine calls the hooks below at its two
// injection sites and the injector throws FaultInjectedError exactly once
// when its trigger is reached. After the throw the engine is still
// reusable (the next Run re-initializes all per-run state), so a test can
// catch the error, Resume from a checkpoint, and verify bit-identity.
class FaultInjectedError : public std::runtime_error {
 public:
  enum class Site {
    kRoundBoundary,  // thrown at the boundary before a round executes
    kVisit,          // thrown from inside OnRound dispatch, mid-round
  };

  FaultInjectedError(Site site, int round);

  Site site() const { return site_; }
  // The engine round at which the fault fired.
  int round() const { return round_; }

 private:
  Site site_;
  int round_;
};

// A one-shot fault plan. Thread-safe: the visit counter is a relaxed
// atomic, so a sharded Network's lanes may hit the hooks concurrently;
// exactly one caller observes the trigger and throws (the thread pool
// propagates the first exception).
// Which shard that is may vary across runs — the contract is a clean
// structured error, not which node it names.
class FaultInjector {
 public:
  // Throws at the round boundary immediately before round `round` executes.
  static FaultInjector KillAtRoundBoundary(int round) {
    return FaultInjector(round, -1);
  }

  // Throws from engine dispatch at the nth (1-based, cumulative across
  // rounds) OnRound visit — a mid-round crash, after some nodes of the
  // round have already run and sent.
  static FaultInjector ThrowAtVisit(int64_t nth) {
    return FaultInjector(-1, nth);
  }

  // Deterministic seeded plan: derives one of the two fault sites and an
  // in-range trigger from `seed` alone (SplitMix64), so a failing seed
  // reproduces exactly. round_limit / visit_limit bound the trigger to the
  // run being attacked (pass the uninterrupted run's round and visit
  // totals).
  static FaultInjector FromSeed(uint64_t seed, int round_limit,
                                int64_t visit_limit);

  // Re-arm for another run: visit counter back to zero, fired flag down.
  void Reset() {
    visits_.store(0, std::memory_order_relaxed);
    fired_.store(false, std::memory_order_relaxed);
  }

  // True once the fault has been thrown (and until Reset).
  bool fired() const { return fired_.load(std::memory_order_relaxed); }

  int kill_round() const { return kill_round_; }
  int64_t kill_visit() const { return kill_visit_; }

  // Engine hooks. Cheap when unarmed or already fired.
  void AtRoundBoundary(int round) {
    if (round == kill_round_ && !fired()) {
      fired_.store(true, std::memory_order_relaxed);
      throw FaultInjectedError(FaultInjectedError::Site::kRoundBoundary,
                               round);
    }
  }
  void OnVisit(int round) {
    if (kill_visit_ < 0) return;
    if (visits_.fetch_add(1, std::memory_order_relaxed) + 1 == kill_visit_) {
      fired_.store(true, std::memory_order_relaxed);
      throw FaultInjectedError(FaultInjectedError::Site::kVisit, round);
    }
  }

 private:
  FaultInjector(int kill_round, int64_t kill_visit)
      : kill_round_(kill_round), kill_visit_(kill_visit) {}

  int kill_round_;
  int64_t kill_visit_;
  std::atomic<int64_t> visits_{0};
  std::atomic<bool> fired_{false};
};

// Snapshot-corruption helpers for the fuzz matrices (tests and the
// transcript_verify self-checks): byte-prefix truncation and single-bit
// flips. Pure functions over byte strings — the caller feeds the result to
// ReadSnapshot and asserts a clean SnapshotError.
std::string TruncateBytes(std::string_view bytes, size_t keep);
std::string FlipBit(std::string_view bytes, size_t bit_index);

}  // namespace treelocal::support

#endif  // TREELOCAL_SUPPORT_FAULT_H_
