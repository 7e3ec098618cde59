// Shared plumbing of the perfbench driver: run options, the result report
// (the one JSON line the benchmark prints last), clocks, /proc sampling and
// order statistics.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Command-line options of one workload run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Negative control: arm support::FaultInjector::ThrowAtVisit in the
  // engines (or the daemon) so that failed operations must be counted.
  bool negative = false;
  // serve_mixed offered load in requests/s; 0 = the recorded rate. Only the
  // capacity calibration sets it (see README.md).
  double rate = 0;
  // Scratch directory inside the checkout (the .cgr image, trace files).
  std::string work_dir = ".bench_build/perfbench-work";
};

// The result of one run: correctness counters plus named metrics, in the
// order they were added.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, {value, unit}});
  }
  // Records one operation attempt; a failed attempt also clears `correct`.
  void Attempt(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  // A correctness check outside the counted operations (e.g. a replay that
  // must be bit-identical) failed.
  void Fail(const std::string& why);

  bool correct() const { return failed_ == 0 && why_.empty(); }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  // One-line JSON: {"correct", "attempted", "failed", "metrics"}.
  std::string Json() const;
  // Human-readable "name = value unit" lines plus any failure reasons.
  std::string Text() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::string why_;
};

// A field of /proc/<pid>/status in bytes ("VmHWM:", "VmRSS:"); pid 0 is the
// calling process. 0 when unavailable.
int64_t ProcStatusBytes(pid_t pid, const char* key);
inline double Megabytes(int64_t bytes) { return bytes / (1024.0 * 1024.0); }

// Order statistics over a copy of `v` (linear interpolation, q in [0, 1]).
// 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// Polynomial ID space n^3, clamped to 2^62 (the pipelines' convention).
int64_t IdSpace(int n);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
