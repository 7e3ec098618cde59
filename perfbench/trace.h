// In-memory span recorder for the traced run. The benchmark wraps each call
// it makes into a module's public functions in a span named
// "<module>.<function>" (e.g. "core.decomposition"); spans are kept in
// memory and written out once, when the run ends, as Chrome trace-event
// JSON (opens in Perfetto or chrome://tracing).
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct SpanRecord {
  int64_t id = 0;
  int64_t parent = -1;   // -1 = root
  std::string name;
  int64_t request = -1;  // solve / request index the span belongs to
  int64_t t0_ns = 0;     // since the tracer's epoch
  int64_t t1_ns = -1;    // -1 while open
};

// Thread-safe: the serve workload records from several client threads.
class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  int64_t Begin(const std::string& name, int64_t parent, int64_t request);
  // Like Begin, but the span starts at `start` (an open-loop request starts
  // when it was due, not when the generator got to it).
  int64_t BeginAt(const std::string& name, int64_t parent, int64_t request,
                  Clock::time_point start);
  void End(int64_t id);

  double Seconds(int64_t id) const;

  // Self time (duration minus the time its direct children cover) of every
  // span under `root`, root included, summed by span name, in seconds.
  std::map<std::string, double> SelfSecondsByName(int64_t root) const;

  // Writes every span as a Chrome trace-event "X" (complete) event.
  bool WriteChromeJson(const std::string& path,
                       const std::string& workload) const;

 private:
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // index == id
};

// Writes the run's spans to <work_dir>/trace-<workload>-<seed>.json; a
// failed write fails the run.
void WriteTrace(const Options& opt, const Tracer& tracer, Report& report);

// RAII span. With a null tracer it records nothing, so the untraced and
// traced runs share one code path.
class Scope {
 public:
  Scope(Tracer* tracer, const std::string& name, int64_t parent,
        int64_t request)
      : tracer_(tracer),
        id_(tracer ? tracer->Begin(name, parent, request) : -1) {}
  ~Scope() {
    if (tracer_) tracer_->End(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int64_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
