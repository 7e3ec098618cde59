#include "trace.h"

#include <cstdio>
#include <fstream>

namespace perfbench {

int64_t Tracer::Begin(const std::string& name, int64_t parent,
                      int64_t request) {
  return BeginAt(name, parent, request, Clock::now());
}

int64_t Tracer::BeginAt(const std::string& name, int64_t parent,
                        int64_t request, Clock::time_point start) {
  const int64_t t0 =
      std::chrono::duration_cast<std::chrono::nanoseconds>(start - epoch_)
          .count();
  std::lock_guard<std::mutex> lock(mu_);
  const auto id = static_cast<int64_t>(spans_.size());
  spans_.push_back({id, parent, name, request, t0, -1});
  return id;
}

void Tracer::End(int64_t id) {
  const int64_t t1 = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         Clock::now() - epoch_)
                         .count();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id].t1_ns = t1;
}

double Tracer::Seconds(int64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const SpanRecord& s = spans_[id];
  return (s.t1_ns - s.t0_ns) * 1e-9;
}

std::map<std::string, double> Tracer::SelfSecondsByName(int64_t root) const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children always have larger ids than their parent, so one forward pass
  // decides membership under `root` and one backward pass charges each
  // span's duration to its parent's child total.
  std::vector<char> under(spans_.size(), 0);
  std::vector<int64_t> child_ns(spans_.size(), 0);
  under[root] = 1;
  for (size_t i = root + 1; i < spans_.size(); ++i) {
    const int64_t p = spans_[i].parent;
    under[i] = p >= root && under[p];
  }
  std::map<std::string, double> self;
  for (size_t i = spans_.size(); i-- > static_cast<size_t>(root);) {
    if (!under[i]) continue;
    const SpanRecord& s = spans_[i];
    const int64_t dur = s.t1_ns - s.t0_ns;
    if (s.parent >= 0) child_ns[s.parent] += dur;
    self[s.name] += (dur - child_ns[i]) * 1e-9;
  }
  return self;
}

bool Tracer::WriteChromeJson(const std::string& path,
                             const std::string& workload) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                  "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %lld, "
                  "\"args\": {\"id\": %lld, \"parent\": %lld, \"request\": "
                  "%lld}}",
                  s.name.c_str(), workload.c_str(), s.t0_ns * 1e-3,
                  (s.t1_ns - s.t0_ns) * 1e-3,
                  static_cast<long long>(s.request < 0 ? 0 : s.request),
                  static_cast<long long>(s.id),
                  static_cast<long long>(s.parent),
                  static_cast<long long>(s.request));
    out << buf << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

void WriteTrace(const Options& opt, const Tracer& tracer, Report& report) {
  const std::string path = opt.work_dir + "/trace-" + opt.workload + "-" +
                           std::to_string(opt.seed) + ".json";
  if (!tracer.WriteChromeJson(path, opt.workload)) {
    report.Fail("cannot write " + path);
  }
}

}  // namespace perfbench
