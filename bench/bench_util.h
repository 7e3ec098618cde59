#ifndef TREELOCAL_BENCH_BENCH_UTIL_H_
#define TREELOCAL_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "src/graph/labeling.h"
#include "src/local/network.h"
#include "src/support/json.h"

namespace treelocal::bench {

// Wall-clock seconds elapsed since `t0` (steady clock; every driver times
// the same way).
inline double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Resident-set sampling from /proc/self/status, for the out-of-core graph
// benches' peak-RSS accounting (bench_graph_backend, graph_convert). Returns
// 0 on platforms without procfs — consumers must treat 0 as "not measured",
// never as "zero memory".
inline int64_t ReadProcStatusKb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t klen = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, klen, key) == 0) {
      return std::strtoll(line.c_str() + klen, nullptr, 10) * 1024;
    }
  }
  return 0;
}
inline int64_t CurrentRssBytes() { return ReadProcStatusKb("VmRSS:"); }
// High-water mark since process start (or the last VmHWM reset).
inline int64_t PeakRssBytes() { return ReadProcStatusKb("VmHWM:"); }

// The identity predicate behind every engine-vs-legacy bench gate: both
// half-edge labelings of `g` must match slot for slot.
inline bool SameLabeling(const Graph& g, const HalfEdgeLabeling& a,
                         const HalfEdgeLabeling& b) {
  for (int e = 0; e < g.NumEdges(); ++e) {
    if (a.GetSlot(e, 0) != b.GetSlot(e, 0)) return false;
    if (a.GetSlot(e, 1) != b.GetSlot(e, 1)) return false;
  }
  return true;
}

// Polynomial ID space n^3, clamped to 2^62: the bare n^3 overflows int64_t
// (signed UB) at n >= 2^21 — exactly the million-node sizes the engine
// benches run. The clamp is semantically safe: any value >= the actual ID
// upper bound works, and DefaultIds saturates its own space at <= 2^62, so
// ids stay strictly below IdSpace(n); 2^62 also leaves headroom for the
// id_space + 1 arithmetic downstream.
inline int64_t IdSpace(int n) {
  constexpr int64_t kClamp = int64_t{1} << 62;
  const auto nn = static_cast<__int128>(std::max(n, 2));
  const __int128 cube = nn * nn * nn;
  return cube > kClamp ? kClamp : static_cast<int64_t>(cube);
}

// Geometric size series 2^lo .. 2^hi. Exponents are validated up front:
// 1 << e is UB (and overflows int) for e >= 31, so out-of-range requests
// fail loudly instead of returning shift garbage.
inline std::vector<int> PowersOfTwo(int lo, int hi) {
  if (lo < 0 || hi > 30) {
    throw std::invalid_argument(
        "PowersOfTwo exponents must satisfy 0 <= lo and hi <= 30");
  }
  std::vector<int> out;
  for (int e = lo; e <= hi; ++e) {
    out.push_back(static_cast<int>(int64_t{1} << e));
  }
  return out;
}

class JsonWriter;

// Emits an engine phase's round trajectory as three records fields:
// <prefix>_round_active_nodes / _round_messages / _round_seconds (the
// suffixes tools/check_bench_regression.py keys its shape bounds on).
// Declared after JsonWriter below.
inline void EmitTrajectory(JsonWriter& json, const std::string& prefix,
                           const std::vector<local::RoundStats>& stats,
                           const std::vector<double>& seconds);

// Minimal JSON results writer: a flat array of records, each a flat object
// (scalars plus numeric arrays for per-round trajectories). The perf
// trajectory files (BENCH_engine.json, BENCH_*.json) are built with this so
// downstream tooling never scrapes the pretty-printed tables. Emission
// policy (escaping, non-finite handling) is shared with Table::WriteJson
// via src/support/json.h.
class JsonWriter {
 public:
  void BeginRecord() {
    records_.emplace_back();
    first_field_ = true;
  }

  void Field(const std::string& key, int64_t v) {
    Raw(key, std::to_string(v));
  }
  void Field(const std::string& key, int v) { Field(key, int64_t{v}); }
  void Field(const std::string& key, bool v) { Raw(key, v ? "true" : "false"); }
  void Field(const std::string& key, double v) {
    Raw(key, json::Number(v));  // non-finite -> null, never bare inf/nan
  }
  void Field(const std::string& key, const std::string& v) {
    Raw(key, json::Quote(v));
  }
  void Field(const std::string& key, const char* v) {
    Raw(key, json::Quote(v));
  }
  template <typename T>
  void Field(const std::string& key, const std::vector<T>& values) {
    std::ostringstream os;
    os << "[";
    for (size_t i = 0; i < values.size(); ++i) {
      if (i > 0) os << ",";
      if constexpr (std::is_floating_point_v<T>) {
        os << json::Number(static_cast<double>(values[i]));
      } else {
        os << static_cast<int64_t>(values[i]);
      }
    }
    os << "]";
    Raw(key, os.str());
  }

  // Merges this writer's records into an existing JsonWriter-produced array
  // (or creates the file), first dropping any existing records whose
  // "source" field equals `source`. Several bench binaries can contribute
  // to one trajectory file (e.g. BENCH_engine.json) and a rerun replaces a
  // binary's own records instead of duplicating them or clobbering others'.
  void MergeAs(const std::string& source, const std::string& path) const {
    const std::string full = json::WithJsonExt(path);
    const std::string tag = json::Quote("source") + ": " + json::Quote(source);
    std::vector<std::string> existing;
    {
      std::ifstream in(full);
      if (in) {
        std::ostringstream all;
        all << in.rdbuf();
        for (std::string& rec : SplitRecords(all.str())) {
          if (rec.find(tag) == std::string::npos) {
            existing.push_back(std::move(rec));
          }
        }
      }
    }
    existing.insert(existing.end(), records_.begin(), records_.end());
    std::ofstream out(full);
    json::RenderRecordArray(out, existing);
  }

 private:
  void Raw(const std::string& key, const std::string& rendered) {
    std::string& rec = records_.back();
    if (!first_field_) rec += ", ";
    first_field_ = false;
    rec += json::Quote(key) + ": " + rendered;
  }

  // Recovers the per-record bodies from a file this writer produced: one
  // record per "  {...}" line (json::RenderRecordArray's fixed layout).
  static std::vector<std::string> SplitRecords(const std::string& text) {
    std::vector<std::string> out;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
      size_t open = line.find('{');
      if (open == std::string::npos) continue;
      size_t close = line.rfind('}');
      if (close == std::string::npos || close < open) continue;
      out.push_back(line.substr(open + 1, close - open - 1));
    }
    return out;
  }

  std::vector<std::string> records_;
  bool first_field_ = true;
};

inline void EmitTrajectory(JsonWriter& json, const std::string& prefix,
                           const std::vector<local::RoundStats>& stats,
                           const std::vector<double>& seconds) {
  std::vector<int64_t> active, sent, visits, decisions;
  active.reserve(stats.size());
  sent.reserve(stats.size());
  visits.reserve(stats.size());
  decisions.reserve(stats.size());
  for (const auto& rs : stats) {
    active.push_back(rs.active_nodes);
    sent.push_back(rs.messages_sent);
    visits.push_back(rs.visits);
    decisions.push_back(rs.decisions);
  }
  json.Field(prefix + "_round_active_nodes", active);
  json.Field(prefix + "_round_messages", sent);
  json.Field(prefix + "_round_visits", visits);
  json.Field(prefix + "_round_decisions", decisions);
  json.Field(prefix + "_round_seconds", seconds);
}

// Scalar totals over a run's round stats, for the drivers' per-record
// visit/decision accounting.
inline int64_t TotalVisits(const std::vector<local::RoundStats>& stats) {
  int64_t total = 0;
  for (const auto& rs : stats) total += rs.visits;
  return total;
}
inline int64_t TotalDecisions(const std::vector<local::RoundStats>& stats) {
  int64_t total = 0;
  for (const auto& rs : stats) total += rs.decisions;
  return total;
}

}  // namespace treelocal::bench

#endif  // TREELOCAL_BENCH_BENCH_UTIL_H_
