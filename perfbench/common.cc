#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

namespace perfbench {

void Report::Fail(const std::string& why) {
  if (!why_.empty()) why_ += "; ";
  why_ += why;
}

std::string Report::Json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, m] = metrics_[i];
    char num[64];
    // Every digit the double carries: the benchmark reports values as
    // measured, never rounded.
    std::snprintf(num, sizeof(num), "%.17g",
                  std::isfinite(m.first) ? m.first : 0.0);
    out << (i ? ", " : "") << "\"" << name << "\": {\"value\": " << num
        << ", \"unit\": \"" << m.second << "\"}";
  }
  out << "}}";
  return out.str();
}

std::string Report::Text() const {
  std::ostringstream out;
  for (const auto& [name, m] : metrics_) {
    out << "  " << name << " = " << m.first << " " << m.second << "\n";
  }
  out << "  attempted = " << attempted_ << ", failed = " << failed_
      << ", failed_frac = "
      << (attempted_ ? static_cast<double>(failed_) / attempted_ : 0.0)
      << "\n";
  if (!why_.empty()) out << "  CORRECTNESS FAILURE: " << why_ << "\n";
  return out.str();
}

int64_t ProcStatusBytes(pid_t pid, const char* key) {
  const std::string path =
      pid == 0 ? "/proc/self/status"
               : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  const size_t klen = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, klen, key) == 0) {
      return std::strtoll(line.c_str() + klen, nullptr, 10) * 1024;
    }
  }
  return 0;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

int64_t IdSpace(int n) {
  constexpr int64_t kClamp = int64_t{1} << 62;
  const auto nn = static_cast<__int128>(std::max(n, 2));
  const __int128 cube = nn * nn * nn;
  return cube > kClamp ? kClamp : static_cast<int64_t>(cube);
}

}  // namespace perfbench
