#include "src/core/complexity.h"

#include <algorithm>
#include <cmath>

#include "src/support/mathutil.h"

namespace treelocal {

ComplexityFn LinearF() {
  return [](double x) { return x; };
}

ComplexityFn QuadraticF() {
  return [](double x) { return x * x; };
}

ComplexityFn PolylogF(double exponent, double scale) {
  return [exponent, scale](double x) {
    if (x <= 1.0) return 0.0;
    return scale * std::pow(std::log2(x), exponent);
  };
}

double SolveG(double n, const ComplexityFn& f) {
  if (n <= 1.0) return 1.0;
  const double target = std::log2(n);
  // h(g) = f(g) * log2(g) is monotone non-decreasing for g >= 1 and h(1)=0;
  // find the crossing h(g) = target.
  double lo = 1.0, hi = 2.0;
  auto h = [&](double g) { return f(g) * std::log2(g); };
  while (h(hi) < target && hi < n * 2) hi *= 2;
  for (int it = 0; it < 200; ++it) {
    double mid = 0.5 * (lo + hi);
    if (h(mid) < target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

int ChooseK(int64_t n, const ComplexityFn& f, int min_k) {
  double g = SolveG(static_cast<double>(n), f);
  return std::max(min_k, static_cast<int>(std::floor(g)));
}

double BarrierLogOverLogLog(double n) {
  if (n <= 4.0) return 1.0;
  double l = std::log2(n);
  return l / std::log2(l);
}

double ModeledBaseRounds(const ComplexityFn& f, double k, double n,
                         double scale) {
  return scale * f(k) + LogStar(n);
}

}  // namespace treelocal
