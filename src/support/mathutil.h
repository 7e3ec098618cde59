#ifndef TREELOCAL_SUPPORT_MATHUTIL_H_
#define TREELOCAL_SUPPORT_MATHUTIL_H_

#include <cstdint>

namespace treelocal {

// Deterministic primality test by trial division (inputs here are tiny:
// Linial's construction needs primes of size O(Delta * log n)).
bool IsPrime(int64_t x);

// Smallest prime >= x (x >= 0). Returns 2 for x <= 2.
int64_t NextPrimeAtLeast(int64_t x);

// The iterated-logarithm log*(x): number of times log2 must be applied to x
// to reach a value <= 1. LogStar(1) == 0, LogStar(2) == 1, LogStar(16) == 3.
int LogStar(double x);

// ceil(log2(x)) for x >= 1; returns 0 for x <= 1.
int CeilLog2(int64_t x);

// ceil(log_base(x)) computed in exact integer arithmetic; base >= 2, x >= 1.
int CeilLogBase(int64_t x, int64_t base);

// log_base(x) as a double; base > 1, x > 0.
double LogBase(double x, double base);

// Integer power with saturation at INT64_MAX.
int64_t IPow(int64_t base, int exponent);

// Smallest color c >= 1 that does not appear in forbidden[0..count): the
// greedy first-fit of ColoringProblem::SequentialAssign and
// EdgeColoringProblem::SequentialAssignEdge. First-fit always returns
// c <= count+1, so a 64-bit-chunked mask of count+1 bits, scanned with
// countr_one, decides it in O(count) without a sort; values outside
// [1, count+1] cannot affect the answer.
int FirstMissingColor(const int64_t* forbidden, int count);

}  // namespace treelocal

#endif  // TREELOCAL_SUPPORT_MATHUTIL_H_
