#ifndef TREELOCAL_CORE_COMPLEXITY_H_
#define TREELOCAL_CORE_COMPLEXITY_H_

#include <cstdint>
#include <functional>

namespace treelocal {

// Complexity calculus of the transformation: given a truly local complexity
// f (monotonically non-decreasing, non-zero, f(0)=0 per the paper's
// footnote 6), the function g in Theorems 1/2/12/15 is defined by
// g(n)^{f(g(n))} = n, equivalently f(g) * log2(g) = log2(n).
using ComplexityFn = std::function<double(double)>;

// f(x) = x            (optimal truly local complexity of MIS / MM)
ComplexityFn LinearF();
// f(x) = x^2          (shape of the Linial+sweep base algorithms here)
ComplexityFn QuadraticF();
// f(x) = scale * log2(x)^exponent   (e.g. exponent=12 for [BBKO22b])
ComplexityFn PolylogF(double exponent, double scale = 1.0);

// Solves g^{f(g)} = n for g >= 1 by binary search (f must be monotone
// non-decreasing and non-zero). Returns 1.0 for n <= 1.
double SolveG(double n, const ComplexityFn& f);

// The k parameter handed to the decompositions: max(min_k, floor(g(n))).
int ChooseK(int64_t n, const ComplexityFn& f, int min_k = 2);

// Reference curve for the separation experiment (Theorem 3):
// log2(n) / log2(log2(n)) — the Omega-barrier for MIS/MM on trees.
double BarrierLogOverLogLog(double n);

// Modeled base-phase round count C * f(k) + log*(n): used to report the
// Theorem 3 series with the [BBKO22b] f(Delta) = log^12(Delta) plugged in
// (substitution #1 in DESIGN.md) while every other phase stays measured.
double ModeledBaseRounds(const ComplexityFn& f, double k, double n,
                         double scale = 1.0);

}  // namespace treelocal

#endif  // TREELOCAL_CORE_COMPLEXITY_H_
