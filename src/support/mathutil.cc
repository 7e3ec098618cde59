#include "src/support/mathutil.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <vector>

namespace treelocal {

bool IsPrime(int64_t x) {
  if (x < 2) return false;
  if (x < 4) return true;
  if (x % 2 == 0) return false;
  for (int64_t d = 3; d * d <= x; d += 2) {
    if (x % d == 0) return false;
  }
  return true;
}

int64_t NextPrimeAtLeast(int64_t x) {
  if (x <= 2) return 2;
  if (x % 2 == 0) ++x;
  while (!IsPrime(x)) x += 2;
  return x;
}

int LogStar(double x) {
  int count = 0;
  while (x > 1.0) {
    x = std::log2(x);
    ++count;
    assert(count < 64);
  }
  return count;
}

int CeilLog2(int64_t x) {
  if (x <= 1) return 0;
  int bits = 0;
  int64_t v = x - 1;
  while (v > 0) {
    v >>= 1;
    ++bits;
  }
  return bits;
}

int CeilLogBase(int64_t x, int64_t base) {
  assert(base >= 2);
  if (x <= 1) return 0;
  int count = 0;
  int64_t power = 1;
  while (power < x) {
    // Saturating multiply.
    if (power > std::numeric_limits<int64_t>::max() / base) {
      return count + 1;
    }
    power *= base;
    ++count;
  }
  return count;
}

double LogBase(double x, double base) {
  assert(base > 1.0 && x > 0.0);
  return std::log(x) / std::log(base);
}

int64_t IPow(int64_t base, int exponent) {
  assert(exponent >= 0);
  int64_t result = 1;
  for (int i = 0; i < exponent; ++i) {
    if (base != 0 && result > std::numeric_limits<int64_t>::max() / base) {
      return std::numeric_limits<int64_t>::max();
    }
    result *= base;
  }
  return result;
}

int FirstMissingColor(const int64_t* forbidden, int count) {
  // Bit c-1 of the mask says "color c is forbidden"; only colors 1..count+1
  // can be the answer.
  const int bits = count + 1;
  const int words = (bits + 63) / 64;
  uint64_t stack_mask[8];
  thread_local std::vector<uint64_t> heap_mask;
  uint64_t* mask;
  if (words <= 8) {
    mask = stack_mask;
    std::fill_n(mask, words, 0ull);
  } else {
    heap_mask.assign(words, 0ull);
    mask = heap_mask.data();
  }
  for (int i = 0; i < count; ++i) {
    const int64_t c = forbidden[i];
    if (c >= 1 && c <= bits) {
      mask[(c - 1) >> 6] |= 1ull << ((c - 1) & 63);
    }
  }
  for (int w = 0; w < words; ++w) {
    const int z = std::countr_one(mask[w]);
    // The last word's bits above `bits` are zero and only `count` bits can
    // be set in total, so a zero bit always exists at index <= count.
    if (z < 64) return w * 64 + z + 1;
  }
  return bits;  // unreachable: the mask has at most `count` of `bits` set
}

}  // namespace treelocal
