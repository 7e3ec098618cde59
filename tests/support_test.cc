#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <vector>

#include "src/support/digest.h"
#include "src/support/mathutil.h"
#include "src/support/rng.h"

namespace treelocal {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 32; ++i) {
    if (a.NextU64() != b.NextU64()) ++differing;
  }
  EXPECT_GT(differing, 30);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextBelowOneAlwaysZero) {
  Rng rng(7);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.NextBelow(1), 0u);
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    int64_t x = rng.NextInRange(-3, 3);
    EXPECT_GE(x, -3);
    EXPECT_LE(x, 3);
    seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(13);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  std::vector<int> orig = v;
  rng.Shuffle(v);
  EXPECT_NE(v, orig);  // astronomically unlikely to be identity
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, DistinctIdsAreDistinctAndInRange) {
  auto ids = DistinctIds(500, 3, 10000);
  EXPECT_EQ(ids.size(), 500u);
  std::set<int64_t> s(ids.begin(), ids.end());
  EXPECT_EQ(s.size(), 500u);
  for (int64_t id : ids) {
    EXPECT_GE(id, 1);
    EXPECT_LE(id, 10000);
  }
}

TEST(RngTest, DefaultIdsDistinct) {
  auto ids = DefaultIds(1000, 99);
  std::set<int64_t> s(ids.begin(), ids.end());
  EXPECT_EQ(s.size(), 1000u);
}

TEST(RngTest, DefaultIdsDeterministic) {
  EXPECT_EQ(DefaultIds(64, 5), DefaultIds(64, 5));
  EXPECT_NE(DefaultIds(64, 5), DefaultIds(64, 6));
}

TEST(MathTest, IsPrimeSmall) {
  EXPECT_FALSE(IsPrime(0));
  EXPECT_FALSE(IsPrime(1));
  EXPECT_TRUE(IsPrime(2));
  EXPECT_TRUE(IsPrime(3));
  EXPECT_FALSE(IsPrime(4));
  EXPECT_TRUE(IsPrime(5));
  EXPECT_FALSE(IsPrime(91));  // 7*13
  EXPECT_TRUE(IsPrime(97));
  EXPECT_TRUE(IsPrime(7919));
  EXPECT_FALSE(IsPrime(7917));
}

TEST(MathTest, NextPrimeAtLeast) {
  EXPECT_EQ(NextPrimeAtLeast(0), 2);
  EXPECT_EQ(NextPrimeAtLeast(2), 2);
  EXPECT_EQ(NextPrimeAtLeast(3), 3);
  EXPECT_EQ(NextPrimeAtLeast(4), 5);
  EXPECT_EQ(NextPrimeAtLeast(14), 17);
  EXPECT_EQ(NextPrimeAtLeast(100), 101);
  EXPECT_EQ(NextPrimeAtLeast(7908), 7919);
}

TEST(MathTest, LogStarValues) {
  EXPECT_EQ(LogStar(1), 0);
  EXPECT_EQ(LogStar(2), 1);
  EXPECT_EQ(LogStar(4), 2);
  EXPECT_EQ(LogStar(16), 3);
  EXPECT_EQ(LogStar(65536), 4);
  EXPECT_EQ(LogStar(1e18), 5);
}

TEST(MathTest, LogStarMonotone) {
  int prev = 0;
  for (double x = 1; x < 1e12; x *= 3) {
    int cur = LogStar(x);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

TEST(MathTest, CeilLog2) {
  EXPECT_EQ(CeilLog2(1), 0);
  EXPECT_EQ(CeilLog2(2), 1);
  EXPECT_EQ(CeilLog2(3), 2);
  EXPECT_EQ(CeilLog2(4), 2);
  EXPECT_EQ(CeilLog2(5), 3);
  EXPECT_EQ(CeilLog2(1024), 10);
  EXPECT_EQ(CeilLog2(1025), 11);
}

TEST(MathTest, CeilLogBase) {
  EXPECT_EQ(CeilLogBase(1, 2), 0);
  EXPECT_EQ(CeilLogBase(8, 2), 3);
  EXPECT_EQ(CeilLogBase(9, 2), 4);
  EXPECT_EQ(CeilLogBase(27, 3), 3);
  EXPECT_EQ(CeilLogBase(28, 3), 4);
  EXPECT_EQ(CeilLogBase(1000000, 10), 6);
}

TEST(MathTest, CeilLogBaseMatchesFloatingPoint) {
  for (int64_t n : {10, 100, 1234, 99999, 1 << 20}) {
    for (int64_t base : {2, 3, 5, 16}) {
      int exact = CeilLogBase(n, base);
      double approx = std::log(static_cast<double>(n)) /
                      std::log(static_cast<double>(base));
      EXPECT_GE(exact, static_cast<int>(std::floor(approx)))
          << "n=" << n << " base=" << base;
      EXPECT_LE(exact, static_cast<int>(std::ceil(approx)) + 1)
          << "n=" << n << " base=" << base;
    }
  }
}

TEST(MathTest, LogBase) {
  EXPECT_NEAR(LogBase(8, 2), 3.0, 1e-9);
  EXPECT_NEAR(LogBase(81, 3), 4.0, 1e-9);
}

TEST(MathTest, IPow) {
  EXPECT_EQ(IPow(2, 10), 1024);
  EXPECT_EQ(IPow(3, 0), 1);
  EXPECT_EQ(IPow(10, 6), 1000000);
  // Saturates instead of overflowing.
  EXPECT_EQ(IPow(10, 30), std::numeric_limits<int64_t>::max());
}

// The sort + linear-walk first-fit the mask scan replaced.
int64_t FirstMissingColorReference(std::vector<int64_t> forbidden) {
  std::sort(forbidden.begin(), forbidden.end());
  int64_t c = 1;
  for (int64_t f : forbidden) {
    if (f == c) ++c;
  }
  return c;
}

TEST(MathTest, FirstMissingColorMatchesSortScan) {
  EXPECT_EQ(FirstMissingColor(nullptr, 0), 1);
  Rng rng(202);
  for (int trial = 0; trial < 400; ++trial) {
    const int count = static_cast<int>(rng.NextBelow(300));
    std::vector<int64_t> forbidden(count);
    for (int i = 0; i < count; ++i) {
      // Duplicates and out-of-reach values on purpose: first-fit answers
      // are <= count+1, so anything larger must be ignorable.
      forbidden[i] = static_cast<int64_t>(rng.NextBelow(count + 4)) + 1;
    }
    ASSERT_EQ(FirstMissingColor(forbidden.data(), count),
              FirstMissingColorReference(forbidden))
        << "trial " << trial << " count " << count;
  }
  // Dense prefix: every color 1..k present forces c = k+1 (word-boundary
  // crossings and the heap-mask path above 8 words included).
  for (int k : {1, 63, 64, 65, 127, 128, 200, 511, 512, 600}) {
    std::vector<int64_t> forbidden(k);
    for (int i = 0; i < k; ++i) forbidden[i] = i + 1;
    EXPECT_EQ(FirstMissingColor(forbidden.data(), k), k + 1) << k;
  }
}

// Message-content digests recorded before messages became one word stay
// valid: MessageHash still mixes in the retired second word as 0, so these
// values, taken from the two-word hash with a zero second word, must hold.
TEST(DigestTest, MessageHashKeepsOneWordValues) {
  EXPECT_EQ(support::MessageHash(7, 2, 123456789, 1), 0x3337c6dc45cc978bull);
  EXPECT_EQ(support::MessageHash(0, 0, -5, 1), 0x6b0f6f8697cce284ull);
  EXPECT_EQ(support::MessageHash(1 << 20, 3, 0, 0), 0x30772d2f034b42d8ull);
}

}  // namespace
}  // namespace treelocal
