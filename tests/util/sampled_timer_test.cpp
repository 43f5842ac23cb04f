#include "util/sampled_timer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

namespace es::util {
namespace {

constexpr std::uint64_t kPeriod = kTimerSamplePeriod;

TEST(SampledTimer, PredicateIsDeterministicAndTimesIndexZero) {
  // A pure function of the index, evaluable at compile time; the first
  // timed indices are pinned, gaps of 8, 13 and 21 from the golden-ratio
  // hash.
  static_assert(timer_sampled(0));
  const std::vector<std::uint64_t> expected = {0,  13, 34,  47,  68,
                                               81, 89, 102, 123, 136};
  std::vector<std::uint64_t> timed;
  for (std::uint64_t i = 0; timed.size() < expected.size(); ++i)
    if (timer_sampled(i)) timed.push_back(i);
  EXPECT_EQ(timed, expected);
}

TEST(SampledTimer, EveryWindowOf1024GetsItsShare) {
  // Slide a 1,024-index window over the first 2^20 indices and over a
  // stretch far out (a long run's event ordinals): each window holds
  // 1024/k timed indices, give or take a few.
  constexpr std::uint64_t kWindow = 1024;
  constexpr int kExpected = static_cast<int>(kWindow / kPeriod);
  for (const std::uint64_t base : {std::uint64_t{0}, std::uint64_t{1} << 40}) {
    int count = 0;
    for (std::uint64_t i = 0; i < kWindow; ++i)
      count += timer_sampled(base + i);
    int lo = count;
    int hi = count;
    for (std::uint64_t start = base; start < base + (1u << 20); ++start) {
      count += static_cast<int>(timer_sampled(start + kWindow)) -
               static_cast<int>(timer_sampled(start));
      lo = std::min(lo, count);
      hi = std::max(hi, count);
    }
    EXPECT_GE(lo, kExpected - 3) << "base " << base;
    EXPECT_LE(hi, kExpected + 3) << "base " << base;
  }
}

TEST(SampledTimer, PeriodicIndicesDoNotAlias) {
  // Events that recur with a short period p (alternating arrivals and
  // finishes, say) must not all fall in, or all miss, the sample: every
  // residue class mod p gets about 1/k of its indices timed.
  constexpr std::uint64_t kSpan = std::uint64_t{1} << 18;
  for (std::uint64_t p = 2; p <= 8; ++p) {
    for (std::uint64_t r = 0; r < p; ++r) {
      std::uint64_t indices = 0;
      std::uint64_t timed = 0;
      for (std::uint64_t i = r; i < kSpan; i += p) {
        ++indices;
        timed += timer_sampled(i);
      }
      const double share = static_cast<double>(timed) /
                           static_cast<double>(indices);
      EXPECT_NEAR(share * static_cast<double>(kPeriod), 1.0, 0.25)
          << "period " << p << " residue " << r;
    }
  }
}

TEST(SampledTimer, ScopeReadsTheClockOnlyWhenSampled) {
  TimerTicks sum = 0;
  { const SampledScope scope(false, sum); }
  EXPECT_EQ(sum, 0);
  { const SampledScope scope(true, sum); }
  EXPECT_GE(sum, 0);
}

}  // namespace
}  // namespace es::util
