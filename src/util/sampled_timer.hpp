// Sampled wall timers.
//
// A steady_clock read costs tens of nanoseconds (a vDSO call; ~37 ns on a
// 4-vCPU x86 host), the same order as a whole short policy cycle.  So the
// hot-path timers read the clock around 1 unit in kTimerSamplePeriod (an
// event, a DP table fill) instead of around every one.  Which units are
// timed is a pure function of a deterministic index, so the selection
// repeats run to run; the readings never feed back into a schedule.
#pragma once

#include <bit>
#include <chrono>
#include <cstdint>

namespace es::util {

/// One unit in kTimerSamplePeriod is timed.  A constant, not a knob: the
/// timers are measurement, and their cost must not depend on configuration.
inline constexpr std::uint64_t kTimerSamplePeriod = 16;
static_assert(std::has_single_bit(kTimerSamplePeriod));

/// Whether unit `index` is timed.  A multiplicative (Fibonacci) hash keeps
/// the top log2(k) bits of index * 2^64/phi: consecutive indices walk the
/// circle by the golden ratio, so every run of consecutive indices — and
/// every arithmetic progression of them, as periodic arrival/finish
/// patterns produce — lands in the timed 1/k arc about evenly, where
/// `index % k` would alias with a period that shares a factor with k.
/// Index 0 is always timed.
constexpr bool timer_sampled(std::uint64_t index) {
  constexpr int kShift = 64 - std::countr_zero(kTimerSamplePeriod);
  return ((index * 0x9E3779B97F4A7C15ull) >> kShift) == 0;
}

/// Clock ticks, kept integral so that nested spans sum and compare exactly.
using TimerTicks = std::chrono::steady_clock::rep;

inline TimerTicks timer_now() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}

inline double timer_seconds(TimerTicks ticks) {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::duration(ticks))
      .count();
}

/// Adds the ticks its scope spans to `sum` when `sampled`; reads no clock
/// otherwise.
class SampledScope {
 public:
  SampledScope(bool sampled, TimerTicks& sum)
      : sum_(sampled ? &sum : nullptr), start_(sampled ? timer_now() : 0) {}
  SampledScope(const SampledScope&) = delete;
  SampledScope& operator=(const SampledScope&) = delete;
  ~SampledScope() {
    if (sum_ != nullptr) *sum_ += timer_now() - start_;
  }

 private:
  TimerTicks* sum_;
  TimerTicks start_;
};

}  // namespace es::util
