#include "workload/lublin.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.hpp"

namespace es::workload {
namespace {

TEST(RuntimeModel, MixingProbabilityFollowsTableOne) {
  const RuntimeParams params;  // Table I defaults
  // p = -0.0054 * s + 0.78, clamped.
  EXPECT_NEAR(params.mixing_p(32), 0.78 - 0.0054 * 32, 1e-12);
  EXPECT_NEAR(params.mixing_p(96), 0.78 - 0.0054 * 96, 1e-12);
  EXPECT_DOUBLE_EQ(params.mixing_p(320), 0.0);  // clamped at 0
  EXPECT_DOUBLE_EQ(params.mixing_p(0), 0.78);
}

TEST(RuntimeModel, SamplesWithinBounds) {
  const RuntimeParams params;
  util::Rng rng(1);
  for (int i = 0; i < 20000; ++i) {
    const double runtime = params.sample(rng, 64);
    EXPECT_GE(runtime, params.min_runtime);
    EXPECT_LE(runtime, params.max_runtime);
  }
}

TEST(RuntimeModel, LargeJobsRunLongerOnAverage) {
  // The size correlation (p decreasing in s) must make large jobs draw from
  // the long-runtime Gamma more often.
  const RuntimeParams params;
  util::Rng rng(2);
  double small_sum = 0, large_sum = 0;
  const int n = 30000;
  for (int i = 0; i < n; ++i) small_sum += params.sample(rng, 32);
  for (int i = 0; i < n; ++i) large_sum += params.sample(rng, 256);
  EXPECT_GT(large_sum / n, 2.0 * small_sum / n);
}

TEST(RuntimeModel, PureLongComponentCentersOnExpA2B2) {
  // For s with p = 0 every draw is Gamma(312, 0.03) in log space:
  // median runtime ~ e^9.36.
  const RuntimeParams params;
  util::Rng rng(3);
  double log_sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) log_sum += std::log(params.sample(rng, 320));
  EXPECT_NEAR(log_sum / n, 312 * 0.03, 0.05);
}

TEST(ArrivalProcess, StrictlyIncreasing) {
  ArrivalProcess arrivals(util::Rng(4));
  double last = arrivals.next();
  for (int i = 0; i < 2000; ++i) {
    const double t = arrivals.next();
    EXPECT_GT(t, last);
    last = t;
  }
}

TEST(ArrivalProcess, DeterministicForSeed) {
  ArrivalProcess a(util::Rng(5));
  ArrivalProcess b(util::Rng(5));
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.next(), b.next());
}

TEST(ArrivalProcess, HourlyBucketsRateSetByJobsPerHour) {
  // ~Gamma(α_num, β_num) jobs land per hour (α_arr only shapes the
  // intra-hour spacing, and β_arr cancels out of it); 500 jobs at ~14.6
  // jobs/hour span roughly 34 hours.
  ArrivalProcess arrivals(util::Rng(6));
  double last = 0;
  for (int i = 0; i < 500; ++i) last = arrivals.next();
  const double hours = last / 3600.0;
  EXPECT_GT(hours, 20);
  EXPECT_LT(hours, 60);
}

TEST(ArrivalProcess, HourlyBucketsFirstArrivalWithinFirstHours) {
  ArrivalProcess arrivals(util::Rng(7));
  const double first = arrivals.next();
  EXPECT_GE(first, 0.0);
  EXPECT_LT(first, 3600.0 * 24);  // some hour of the first day
}

TEST(LogUniformSize, BoundsAndSerialJobs) {
  LogUniformSize model;
  model.hi = 7.0;  // 128-processor machine
  util::Rng rng(8);
  int serial = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const int size = model.sample(rng);
    EXPECT_GE(size, 1);
    EXPECT_LE(size, 128);
    if (size == 1) ++serial;
  }
  // p_serial = 0.24 plus a few log-uniform draws that round to 1.
  EXPECT_GT(serial / static_cast<double>(n), 0.2);
  EXPECT_LT(serial / static_cast<double>(n), 0.4);
}

TEST(LogUniformSize, PowersOfTwoDominate) {
  LogUniformSize model;
  model.hi = 7.0;
  util::Rng rng(9);
  int pow2 = 0, parallel = 0;
  for (int i = 0; i < 20000; ++i) {
    const int size = model.sample(rng);
    if (size == 1) continue;
    ++parallel;
    if ((size & (size - 1)) == 0) ++pow2;
  }
  EXPECT_GT(pow2 / static_cast<double>(parallel), 0.7);
}

TEST(LogUniformSize, VariedNonPowerSizesExist) {
  LogUniformSize model;
  model.hi = 7.0;
  util::Rng rng(10);
  int non_pow2 = 0;
  for (int i = 0; i < 20000; ++i) {
    const int size = model.sample(rng);
    if (size > 1 && (size & (size - 1)) != 0) ++non_pow2;
  }
  EXPECT_GT(non_pow2, 100);
}


TEST(ArrivalProcess, RushHoursReceiveMoreJobsThanOffHours) {
  // ARAR = 1.0225 thins off-hour buckets by ~2%, so compare per-hour rates
  // over 1,000 days (~350k arrivals) rather than raw counts.
  ArrivalProcess arrivals(util::Rng(11));
  const double days = 1000;
  double rush = 0, off = 0;
  for (double t = arrivals.next(); t < days * 86400; t = arrivals.next()) {
    const double hour = std::fmod(t / 3600.0, 24.0);
    if (hour >= 8 && hour < 18) {  // the 8:00-18:00 rush window
      ++rush;
    } else {
      ++off;
    }
  }
  const double rush_rate = rush / (10 * days);
  const double off_rate = off / (14 * days);
  EXPECT_NEAR(rush_rate / off_rate, 1.0225, 0.01);
}

TEST(ArrivalProcess, HourlyBucketJobsStayWithinTheirHour) {
  ArrivalProcess arrivals(util::Rng(12));
  double prev = -1;
  for (int i = 0; i < 1000; ++i) {
    const double t = arrivals.next();
    EXPECT_GT(t, prev);
    prev = t;
  }
}

}  // namespace
}  // namespace es::workload
