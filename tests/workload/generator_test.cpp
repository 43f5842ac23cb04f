#include "workload/generator.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <set>
#include <vector>

#include "workload/load.hpp"

namespace es::workload {
namespace {

GeneratorConfig base_config() {
  GeneratorConfig config;
  config.num_jobs = 400;
  config.seed = 11;
  return config;
}

TEST(Generator, ProducesRequestedJobCount) {
  const Workload workload = generate(base_config());
  EXPECT_EQ(workload.jobs.size(), 400u);
  EXPECT_EQ(workload.machine_procs, 320);
  EXPECT_EQ(workload.granularity, 32);
}

TEST(Generator, JobsSortedWithSequentialIds) {
  const Workload workload = generate(base_config());
  std::set<JobId> ids;
  for (std::size_t i = 0; i < workload.jobs.size(); ++i) {
    ids.insert(workload.jobs[i].id);
    if (i > 0) {
      EXPECT_GE(workload.jobs[i].arr, workload.jobs[i - 1].arr);
    }
  }
  EXPECT_EQ(ids.size(), workload.jobs.size());
  EXPECT_EQ(*ids.begin(), 1);
  EXPECT_EQ(*ids.rbegin(), static_cast<JobId>(workload.jobs.size()));
}

TEST(Generator, SizesAreNodeCardMultiplesWithinMachine) {
  const Workload workload = generate(base_config());
  for (const Job& job : workload.jobs) {
    EXPECT_EQ(job.num % 32, 0);
    EXPECT_GE(job.num, 32);
    EXPECT_LE(job.num, 320);
    EXPECT_GT(job.dur, 0);
    EXPECT_GT(job.actual_runtime(), 0);
  }
}

TEST(Generator, DeterministicPerSeed) {
  const Workload a = generate(base_config());
  const Workload b = generate(base_config());
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.jobs[i].arr, b.jobs[i].arr);
    EXPECT_EQ(a.jobs[i].num, b.jobs[i].num);
    EXPECT_DOUBLE_EQ(a.jobs[i].dur, b.jobs[i].dur);
  }
  GeneratorConfig other = base_config();
  other.seed = 12;
  const Workload c = generate(other);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.jobs.size(); ++i)
    any_diff |= (a.jobs[i].num != c.jobs[i].num);
  EXPECT_TRUE(any_diff);
}

TEST(Generator, SmallJobFractionTracksPs) {
  for (double ps : {0.2, 0.8}) {
    GeneratorConfig config = base_config();
    config.num_jobs = 3000;
    config.p_small = ps;
    const Workload workload = generate(config);
    int small = 0;
    for (const Job& job : workload.jobs)
      if (job.num <= 96) ++small;
    EXPECT_NEAR(small / static_cast<double>(workload.jobs.size()), ps, 0.04);
  }
}

TEST(Generator, DedicatedFractionTracksPd) {
  GeneratorConfig config = base_config();
  config.num_jobs = 3000;
  config.p_dedicated = 0.5;
  const Workload workload = generate(config);
  EXPECT_NEAR(static_cast<double>(workload.dedicated_count()) /
                  static_cast<double>(workload.jobs.size()),
              0.5, 0.04);
  for (const Job& job : workload.jobs) {
    if (job.dedicated()) {
      EXPECT_GT(job.start, job.arr);
    } else {
      EXPECT_DOUBLE_EQ(job.start, -1);
    }
  }
}

TEST(Generator, TogglingDedicatedKeepsJobShapes) {
  // Independent RNG streams: P_D must not change sizes/durations/arrivals.
  GeneratorConfig with = base_config();
  with.p_dedicated = 0.5;
  GeneratorConfig without = base_config();
  const Workload a = generate(with);
  const Workload b = generate(without);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].num, b.jobs[i].num);
    EXPECT_DOUBLE_EQ(a.jobs[i].dur, b.jobs[i].dur);
    EXPECT_DOUBLE_EQ(a.jobs[i].arr, b.jobs[i].arr);
  }
}

TEST(Generator, EccInjectionRates) {
  GeneratorConfig config = base_config();
  config.num_jobs = 4000;
  config.p_extend = 0.2;
  config.p_reduce = 0.1;
  const Workload workload = generate(config);
  std::size_t extends = 0, reduces = 0;
  for (const Ecc& ecc : workload.eccs) {
    EXPECT_GT(ecc.amount, 0);
    EXPECT_GE(ecc.job_id, 1);
    if (ecc.type == EccType::kExtendTime) ++extends;
    if (ecc.type == EccType::kReduceTime) ++reduces;
  }
  EXPECT_EQ(extends + reduces, workload.eccs.size());
  EXPECT_NEAR(static_cast<double>(extends) / 4000.0, 0.2, 0.03);
  EXPECT_NEAR(static_cast<double>(reduces) / 4000.0, 0.1, 0.02);
}

TEST(Generator, EccIssueTimesWithinJobWindow) {
  GeneratorConfig config = base_config();
  config.p_extend = 0.3;
  config.p_reduce = 0.2;
  const Workload workload = generate(config);
  ASSERT_FALSE(workload.eccs.empty());
  for (const Ecc& ecc : workload.eccs) {
    const Job& job =
        workload.jobs[static_cast<std::size_t>(ecc.job_id - 1)];
    EXPECT_EQ(job.id, ecc.job_id);
    EXPECT_GE(ecc.issue, job.arr);
    EXPECT_LE(ecc.issue, job.arr + job.dur);
  }
}

TEST(Generator, ReductionsKeepJobsViable) {
  GeneratorConfig config = base_config();
  config.p_reduce = 1.0;
  config.p_extend = 0.0;
  const Workload workload = generate(config);
  for (const Ecc& ecc : workload.eccs) {
    const Job& job =
        workload.jobs[static_cast<std::size_t>(ecc.job_id - 1)];
    EXPECT_LE(ecc.amount, 0.9 * job.dur + 1.0);
  }
}

TEST(Generator, EstimateFactorInflatesRequestedTime) {
  GeneratorConfig config = base_config();
  config.estimate_factor = 2.0;
  const Workload workload = generate(config);
  for (const Job& job : workload.jobs)
    EXPECT_NEAR(job.dur, 2.0 * job.actual, 1e-9);
}

TEST(Generator, TargetLoadCalibration) {
  for (double target : {0.5, 0.9}) {
    GeneratorConfig config = base_config();
    config.target_load = target;
    const Workload workload = generate(config);
    EXPECT_NEAR(offered_load(workload, config.machine_procs), target,
                0.02 * target);
  }
}

TEST(Generator, SamplerEmitsArrivalOrder) {
  // generate()'s normalize() skips the job sort only when the raw sampler
  // output is in job_before() order, whichever streams a config switches on.
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    for (const double p_dedicated : {0.0, 0.5, 1.0}) {
      for (const bool with_eccs : {false, true}) {
        for (const bool tenancy : {false, true}) {
          GeneratorConfig config;
          config.num_jobs = 200;
          config.seed = seed;
          config.p_dedicated = p_dedicated;
          config.p_extend = 0.3;
          config.p_reduce = 0.3;
          config.p_extend_procs = 0.1;
          config.num_users = tenancy ? 16 : 0;
          config.num_pools = tenancy ? 4 : 0;
          SCOPED_TRACE(testing::Message()
                       << "seed " << seed << " P_D " << p_dedicated
                       << (with_eccs ? " eccs" : "")
                       << (tenancy ? " tenancy" : ""));
          JobSampler sampler(config);
          const ZipfSampler users(16, config.zipf_exponent);
          std::vector<Ecc> eccs;
          Job previous;
          Job job;
          std::size_t drawn = 0;
          while (sampler.next(job, with_eccs ? &eccs : nullptr,
                              tenancy ? &users : nullptr)) {
            if (drawn++ > 0) {
              ASSERT_TRUE(job_before(previous, job)) << "job " << job.id;
            }
            previous = job;
          }
          EXPECT_EQ(drawn, config.num_jobs);
        }
      }
    }
  }
}

/// Every field of every job and command, compared by bit pattern.
void expect_same_trace(const Workload& a, const Workload& b) {
  const auto bits = [](double value) {
    std::uint64_t word = 0;
    std::memcpy(&word, &value, sizeof word);
    return word;
  };
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  ASSERT_EQ(a.eccs.size(), b.eccs.size());
  EXPECT_EQ(a.machine_procs, b.machine_procs);
  EXPECT_EQ(a.granularity, b.granularity);
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    const Job& x = a.jobs[i];
    const Job& y = b.jobs[i];
    ASSERT_EQ(x.id, y.id) << "job " << i;
    ASSERT_EQ(bits(x.arr), bits(y.arr)) << "job " << i;
    ASSERT_EQ(x.num, y.num) << "job " << i;
    ASSERT_EQ(bits(x.dur), bits(y.dur)) << "job " << i;
    ASSERT_EQ(bits(x.actual), bits(y.actual)) << "job " << i;
    ASSERT_EQ(x.type, y.type) << "job " << i;
    ASSERT_EQ(bits(x.start), bits(y.start)) << "job " << i;
    ASSERT_EQ(x.user, y.user) << "job " << i;
    ASSERT_EQ(x.pool, y.pool) << "job " << i;
  }
  for (std::size_t i = 0; i < a.eccs.size(); ++i) {
    const Ecc& x = a.eccs[i];
    const Ecc& y = b.eccs[i];
    ASSERT_EQ(bits(x.issue), bits(y.issue)) << "ecc " << i;
    ASSERT_EQ(x.job_id, y.job_id) << "ecc " << i;
    ASSERT_EQ(x.type, y.type) << "ecc " << i;
    ASSERT_EQ(bits(x.amount), bits(y.amount)) << "ecc " << i;
  }
}

TEST(Generator, CalibratingAnUnscaledTraceMatches) {
  // generate() calibrates while it samples; the result must be the trace
  // sampled once at load 0 and calibrated afterwards, bit for bit.
  for (const double p_dedicated : {0.0, 0.5}) {
    GeneratorConfig unscaled;
    unscaled.num_jobs = 3000;
    unscaled.seed = 29;
    unscaled.p_dedicated = p_dedicated;
    unscaled.p_extend = 0.3;
    unscaled.p_reduce = 0.3;
    unscaled.p_extend_procs = 0.1;
    unscaled.p_reduce_procs = 0.1;
    const Workload sampled = generate(unscaled);
    for (const double load : {0.3, 0.7, 1.1}) {
      SCOPED_TRACE(testing::Message()
                   << "P_D " << p_dedicated << " load " << load);
      GeneratorConfig config = unscaled;
      config.target_load = load;
      Workload calibrated = sampled;
      calibrate_load(calibrated, config.machine_procs, load);
      expect_same_trace(generate(config), calibrated);
    }
  }
}

TEST(GeneratorSdscLike, ShapeMatchesSp2Machine) {
  const Workload workload = generate_sdsc_like(600, 128, 21);
  EXPECT_EQ(workload.machine_procs, 128);
  EXPECT_EQ(workload.granularity, 1);
  EXPECT_EQ(workload.jobs.size(), 600u);
  EXPECT_TRUE(workload.eccs.empty());
  for (const Job& job : workload.jobs) {
    EXPECT_GE(job.num, 1);
    EXPECT_LE(job.num, 128);
    EXPECT_FALSE(job.dedicated());
  }
  EXPECT_EQ(workload.dedicated_count(), 0u);
}

TEST(GeneratorSdscLike, Deterministic) {
  const Workload a = generate_sdsc_like(100, 128, 3);
  const Workload b = generate_sdsc_like(100, 128, 3);
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].num, b.jobs[i].num);
    EXPECT_DOUBLE_EQ(a.jobs[i].arr, b.jobs[i].arr);
  }
}


TEST(Generator, UniformEstimateModel) {
  GeneratorConfig config = base_config();
  config.num_jobs = 2000;
  config.estimate_uniform_max = 3.0;
  const Workload workload = generate(config);
  double ratio_sum = 0;
  for (const Job& job : workload.jobs) {
    const double ratio = job.dur / job.actual;
    EXPECT_GE(ratio, 1.0);
    EXPECT_LE(ratio, 3.0);
    ratio_sum += ratio;
  }
  // U(1,3) has mean 2.
  EXPECT_NEAR(ratio_sum / static_cast<double>(workload.jobs.size()), 2.0,
              0.05);
}

TEST(Generator, UniformEstimateModelKeepsOtherStreams) {
  // Turning estimate noise on must not change sizes/runtimes/arrivals.
  GeneratorConfig noisy = base_config();
  noisy.estimate_uniform_max = 3.0;
  const Workload a = generate(noisy);
  const Workload b = generate(base_config());
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].num, b.jobs[i].num);
    EXPECT_DOUBLE_EQ(a.jobs[i].actual, b.jobs[i].actual);
    EXPECT_DOUBLE_EQ(a.jobs[i].arr, b.jobs[i].arr);
  }
}

}  // namespace
}  // namespace es::workload
