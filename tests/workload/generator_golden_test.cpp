// Golden fingerprints of generate(): every job field, every ECC field and
// the tenancy tags, hashed by bit pattern over a handful of configurations
// that between them reach each branch of the per-job draw, the ECC draws,
// the user stream and the target-load calibration.  A change here means
// every generated trace changed; the fig CSVs and schedule goldens follow.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "workload/generator.hpp"

namespace es::workload {
namespace {

/// FNV-1a over the workload's geometry, jobs and ECCs.
std::uint64_t workload_hash(const Workload& workload) {
  std::uint64_t hash = 14695981039346656037ull;
  const auto mix = [&hash](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ull;
    }
  };
  const auto bits = [](double value) {
    std::uint64_t word = 0;
    std::memcpy(&word, &value, sizeof word);
    return word;
  };
  const auto integer = [](auto value) {
    return static_cast<std::uint64_t>(static_cast<std::int64_t>(value));
  };
  mix(integer(workload.machine_procs));
  mix(integer(workload.granularity));
  mix(integer(workload.jobs.size()));
  for (const Job& job : workload.jobs) {
    mix(integer(job.id));
    mix(bits(job.arr));
    mix(integer(job.num));
    mix(bits(job.dur));
    mix(bits(job.actual));
    mix(integer(job.type));
    mix(bits(job.start));
    mix(integer(job.user));
    mix(integer(job.pool));
  }
  mix(integer(workload.eccs.size()));
  for (const Ecc& ecc : workload.eccs) {
    mix(bits(ecc.issue));
    mix(integer(ecc.job_id));
    mix(integer(ecc.type));
    mix(bits(ecc.amount));
  }
  return hash;
}

GeneratorConfig golden_config() {
  GeneratorConfig config;
  config.num_jobs = 600;
  config.seed = 17;
  return config;
}

TEST(GeneratorGolden, TargetLoadCalibration) {
  GeneratorConfig config = golden_config();
  config.p_small = 0.2;
  config.target_load = 0.9;
  EXPECT_EQ(workload_hash(generate(config)), 0x39f1287d0596df8full);
}

TEST(GeneratorGolden, UniformEstimates) {
  GeneratorConfig config = golden_config();
  config.estimate_uniform_max = 3.0;
  config.target_load = 0.7;
  EXPECT_EQ(workload_hash(generate(config)), 0x1dac6dab3f3d3181ull);
}

TEST(GeneratorGolden, DedicatedJobsWithTimeAndProcessorEccs) {
  GeneratorConfig config = golden_config();
  config.p_dedicated = 0.3;
  config.p_extend = 0.2;
  config.p_reduce = 0.15;
  config.p_extend_procs = 0.1;
  config.p_reduce_procs = 0.1;
  config.max_eccs_per_job = 2;
  config.estimate_factor = 2.0;
  config.target_load = 0.8;
  const Workload workload = generate(config);
  ASSERT_GT(workload.dedicated_count(), 0u);
  bool time_ecc = false, proc_ecc = false;
  for (const Ecc& ecc : workload.eccs) {
    const bool procs = ecc.type == EccType::kExtendProcs ||
                       ecc.type == EccType::kReduceProcs;
    (procs ? proc_ecc : time_ecc) = true;
  }
  ASSERT_TRUE(time_ecc && proc_ecc);
  EXPECT_EQ(workload_hash(workload), 0x49a088369cc0b134ull);
}

TEST(GeneratorGolden, TenancyTags) {
  GeneratorConfig config = golden_config();
  config.num_users = 24;
  config.num_pools = 3;
  config.zipf_exponent = 1.3;
  config.p_extend = 0.1;
  config.target_load = 1.0;
  const Workload workload = generate(config);
  int max_pool = 0;
  for (const Job& job : workload.jobs) max_pool = std::max(max_pool, job.pool);
  ASSERT_EQ(max_pool, 2);
  EXPECT_EQ(workload_hash(workload), 0xd2b2da2268f311f5ull);
}

TEST(GeneratorGolden, GranularityOneWithoutCalibration) {
  GeneratorConfig config = golden_config();
  config.machine_procs = 256;
  config.size.unit = 1;
  config.size.lo1 = 8;
  config.size.hi1 = 40;
  config.size.lo2 = 48;
  config.size.hi2 = 160;
  config.p_dedicated = 0.1;
  EXPECT_EQ(workload_hash(generate(config)), 0xacd76204a0229103ull);
}

}  // namespace
}  // namespace es::workload
