// Golden per-job outcomes of the LOS family on a wide machine: 1024
// processors at granularity 1, so Basic_DP rows run to 1025 columns and
// Reservation_DP packs around shadow capacities below and above the free
// capacity.  The traces carry ECCs, and dedicated jobs where the policy
// takes them.  The constants pin every DP selection of these runs: a
// rewrite of the table fills that is meant as a pure speed-up must leave
// all of them untouched.  Each case replays once more with the scalar row
// kernel forced, which may not move a single selection, so the replay must
// reproduce the same hash.  Regenerate only for a deliberate change of
// which set the DP selects.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/dp.hpp"
#include "core/factory.hpp"
#include "exp/experiment.hpp"
#include "testing/helpers.hpp"
#include "workload/generator.hpp"

namespace es {
namespace {

workload::GeneratorConfig wide_config(double p_dedicated) {
  workload::GeneratorConfig config;
  config.machine_procs = 1024;
  config.num_jobs = 1500;
  config.seed = 43;
  config.target_load = 1.1;
  config.p_small = 0.3;
  config.p_dedicated = p_dedicated;
  config.p_extend = 0.2;
  config.p_reduce = 0.2;
  config.size.unit = 1;
  config.size.lo1 = 8;
  config.size.hi1 = 64;
  config.size.lo2 = 96;
  config.size.hi2 = 320;
  return config;
}

std::uint64_t golden_run(double p_dedicated, const std::string& algorithm) {
  const workload::Workload workload =
      workload::generate(wide_config(p_dedicated));
  EXPECT_EQ(workload.granularity, 1);
  EXPECT_FALSE(workload.eccs.empty());
  EXPECT_EQ(workload.dedicated_count() > 0, p_dedicated > 0);
  core::AlgorithmOptions options;
  options.max_skip_count = 7;
  options.lookahead = 120;
  const sched::SimulationResult result =
      exp::run_workload(workload, algorithm, options);
  EXPECT_EQ(result.completed + result.killed, workload.jobs.size());
  EXPECT_GT(result.perf.dp.table_runs, 0u);
  return testing::outcome_hash(result);
}

class WideDpGolden : public ::testing::Test {
 protected:
  void SetUp() override { simd_ = core::dp_simd_enabled(); }
  void TearDown() override { core::set_dp_simd_enabled(simd_); }

  /// The default run, then the scalar-kernel replay; both must produce
  /// `golden`.
  static void expect_golden(double p_dedicated, const std::string& algorithm,
                            std::uint64_t golden) {
    EXPECT_EQ(golden_run(p_dedicated, algorithm), golden);
    core::set_dp_simd_enabled(false);
    EXPECT_EQ(golden_run(p_dedicated, algorithm), golden)
        << "scalar DP rows";
  }

 private:
  bool simd_ = true;
};

TEST_F(WideDpGolden, LosWithDedicatedJobsAndEccs) {
  expect_golden(0.2, "LOS-DE", 0x787db32b20d554f7ull);
}

TEST_F(WideDpGolden, DelayedLosWithEccs) {
  expect_golden(0.0, "Delayed-LOS-E", 0x534fbdf97fadd9e8ull);
}

TEST_F(WideDpGolden, HybridLosWithDedicatedJobsAndEccs) {
  expect_golden(0.2, "Hybrid-LOS-E", 0x6582fbb431bb3a0cull);
}

}  // namespace
}  // namespace es
