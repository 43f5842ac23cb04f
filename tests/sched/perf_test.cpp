// Engine perf observability: SimulationResult::perf carries the per-run DP
// counter delta, and every kernel call resolves as a fast-path exit or a
// table fill.
#include <gtest/gtest.h>

#include "exp/experiment.hpp"
#include "workload/generator.hpp"

namespace es::sched {
namespace {

workload::Workload fig7_workload() {
  workload::GeneratorConfig config;
  config.num_jobs = 300;
  config.seed = 17;
  config.p_small = 0.2;       // Fig 7: dominated by large jobs
  config.target_load = 0.9;   // the DP-intensive end of the sweep
  return workload::generate(config);
}

TEST(EnginePerf, DpCountersLandInSimulationResult) {
  const workload::Workload workload = fig7_workload();
  const SimulationResult result =
      exp::run_workload(workload, "Delayed-LOS");
  EXPECT_GT(result.perf.dp.calls, 0u);
  // Every call resolved through exactly one of the two paths, and this
  // workload reaches the table on some of them.
  EXPECT_EQ(result.perf.dp.calls,
            result.perf.dp.fast_path + result.perf.dp.table_runs);
  EXPECT_GT(result.perf.dp.table_runs, 0u);
  // Wall timings are measurement, not simulation state: merely sane.
  EXPECT_GE(result.perf.wall_seconds, 0.0);
  EXPECT_GE(result.perf.cycle_seconds, 0.0);
  EXPECT_LE(result.perf.cycle_seconds, result.perf.wall_seconds + 1e-3);
}

TEST(EnginePerf, SampledTimersReportTime) {
  // Both wall timers are sampled (1 unit in util::kTimerSamplePeriod), and
  // unit 0 is always timed: a run that fills tables reports table time, and
  // its cycle time is positive and bounded by the run's wall time.
  const workload::Workload workload = fig7_workload();
  const SimulationResult result =
      exp::run_workload(workload, "Delayed-LOS");
  ASSERT_GT(result.perf.dp.table_runs, 0u);
  EXPECT_GT(result.perf.dp.table_seconds, 0.0);
  EXPECT_GT(result.perf.cycle_seconds, 0.0);
  EXPECT_LE(result.perf.cycle_seconds, result.perf.wall_seconds);
}

TEST(EnginePerf, ReservationPoliciesAlsoCount) {
  // Hybrid-LOS exercises the 2-D reservation kernel once its head blocks.
  const workload::Workload workload = fig7_workload();
  const SimulationResult result =
      exp::run_workload(workload, "Hybrid-LOS");
  EXPECT_GT(result.perf.dp.calls, 0u);
  EXPECT_EQ(result.perf.dp.calls,
            result.perf.dp.fast_path + result.perf.dp.table_runs);
}

TEST(EnginePerf, PoliciesWithoutDpReportZeroes) {
  const workload::Workload workload = fig7_workload();
  const SimulationResult result = exp::run_workload(workload, "EASY");
  EXPECT_EQ(result.perf.dp.calls, 0u);
  EXPECT_EQ(result.perf.dp.table_runs, 0u);
}

TEST(EnginePerf, CountersAreAPerRunDelta) {
  // One policy object driven through two engine runs: the policy's counters
  // are cumulative, so each result must carry only its own run's delta —
  // identical runs report identical (not doubling) numbers.
  const workload::Workload workload = fig7_workload();
  core::Algorithm algorithm = core::make_algorithm("Delayed-LOS");
  ASSERT_NE(algorithm.policy, nullptr);
  EngineConfig config;
  config.machine_procs = workload.machine_procs;
  config.granularity = workload.granularity;
  const SimulationResult first =
      simulate(config, *algorithm.policy, workload);
  const SimulationResult second =
      simulate(config, *algorithm.policy, workload);
  EXPECT_GT(first.perf.dp.calls, 0u);
  // A cumulative (non-delta) report would double on the second run.
  EXPECT_EQ(first.perf.dp.calls, second.perf.dp.calls);
  EXPECT_EQ(first.perf.dp.fast_path, second.perf.dp.fast_path);
  EXPECT_EQ(first.perf.dp.table_runs, second.perf.dp.table_runs);
  EXPECT_EQ(first.perf.dp.table_cells, second.perf.dp.table_cells);
}

}  // namespace
}  // namespace es::sched
