#include "sched/engine.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "testing/helpers.hpp"
#include "workload/source.hpp"

namespace es::sched {
namespace {

using es::testing::batch_job;
using es::testing::dedicated_job;
using es::testing::make_workload;
using es::testing::run_scenario;

TEST(Engine, SingleJobLifecycle) {
  const auto workload = make_workload(10, 1, {batch_job(1, 5, 4, 100)});
  const auto scenario = run_scenario(workload, "FCFS");
  const auto& job = scenario.job(1);
  EXPECT_DOUBLE_EQ(job.arrival, 5);
  EXPECT_DOUBLE_EQ(job.started, 5);
  EXPECT_DOUBLE_EQ(job.finished, 105);
  EXPECT_DOUBLE_EQ(job.wait, 0);
  EXPECT_DOUBLE_EQ(job.run, 100);
  EXPECT_FALSE(job.killed);
  EXPECT_EQ(scenario.result.completed, 1u);
}

TEST(Engine, UtilizationIntegralMatchesHandComputation) {
  // 4/10 procs busy for 100 s, then 8/10 for 50 s, span 150 s.
  const auto workload = make_workload(
      10, 1, {batch_job(1, 0, 4, 100), batch_job(2, 100, 8, 50)});
  const auto scenario = run_scenario(workload, "FCFS");
  EXPECT_NEAR(scenario.result.utilization,
              (4 * 100 + 8 * 50) / (10.0 * 150), 1e-9);
}

TEST(Engine, KillsJobOverrunningItsEstimate) {
  auto job = batch_job(1, 0, 4, /*dur=*/50, /*actual=*/80);
  const auto scenario = run_scenario(make_workload(10, 1, {job}), "FCFS");
  EXPECT_TRUE(scenario.job(1).killed);
  EXPECT_DOUBLE_EQ(scenario.end_of(1), 50);  // killed at the kill-by time
  EXPECT_EQ(scenario.result.killed, 1u);
  EXPECT_EQ(scenario.result.completed, 0u);
}

TEST(Engine, EarlyCompletionFreesCapacitySooner) {
  // Job 1 estimates 100 but actually runs 20; job 2 (10 procs) can start at
  // t=20, not t=100.
  auto early = batch_job(1, 0, 10, 100, /*actual=*/20);
  const auto workload =
      make_workload(10, 1, {early, batch_job(2, 1, 10, 50)});
  const auto scenario = run_scenario(workload, "FCFS");
  EXPECT_DOUBLE_EQ(scenario.start_of(2), 20);
  EXPECT_FALSE(scenario.job(1).killed);
}

TEST(Engine, GranularityRoundsAllocations) {
  // 100 procs requested on a 32-granular machine occupy 128; 150 occupy 160.
  const auto workload = make_workload(
      320, 32, {batch_job(1, 0, 100, 50), batch_job(2, 0, 150, 50)});
  const auto scenario = run_scenario(workload, "FCFS");
  EXPECT_EQ(scenario.job(1).procs, 128);
  EXPECT_EQ(scenario.job(2).procs, 160);
  // 128 + 160 = 288 <= 320: both fit together.
  EXPECT_DOUBLE_EQ(scenario.start_of(2), 0);
}

TEST(Engine, GranularityPreventsOverpacking) {
  // 2 x 100 -> 2 x 128 = 256; a third 100-proc job (128) exceeds 320.
  const auto workload = make_workload(
      320, 32,
      {batch_job(1, 0, 100, 50), batch_job(2, 0, 100, 50),
       batch_job(3, 0, 100, 50)});
  const auto scenario = run_scenario(workload, "FCFS");
  EXPECT_DOUBLE_EQ(scenario.start_of(3), 50);
}

TEST(Engine, DedicatedDueEventTriggersStartWithoutOtherTraffic) {
  // No batch events anywhere near t=100: the DedicatedDue wake-up alone
  // must start the job.
  const auto workload =
      make_workload(10, 1, {dedicated_job(1, 0, 4, 10, 100)});
  const auto scenario = run_scenario(workload, "Hybrid-LOS");
  EXPECT_DOUBLE_EQ(scenario.start_of(1), 100);
}

TEST(Engine, MeanWaitMixesBatchWaitAndDedicatedDelay) {
  // Hybrid-LOS protects the dedicated reservation at t=150: the batch job
  // j2 (which would cross it) is held back, the dedicated job starts on
  // time (delay 0), and j2 runs after it (wait 200).
  const auto workload = make_workload(
      10, 1,
      {batch_job(1, 0, 10, 100),              // starts at 0, wait 0
       batch_job(2, 0, 10, 100),              // held until 200, wait 200
       dedicated_job(3, 0, 10, 50, 150)});    // on time, delay 0
  const auto scenario = run_scenario(workload, "Hybrid-LOS");
  EXPECT_DOUBLE_EQ(scenario.job(3).wait, 0);
  EXPECT_DOUBLE_EQ(scenario.start_of(3), 150);
  EXPECT_DOUBLE_EQ(scenario.start_of(2), 200);
  EXPECT_NEAR(scenario.result.mean_wait, (0 + 200 + 0) / 3.0, 1e-9);
}

TEST(Engine, EccIgnoredWithoutProcessor) {
  // Non-elastic algorithm: the ET command must not extend the job.
  workload::Ecc ecc;
  ecc.issue = 10;
  ecc.job_id = 1;
  ecc.type = workload::EccType::kExtendTime;
  ecc.amount = 100;
  const auto workload =
      make_workload(10, 1, {batch_job(1, 0, 4, 50)}, {ecc});
  const auto scenario = run_scenario(workload, "EASY");
  EXPECT_DOUBLE_EQ(scenario.end_of(1), 50);
}

TEST(Engine, EccExtendsRunningJobWithProcessor) {
  workload::Ecc ecc;
  ecc.issue = 10;
  ecc.job_id = 1;
  ecc.type = workload::EccType::kExtendTime;
  ecc.amount = 100;
  const auto workload =
      make_workload(10, 1, {batch_job(1, 0, 4, 50)}, {ecc});
  const auto scenario = run_scenario(workload, "EASY-E");
  EXPECT_DOUBLE_EQ(scenario.end_of(1), 150);
  EXPECT_EQ(scenario.result.ecc.processed, 1u);
}

TEST(Engine, DeterministicAcrossRuns) {
  workload::GeneratorConfig config;
  config.num_jobs = 200;
  config.seed = 77;
  config.p_dedicated = 0.3;
  config.p_extend = 0.2;
  config.p_reduce = 0.1;
  const auto workload = workload::generate(config);
  const auto a = run_scenario(workload, "Hybrid-LOS-E");
  const auto b = run_scenario(workload, "Hybrid-LOS-E");
  ASSERT_EQ(a.result.jobs.size(), b.result.jobs.size());
  EXPECT_DOUBLE_EQ(a.result.mean_wait, b.result.mean_wait);
  EXPECT_DOUBLE_EQ(a.result.utilization, b.result.utilization);
  for (const auto& [id, outcome] : a.by_id)
    EXPECT_DOUBLE_EQ(outcome.started, b.job(id).started);
}

TEST(Engine, CountsCyclesAndEvents) {
  const auto workload = make_workload(
      10, 1, {batch_job(1, 0, 4, 10), batch_job(2, 1, 4, 10)});
  const auto scenario = run_scenario(workload, "FCFS");
  EXPECT_GE(scenario.result.cycles, 4u);   // 2 arrivals + 2 finishes
  EXPECT_GE(scenario.result.events, 4u);
  EXPECT_DOUBLE_EQ(scenario.result.makespan, 11.0);
}

TEST(Engine, RejectsDuplicateJobIds) {
  const auto workload = make_workload(
      10, 1, {batch_job(1, 0, 4, 10), batch_job(1, 1, 4, 10)});
  EXPECT_DEATH(run_scenario(workload, "FCFS"), "precondition");
}

TEST(Engine, RejectsDuplicateJobIdsAcrossWindows) {
  // Job 1 finishes (and its record retires) long before its id comes back
  // two feed windows later: the repeat is still a malformed workload.
  constexpr std::size_t kWindow = workload::WorkloadCursor::kDefaultChunkJobs;
  std::vector<workload::Job> jobs;
  for (std::size_t i = 0; i < 2 * kWindow + 200; ++i)
    jobs.push_back(batch_job(static_cast<workload::JobId>(i + 1),
                             10.0 * static_cast<double>(i), 4, 5));
  jobs[2 * kWindow + 100].id = 1;
  const auto workload = make_workload(10, 1, jobs);
  EXPECT_DEATH(run_scenario(workload, "FCFS"), "precondition");
}

TEST(Engine, RejectsOversizedJobs) {
  const auto workload = make_workload(10, 1, {batch_job(1, 0, 11, 10)});
  EXPECT_DEATH(run_scenario(workload, "FCFS"), "precondition");
}

}  // namespace
}  // namespace es::sched
