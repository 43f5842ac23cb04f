// Fault injection end-to-end: scripted outages with exact expected
// schedules, requeue-policy semantics, failure accounting, bit-identical
// determinism under stochastic failures, and a node-down/up storm that every
// factory algorithm must survive with paranoid invariant checking on.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/factory.hpp"
#include "sched/engine.hpp"
#include "testing/helpers.hpp"
#include "workload/generator.hpp"

namespace es {
namespace {

using es::testing::batch_job;
using es::testing::make_workload;
using es::testing::run_scenario;

/// Runs `workload` under `algorithm` with paranoid invariant checking and
/// the given failure script / requeue policy.
testing::Scenario run_with_failures(const workload::Workload& workload,
                                    const std::string& algorithm,
                                    std::vector<fault::Outage> script,
                                    fault::RequeuePolicy policy,
                                    int retry_cap = 0) {
  core::Algorithm algo = core::make_algorithm(algorithm);
  EXPECT_NE(algo.policy, nullptr);
  sched::EngineConfig config;
  config.machine_procs = workload.machine_procs;
  config.granularity = workload.granularity;
  config.process_eccs = algo.process_eccs;
  config.paranoid = true;
  config.failure.enabled = true;
  config.failure.script = std::move(script);
  config.failure.max_interruptions = retry_cap;
  config.requeue = policy;
  testing::Scenario scenario;
  scenario.result = sched::simulate(config, *algo.policy, workload);
  for (const sched::JobOutcome& outcome : scenario.result.jobs)
    scenario.by_id[outcome.id] = outcome;
  return scenario;
}

TEST(FailureInjection, FullMachineJobIsRequeuedAndRestartsAfterRepair) {
  // One job owns the whole 320-proc machine; a 32-proc node card fails at
  // t=50 and returns at t=80.  The job restarts from scratch at the repair.
  const auto workload = make_workload(320, 32, {batch_job(1, 0, 320, 100)});
  const auto scenario = run_with_failures(
      workload, "EASY", {{50, 80, 32}}, fault::RequeuePolicy::kRequeueHead);

  EXPECT_EQ(scenario.result.completed, 1u);
  EXPECT_EQ(scenario.result.abandoned, 0u);
  const auto& job = scenario.job(1);
  EXPECT_EQ(job.interruptions, 1);
  EXPECT_DOUBLE_EQ(job.started, 80.0);   // last (successful) start
  EXPECT_DOUBLE_EQ(job.finished, 180.0);

  const auto& failure = scenario.result.failure;
  EXPECT_EQ(failure.outages, 1u);
  EXPECT_EQ(failure.interruptions, 1u);
  EXPECT_EQ(failure.requeues, 1u);
  EXPECT_DOUBLE_EQ(failure.lost_proc_seconds, 320.0 * 50);
  EXPECT_DOUBLE_EQ(failure.wasted_proc_seconds, 320.0 * 50);
  EXPECT_DOUBLE_EQ(failure.goodput_proc_seconds, 320.0 * 100);
  // 32 processors were out of service for 30 of the 180 simulated seconds.
  EXPECT_DOUBLE_EQ(failure.down_proc_seconds, 32.0 * 30);
}

TEST(FailureInjection, VictimIsLatestStartedWithHigherIdTieBreak) {
  // Jobs 1 and 2 both start at t=0; the outage at t=10 needs one of them
  // preempted and must deterministically pick the higher id.
  const auto workload = make_workload(
      64, 32,
      {batch_job(1, 0, 32, 100), batch_job(2, 0, 32, 100),
       batch_job(3, 1, 32, 10)});
  const auto scenario = run_with_failures(
      workload, "EASY", {{10, 1000, 32}}, fault::RequeuePolicy::kRequeueHead);

  EXPECT_EQ(scenario.job(1).interruptions, 0);
  EXPECT_EQ(scenario.job(2).interruptions, 1);
  EXPECT_DOUBLE_EQ(scenario.job(1).started, 0.0);
}

TEST(FailureInjection, RequeueHeadRestartsBeforeLaterArrivals) {
  const auto workload = make_workload(
      64, 32,
      {batch_job(1, 0, 32, 100), batch_job(2, 0, 32, 100),
       batch_job(3, 1, 32, 10)});
  const auto scenario = run_with_failures(
      workload, "EASY", {{10, 1000, 32}}, fault::RequeuePolicy::kRequeueHead);
  // Job 2 (preempted) re-enters at the queue head: when job 1 releases its
  // processors at t=100, job 2 restarts first and job 3 waits for it.
  EXPECT_DOUBLE_EQ(scenario.job(2).started, 100.0);
  EXPECT_DOUBLE_EQ(scenario.job(3).started, 200.0);
  EXPECT_EQ(scenario.result.failure.requeues, 1u);
}

TEST(FailureInjection, RequeueTailReEarnsItsTurn) {
  const auto workload = make_workload(
      64, 32,
      {batch_job(1, 0, 32, 100), batch_job(2, 0, 32, 100),
       batch_job(3, 1, 32, 10)});
  const auto scenario = run_with_failures(
      workload, "EASY", {{10, 1000, 32}}, fault::RequeuePolicy::kRequeueTail);
  // Tail policy: the waiting job 3 goes first at t=100, job 2 after it.
  EXPECT_DOUBLE_EQ(scenario.job(3).started, 100.0);
  EXPECT_DOUBLE_EQ(scenario.job(2).started, 110.0);
}

TEST(FailureInjection, AbandonDropsThePartialRunAndCountsIt) {
  const auto workload = make_workload(
      64, 32,
      {batch_job(1, 0, 32, 100), batch_job(2, 0, 32, 100),
       batch_job(3, 1, 32, 10)});
  const auto scenario = run_with_failures(
      workload, "EASY", {{10, 1000, 32}}, fault::RequeuePolicy::kAbandon);

  EXPECT_EQ(scenario.result.completed, 2u);
  EXPECT_EQ(scenario.result.abandoned, 1u);
  const auto& abandoned = scenario.job(2);
  EXPECT_TRUE(abandoned.abandoned);
  EXPECT_DOUBLE_EQ(abandoned.finished, 10.0);
  EXPECT_DOUBLE_EQ(abandoned.run, 10.0);

  const auto& failure = scenario.result.failure;
  EXPECT_EQ(failure.abandoned, 1u);
  EXPECT_EQ(failure.requeues, 0u);
  EXPECT_DOUBLE_EQ(failure.lost_proc_seconds, 32.0 * 10);
  // The abandoned partial run is the only wasted work; jobs 1 and 3 complete.
  EXPECT_DOUBLE_EQ(failure.wasted_proc_seconds, 32.0 * 10);
  EXPECT_DOUBLE_EQ(failure.goodput_proc_seconds, 32.0 * 100 + 32.0 * 10);
}

TEST(FailureInjection, RetryCapForcesAbandonUnderRequeuePolicy) {
  // Retry budget of 2: the first preemption requeues as usual, the second
  // abandons the job even though the policy is requeue-head.  Without the
  // cap this job would be requeued forever under a harsh enough script.
  const auto workload = make_workload(320, 32, {batch_job(1, 0, 320, 100)});
  const auto scenario =
      run_with_failures(workload, "EASY", {{50, 60, 32}, {120, 130, 32}},
                        fault::RequeuePolicy::kRequeueHead, /*retry_cap=*/2);

  EXPECT_EQ(scenario.result.completed, 0u);
  EXPECT_EQ(scenario.result.abandoned, 1u);
  const auto& job = scenario.job(1);
  EXPECT_EQ(job.interruptions, 2);
  EXPECT_DOUBLE_EQ(job.started, 60.0);   // last (abandoned) attempt
  EXPECT_DOUBLE_EQ(job.finished, 120.0);

  const auto& failure = scenario.result.failure;
  EXPECT_EQ(failure.outages, 2u);
  EXPECT_EQ(failure.interruptions, 2u);
  EXPECT_EQ(failure.requeues, 1u);
  EXPECT_EQ(failure.abandoned, 1u);
  // First partial run 0..50 plus the abandoned attempt 60..120: all wasted,
  // nothing double-counted, zero goodput.
  EXPECT_DOUBLE_EQ(failure.lost_proc_seconds, 320.0 * 50 + 320.0 * 60);
  EXPECT_DOUBLE_EQ(failure.wasted_proc_seconds, 320.0 * 50 + 320.0 * 60);
  EXPECT_DOUBLE_EQ(failure.goodput_proc_seconds, 0.0);
}

TEST(FailureInjection, FreePoolAbsorbsOutagesWithoutPreemption) {
  // 288 of 320 processors are idle; losing 64 must not touch the running job.
  const auto workload = make_workload(320, 32, {batch_job(1, 0, 32, 100)});
  const auto scenario = run_with_failures(
      workload, "EASY", {{50, 60, 64}}, fault::RequeuePolicy::kRequeueHead);
  EXPECT_EQ(scenario.result.failure.outages, 1u);
  EXPECT_EQ(scenario.result.failure.interruptions, 0u);
  EXPECT_DOUBLE_EQ(scenario.job(1).started, 0.0);
  EXPECT_DOUBLE_EQ(scenario.job(1).finished, 100.0);
}

TEST(FailureInjection, StochasticFailuresAreBitDeterministic) {
  workload::GeneratorConfig config;
  config.num_jobs = 200;
  config.seed = 11;
  config.p_small = 0.5;
  config.target_load = 0.9;
  const auto workload = workload::generate(config);

  core::AlgorithmOptions options;
  options.engine.failure.enabled = true;
  options.engine.failure.seed = 42;
  options.engine.failure.mtbf = 3600;
  options.engine.failure.mttr = 900;
  options.engine.failure.max_nodes = 2;

  const auto a = run_scenario(workload, "EASY", options);
  const auto b = run_scenario(workload, "EASY", options);
  ASSERT_GT(a.result.failure.outages, 0u);  // the model actually fired
  EXPECT_EQ(a.result.failure.outages, b.result.failure.outages);
  EXPECT_EQ(a.result.failure.interruptions, b.result.failure.interruptions);
  EXPECT_DOUBLE_EQ(a.result.failure.lost_proc_seconds,
                   b.result.failure.lost_proc_seconds);
  EXPECT_DOUBLE_EQ(a.result.utilization, b.result.utilization);
  for (const auto& [id, job] : a.by_id) {
    EXPECT_DOUBLE_EQ(job.started, b.job(id).started) << "job " << id;
    EXPECT_DOUBLE_EQ(job.finished, b.job(id).finished) << "job " << id;
  }
}

TEST(FailureInjection, DisabledModelLeavesResultsUntouched) {
  workload::GeneratorConfig config;
  config.num_jobs = 150;
  config.seed = 3;
  config.target_load = 0.85;
  const auto workload = workload::generate(config);

  const auto baseline = run_scenario(workload, "Delayed-LOS");
  core::AlgorithmOptions options;
  options.engine.failure.enabled = false;  // explicit, with non-default knobs below
  options.engine.failure.seed = 999;
  options.engine.failure.mtbf = 1;
  options.engine.requeue = fault::RequeuePolicy::kAbandon;
  const auto with_config = run_scenario(workload, "Delayed-LOS", options);

  EXPECT_DOUBLE_EQ(baseline.result.mean_wait, with_config.result.mean_wait);
  EXPECT_DOUBLE_EQ(baseline.result.utilization,
                   with_config.result.utilization);
  EXPECT_EQ(with_config.result.failure.outages, 0u);
  for (const auto& [id, job] : baseline.by_id) {
    EXPECT_DOUBLE_EQ(job.started, with_config.job(id).started);
    EXPECT_DOUBLE_EQ(job.finished, with_config.job(id).finished);
  }
}

struct StormCase {
  const char* name;
  bool dedicated;
  bool elastic;
};

std::ostream& operator<<(std::ostream& out, const StormCase& c) {
  return out << c.name;
}

class FailureStorm : public ::testing::TestWithParam<StormCase> {};

TEST_P(FailureStorm, EveryPolicySurvivesADownUpStormUnderParanoia) {
  const StormCase& param = GetParam();
  workload::GeneratorConfig config;
  config.num_jobs = 120;
  config.seed = 23;
  config.p_small = 0.5;
  config.target_load = 0.9;
  if (param.dedicated) config.p_dedicated = 0.3;
  if (param.elastic) {
    config.p_extend = 0.2;
    config.p_reduce = 0.1;
  }
  const auto workload = workload::generate(config);

  for (const auto policy :
       {fault::RequeuePolicy::kRequeueHead, fault::RequeuePolicy::kRequeueTail,
        fault::RequeuePolicy::kAbandon}) {
    core::Algorithm algorithm = core::make_algorithm(param.name);
    ASSERT_NE(algorithm.policy, nullptr);
    sched::EngineConfig engine;
    engine.machine_procs = workload.machine_procs;
    engine.granularity = workload.granularity;
    engine.process_eccs = algorithm.process_eccs;
    engine.paranoid = true;
    engine.failure.enabled = true;
    engine.failure.seed = 5;
    engine.failure.mtbf = 2 * 3600;
    engine.failure.mttr = 1800;
    engine.failure.min_nodes = 1;
    engine.failure.max_nodes = 3;
    engine.requeue = policy;
    const auto result = sched::simulate(engine, *algorithm.policy, workload);
    EXPECT_EQ(result.completed + result.killed + result.abandoned, 120u)
        << param.name << " requeue=" << fault::to_string(policy);
    if (policy != fault::RequeuePolicy::kAbandon) {
      EXPECT_EQ(result.abandoned, 0u) << param.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    TableThree, FailureStorm,
    ::testing::Values(StormCase{"EASY", false, false},
                      StormCase{"EASY-D", true, false},
                      StormCase{"EASY-E", false, true},
                      StormCase{"EASY-DE", true, true},
                      StormCase{"LOS", false, false},
                      StormCase{"LOS-D", true, false},
                      StormCase{"LOS-E", false, true},
                      StormCase{"LOS-DE", true, true},
                      StormCase{"Delayed-LOS", false, false},
                      StormCase{"Delayed-LOS-E", false, true},
                      StormCase{"Hybrid-LOS", true, false},
                      StormCase{"Hybrid-LOS-E", true, true},
                      StormCase{"FCFS", false, false},
                      StormCase{"CONS", false, false},
                      StormCase{"Adaptive", false, false}),
    [](const ::testing::TestParamInfo<StormCase>& param_info) {
      std::string name = param_info.param.name;
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

TEST(FailureInjection, ScriptedStormWithRapidCyclesStaysConsistent) {
  // 30 back-to-back outages, 50 s down each, under paranoid checking.
  std::vector<fault::Outage> script;
  for (int i = 0; i < 30; ++i) {
    const double down = 100.0 * i + 5.0;
    script.push_back({down, down + 50.0, 64});
  }
  workload::GeneratorConfig config;
  config.num_jobs = 80;
  config.seed = 9;
  config.target_load = 0.8;
  const auto workload = workload::generate(config);
  const auto scenario = run_with_failures(workload, "Delayed-LOS", script,
                                          fault::RequeuePolicy::kRequeueHead);
  EXPECT_EQ(scenario.result.completed + scenario.result.killed, 80u);
  EXPECT_GT(scenario.result.failure.outages, 0u);
}

}  // namespace
}  // namespace es
