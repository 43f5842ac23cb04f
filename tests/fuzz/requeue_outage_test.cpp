// Requeue policies under correlated multi-node outages, checked through the
// atlas oracle: whatever the policy (head / tail / abandon) and however the
// retry budget runs out, every job is accounted for exactly once and every
// engine invariant holds.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fuzz/oracle.hpp"
#include "fuzz/scenario.hpp"
#include "workload/generator.hpp"

namespace es::fuzz {
namespace {

// A deterministic cascade: three correlated outages, each downing several
// node cards at once, timed to land while the workload is still running.
Scenario cascade_scenario(fault::RequeuePolicy policy, int retry_cap) {
  Scenario scenario;
  scenario.name = "cascade-test";
  scenario.family = "test";

  workload::GeneratorConfig config;
  config.num_jobs = 60;
  config.seed = 99;
  config.target_load = 0.9;
  scenario.workload = workload::generate(config);

  fault::FailureModelConfig& failure = scenario.engine.failure;
  failure.enabled = true;
  failure.max_interruptions = retry_cap;
  const double span =
      scenario.workload.jobs.back().arr - scenario.workload.jobs.front().arr;
  double down = scenario.workload.jobs.front().arr + span * 0.1;
  for (int i = 0; i < 3; ++i) {
    fault::Outage outage;
    outage.down = down;
    outage.up = down + 1800.0;
    outage.procs = scenario.workload.granularity * (2 + i);
    failure.script.push_back(outage);
    down = outage.up + span * 0.1;
  }
  scenario.engine.requeue = policy;
  return scenario;
}

void expect_clean(const Scenario& scenario, const std::string& algorithm) {
  const RunReport report = check_run(scenario, algorithm);
  ASSERT_TRUE(report.ran) << algorithm;
  EXPECT_TRUE(report.ok()) << algorithm << ": "
                           << report.violations.front().check << ": "
                           << report.violations.front().detail;
  EXPECT_EQ(report.result.completed + report.result.killed +
                report.result.abandoned,
            scenario.workload.jobs.size())
      << algorithm;
}

TEST(RequeueUnderOutages, HeadPolicyRetriesEveryInterruptedJob) {
  const Scenario scenario =
      cascade_scenario(fault::RequeuePolicy::kRequeueHead, /*retry_cap=*/0);
  for (const std::string& algorithm : {"FCFS", "EASY", "LOS-E"}) {
    const RunReport report = check_run(scenario, algorithm);
    ASSERT_TRUE(report.ran);
    EXPECT_TRUE(report.ok()) << algorithm << ": "
                             << report.violations.front().detail;
    // Unlimited retries: an interruption is never a job loss.
    EXPECT_EQ(report.result.abandoned, 0u) << algorithm;
    EXPECT_EQ(report.result.failure.requeues,
              report.result.failure.interruptions)
        << algorithm;
    // All three outages land inside the arrival span; at least the first
    // must fire before the workload drains.
    EXPECT_GE(report.result.failure.outages, 1u) << algorithm;
    EXPECT_LE(report.result.failure.outages, 3u) << algorithm;
  }
}

TEST(RequeueUnderOutages, TailPolicyAccountsIdentically) {
  const Scenario scenario =
      cascade_scenario(fault::RequeuePolicy::kRequeueTail, /*retry_cap=*/0);
  for (const std::string& algorithm : {"FCFS", "EASY", "LOS-E"})
    expect_clean(scenario, algorithm);
}

TEST(RequeueUnderOutages, AbandonPolicyDropsOnFirstInterruption) {
  const Scenario scenario =
      cascade_scenario(fault::RequeuePolicy::kAbandon, /*retry_cap=*/0);
  for (const std::string& algorithm : {"FCFS", "EASY", "LOS-E"}) {
    const RunReport report = check_run(scenario, algorithm);
    ASSERT_TRUE(report.ran);
    EXPECT_TRUE(report.ok()) << algorithm << ": "
                             << report.violations.front().detail;
    EXPECT_EQ(report.result.failure.requeues, 0u) << algorithm;
    EXPECT_EQ(report.result.failure.abandoned,
              report.result.failure.interruptions)
        << algorithm;
    EXPECT_EQ(report.result.abandoned, report.result.failure.abandoned)
        << algorithm;
  }
}

TEST(RequeueUnderOutages, RetryBudgetExhaustionAbandonsUnderEveryPolicy) {
  // With a cap of 1, a job interrupted a second time is dropped even under
  // a requeue policy; the oracle's accounting must still close.
  for (const fault::RequeuePolicy policy :
       {fault::RequeuePolicy::kRequeueHead, fault::RequeuePolicy::kRequeueTail,
        fault::RequeuePolicy::kAbandon}) {
    const Scenario scenario = cascade_scenario(policy, /*retry_cap=*/1);
    for (const std::string& algorithm : {"EASY", "LOS-E"})
      expect_clean(scenario, algorithm);
  }
}

TEST(RequeueUnderOutages, StochasticCorrelatedOutagesStayAccounted) {
  Scenario scenario =
      cascade_scenario(fault::RequeuePolicy::kRequeueTail, /*retry_cap=*/2);
  fault::FailureModelConfig& failure = scenario.engine.failure;
  failure.script.clear();
  failure.seed = 7;
  failure.mtbf = 3600;
  failure.mttr = 900;
  failure.min_nodes = 2;
  failure.max_nodes = 4;  // every outage downs several cards at once
  for (const std::string& algorithm : {"EASY", "Hybrid-LOS-E"})
    expect_clean(scenario, algorithm);
}

}  // namespace
}  // namespace es::fuzz
