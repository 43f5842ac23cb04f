// Oracle and shrinker behavior: the atlas's verdict machinery itself.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/factory.hpp"
#include "fuzz/hostile.hpp"
#include "fuzz/oracle.hpp"
#include "fuzz/shrink.hpp"
#include "workload/generator.hpp"

namespace es::fuzz {
namespace {

workload::Workload small_workload(std::uint64_t seed, std::size_t jobs = 30,
                                  double p_extend = 0.0) {
  workload::GeneratorConfig config;
  config.num_jobs = jobs;
  config.seed = seed;
  config.p_extend = p_extend;
  return workload::generate(config);
}

Scenario basic_scenario(std::uint64_t seed) {
  Scenario scenario;
  scenario.name = "basic-" + std::to_string(seed);
  scenario.family = "test";
  scenario.seed = seed;
  scenario.workload = small_workload(seed);
  return scenario;
}

TEST(Oracle, GreenOnBenignScenario) {
  const Scenario scenario = basic_scenario(7);
  const RunReport report = check_run(scenario, "LOS-E");
  EXPECT_TRUE(report.ran);
  EXPECT_TRUE(report.ok()) << report.violations.front().check << ": "
                           << report.violations.front().detail;
  EXPECT_EQ(report.result.completed + report.result.killed,
            scenario.workload.jobs.size());
}

TEST(Oracle, SkipsAlgorithmsThatCannotRunDedicatedJobs) {
  const Scenario scenario = make_scenario("dedicated_saturation", 1);
  EXPECT_FALSE(algorithm_supports(scenario, "FCFS"));
  EXPECT_TRUE(algorithm_supports(scenario, "EASY-D"));
  const RunReport skipped = check_run(scenario, "FCFS");
  EXPECT_FALSE(skipped.ran);
  EXPECT_TRUE(skipped.ok());
}

TEST(Oracle, FlagsWatchdogAbortAsViolationWhenCompletionExpected) {
  Scenario scenario = basic_scenario(3);
  scenario.engine.watchdog.max_events = 10;  // guaranteed to trip
  const RunReport report = check_run(scenario, "EASY");
  ASSERT_TRUE(report.ran);
  const bool flagged = std::any_of(
      report.violations.begin(), report.violations.end(),
      [](const Violation& v) { return v.check == "watchdog-abort"; });
  EXPECT_TRUE(flagged);
}

TEST(Oracle, WatchdogAbortToleratedWhenCompletionNotExpected) {
  Scenario scenario = basic_scenario(3);
  scenario.engine.watchdog.max_events = 10;
  scenario.expect_completion = false;
  const RunReport report = check_run(scenario, "EASY");
  ASSERT_TRUE(report.ran);
  for (const Violation& v : report.violations)
    EXPECT_NE(v.check, "watchdog-abort") << v.detail;
}

TEST(Oracle, CrossChecksGreenAcrossThePanel) {
  const Scenario scenario = basic_scenario(5);
  std::vector<RunReport> reports;
  for (const std::string& algorithm : core::algorithm_names())
    reports.push_back(check_run(scenario, algorithm));
  const std::vector<Violation> cross = check_cross(scenario, reports);
  EXPECT_TRUE(cross.empty())
      << cross.front().check << ": " << cross.front().detail;
}

TEST(Oracle, CrossCheckCatchesDivergentJobSets) {
  const Scenario scenario = basic_scenario(5);
  std::vector<RunReport> reports;
  reports.push_back(check_run(scenario, "EASY"));
  reports.push_back(check_run(scenario, "LOS"));
  reports.back().result.jobs.pop_back();  // simulate a lost job
  const std::vector<Violation> cross = check_cross(scenario, reports);
  const bool flagged =
      std::any_of(cross.begin(), cross.end(), [](const Violation& v) {
        return v.check == "cross-job-set";
      });
  EXPECT_TRUE(flagged);
}

TEST(Shrink, MinimizesToTheOneRelevantJob) {
  Scenario scenario = basic_scenario(11);
  const workload::JobId target =
      scenario.workload.jobs[scenario.workload.jobs.size() / 2].id;
  const auto still_fails = [target](const Scenario& candidate) {
    return std::any_of(candidate.workload.jobs.begin(),
                       candidate.workload.jobs.end(),
                       [target](const workload::Job& job) {
                         return job.id == target;
                       });
  };
  const ShrinkResult result = shrink(scenario, still_fails);
  ASSERT_EQ(result.scenario.workload.jobs.size(), 1u);
  EXPECT_EQ(result.scenario.workload.jobs.front().id, target);
  EXPECT_TRUE(result.scenario.name.ends_with("-min"));
  EXPECT_EQ(result.removed, scenario.workload.jobs.size() - 1);
}

TEST(Shrink, DropsEccsOrphanedByRemovedJobs) {
  Scenario scenario = basic_scenario(13);
  scenario.workload = small_workload(13, 30, /*p_extend=*/0.5);
  ASSERT_GT(scenario.workload.eccs.size(), 0u);
  const workload::JobId target = scenario.workload.jobs.front().id;
  const auto still_fails = [target](const Scenario& candidate) {
    return std::any_of(candidate.workload.jobs.begin(),
                       candidate.workload.jobs.end(),
                       [target](const workload::Job& job) {
                         return job.id == target;
                       });
  };
  const ShrinkResult result = shrink(scenario, still_fails);
  for (const workload::Ecc& ecc : result.scenario.workload.eccs) {
    const bool owned = std::any_of(result.scenario.workload.jobs.begin(),
                                   result.scenario.workload.jobs.end(),
                                   [&ecc](const workload::Job& job) {
                                     return job.id == ecc.job_id;
                                   });
    EXPECT_TRUE(owned) << "orphaned ECC for job " << ecc.job_id;
  }
}

TEST(Shrink, MinimizesScriptedOutages) {
  Scenario scenario = basic_scenario(17);
  scenario.engine.failure.enabled = true;
  for (int i = 0; i < 6; ++i) {
    fault::Outage outage;
    outage.down = 1000.0 * (i + 1);
    outage.up = outage.down + 500.0;
    outage.procs = 32 * (1 + i % 3);
    scenario.engine.failure.script.push_back(outage);
  }
  const auto still_fails = [](const Scenario& candidate) {
    return std::any_of(candidate.engine.failure.script.begin(),
                       candidate.engine.failure.script.end(),
                       [](const fault::Outage& outage) {
                         return outage.procs == 96;
                       });
  };
  const ShrinkResult result = shrink(scenario, still_fails);
  // Jobs are irrelevant to this predicate, so they all go; one outage stays.
  EXPECT_TRUE(result.scenario.workload.jobs.empty());
  ASSERT_EQ(result.scenario.engine.failure.script.size(), 1u);
  EXPECT_EQ(result.scenario.engine.failure.script.front().procs, 96);
}

TEST(Shrink, RespectsTheTestBudget) {
  Scenario scenario = basic_scenario(19);
  std::size_t calls = 0;
  const auto still_fails = [&calls](const Scenario&) {
    ++calls;
    return true;  // everything "fails": worst case for ddmin
  };
  const ShrinkResult result = shrink(scenario, still_fails, /*budget=*/10);
  EXPECT_LE(result.tests, 10u);
  EXPECT_EQ(calls, result.tests);
}

}  // namespace
}  // namespace es::fuzz
