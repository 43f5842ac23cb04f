#include "exp/analysis.hpp"

#include "exp/experiment.hpp"

#include <gtest/gtest.h>

#include "testing/helpers.hpp"

namespace es::exp {
namespace {

sched::SimulationResult result_with_waits(
    const std::vector<std::pair<int, double>>& procs_and_waits) {
  sched::SimulationResult result;
  workload::JobId id = 1;
  for (const auto& [procs, wait] : procs_and_waits) {
    sched::JobOutcome outcome;
    outcome.id = id++;
    outcome.procs = procs;
    outcome.wait = wait;
    result.jobs.push_back(outcome);
  }
  return result;
}

TEST(Analysis, WaitDistributionQuantiles) {
  const auto result = result_with_waits(
      {{1, 10}, {1, 20}, {1, 30}, {1, 40}, {1, 100}});
  const WaitSummary summary = wait_distribution(result);
  EXPECT_EQ(summary.count, 5u);
  EXPECT_DOUBLE_EQ(summary.mean, 40);
  EXPECT_DOUBLE_EQ(summary.median, 30);
  EXPECT_DOUBLE_EQ(summary.max, 100);
  EXPECT_GT(summary.p95, 40);
  EXPECT_LE(summary.p95, 100);
}

TEST(Analysis, EmptyResult) {
  const WaitSummary summary = wait_distribution(sched::SimulationResult{});
  EXPECT_EQ(summary.count, 0u);
  EXPECT_DOUBLE_EQ(summary.mean, 0);
}

TEST(Analysis, FairnessSplitsBySizeThreshold) {
  const auto result = result_with_waits(
      {{32, 10}, {64, 30}, {128, 100}, {320, 300}});
  const FairnessBreakdown breakdown = fairness_by_size(result, 96);
  EXPECT_EQ(breakdown.small.count, 2u);
  EXPECT_EQ(breakdown.large.count, 2u);
  EXPECT_DOUBLE_EQ(breakdown.small.mean, 20);
  EXPECT_DOUBLE_EQ(breakdown.large.mean, 200);
  EXPECT_DOUBLE_EQ(breakdown.large_to_small_wait_ratio, 10.0);
}

TEST(Analysis, FairnessWithEmptyClass) {
  const auto result = result_with_waits({{32, 10}, {64, 20}});
  const FairnessBreakdown breakdown = fairness_by_size(result, 96);
  EXPECT_EQ(breakdown.large.count, 0u);
  EXPECT_DOUBLE_EQ(breakdown.large_to_small_wait_ratio, 0.0);
}

TEST(Analysis, ConfidenceIntervalKnownCase) {
  // n=4, values 1,2,3,4: mean 2.5, s ~ 1.29099, t(3) = 3.182:
  // half width = 3.182 * 1.29099 / 2 = 2.0540...
  util::RunningStats stats;
  for (double x : {1.0, 2.0, 3.0, 4.0}) stats.add(x);
  EXPECT_NEAR(confidence_half_width_95(stats), 2.054, 0.001);
}

TEST(Analysis, ConfidenceIntervalDegenerate) {
  util::RunningStats stats;
  EXPECT_DOUBLE_EQ(confidence_half_width_95(stats), 0.0);
  stats.add(5);
  EXPECT_DOUBLE_EQ(confidence_half_width_95(stats), 0.0);
  stats.add(5);
  EXPECT_DOUBLE_EQ(confidence_half_width_95(stats), 0.0);  // zero variance
}

TEST(Analysis, ConfidenceShrinksWithSamples) {
  util::RunningStats few, many;
  util::Rng rng(4);
  for (int i = 0; i < 5; ++i) few.add(rng.uniform(0, 10));
  for (int i = 0; i < 500; ++i) many.add(rng.uniform(0, 10));
  EXPECT_GT(confidence_half_width_95(few), confidence_half_width_95(many));
}

TEST(Analysis, FairnessOnRealSimulation) {
  workload::GeneratorConfig config;
  config.num_jobs = 300;
  config.seed = 15;
  config.target_load = 0.9;
  const auto workload = workload::generate(config);
  const auto scenario = es::testing::run_scenario(workload, "Delayed-LOS");
  const FairnessBreakdown breakdown =
      fairness_by_size(scenario.result, 96);
  EXPECT_EQ(breakdown.small.count + breakdown.large.count, 300u);
  EXPECT_GE(breakdown.small.p95, breakdown.small.median);
  EXPECT_GE(breakdown.large.max, breakdown.large.p99);
}


TEST(Analysis, UtilizationTimelineHandComputed) {
  // One job: 4/8 procs busy over the first half of [0, 100].
  sched::SimulationResult result;
  sched::JobOutcome a;
  a.id = 1;
  a.procs = 4;
  a.started = 0;
  a.finished = 50;
  sched::JobOutcome b;
  b.id = 2;
  b.procs = 8;
  b.started = 50;
  b.finished = 100;
  result.jobs = {a, b};
  result.first_arrival = 0;
  result.last_finish = 100;
  const auto timeline = utilization_timeline(result, 8, 4);
  ASSERT_EQ(timeline.size(), 4u);
  EXPECT_DOUBLE_EQ(timeline[0], 0.5);
  EXPECT_DOUBLE_EQ(timeline[1], 0.5);
  EXPECT_DOUBLE_EQ(timeline[2], 1.0);
  EXPECT_DOUBLE_EQ(timeline[3], 1.0);
}

TEST(Analysis, UtilizationTimelinePartialBuckets) {
  sched::SimulationResult result;
  sched::JobOutcome job;
  job.id = 1;
  job.procs = 10;
  job.started = 25;
  job.finished = 75;
  result.jobs = {job};
  result.first_arrival = 0;
  result.last_finish = 100;
  const auto timeline = utilization_timeline(result, 10, 2);
  ASSERT_EQ(timeline.size(), 2u);
  EXPECT_DOUBLE_EQ(timeline[0], 0.5);  // busy [25,50) of [0,50)
  EXPECT_DOUBLE_EQ(timeline[1], 0.5);
}

TEST(Analysis, UtilizationTimelineDegenerateInputs) {
  EXPECT_TRUE(utilization_timeline(sched::SimulationResult{}, 8, 4).empty());
  sched::SimulationResult result;
  result.jobs.push_back({});
  EXPECT_TRUE(utilization_timeline(result, 8, 0).empty());
}

TEST(Analysis, RenderProfileLevels) {
  const std::string rendered = render_profile({0.0, 0.5, 1.0});
  // Three glyphs: space, half block, full block (UTF-8 multibyte).
  EXPECT_EQ(rendered.front(), ' ');
  EXPECT_NE(rendered.find("\xe2\x96\x84"), std::string::npos);  // half
  EXPECT_NE(rendered.find("\xe2\x96\x88"), std::string::npos);  // full
}

TEST(Analysis, RenderProfileClamps) {
  const std::string rendered = render_profile({-1.0, 2.0});
  EXPECT_EQ(rendered.front(), ' ');
  EXPECT_NE(rendered.find("\xe2\x96\x88"), std::string::npos);
}

}  // namespace
}  // namespace es::exp
