#include "workload/load.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <initializer_list>
#include <vector>

#include "workload/generator.hpp"

namespace es::workload {
namespace {

Job simple_job(JobId id, double arr, int num, double dur) {
  Job job;
  job.id = id;
  job.arr = arr;
  job.num = num;
  job.dur = dur;
  return job;
}

TEST(Load, HandComputedExample) {
  // Two jobs: 10 procs x 100 s + 20 procs x 50 s = 2000 proc-seconds.
  // Span: first arrival 0 to last completion max(0+100, 50+50) = 100.
  // Machine 40 procs -> load = 2000 / (100 * 40) = 0.5.
  Workload workload;
  workload.jobs = {simple_job(1, 0, 10, 100), simple_job(2, 50, 20, 50)};
  EXPECT_DOUBLE_EQ(offered_load(workload, 40), 0.5);
}

TEST(Load, UsesActualRuntimeNotEstimate) {
  Workload workload;
  Job job = simple_job(1, 0, 10, 100);
  job.actual = 50;  // over-estimated by 2x
  workload.jobs = {job, simple_job(2, 0, 10, 100)};
  // proc-seconds = 10*50 + 10*100 = 1500; span = 100; M = 30 -> 0.5
  EXPECT_DOUBLE_EQ(offered_load(workload, 30), 0.5);
}

TEST(Load, EmptyWorkloadIsZero) {
  Workload workload;
  EXPECT_DOUBLE_EQ(offered_load(workload, 10), 0.0);
}

TEST(Load, ScaleArrivalsKeepsFirstArrivalAndOrder) {
  Workload workload;
  workload.jobs = {simple_job(1, 100, 4, 10), simple_job(2, 200, 4, 10),
                   simple_job(3, 400, 4, 10)};
  workload.scale_arrivals(2.0);
  EXPECT_DOUBLE_EQ(workload.jobs[0].arr, 100);
  EXPECT_DOUBLE_EQ(workload.jobs[1].arr, 300);
  EXPECT_DOUBLE_EQ(workload.jobs[2].arr, 700);
}

TEST(Load, ScaleArrivalsMovesDedicatedStartsAndEccs) {
  Workload workload;
  Job dedicated = simple_job(1, 100, 4, 10);
  dedicated.type = JobType::kDedicated;
  dedicated.start = 300;
  workload.jobs = {simple_job(2, 100, 4, 10), dedicated};
  Ecc ecc;
  ecc.issue = 200;
  ecc.job_id = 2;
  ecc.amount = 5;
  workload.eccs = {ecc};
  workload.normalize();
  workload.scale_arrivals(3.0);
  // Origin 100: dedicated start 100 + (300-100)*3 = 700.
  bool found = false;
  for (const Job& job : workload.jobs) {
    if (job.dedicated()) {
      EXPECT_DOUBLE_EQ(job.start, 700);
      found = true;
    }
  }
  EXPECT_TRUE(found);
  EXPECT_DOUBLE_EQ(workload.eccs[0].issue, 100 + (200 - 100) * 3);
}

TEST(Load, ScalingArrivalsScalesLoadInversely) {
  GeneratorConfig config;
  config.num_jobs = 300;
  config.seed = 2;
  Workload workload = generate(config);
  const double before = offered_load(workload, 320);
  workload.scale_arrivals(2.0);
  const double after = offered_load(workload, 320);
  // Span roughly doubles (runtimes add a constant tail), so load roughly
  // halves.
  EXPECT_LT(after, before);
  EXPECT_NEAR(after, before / 2.0, 0.25 * before);
}

TEST(Load, CalibrationConvergesFromBothSides) {
  for (double target : {0.3, 1.2}) {
    GeneratorConfig config;
    config.num_jobs = 300;
    config.seed = 3;
    Workload workload = generate(config);
    const double achieved = calibrate_load(workload, 320, target);
    EXPECT_NEAR(achieved, target, 0.01 * target);
    EXPECT_NEAR(offered_load(workload, 320), achieved, 1e-12);
  }
}

// --- LoadCalibrator -------------------------------------------------------

/// The calibration loop as it ran before LoadCalibrator: scale the whole
/// workload by each factor and re-measure offered_load() over every job.
LoadCalibrator::Result rescaling_reference(Workload workload, int procs,
                                           double target) {
  LoadCalibrator::Result result;
  result.load = offered_load(workload, procs);
  if (result.load <= 0) return result;
  while (result.factors.size() < static_cast<std::size_t>(kCalibrationBudget) &&
         std::abs(result.load - target) / target >= kCalibrationTolerance) {
    result.factors.push_back(result.load / target);
    workload.scale_arrivals(result.factors.back());
    result.load = offered_load(workload, procs);
  }
  return result;
}

LoadCalibrator calibrator_of(const Workload& workload, int procs) {
  LoadCalibrator calibrator(procs);
  for (const Job& job : workload.jobs) calibrator.add(job);
  return calibrator;
}

/// The calibrator's factor chain and load equal the reference's bit for
/// bit at every target, every intermediate load matches a re-measured
/// rescaling, and calibrate_load() leaves the reference's arrivals.
void expect_matches_reference(const Workload& workload, int procs,
                              std::initializer_list<double> targets) {
  const LoadCalibrator calibrator = calibrator_of(workload, procs);
  for (const double target : targets) {
    SCOPED_TRACE(target);
    const LoadCalibrator::Result expected =
        rescaling_reference(workload, procs, target);
    const LoadCalibrator::Result actual = calibrator.calibrate(target);
    EXPECT_EQ(actual.factors, expected.factors);
    EXPECT_EQ(actual.load, expected.load);

    Workload scaled = workload;
    std::vector<double> chain;
    for (const double factor : expected.factors) {
      chain.push_back(factor);
      scaled.scale_arrivals(factor);
      EXPECT_EQ(calibrator.load(chain), offered_load(scaled, procs));
    }
    Workload calibrated = workload;
    EXPECT_EQ(calibrate_load(calibrated, procs, target), expected.load);
    ASSERT_EQ(calibrated.jobs.size(), scaled.jobs.size());
    for (std::size_t i = 0; i < scaled.jobs.size(); ++i) {
      EXPECT_EQ(calibrated.jobs[i].arr, scaled.jobs[i].arr) << "job " << i;
      EXPECT_EQ(calibrated.jobs[i].start, scaled.jobs[i].start) << "job " << i;
    }
  }
}

Job dedicated_job(JobId id, double arr, double start, int num, double dur) {
  Job job = simple_job(id, arr, num, dur);
  job.type = JobType::kDedicated;
  job.start = start;
  return job;
}

TEST(LoadCalibrator, KeepsADedicatedJobWithALateStartAndAShortRun) {
  // The dedicated job ends last unscaled (5000 + 10) while a long batch
  // job ends last once arrivals are compressed: both stay on the front,
  // and so does the batch job between them (later, but shorter).
  Workload workload;
  workload.jobs = {simple_job(1, 0, 32, 4000), dedicated_job(2, 10, 5000, 64, 10),
                   simple_job(3, 20, 16, 2000)};
  EXPECT_EQ(calibrator_of(workload, 64).front_size(), 3u);
  expect_matches_reference(workload, 64, {0.1, 0.5, 0.9, 5});
}

TEST(LoadCalibrator, EqualBeginsKeepOnlyTheLongestRun) {
  Workload workload;
  workload.jobs = {simple_job(1, 0, 8, 1000), simple_job(2, 100, 8, 30),
                   simple_job(3, 100, 8, 50), simple_job(4, 100, 8, 20),
                   dedicated_job(5, 100, 100, 8, 40)};
  EXPECT_EQ(calibrator_of(workload, 16).front_size(), 2u);
  expect_matches_reference(workload, 16, {0.2, 0.6, 3});
}

TEST(LoadCalibrator, ALaterJobWithAShorterRunStaysOnTheFront) {
  Workload workload;
  workload.jobs = {simple_job(1, 0, 10, 100), simple_job(2, 50, 20, 60)};
  EXPECT_EQ(calibrator_of(workload, 40).front_size(), 2u);
  expect_matches_reference(workload, 40, {0.3, 0.7, 1.1, 100});
}

TEST(LoadCalibrator, ALongerLaterRunEvictsTheShorterEarlierOnes) {
  // A pair inserted ahead of the tail (before a late dedicated start) and
  // one that dominates a run of earlier pairs.
  Workload workload;
  workload.jobs = {dedicated_job(1, 0, 1000, 4, 5), simple_job(2, 10, 4, 50),
                   simple_job(3, 20, 4, 40), simple_job(4, 30, 4, 60),
                   simple_job(5, 40, 4, 30), dedicated_job(6, 50, 1000, 4, 5),
                   dedicated_job(7, 60, 1000, 4, 7), simple_job(8, 70, 4, 80)};
  // Left: (70, 80) — it dominates every earlier batch job — and (1000, 7).
  EXPECT_EQ(calibrator_of(workload, 8).front_size(), 2u);
  expect_matches_reference(workload, 8, {0.01, 0.05, 0.3, 2});
}

TEST(LoadCalibrator, OneJobTraceCannotBeRescaled) {
  // The only arrival is the origin: every factor leaves the span alone, so
  // any other target spends the budget at the unscaled load.
  Workload workload;
  workload.jobs = {simple_job(1, 500, 16, 100)};
  expect_matches_reference(workload, 64, {0.25, 0.5, 100});
  const LoadCalibrator::Result met = calibrator_of(workload, 64).calibrate(0.25);
  EXPECT_TRUE(met.factors.empty());
  EXPECT_EQ(met.load, 0.25);
  const LoadCalibrator::Result missed =
      calibrator_of(workload, 64).calibrate(0.5);
  EXPECT_EQ(missed.factors.size(), static_cast<std::size_t>(kCalibrationBudget));
  EXPECT_EQ(missed.load, 0.25);
}

TEST(LoadCalibrator, AllEqualArrivals) {
  Workload equal;
  equal.jobs = {simple_job(1, 7, 4, 30), simple_job(2, 7, 8, 90),
                simple_job(3, 7, 2, 60)};
  EXPECT_EQ(calibrator_of(equal, 16).front_size(), 1u);
  expect_matches_reference(equal, 16, {0.5, 100});

  // Zero runtimes leave no span: load 0, and nothing to calibrate.
  Workload flat;
  flat.jobs = {simple_job(1, 7, 4, 0), simple_job(2, 7, 8, 0)};
  const LoadCalibrator::Result result =
      calibrator_of(flat, 16).calibrate(0.7);
  EXPECT_TRUE(result.factors.empty());
  EXPECT_EQ(result.load, 0.0);
  expect_matches_reference(flat, 16, {0.7});
  expect_matches_reference(Workload{}, 16, {0.7});
}

TEST(LoadCalibrator, MatchesTheRescalingLoopOnGeneratedTraces) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    GeneratorConfig config;
    config.num_jobs = 120;
    config.seed = seed;
    config.p_dedicated = seed % 2 == 0 ? 0.5 : 0.0;
    expect_matches_reference(generate(config), 320, {0.3, 0.7, 1.1, 100});
  }
}

TEST(LoadCalibrator, FrontStaysSmallOnAMillionJobTrace) {
  // The paper machine at trace scale (the bgp_1m benchmark's shape), and
  // the same with half the jobs dedicated and U(1, 10) estimates.
  for (const double p_dedicated : {0.0, 0.5}) {
    SCOPED_TRACE(p_dedicated);
    GeneratorConfig config;
    config.machine_procs = 320;
    config.num_jobs = 1000000;
    config.p_small = 0.5;
    config.p_dedicated = p_dedicated;
    if (p_dedicated > 0) config.estimate_uniform_max = 10;
    JobSampler sampler(config);
    LoadCalibrator calibrator(config.machine_procs);
    Job job;
    while (sampler.next(job, nullptr, nullptr)) calibrator.add(job);
    EXPECT_LT(calibrator.front_size(), 64u);
    EXPECT_GT(calibrator.front_size(), 1u);
    EXPECT_FALSE(calibrator.calibrate(0.7).factors.empty());
  }
}

TEST(Load, DurationSpansArrivalToLastCompletion) {
  Workload workload;
  workload.jobs = {simple_job(1, 10, 4, 100), simple_job(2, 50, 4, 10)};
  EXPECT_DOUBLE_EQ(workload.duration(), 100.0);  // 10..110
}

TEST(Load, DurationAccountsForDedicatedStarts) {
  Workload workload;
  Job dedicated = simple_job(1, 0, 4, 100);
  dedicated.type = JobType::kDedicated;
  dedicated.start = 500;
  workload.jobs = {dedicated};
  // Runs [500, 600], so the span is 600.
  EXPECT_DOUBLE_EQ(workload.duration(), 600.0);
}

TEST(Load, BatchAndDedicatedCounts) {
  Workload workload;
  Job dedicated = simple_job(1, 0, 4, 10);
  dedicated.type = JobType::kDedicated;
  dedicated.start = 5;
  workload.jobs = {dedicated, simple_job(2, 0, 4, 10),
                   simple_job(3, 1, 8, 10)};
  EXPECT_EQ(workload.batch_count(), 2u);
  EXPECT_EQ(workload.dedicated_count(), 1u);
}

}  // namespace
}  // namespace es::workload
