// JobSource contract tests: every source must deliver, chunk by chunk,
// exactly the jobs and commands its materializing counterpart produces —
// same values, same (arr, id) / (issue, job_id) order, chunk boundaries
// that never split a same-instant tie group, and command windows that
// concatenate to the normalize() order.  These invariants are what make
// Engine::run_streamed byte-identical to Engine::run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "testing/helpers.hpp"
#include "util/log.hpp"
#include "workload/generator.hpp"
#include "workload/load.hpp"
#include "workload/source.hpp"

namespace es::workload {
namespace {

/// Drains a source, checking per-chunk invariants along the way, and
/// returns the concatenation.
struct Drained {
  std::vector<Job> jobs;
  std::vector<int> ecc_counts;
  std::vector<Ecc> eccs;
  std::size_t chunks = 0;
};

Drained drain(JobSource& source) {
  Drained all;
  SourceChunk chunk;
  while (source.next_chunk(chunk)) {
    EXPECT_FALSE(chunk.jobs.empty());
    EXPECT_EQ(chunk.jobs.size(), chunk.ecc_counts.size());
    if (!all.jobs.empty() && !chunk.jobs.empty()) {
      // Tie-group contract: a chunk boundary never splits equal arrivals.
      EXPECT_GT(chunk.jobs.front().arr, all.jobs.back().arr);
    }
    all.jobs.insert(all.jobs.end(), chunk.jobs.begin(), chunk.jobs.end());
    all.ecc_counts.insert(all.ecc_counts.end(), chunk.ecc_counts.begin(),
                          chunk.ecc_counts.end());
    all.eccs.insert(all.eccs.end(), chunk.eccs.begin(), chunk.eccs.end());
    ++all.chunks;
  }
  // Exhausted sources stay exhausted.
  EXPECT_FALSE(source.next_chunk(chunk));
  return all;
}

void expect_same_jobs(const std::vector<Job>& expected,
                      const std::vector<Job>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const Job& a = expected[i];
    const Job& b = actual[i];
    EXPECT_EQ(a.id, b.id) << "job " << i;
    EXPECT_EQ(a.arr, b.arr) << "job " << i;
    EXPECT_EQ(a.num, b.num) << "job " << i;
    EXPECT_EQ(a.dur, b.dur) << "job " << i;
    EXPECT_EQ(a.actual, b.actual) << "job " << i;
    EXPECT_EQ(a.type, b.type) << "job " << i;
    EXPECT_EQ(a.start, b.start) << "job " << i;
    EXPECT_EQ(a.user, b.user) << "job " << i;
    EXPECT_EQ(a.pool, b.pool) << "job " << i;
  }
}

void expect_same_eccs(const std::vector<Ecc>& expected,
                      const std::vector<Ecc>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].issue, actual[i].issue) << "ecc " << i;
    EXPECT_EQ(expected[i].job_id, actual[i].job_id) << "ecc " << i;
    EXPECT_EQ(expected[i].type, actual[i].type) << "ecc " << i;
    EXPECT_EQ(expected[i].amount, actual[i].amount) << "ecc " << i;
  }
}

void expect_counts_are_totals(const Drained& drained) {
  std::size_t total = 0;
  for (const int count : drained.ecc_counts) {
    EXPECT_GE(count, 0);
    total += static_cast<std::size_t>(count);
  }
  EXPECT_EQ(total, drained.eccs.size());
}

// --- MaterializedSource ----------------------------------------------------

TEST(MaterializedSource, DeliversWorkloadVerbatimAcrossChunkSizes) {
  GeneratorConfig config;
  config.machine_procs = 64;
  config.size.unit = 8;
  config.num_jobs = 150;
  config.seed = 7;
  config.p_extend = 0.3;
  config.p_reduce = 0.2;
  config.max_eccs_per_job = 2;
  config.p_dedicated = 0.2;
  const Workload workload = generate(config);
  ASSERT_FALSE(workload.eccs.empty());

  for (const std::size_t chunk_jobs :
       {std::size_t{1}, std::size_t{7}, std::size_t{64}, std::size_t{1000}}) {
    SCOPED_TRACE(chunk_jobs);
    MaterializedSource source(workload, chunk_jobs);
    EXPECT_EQ(source.machine_procs(), workload.machine_procs);
    EXPECT_EQ(source.granularity(), workload.granularity);
    Drained drained = drain(source);
    expect_same_jobs(workload.jobs, drained.jobs);
    expect_same_eccs(workload.eccs, drained.eccs);
    expect_counts_are_totals(drained);
  }
}

TEST(MaterializedSource, CountsCommandsOnTheJobsChunkNotTheIssueChunk) {
  // Job 1 arrives at t=0 but its command issues at t=500, inside job 3's
  // window: the command must ride in a later chunk while the *count* rides
  // with job 1.
  std::vector<Job> jobs = {es::testing::batch_job(1, 0, 4, 100),
                           es::testing::batch_job(2, 200, 4, 100),
                           es::testing::batch_job(3, 400, 4, 100),
                           es::testing::batch_job(4, 600, 4, 100)};
  Ecc ecc;
  ecc.job_id = 1;
  ecc.type = EccType::kExtendTime;
  ecc.amount = 50;
  ecc.issue = 500;
  const Workload workload = es::testing::make_workload(64, 8, jobs, {ecc});

  MaterializedSource source(workload, 1);
  SourceChunk chunk;
  ASSERT_TRUE(source.next_chunk(chunk));
  ASSERT_EQ(chunk.jobs.size(), 1u);
  EXPECT_EQ(chunk.jobs[0].id, 1);
  EXPECT_EQ(chunk.ecc_counts[0], 1);  // total ever, not in-window
  EXPECT_TRUE(chunk.eccs.empty());    // issue=500 is outside [0, 200)
  ASSERT_TRUE(source.next_chunk(chunk));  // jobs[1]: window [200, 400)
  EXPECT_TRUE(chunk.eccs.empty());
  ASSERT_TRUE(source.next_chunk(chunk));  // jobs[2]: window [400, 600)
  ASSERT_EQ(chunk.eccs.size(), 1u);
  EXPECT_EQ(chunk.eccs[0].job_id, 1);
}

TEST(MaterializedSource, NeverSplitsEqualArrivalGroups) {
  std::vector<Job> jobs;
  for (int i = 0; i < 12; ++i)
    jobs.push_back(es::testing::batch_job(i + 1, 100.0 * (i / 4), 4, 50));
  const Workload workload = es::testing::make_workload(64, 8, jobs);
  MaterializedSource source(workload, 3);  // nominal chunk < group size
  SourceChunk chunk;
  while (source.next_chunk(chunk)) {
    ASSERT_EQ(chunk.jobs.size(), 4u);  // extended to the full tie group
    for (const Job& job : chunk.jobs)
      EXPECT_EQ(job.arr, chunk.jobs.front().arr);
  }
}

Ecc extend_at(JobId job, double issue) {
  Ecc ecc;
  ecc.job_id = job;
  ecc.type = EccType::kExtendTime;
  ecc.amount = 50;
  ecc.issue = issue;
  return ecc;
}

TEST(MaterializedSource, UnsortedWorkloadIsOneChunk) {
  // Never normalized: job 3 arrives before job 2.  Engine::run() accepts
  // it as one window, so the source does too.
  Workload workload;
  workload.machine_procs = 64;
  workload.granularity = 8;
  workload.jobs = {es::testing::batch_job(1, 0, 4, 100),
                   es::testing::batch_job(2, 300, 4, 100),
                   es::testing::batch_job(3, 200, 4, 100)};
  workload.eccs = {extend_at(2, 350), extend_at(3, 250)};
  MaterializedSource source(workload, 1);
  EXPECT_EQ(source.total_jobs(), std::optional<std::uint64_t>{3});
  SourceChunk chunk;
  ASSERT_TRUE(source.next_chunk(chunk));
  expect_same_jobs(workload.jobs, chunk.jobs);
  expect_same_eccs(workload.eccs, chunk.eccs);
  EXPECT_EQ(chunk.ecc_counts, (std::vector<int>{0, 1, 1}));
  EXPECT_TRUE(chunk.ahead.empty());
  EXPECT_FALSE(source.next_chunk(chunk));
}

TEST(MaterializedSource, HandsAheadTheJobOfAnEarlyCommand) {
  // Job 4 arrives at t=600, but commands name it at t=100 (job 1's
  // window) and t=300 (job 2's): its spec rides ahead with the first of
  // them, once, and the job itself still comes in its own chunk.
  const std::vector<Job> jobs = {es::testing::batch_job(1, 0, 4, 100),
                                 es::testing::batch_job(2, 200, 4, 100),
                                 es::testing::batch_job(3, 400, 4, 100),
                                 es::testing::batch_job(4, 600, 4, 100)};
  const Workload workload = es::testing::make_workload(
      64, 8, jobs, {extend_at(4, 100), extend_at(4, 300)});
  MaterializedSource source(workload, 1);
  SourceChunk chunk;
  ASSERT_TRUE(source.next_chunk(chunk));  // job 1, window [0, 200)
  ASSERT_EQ(chunk.eccs.size(), 1u);
  ASSERT_EQ(chunk.ahead.size(), 1u);
  EXPECT_EQ(chunk.ahead[0].id, 4);
  EXPECT_EQ(chunk.ahead[0].arr, 600);
  EXPECT_EQ(chunk.ahead_ecc_counts, (std::vector<int>{2}));
  ASSERT_TRUE(source.next_chunk(chunk));  // job 2, window [200, 400)
  ASSERT_EQ(chunk.eccs.size(), 1u);
  EXPECT_TRUE(chunk.ahead.empty());  // already handed ahead
  ASSERT_TRUE(source.next_chunk(chunk));  // job 3
  EXPECT_TRUE(chunk.ahead.empty());
  ASSERT_TRUE(source.next_chunk(chunk));  // job 4, in its own window
  ASSERT_EQ(chunk.jobs.size(), 1u);
  EXPECT_EQ(chunk.jobs[0].id, 4);
  EXPECT_EQ(chunk.ecc_counts, (std::vector<int>{2}));
  EXPECT_TRUE(chunk.ahead.empty());
  EXPECT_FALSE(source.next_chunk(chunk));
}

TEST(MaterializedSource, DeliversCommandsNamingNoJob) {
  // A command for a job the trace never submits rides its window like any
  // other (the engine skips and counts it); it counts toward no job and
  // hands nothing ahead.
  const std::vector<Job> jobs = {es::testing::batch_job(1, 0, 4, 100),
                                 es::testing::batch_job(2, 200, 4, 100)};
  const Workload workload = es::testing::make_workload(
      64, 8, jobs, {extend_at(99, 50), extend_at(1, 60)});
  MaterializedSource source(workload, 1);
  EXPECT_EQ(source.index_of(99), MaterializedSource::kNoJob);
  EXPECT_EQ(source.index_of(2), 1u);
  Drained drained = drain(source);
  expect_same_jobs(workload.jobs, drained.jobs);
  expect_same_eccs(workload.eccs, drained.eccs);
  EXPECT_EQ(drained.ecc_counts, (std::vector<int>{1, 0}));
}

TEST(MaterializedSource, RejectsDuplicateIdsAnywhere) {
  const std::vector<Job> jobs = {es::testing::batch_job(7, 0, 4, 100),
                                 es::testing::batch_job(8, 200, 4, 100),
                                 es::testing::batch_job(7, 400, 4, 100)};
  const Workload workload = es::testing::make_workload(64, 8, jobs);
  EXPECT_DEATH((void)MaterializedSource(workload, 1), "precondition");
}

// --- WorkloadCursor --------------------------------------------------------

TEST(WorkloadCursor, UnsortedWorkloadIsOneWindow) {
  // Hand-built and never normalized: one job or one command out of order
  // turns the cut into a single window over everything.
  Workload jobs_unsorted;
  jobs_unsorted.jobs = {es::testing::batch_job(1, 0, 4, 100),
                        es::testing::batch_job(2, 300, 4, 100),
                        es::testing::batch_job(3, 200, 4, 100)};
  Workload eccs_unsorted;
  eccs_unsorted.jobs = {es::testing::batch_job(1, 0, 4, 100),
                        es::testing::batch_job(2, 200, 4, 100),
                        es::testing::batch_job(3, 300, 4, 100)};
  eccs_unsorted.eccs = {extend_at(1, 250), extend_at(2, 210)};
  for (const Workload* workload : {&jobs_unsorted, &eccs_unsorted}) {
    WorkloadCursor cursor(*workload, 1);
    WorkloadCursor::Window window;
    ASSERT_TRUE(cursor.next(window));
    EXPECT_EQ(window.job_begin, 0u);
    EXPECT_EQ(window.job_end, 3u);
    EXPECT_EQ(window.ecc_begin, 0u);
    EXPECT_EQ(window.ecc_end, workload->eccs.size());
    EXPECT_FALSE(cursor.next(window));
  }
}

TEST(WorkloadCursor, CommandsWithoutJobsFormOneWindow) {
  Workload workload;
  workload.eccs = {extend_at(7, 10), extend_at(8, 20)};
  WorkloadCursor cursor(workload);
  WorkloadCursor::Window window;
  ASSERT_TRUE(cursor.next(window));
  EXPECT_EQ(window.job_end, 0u);
  EXPECT_EQ(window.ecc_end, 2u);
  EXPECT_FALSE(cursor.next(window));
}

// --- GeneratorSource -------------------------------------------------------

TEST(GeneratorSource, MatchesGenerateExactly) {
  GeneratorConfig config;
  config.machine_procs = 64;
  config.size.unit = 8;
  config.num_jobs = 200;
  config.seed = 13;
  config.p_dedicated = 0.2;
  config.p_extend = 0.25;
  config.p_reduce = 0.25;
  config.p_extend_procs = 0.1;
  config.p_reduce_procs = 0.1;
  config.max_eccs_per_job = 3;
  const Workload workload = generate(config);

  for (const std::size_t chunk_jobs : {std::size_t{1}, std::size_t{17}}) {
    SCOPED_TRACE(chunk_jobs);
    GeneratorSource source(config, chunk_jobs);
    EXPECT_EQ(source.machine_procs(), config.machine_procs);
    Drained drained = drain(source);
    expect_same_jobs(workload.jobs, drained.jobs);
    expect_same_eccs(workload.eccs, drained.eccs);
    expect_counts_are_totals(drained);
  }
}

TEST(GeneratorSource, MatchesGenerateUnderLoadCalibration) {
  GeneratorConfig config;
  config.machine_procs = 64;
  config.size.unit = 8;
  config.num_jobs = 150;
  config.seed = 21;
  config.target_load = 0.8;
  config.p_extend = 0.2;
  const Workload workload = generate(config);

  GeneratorSource source(config, 32);
  // The calibration factor chain must replay generate()'s exact scaling.
  EXPECT_FALSE(source.scale_factors().empty());
  Drained drained = drain(source);
  expect_same_jobs(workload.jobs, drained.jobs);
  expect_same_eccs(workload.eccs, drained.eccs);

  // An unreachable target spends the whole budget on both paths: 50 jobs
  // on the default machine saturate near load 8 however hard the arrivals
  // are compressed.
  GeneratorConfig unreachable;
  unreachable.num_jobs = 50;
  unreachable.target_load = 100;
  const Workload saturated = generate(unreachable);
  GeneratorSource saturated_source(unreachable, 16);
  EXPECT_EQ(saturated_source.scale_factors().size(),
            static_cast<std::size_t>(kCalibrationBudget));
  Drained saturated_drained = drain(saturated_source);
  expect_same_jobs(saturated.jobs, saturated_drained.jobs);
  expect_same_eccs(saturated.eccs, saturated_drained.eccs);
}

/// GeneratorSource's calibration as it ran before LoadCalibrator: one
/// jobs-only JobSampler pass per rescaling, each re-measuring the span
/// under the factor chain so far.
std::vector<double> resampling_factors(const GeneratorConfig& config) {
  std::vector<double> factors;
  double origin = 0;
  double proc_seconds = 0;
  const auto scaled = [&](double t) {
    for (const double factor : factors) t = origin + (t - origin) * factor;
    return t;
  };
  const auto measure = [&](bool accumulate_work) {
    JobSampler pass(config);
    Job job;
    double last = 0;
    bool first = true;
    while (pass.next(job, nullptr, nullptr)) {
      if (accumulate_work)
        proc_seconds += static_cast<double>(job.num) * job.actual_runtime();
      if (first) {
        origin = job.arr;
        last = origin;
        first = false;
      }
      job.arr = scaled(job.arr);
      if (job.dedicated() && job.start >= 0) job.start = scaled(job.start);
      last = std::max(last, job.nominal_end());
    }
    const double span = last - origin;
    if (span <= 0) return 0.0;
    return proc_seconds / (span * config.machine_procs);
  };
  const double target = config.target_load;
  double load = measure(true);
  if (load <= 0) return factors;
  while (factors.size() < static_cast<std::size_t>(kCalibrationBudget) &&
         std::abs(load - target) / target >= kCalibrationTolerance) {
    factors.push_back(load / target);
    load = measure(false);
  }
  return factors;
}

TEST(GeneratorSource, CalibrationMatchesTheResamplingReference) {
  // 200 seeds, each over P_D in {0, 0.5, 1} and both estimate models, at
  // targets below, near and above the model's natural load and one no trace
  // reaches (100: the whole budget, and a warning per trace, muted here).
  const util::LogLevel log_level = util::log_level();
  util::set_log_level(util::LogLevel::kError);
  for (std::uint64_t seed = 1; seed <= 200 && !HasFailure(); ++seed) {
    for (const double p_dedicated : {0.0, 0.5, 1.0}) {
      for (const bool uniform_estimates : {false, true}) {
        for (const double target : {0.3, 0.7, 1.1, 100.0}) {
          GeneratorConfig config;
          config.machine_procs = 64;
          config.size.unit = 8;
          config.num_jobs = 40;
          config.seed = seed;
          config.p_dedicated = p_dedicated;
          config.dedicated_start_mean = 3600;
          config.estimate_factor = 2;
          if (uniform_estimates) config.estimate_uniform_max = 10;
          config.target_load = target;
          SCOPED_TRACE(::testing::Message()
                       << "seed " << seed << " P_D " << p_dedicated
                       << " uniform " << uniform_estimates << " target "
                       << target);
          GeneratorSource source(config, 16);
          ASSERT_EQ(source.scale_factors(), resampling_factors(config));
          if (target == 100.0) {
            EXPECT_EQ(source.scale_factors().size(),
                      static_cast<std::size_t>(kCalibrationBudget));
          }
          const Workload workload = generate(config);
          const Drained drained = drain(source);
          expect_same_jobs(workload.jobs, drained.jobs);
        }
      }
    }
  }
  util::set_log_level(log_level);
}

TEST(GeneratorSource, NoCalibrationWithoutTargetLoad) {
  GeneratorConfig config;
  config.machine_procs = 64;
  config.size.unit = 8;
  config.num_jobs = 40;
  config.seed = 2;
  GeneratorSource source(config, 16);
  EXPECT_TRUE(source.scale_factors().empty());
  Drained drained = drain(source);
  const Workload workload = generate(config);
  expect_same_jobs(workload.jobs, drained.jobs);
}

TEST(GeneratorSource, TagsUsersAndPoolsLikeGenerate) {
  // Multi-tenant traces: the user stream is split after the estimate
  // stream and drawn in id order, exactly as generate() tags jobs.
  GeneratorConfig config;
  config.machine_procs = 64;
  config.size.unit = 8;
  config.num_jobs = 180;
  config.seed = 31;
  config.target_load = 0.9;
  config.p_extend = 0.2;
  config.estimate_uniform_max = 3.0;
  config.num_users = 12;
  config.num_pools = 3;
  const Workload workload = generate(config);
  int max_pool = 0;
  for (const Job& job : workload.jobs) max_pool = std::max(max_pool, job.pool);
  ASSERT_EQ(max_pool, 2) << "the trace must actually span several pools";

  for (const std::size_t chunk_jobs : {std::size_t{1}, std::size_t{23}}) {
    SCOPED_TRACE(chunk_jobs);
    GeneratorSource source(config, chunk_jobs);
    Drained drained = drain(source);
    expect_same_jobs(workload.jobs, drained.jobs);
    expect_same_eccs(workload.eccs, drained.eccs);
  }
}

}  // namespace
}  // namespace es::workload
