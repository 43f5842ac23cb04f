// Windowed feed: Engine::run() drains a MaterializedSource, so a job's
// record is built when its window is fed and released when it retires,
// while its arrival, dedicated-due and ECC events are scheduled one window
// at a time.  The golden outcome hashes below were recorded when run()
// still built every record and scheduled the whole workload up front; the
// windowed run must reproduce them, match run_streamed(MaterializedSource)
// on every deterministic field, and keep both the event queue and the
// record arena at in-flight size.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "exp/experiment.hpp"
#include "testing/helpers.hpp"
#include "testing/parity.hpp"
#include "workload/generator.hpp"
#include "workload/source.hpp"

namespace es {
namespace {

using testing::expect_identical;
using testing::outcome_hash;

constexpr std::size_t kWindow = workload::WorkloadCursor::kDefaultChunkJobs;
/// In-flight bound for a multi-window run: the current window's arrivals,
/// wake-ups and commands plus the running jobs' finishes stay well below
/// three windows' worth.
constexpr std::uint64_t kPendingBound = 3 * kWindow;
/// The live records — the current window's jobs plus the queued, running
/// and finished-with-commands-pending ones — peak at 5120-6144 arena
/// slots in these cases, below two windows; building every record up
/// front took one slot per job (9216 and 13312).
constexpr std::uint64_t kLiveBound = 2 * kWindow;

/// Hybrid-LOS-E traffic over four windows: dedicated reservations, time
/// and processor ECCs, node failures and checkpointing.
workload::GeneratorConfig elastic_config() {
  workload::GeneratorConfig config;
  config.machine_procs = 320;
  config.num_jobs = 13000;
  config.seed = 1515;
  config.p_dedicated = 0.3;
  config.p_extend = 0.2;
  config.p_reduce = 0.2;
  config.p_extend_procs = 0.1;
  config.p_reduce_procs = 0.1;
  config.target_load = 0.9;
  return config;
}

core::AlgorithmOptions faulty_options() {
  core::AlgorithmOptions options;
  options.engine.failure.enabled = true;
  options.engine.failure.seed = 17;
  options.engine.failure.mtbf = 12 * 3600.0;
  options.engine.failure.mttr = 30 * 60.0;
  options.engine.failure.max_nodes = 2;
  options.engine.checkpoint.enabled = true;
  options.engine.checkpoint.interval = 1800;
  options.engine.checkpoint.overhead = 30;
  return options;
}

/// run() against run_streamed(MaterializedSource) with the default chunk,
/// which cuts the same windows.
void expect_streamed_parity(const workload::Workload& workload,
                            const std::string& algorithm,
                            const core::AlgorithmOptions& options,
                            const sched::SimulationResult& materialized) {
  workload::MaterializedSource source(workload);
  const sched::SimulationResult streamed =
      exp::run_source(source, algorithm, options);
  expect_identical(materialized, streamed);
}

workload::Ecc make_ecc(workload::JobId job, double issue,
                       workload::EccType type, double amount) {
  workload::Ecc ecc;
  ecc.job_id = job;
  ecc.issue = issue;
  ecc.type = type;
  ecc.amount = amount;
  return ecc;
}

TEST(WindowedFeed, HybridLosEMatchesGoldenAndStreamed) {
  const workload::Workload workload = workload::generate(elastic_config());
  ASSERT_GT(workload.jobs.size(), 3 * kWindow);
  const core::AlgorithmOptions options = faulty_options();
  const sched::SimulationResult result =
      exp::run_workload(workload, "Hybrid-LOS-E", options);
  EXPECT_GT(result.ecc.processed, 0u);
  EXPECT_GT(result.failure.outages, 0u);
  EXPECT_GT(result.failure.checkpoints, 0u);
  EXPECT_GT(result.dedicated_on_time, 0u);
  EXPECT_EQ(outcome_hash(result), 0x5f89fc530adbe437ull);
  EXPECT_LT(result.perf.events.peak_pending, kPendingBound);
  EXPECT_LT(result.perf.peak_live_jobs, kLiveBound);
  expect_streamed_parity(workload, "Hybrid-LOS-E", options, result);
}

TEST(WindowedFeed, FairShareWithFaultsMatchesGoldenAndStreamed) {
  workload::GeneratorConfig config;
  config.machine_procs = 320;
  config.num_jobs = 13000;
  config.seed = 2929;
  config.target_load = 0.95;
  config.num_users = 32;
  config.num_pools = 4;
  const workload::Workload workload = workload::generate(config);
  core::AlgorithmOptions options = faulty_options();
  options.engine.requeue = fault::RequeuePolicy::kRequeueTail;
  options.engine.fairshare.pools = {{"prod", 4.0, 0.25},
                                    {"batch", 2.0, 0.0},
                                    {"dev", 1.0, 0.1},
                                    {"scavenger", 1.0, 0.0}};
  options.engine.fairshare.min_share_preemption_timeout = 120;
  options.engine.fairshare.fair_share_preemption_timeout = 900;
  const sched::SimulationResult result =
      exp::run_workload(workload, "FairShare", options);
  EXPECT_GT(result.failure.outages, 0u);
  EXPECT_GT(result.failure.interruptions, 0u);
  EXPECT_EQ(outcome_hash(result), 0xdc3a90c6595d620dull);
  EXPECT_LT(result.perf.events.peak_pending, kPendingBound);
  EXPECT_LT(result.perf.peak_live_jobs, kLiveBound);
  expect_streamed_parity(workload, "FairShare", options, result);
}

TEST(WindowedFeed, EqualArrivalGroupStraddlesTheWindowEdge) {
  // Jobs 4090..4110 (by index) share one arrival instant, so the first
  // window must extend past job 4096 to keep the group whole.
  workload::GeneratorConfig config = elastic_config();
  config.num_jobs = 9000;
  config.seed = 77;
  workload::Workload workload = workload::generate(config);
  const double tie = workload.jobs[kWindow - 6].arr;
  for (std::size_t i = kWindow - 6; i <= kWindow + 14; ++i)
    workload.jobs[i].arr = tie;
  workload.normalize();
  const core::AlgorithmOptions options;
  const sched::SimulationResult result =
      exp::run_workload(workload, "Hybrid-LOS-E", options);
  EXPECT_EQ(outcome_hash(result), 0x29e7d036c55c5676ull);
  EXPECT_LT(result.perf.events.peak_pending, kPendingBound);
  EXPECT_LT(result.perf.peak_live_jobs, kLiveBound);
  expect_streamed_parity(workload, "Hybrid-LOS-E", options, result);
}

TEST(WindowedFeed, EccsIssuedAtAWindowsFirstArrival) {
  // Commands issued exactly at the second and third windows' first
  // arrivals belong to those windows, not to the ones before them.
  workload::GeneratorConfig config = elastic_config();
  config.num_jobs = 9000;
  config.seed = 78;
  config.p_dedicated = 0;
  workload::Workload workload = workload::generate(config);
  for (const std::size_t first : {kWindow, 2 * kWindow}) {
    ASSERT_LT(workload.jobs[first - 1].arr, workload.jobs[first].arr);
    const double edge = workload.jobs[first].arr;
    const workload::JobId own = workload.jobs[first].id;
    const workload::JobId earlier = workload.jobs[first - 3].id;
    workload.eccs.push_back(
        make_ecc(own, edge, workload::EccType::kExtendTime, 600));
    workload.eccs.push_back(
        make_ecc(earlier, edge, workload::EccType::kReduceTime, 60));
    workload.eccs.push_back(
        make_ecc(earlier, edge, workload::EccType::kExtendProcs, 32));
  }
  workload.normalize();
  const core::AlgorithmOptions options;
  const sched::SimulationResult result =
      exp::run_workload(workload, "Hybrid-LOS-E", options);
  EXPECT_EQ(outcome_hash(result), 0x7ed6118b12dd1e84ull);
  EXPECT_LT(result.perf.events.peak_pending, kPendingBound);
  EXPECT_LT(result.perf.peak_live_jobs, kLiveBound);
  expect_streamed_parity(workload, "Hybrid-LOS-E", options, result);
}

TEST(WindowedFeed, EarlyAndUnknownEccsStayLegalInRun) {
  // Commands issued before their job arrives (the job sits two windows
  // later) and commands naming no job at all: the source hands the named
  // job's record ahead and the engine skips and counts the unknown ones,
  // with the outcomes run() had when it built every record up front.
  workload::GeneratorConfig config = elastic_config();
  config.num_jobs = 9000;
  config.seed = 79;
  workload::Workload workload = workload::generate(config);
  const double start = workload.jobs.front().arr;
  const workload::JobId late = workload.jobs[2 * kWindow + 5].id;
  workload.eccs.push_back(
      make_ecc(late, start + 1, workload::EccType::kExtendTime, 900));
  workload.eccs.push_back(
      make_ecc(late, workload.jobs[kWindow + 3].arr,
               workload::EccType::kReduceProcs, 32));
  workload.eccs.push_back(make_ecc(999999, workload.jobs[kWindow].arr,
                                   workload::EccType::kExtendTime, 60));
  workload.eccs.push_back(make_ecc(999998, workload.jobs.back().arr + 10,
                                   workload::EccType::kReduceTime, 60));
  workload.normalize();
  const sched::SimulationResult result =
      exp::run_workload(workload, "Hybrid-LOS-E", {});
  EXPECT_EQ(result.ecc.unknown_job, 2u);
  EXPECT_EQ(outcome_hash(result), 0xcbe286b043abfc97ull);
  EXPECT_LT(result.perf.events.peak_pending, kPendingBound);
  EXPECT_LT(result.perf.peak_live_jobs, kLiveBound);
  expect_streamed_parity(workload, "Hybrid-LOS-E", {}, result);
}

TEST(WindowedFeed, UnsortedWorkloadRunsAsOneWindow) {
  // Hand-built, never normalized: a job out of arrival order, then a
  // command out of issue order.  Either way the cut returns one window
  // covering everything — the whole schedule up front.
  workload::GeneratorConfig config = elastic_config();
  config.num_jobs = 9000;
  config.seed = 80;
  const workload::Workload sorted = workload::generate(config);

  workload::Workload jobs_unsorted = sorted;
  std::swap(jobs_unsorted.jobs[10], jobs_unsorted.jobs[2 * kWindow + 10]);
  const sched::SimulationResult by_jobs =
      exp::run_workload(jobs_unsorted, "Hybrid-LOS-E", {});
  EXPECT_GE(by_jobs.perf.events.peak_pending, jobs_unsorted.jobs.size());
  EXPECT_EQ(outcome_hash(by_jobs), 0x1a7ed81bf8cbe6f5ull);

  workload::Workload eccs_unsorted = sorted;
  ASSERT_GE(eccs_unsorted.eccs.size(), 2u);
  std::swap(eccs_unsorted.eccs.front(), eccs_unsorted.eccs.back());
  const sched::SimulationResult by_eccs =
      exp::run_workload(eccs_unsorted, "Hybrid-LOS-E", {});
  EXPECT_GE(by_eccs.perf.events.peak_pending, eccs_unsorted.jobs.size());
  EXPECT_EQ(outcome_hash(by_eccs), 0x1a7ed81bf8cbe6f5ull);
}

}  // namespace
}  // namespace es
