// Engine attachment chain: the typed lifecycle event bus, the
// CycleStatsObserver histograms, external observers via add_observer, and
// the paranoid-mode cross-checks against from-scratch recomputation.
#include "sched/attach/observer.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "sched/engine.hpp"
#include "sched/fcfs.hpp"
#include "sched/perf.hpp"
#include "testing/helpers.hpp"
#include "testing/sweep_csv.hpp"

namespace es::sched {
namespace {

using es::testing::batch_job;
using es::testing::make_workload;

std::uint64_t histogram_sum(const std::uint64_t (&buckets)[CycleStats::kBuckets]) {
  std::uint64_t sum = 0;
  for (std::uint64_t count : buckets) sum += count;
  return sum;
}

TEST(CycleStats, BucketRangesAreLog2) {
  EXPECT_EQ(CycleStats::bucket_of(0), 0);
  EXPECT_EQ(CycleStats::bucket_of(1), 1);
  EXPECT_EQ(CycleStats::bucket_of(2), 2);
  EXPECT_EQ(CycleStats::bucket_of(3), 2);
  EXPECT_EQ(CycleStats::bucket_of(4), 3);
  EXPECT_EQ(CycleStats::bucket_of(7), 3);
  EXPECT_EQ(CycleStats::bucket_of(8), 4);
  // The last bucket absorbs every overflow.
  EXPECT_EQ(CycleStats::bucket_of(1u << 20), CycleStats::kBuckets - 1);
  EXPECT_EQ(CycleStats::bucket_lo(0), 0u);
  EXPECT_EQ(CycleStats::bucket_hi(0), 0u);
  EXPECT_EQ(CycleStats::bucket_lo(3), 4u);
  EXPECT_EQ(CycleStats::bucket_hi(3), 7u);
  for (std::uint64_t value : {0ull, 1ull, 5ull, 600ull}) {
    const int b = CycleStats::bucket_of(value);
    if (b < CycleStats::kBuckets - 1) {
      EXPECT_GE(value, CycleStats::bucket_lo(b)) << value;
      EXPECT_LE(value, CycleStats::bucket_hi(b)) << value;
    }
  }
}

TEST(CycleStats, DefaultChainLeavesStatsZero) {
  const auto workload = make_workload(10, 1, {batch_job(1, 0, 4, 10)});
  const auto result = exp::run_workload(workload, "FCFS");
  EXPECT_EQ(result.perf.cycle.cycles, 0u);
  EXPECT_EQ(result.perf.cycle.starts, 0u);
  EXPECT_EQ(histogram_sum(result.perf.cycle.queue_depth), 0u);
}

TEST(CycleStats, CollectsPerCycleHistogramsWhenEnabled) {
  core::AlgorithmOptions options;
  options.engine.collect_cycle_stats = true;
  const auto workload = make_workload(
      10, 1,
      {batch_job(1, 0, 8, 100), batch_job(2, 1, 8, 100),
       batch_job(3, 2, 8, 100), batch_job(4, 3, 2, 10)});
  const auto result = exp::run_workload(workload, "FCFS", options);
  const CycleStats& cycle = result.perf.cycle;
  EXPECT_EQ(cycle.cycles, result.cycles);
  EXPECT_GT(cycle.cycles, 0u);
  EXPECT_EQ(cycle.starts, 4u);
  // Every cycle lands in exactly one bucket of each histogram.
  EXPECT_EQ(histogram_sum(cycle.queue_depth), cycle.cycles);
  EXPECT_EQ(histogram_sum(cycle.dp_calls), cycle.cycles);
  // Three 8-proc jobs queue behind each other, so some cycle saw depth >= 2.
  EXPECT_GE(cycle.max_queue_depth, 2u);
}

TEST(CycleStats, CountsBackfilledStarts) {
  // EASY backfill: two wide jobs serialize, the narrow late arrival slides
  // past the waiting queue head into the free 2-proc gap.
  core::AlgorithmOptions options;
  options.engine.collect_cycle_stats = true;
  const auto workload = make_workload(
      10, 1,
      {batch_job(1, 0, 8, 100), batch_job(2, 1, 8, 100),
       batch_job(3, 2, 2, 50)});
  const auto result = exp::run_workload(workload, "EASY", options);
  EXPECT_EQ(result.perf.cycle.starts, 3u);
  EXPECT_GE(result.perf.cycle.backfill_starts, 1u);
  // Job 3 ran inside job 1's window rather than after the queue drained.
  for (const auto& job : result.jobs)
    if (job.id == 3) EXPECT_LT(job.started, 100.0);
}

TEST(CycleStats, AggregatesAcrossRuns) {
  CycleStats a;
  a.cycles = 3;
  a.starts = 2;
  a.max_queue_depth = 7;
  a.queue_depth[2] = 3;
  CycleStats b;
  b.cycles = 5;
  b.backfill_starts = 1;
  b.max_queue_depth = 4;
  b.queue_depth[2] = 1;
  b.dp_calls[0] = 5;
  a += b;
  EXPECT_EQ(a.cycles, 8u);
  EXPECT_EQ(a.starts, 2u);
  EXPECT_EQ(a.backfill_starts, 1u);
  EXPECT_EQ(a.max_queue_depth, 7u);  // max, not sum
  EXPECT_EQ(a.queue_depth[2], 4u);
  EXPECT_EQ(a.dp_calls[0], 5u);
}

/// Counts every lifecycle hook — proves the bus is open to observers that
/// are not engine built-ins.
class CountingObserver final : public EngineObserver {
 public:
  std::uint64_t arrivals = 0;
  std::uint64_t starts = 0;
  std::uint64_t backfilled = 0;
  std::uint64_t finishes = 0;
  std::uint64_t cycle_begins = 0;
  std::uint64_t cycle_ends = 0;
  mutable std::uint64_t collects = 0;
  CycleInfo last_cycle;

  void on_cycle_begin(const CycleInfo& info) override {
    ++cycle_begins;
    EXPECT_EQ(info.cycle, cycle_begins);
  }
  void on_cycle_end(const CycleInfo& info) override {
    ++cycle_ends;
    last_cycle = info;
  }
  void on_arrival(sim::Time, const JobRun&) override { ++arrivals; }
  void on_start(sim::Time, const JobRun&, bool was_backfilled) override {
    ++starts;
    if (was_backfilled) ++backfilled;
  }
  void on_finish(sim::Time, const JobRun&) override { ++finishes; }
  void on_collect(SimulationResult&) const override { ++collects; }
};

TEST(AttachmentChain, ExternalObserverSeesTheWholeLifecycle) {
  const auto workload = make_workload(
      10, 1, {batch_job(1, 0, 4, 10), batch_job(2, 5, 4, 10)});
  EngineConfig config;
  config.machine_procs = workload.machine_procs;
  config.granularity = workload.granularity;
  Fcfs policy;
  Engine engine(config, policy);
  CountingObserver counter;
  engine.add_observer(&counter);
  const SimulationResult result = engine.run(workload);
  EXPECT_EQ(result.completed, 2u);
  EXPECT_EQ(counter.arrivals, 2u);
  EXPECT_EQ(counter.starts, 2u);
  EXPECT_EQ(counter.finishes, 2u);
  EXPECT_EQ(counter.collects, 1u);
  EXPECT_EQ(counter.cycle_begins, counter.cycle_ends);
  EXPECT_EQ(counter.cycle_begins, result.cycles);
  // After the last cycle everything has drained.
  EXPECT_EQ(counter.last_cycle.batch_depth, 0u);
  EXPECT_EQ(counter.last_cycle.active_jobs, 0u);
}

TEST(AttachmentChain, ExternalObserverComposesWithBuiltIns) {
  // record_trace + collect_cycle_stats put two built-ins on the chain; the
  // external observer rides behind them and sees the identical lifecycle.
  const auto workload = make_workload(
      10, 1, {batch_job(1, 0, 8, 100), batch_job(2, 1, 8, 100),
              batch_job(3, 2, 2, 50)});
  EngineConfig config;
  config.machine_procs = workload.machine_procs;
  config.granularity = workload.granularity;
  config.record_trace = true;
  config.collect_cycle_stats = true;
  Fcfs policy;
  Engine engine(config, policy);
  CountingObserver counter;
  engine.add_observer(&counter);
  const SimulationResult result = engine.run(workload);
  ASSERT_NE(result.trace, nullptr);
  EXPECT_EQ(counter.starts, result.perf.cycle.starts);
  EXPECT_EQ(counter.backfilled, result.perf.cycle.backfill_starts);
  EXPECT_EQ(counter.cycle_begins, result.perf.cycle.cycles);
}

TEST(AttachmentChain, ParanoidCrossChecksObserverLedgers) {
  // Every built-in attachment enabled at once, with paranoid mode
  // re-deriving their ledgers from scratch after each cycle: failures
  // preempt and requeue jobs, checkpoints bank work, ECCs resize, the
  // trace records, cycle stats accumulate.  Any incremental/-from-scratch
  // divergence asserts inside the run.
  exp::RunSpec spec;
  spec.workload.num_jobs = 60;
  spec.workload.seed = 5;
  spec.workload.target_load = 0.9;
  spec.workload.p_extend = 0.3;
  spec.workload.p_reduce = 0.2;
  spec.algorithm = "Delayed-LOS-E";
  spec.options.engine.paranoid = true;
  spec.options.engine.collect_cycle_stats = true;
  spec.options.engine.record_trace = true;
  spec.options.engine.failure.enabled = true;
  spec.options.engine.failure.seed = 7;
  spec.options.engine.failure.mtbf = 2000;
  spec.options.engine.failure.mttr = 300;
  spec.options.engine.failure.max_nodes = 2;
  spec.options.engine.checkpoint.enabled = true;
  spec.options.engine.checkpoint.interval = 200;
  spec.options.engine.checkpoint.overhead = 5;
  spec.options.engine.watchdog.no_progress_cycles = 10000;
  const auto result = exp::run_once(spec);
  EXPECT_EQ(result.termination, sim::TerminationReason::kCompleted);
  EXPECT_EQ(result.completed + result.killed + result.abandoned, 60u);
  EXPECT_GT(result.ecc.processed, 0u);
  EXPECT_EQ(result.perf.cycle.cycles, result.cycles);
  EXPECT_EQ(histogram_sum(result.perf.cycle.queue_depth),
            result.perf.cycle.cycles);
}

TEST(AttachmentChain, ParanoidRunMatchesPlainRun) {
  // Paranoid mode only checks; it must not perturb a single metric.
  exp::RunSpec spec;
  spec.workload.num_jobs = 40;
  spec.workload.seed = 11;
  spec.workload.target_load = 0.8;
  spec.algorithm = "Delayed-LOS";
  spec.options.engine.failure.enabled = true;
  spec.options.engine.failure.mtbf = 3000;
  spec.options.engine.failure.mttr = 200;
  const auto plain = exp::run_once(spec);
  spec.options.engine.paranoid = true;
  spec.options.engine.collect_cycle_stats = true;
  const auto paranoid = exp::run_once(spec);
  EXPECT_EQ(paranoid.utilization, plain.utilization);
  EXPECT_EQ(paranoid.mean_wait, plain.mean_wait);
  EXPECT_EQ(paranoid.slowdown, plain.slowdown);
  EXPECT_EQ(paranoid.failure.interruptions, plain.failure.interruptions);
  EXPECT_EQ(paranoid.cycles, plain.cycles);
}

TEST(AttachmentChain, CycleStatsLeaveTheCampaignCsvByteIdentical) {
  // The whole Fig-7 mini-sweep with the CycleStatsObserver attached and
  // with the default empty chain: attachments only observe, so every
  // aggregate must come out the same to the last printed digit.
  EngineConfig observed;
  observed.collect_cycle_stats = true;
  const std::string off =
      testing::sweep_csv_bytes(testing::kernel_mini_sweep(), "chain_off.csv");
  const std::string on = testing::sweep_csv_bytes(
      testing::kernel_mini_sweep(observed), "chain_on.csv");
  ASSERT_FALSE(off.empty());
  EXPECT_EQ(off, on);
}

}  // namespace
}  // namespace es::sched
