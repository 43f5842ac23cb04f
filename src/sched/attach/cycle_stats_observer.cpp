#include "sched/attach/cycle_stats_observer.hpp"

#include "sched/metrics.hpp"
#include "util/check.hpp"

namespace es::sched {

void CycleStatsObserver::on_cycle_begin(const CycleInfo& info) {
  const std::uint64_t depth = info.batch_depth;
  ++stats_.queue_depth[CycleStats::bucket_of(depth)];
  if (depth > stats_.max_queue_depth) stats_.max_queue_depth = depth;
}

void CycleStatsObserver::on_cycle_end(const CycleInfo& info) {
  (void)info;
  ++stats_.cycles;
  const std::uint64_t calls = policy_->dp_counters().calls;
  ++stats_.dp_calls[CycleStats::bucket_of(calls - last_dp_calls_)];
  last_dp_calls_ = calls;
}

void CycleStatsObserver::on_start(sim::Time now, const JobRun& job,
                                  bool backfilled) {
  (void)now;
  (void)job;
  ++stats_.starts;
  if (backfilled) ++stats_.backfill_starts;
}

void CycleStatsObserver::on_collect(SimulationResult& result) const {
  result.perf.cycle = stats_;
}

void CycleStatsObserver::on_paranoid_check(
    const ParanoidSnapshot& snapshot) const {
  // Cycle hooks always pair, every cycle lands in exactly one bucket of
  // each histogram, and the per-cycle DP deltas must telescope to the
  // run-level delta the engine reports.
  ES_ASSERT_MSG(stats_.cycles == snapshot.cycles,
                "t=%.3f cycle=%llu observed=%llu recomputed=%llu",
                snapshot.now, static_cast<unsigned long long>(snapshot.cycle),
                static_cast<unsigned long long>(stats_.cycles),
                static_cast<unsigned long long>(snapshot.cycles));
  std::uint64_t depth_sum = 0, dp_sum = 0;
  for (int b = 0; b < CycleStats::kBuckets; ++b) {
    depth_sum += stats_.queue_depth[b];
    dp_sum += stats_.dp_calls[b];
  }
  ES_ASSERT_MSG(depth_sum == stats_.cycles && dp_sum == stats_.cycles,
                "t=%.3f cycle=%llu depth_sum=%llu dp_sum=%llu cycles=%llu",
                snapshot.now, static_cast<unsigned long long>(snapshot.cycle),
                static_cast<unsigned long long>(depth_sum),
                static_cast<unsigned long long>(dp_sum),
                static_cast<unsigned long long>(stats_.cycles));
  ES_ASSERT_MSG(last_dp_calls_ - baseline_dp_calls_ == snapshot.dp_delta.calls,
                "t=%.3f cycle=%llu delta=%llu run_delta=%llu", snapshot.now,
                static_cast<unsigned long long>(snapshot.cycle),
                static_cast<unsigned long long>(last_dp_calls_ -
                                                baseline_dp_calls_),
                static_cast<unsigned long long>(snapshot.dp_delta.calls));
}

}  // namespace es::sched
