// Attachment: per-cycle shape statistics (the bus's proof of openness —
// added without touching a single engine lifecycle site).
//
// Collects log2-bucketed histograms of batch-queue depth at cycle begin
// and DP kernel invocations per cycle, plus start/backfill tallies, into
// PerfStats::cycle.  Everything is a fixed-size POD tally — no heap, no
// influence on the schedule — surfaced by `simrun --perf-report` when
// EngineConfig::collect_cycle_stats is set.
#pragma once

#include <cstdint>

#include "sched/attach/observer.hpp"
#include "sched/scheduler.hpp"

namespace es::sched {

class CycleStatsObserver final : public EngineObserver {
 public:
  /// Hooks this observer overrides; keep in sync with the override list.
  static constexpr HookMask kHookMask =
      hook_bit(Hook::kCycleBegin) | hook_bit(Hook::kCycleEnd) |
      hook_bit(Hook::kStart) | hook_bit(Hook::kCollect) |
      hook_bit(Hook::kParanoidCheck);

  /// Reads the policy's cumulative DP counters directly; the baseline is
  /// snapshotted here so per-cycle deltas work on reused policies.
  explicit CycleStatsObserver(const Scheduler& policy)
      : policy_(&policy),
        baseline_dp_calls_(policy.dp_counters().calls),
        last_dp_calls_(baseline_dp_calls_) {}

  const CycleStats& stats() const { return stats_; }

  void on_cycle_begin(const CycleInfo& info) override;
  void on_cycle_end(const CycleInfo& info) override;
  void on_start(sim::Time now, const JobRun& job, bool backfilled) override;
  void on_collect(SimulationResult& result) const override;
  void on_paranoid_check(const ParanoidSnapshot& snapshot) const override;

 private:
  const Scheduler* policy_;
  std::uint64_t baseline_dp_calls_;
  std::uint64_t last_dp_calls_;
  CycleStats stats_;
};

}  // namespace es::sched
