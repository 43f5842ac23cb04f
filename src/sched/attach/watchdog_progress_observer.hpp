// Attachment: watchdog no-progress detection.
//
// Tracks job starts and finishes as the progress signal and trips the
// engine's AbortFlag (TerminationReason::kNoProgress) when the configured
// number of consecutive non-idle cycles passes without either.  The other
// watchdog budgets (events, sim time, wall clock) stay in sim::Watchdog —
// they meter the event loop itself, not scheduling progress.
#pragma once

#include <cstdint>

#include "sched/attach/observer.hpp"
#include "sim/watchdog.hpp"

namespace es::sched {

class WatchdogProgressObserver final : public EngineObserver {
 public:
  /// Hooks this observer overrides; keep in sync with the override list.
  static constexpr HookMask kHookMask =
      hook_bit(Hook::kStart) | hook_bit(Hook::kFinish) |
      hook_bit(Hook::kCycleEnd) | hook_bit(Hook::kParanoidCheck);

  WatchdogProgressObserver(const sim::WatchdogConfig& config, AbortFlag* abort)
      : config_(config), abort_(abort) {}

  void on_start(sim::Time now, const JobRun& job, bool backfilled) override;
  void on_finish(sim::Time now, const JobRun& job) override;
  void on_cycle_end(const CycleInfo& info) override;
  void on_paranoid_check(const ParanoidSnapshot& snapshot) const override;

 private:
  sim::WatchdogConfig config_;
  AbortFlag* abort_;
  std::uint64_t starts_ = 0;
  std::uint64_t finishes_ = 0;
  std::uint64_t progress_marker_ = 0;  ///< starts_ + finishes_ at the last
                                       ///< cycle that made progress
  int stalled_cycles_ = 0;
};

}  // namespace es::sched
