// Attachment: failure accounting — outages, interruptions, requeues,
// abandonments, lost and wasted work.
//
// Owns exactly the FailureStats fields the failure path produces; the
// checkpoint fields of the same struct belong to CheckpointObserver, and
// goodput / final wasted-work additions to collect()'s per-job loop.  Each
// writer deposits only its own fields, so the merged result is identical
// to the old single-ledger engine field by field.
#pragma once

#include <cstdint>

#include "sched/attach/observer.hpp"

namespace es::sched {

class FailureStatsObserver final : public EngineObserver {
 public:
  /// Hooks this observer overrides; keep in sync with the override list.
  static constexpr HookMask kHookMask =
      hook_bit(Hook::kNodeDown) | hook_bit(Hook::kPreempt) |
      hook_bit(Hook::kRequeue) | hook_bit(Hook::kAbandon) |
      hook_bit(Hook::kCollect) | hook_bit(Hook::kParanoidCheck);

  void on_node_down(sim::Time now, int procs) override;
  void on_preempt(sim::Time now, PreemptInfo& info) override;
  void on_requeue(sim::Time now, const JobRun& job, int alloc) override;
  void on_abandon(sim::Time now, const JobRun& job, int alloc) override;
  void on_collect(SimulationResult& result) const override;
  void on_paranoid_check(const ParanoidSnapshot& snapshot) const override;

 private:
  std::uint64_t outages_ = 0;
  std::uint64_t interruptions_ = 0;
  std::uint64_t requeues_ = 0;
  std::uint64_t abandoned_ = 0;
  double lost_proc_seconds_ = 0;
  double wasted_proc_seconds_ = 0;
};

}  // namespace es::sched
