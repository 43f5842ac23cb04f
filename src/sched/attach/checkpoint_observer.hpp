// Attachment: checkpoint/restart recovery accounting and replanning.
//
// Owns the CheckpointModel and the checkpoint fields of FailureStats:
// checkpoints taken, overhead paid, work saved.  Also the only observer
// that writes job state — it banks saved work into JobRun::ckpt_progress
// at preemption and re-plans JobRun::ckpt_overhead_planned whenever the
// engine asks (start, ECC retiming) — which is why it must sit first in
// the chain: FailureStatsObserver reads PreemptInfo::saved when computing
// lost work.
#pragma once

#include <cstdint>

#include "fault/checkpoint.hpp"
#include "sched/attach/observer.hpp"

namespace es::sched {

class CheckpointObserver final : public EngineObserver {
 public:
  /// Hooks this observer overrides; keep in sync with the override list.
  static constexpr HookMask kHookMask =
      hook_bit(Hook::kCheckpointReplan) | hook_bit(Hook::kPreempt) |
      hook_bit(Hook::kFinish) | hook_bit(Hook::kCollect);

  explicit CheckpointObserver(const fault::CheckpointConfig& config)
      : model_(config) {}

  void on_checkpoint_replan(JobRun& job) override;
  void on_preempt(sim::Time now, PreemptInfo& info) override;
  void on_finish(sim::Time now, const JobRun& job) override;
  void on_collect(SimulationResult& result) const override;

 private:
  fault::CheckpointModel model_;
  std::uint64_t checkpoints_ = 0;
  double overhead_proc_seconds_ = 0;
  double saved_proc_seconds_ = 0;
};

}  // namespace es::sched
