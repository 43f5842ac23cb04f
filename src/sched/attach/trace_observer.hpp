// Attachment: full schedule audit trace (sched/trace.hpp).
//
// Records one TraceEvent per lifecycle site and hands the trace to the
// result at collect time.  The only attachment that allocates — at
// construction (the shared trace) and per recorded event — which is why it
// stays off unless EngineConfig::record_trace asks for it.
#pragma once

#include <memory>

#include "sched/attach/observer.hpp"
#include "sched/trace.hpp"

namespace es::sched {

class TraceObserver final : public EngineObserver {
 public:
  /// Hooks this observer overrides; keep in sync with the override list.
  static constexpr HookMask kHookMask =
      hook_bit(Hook::kArrival) | hook_bit(Hook::kStart) |
      hook_bit(Hook::kFinish) | hook_bit(Hook::kEccApplied) |
      hook_bit(Hook::kNodeDown) | hook_bit(Hook::kNodeUp) |
      hook_bit(Hook::kPreempt) | hook_bit(Hook::kRequeue) |
      hook_bit(Hook::kAbandon) | hook_bit(Hook::kDedicatedMove) |
      hook_bit(Hook::kCollect);

  /// Allocates the trace only when enabled; a disabled instance is inert.
  explicit TraceObserver(bool enabled) {
    if (enabled) trace_ = std::make_shared<ScheduleTrace>();
  }

  const std::shared_ptr<ScheduleTrace>& trace() const { return trace_; }

  void on_arrival(sim::Time now, const JobRun& job) override;
  void on_start(sim::Time now, const JobRun& job, bool backfilled) override;
  void on_finish(sim::Time now, const JobRun& job) override;
  void on_ecc_applied(sim::Time now, const JobRun& job,
                      const workload::Ecc& ecc, EccOutcome outcome) override;
  void on_node_down(sim::Time now, int procs) override;
  void on_node_up(sim::Time now, int procs) override;
  void on_preempt(sim::Time now, PreemptInfo& info) override;
  void on_requeue(sim::Time now, const JobRun& job, int alloc) override;
  void on_abandon(sim::Time now, const JobRun& job, int alloc) override;
  void on_dedicated_move(sim::Time now, const JobRun& job) override;
  void on_collect(SimulationResult& result) const override;

 private:
  std::shared_ptr<ScheduleTrace> trace_;  ///< null when disabled
};

}  // namespace es::sched
