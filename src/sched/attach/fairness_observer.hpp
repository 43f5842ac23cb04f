// Attachment: multi-tenant fairness accounting — per-pool queueing-wait
// percentiles, backlogged time, service shares and Jain's fairness index,
// deposited into PerfStats::fairness at collect time.
//
// Integration scheme: every observed lifecycle event first advances a
// piecewise-constant integral — for each pool with pending batch demand,
// backlogged time accrues and the pool's running allocation integrates into
// a service integral — then applies the event's state change.  Satisfaction
// x_p = min(1, service_share_p / entitlement_p) over backlogged time only,
// so a pool is "unsatisfied" exactly when it waited while holding less than
// its weighted share; Jain's index over the x_p separates fair-share
// scheduling from FIFO under skewed demand.
//
// Wait samples are per *attempt*: a preempted-then-requeued job contributes
// a new wait from its requeue to its next start, which is precisely the
// delay tenants experience.  Dedicated jobs are excluded (their start time
// is user-mandated, not scheduler-controlled).
#pragma once

#include <cstdint>
#include <vector>

#include "sched/attach/observer.hpp"
#include "sched/engine_config.hpp"

namespace es::sched {

class FairnessObserver final : public EngineObserver {
 public:
  /// Hooks this observer overrides; keep in sync with the override list.
  static constexpr HookMask kHookMask =
      hook_bit(Hook::kArrival) | hook_bit(Hook::kStart) |
      hook_bit(Hook::kFinish) | hook_bit(Hook::kPreempt) |
      hook_bit(Hook::kRequeue) | hook_bit(Hook::kAbandon) |
      hook_bit(Hook::kCollect);

  FairnessObserver(const FairShareConfig& config, int machine_procs);

  void on_arrival(sim::Time now, const JobRun& job) override;
  void on_start(sim::Time now, const JobRun& job, bool backfilled) override;
  void on_finish(sim::Time now, const JobRun& job) override;
  void on_preempt(sim::Time now, PreemptInfo& info) override;
  void on_requeue(sim::Time now, const JobRun& job, int alloc) override;
  void on_abandon(sim::Time now, const JobRun& job, int alloc) override;
  void on_collect(SimulationResult& result) const override;

 private:
  /// A job's waiting entry, at its arena slot.  The id tells a live entry
  /// from one a previous occupant of the slot left behind.
  struct Waiting {
    bool waiting = false;
    int pool = 0;
    workload::JobId id = 0;
    double since = 0;
  };

  void ensure_pool(int pool);
  /// Accrues backlog/service integrals up to `now`.
  void advance(sim::Time now);
  void mark_waiting(sim::Time now, const JobRun& job);
  /// Closes `job`'s waiting entry, if it has one, and returns it.
  const Waiting* take_waiting(const JobRun& job);
  double weight_of(std::size_t pool) const;

  FairShareConfig config_;
  int machine_procs_ = 1;

  bool clock_started_ = false;
  double last_time_ = 0;
  // Parallel per-pool arrays, lazily grown to the highest pool index seen.
  std::vector<std::uint32_t> pending_;         ///< waiting batch jobs
  std::vector<double> running_alloc_;          ///< processors held
  std::vector<double> backlogged_seconds_;
  std::vector<double> service_integral_;       ///< proc-seconds while backlogged
  std::vector<std::vector<double>> waits_;     ///< per-attempt queue delays
  /// Waiting entries indexed by JobRun::arena_slot, grown on demand: a
  /// slot is live only while its job is, so this is bounded by the arena.
  /// Entries close at start, finish and abandon time.
  std::vector<Waiting> waiting_;
};

}  // namespace es::sched
