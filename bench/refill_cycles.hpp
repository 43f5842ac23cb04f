// RefillCycles — an engine observer recording the policy cycle in which
// each refill of Engine::run()'s window feed ran, so crash-recovery checks
// can put kill points on either side of every refill.  A refill happens
// inside the arrival of its window's last job, right before that arrival's
// cycle; the windows are recomputed with the engine's own cut.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "sched/attach/observer.hpp"
#include "workload/source.hpp"

namespace es::bench {

class RefillCycles : public sched::EngineObserver {
 public:
  static constexpr sched::HookMask kHookMask =
      sched::hook_bit(sched::Hook::kArrival) |
      sched::hook_bit(sched::Hook::kCycleBegin);

  explicit RefillCycles(const workload::Workload& workload) {
    workload::WorkloadCursor cursor(workload);
    workload::WorkloadCursor::Window window;
    while (cursor.next(window))
      if (window.job_end < workload.jobs.size())
        last_of_window_.insert(workload.jobs[window.job_end - 1].id);
  }

  void on_arrival(sim::Time, const sched::JobRun& job) override {
    refill_pending_ = last_of_window_.count(job.id) > 0;
  }
  void on_cycle_begin(const sched::CycleInfo& info) override {
    if (refill_pending_) cycles.push_back(info.cycle);
    refill_pending_ = false;
  }

  std::vector<std::uint64_t> cycles;  ///< one per refill, in run order

 private:
  std::unordered_set<workload::JobId> last_of_window_;
  bool refill_pending_ = false;
};

}  // namespace es::bench
