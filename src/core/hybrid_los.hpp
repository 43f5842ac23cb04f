// Hybrid-LOS (paper Algorithm 2) — the paper's second contribution:
// Delayed-LOS extended to heterogeneous workloads.
//
// Batch jobs are packed for maximum utilization *around* explicit
// reservations for dedicated (rigid start-time) jobs:
//  * with no dedicated jobs pending, Algorithm 2 degenerates to Delayed-LOS;
//  * a due dedicated job (requested start reached) moves to the batch-queue
//    head with a saturated skip count (Algorithm 3) and starts as soon as it
//    fits;
//  * a future dedicated group imposes a freeze (end time + capacity) that
//    Reservation_DP honours while packing batch jobs — shifted later when
//    the machine cannot host the whole group at its requested start (the
//    "unavoidable delay" branch, lines 23-30);
//  * a batch head whose skip count exceeds C_s is started right away when it
//    fits (lines 35-37), bounding batch waiting times even under a stream of
//    dedicated reservations.
#pragma once

#include "core/delayed_los.hpp"
#include "core/dp.hpp"
#include "sched/scheduler.hpp"

namespace es::core {

class HybridLos : public sched::Scheduler {
 public:
  explicit HybridLos(int max_skip_count = 7, int lookahead = 50)
      : max_skip_count_(max_skip_count), lookahead_(lookahead) {}

  std::string name() const override { return "Hybrid-LOS"; }
  bool supports_dedicated() const override { return true; }
  void cycle(sched::SchedulerContext& ctx) override;

  int max_skip_count() const { return max_skip_count_; }

  sched::DpCounters dp_counters() const override { return ws_.counters; }

 private:
  /// One Algorithm-2 pass; returns true on progress (job started or
  /// dedicated head moved).
  bool step(sched::SchedulerContext& ctx, bool allow_skip_increment);

  int max_skip_count_;
  int lookahead_;
  DpWorkspace ws_;
};

}  // namespace es::core
