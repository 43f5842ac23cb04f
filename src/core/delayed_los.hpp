// Delayed-LOS (paper Algorithm 1) — the paper's first contribution.
//
// LOS starts the queue-head job the moment it fits, which the paper shows is
// too aggressive: in the Fig-2 example (free = 10; queue = 7, 4, 6) starting
// the size-7 head yields utilization 7, while skipping it in favour of {4,6}
// fills the machine.  Delayed-LOS lets Basic_DP pick the
// utilization-maximizing set and only *bounds* the head's patience: once the
// head has been skipped C_s scheduling cycles, it is started right away if
// it fits, or receives the LOS reservation (shadow time / Reservation_DP)
// if it does not.
#pragma once

#include "core/dp.hpp"
#include "core/los.hpp"
#include "sched/scheduler.hpp"

namespace es::core {

class DelayedLos : public sched::Scheduler {
 public:
  /// `max_skip_count` is the paper's C_s; the evaluation finds 7-8 optimal
  /// at P_S = 0.5 and insensitivity beyond ~3 at P_S = 0.8.
  explicit DelayedLos(int max_skip_count = 7, int lookahead = 50)
      : max_skip_count_(max_skip_count), lookahead_(lookahead) {}

  std::string name() const override { return "Delayed-LOS"; }
  void cycle(sched::SchedulerContext& ctx) override;

  int max_skip_count() const { return max_skip_count_; }
  int lookahead() const { return lookahead_; }

  /// One pass of the Algorithm-1 body.  Returns true when it started at
  /// least one job (progress).  Shared with Hybrid-LOS, whose Algorithm 2
  /// delegates here when the dedicated queue is empty.
  /// `allow_skip_increment` is true only on the first pass of an event's
  /// cycle so scount counts scheduling cycles (events), not fixpoint
  /// iterations.
  static bool step(sched::SchedulerContext& ctx, int max_skip_count,
                   int lookahead, DpWorkspace& ws, bool allow_skip_increment);

  sched::DpCounters dp_counters() const override { return ws_.counters; }

 private:
  int max_skip_count_;
  int lookahead_;
  DpWorkspace ws_;
};

}  // namespace es::core
