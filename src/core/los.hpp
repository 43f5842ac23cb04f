// LOS — the Lookahead Optimizing Scheduler baseline (Shmueli & Feitelson
// 2005) and its dedicated-queue extension LOS-D (paper section V).
//
// LOS starts the queue-head job right away whenever it fits (the aggressive
// head rule Delayed-LOS relaxes).  When the head is blocked it receives an
// implicit reservation (shadow time / shadow capacity) and Reservation_DP
// packs the remaining waiting jobs to maximize utilization without delaying
// the reservation.
//
// LOS-D: due dedicated jobs move to the batch head (Algorithm 3) and the
// first future dedicated group imposes the freeze instead of the batch head,
// mirroring Hybrid-LOS's structure without the skip-count machinery.
#pragma once

#include "core/dp.hpp"
#include "sched/reservation.hpp"
#include "sched/scheduler.hpp"

namespace es::core {

/// Shared across the LOS family: collects the first `lookahead` batch-queue
/// jobs that fit the free pool, computes their frenum against `freeze`, runs
/// Reservation_DP and starts the selected jobs.  Returns the number of jobs
/// started and whether the batch head was among them (for skip counting).
struct ReservationDpOutcome {
  int started = 0;
  bool head_selected = false;
  bool head_eligible = false;
};
ReservationDpOutcome run_reservation_dp(sched::SchedulerContext& ctx,
                                        const sched::Freeze& freeze,
                                        int lookahead, DpWorkspace& ws);

class Los : public sched::Scheduler {
 public:
  explicit Los(bool dedicated_aware = false, int lookahead = 50)
      : dedicated_aware_(dedicated_aware), lookahead_(lookahead) {}

  std::string name() const override {
    return dedicated_aware_ ? "LOS-D" : "LOS";
  }
  bool supports_dedicated() const override { return dedicated_aware_; }
  void cycle(sched::SchedulerContext& ctx) override;

  int lookahead() const { return lookahead_; }

  sched::DpCounters dp_counters() const override { return ws_.counters; }

 private:
  bool dedicated_aware_;
  int lookahead_;
  DpWorkspace ws_;
};

}  // namespace es::core
