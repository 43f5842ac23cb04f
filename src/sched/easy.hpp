// EASY backfilling (Mu'alem & Feitelson 2001) and its dedicated-queue
// extension EASY-D (paper section V).
//
// EASY: start queue-head jobs while they fit; when the head is blocked, give
// it the single implicit reservation (shadow time / shadow capacity) and
// backfill any later job that fits now without delaying that reservation.
//
// EASY-D adds the paper's heterogeneous treatment: dedicated jobs whose
// requested start time has arrived move to the batch-queue head (Algorithm
// 3) and start as soon as they fit; a *future* dedicated group imposes a
// second freeze that both head-starts and backfills must respect, so batch
// jobs are packed around the dedicated reservation.
#pragma once

#include <vector>

#include "sched/reservation.hpp"
#include "sched/scheduler.hpp"

namespace es::sched {

class Easy : public Scheduler {
 public:
  /// `dedicated_aware` selects EASY-D behaviour.
  explicit Easy(bool dedicated_aware = false)
      : dedicated_aware_(dedicated_aware) {}

  std::string name() const override {
    return dedicated_aware_ ? "EASY-D" : "EASY";
  }
  bool supports_dedicated() const override { return dedicated_aware_; }
  void cycle(SchedulerContext& ctx) override;

 private:
  bool dedicated_aware_;
  std::vector<JobRun*> candidates_;  ///< phase-3 snapshot, capacity reused
};

/// Moves every dedicated job whose requested start time has been reached to
/// the batch-queue head (repeated Algorithm 3).  Shared by all
/// dedicated-aware policies.  Returns the number of jobs moved.
int move_due_dedicated(SchedulerContext& ctx);

}  // namespace es::sched
