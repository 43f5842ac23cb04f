// Conservative backfilling baseline.
//
// Unlike EASY (one reservation, for the head only), conservative backfill
// gives *every* queued job a reservation: a candidate may start early only if
// it delays no job ahead of it.  The paper's related-work section contrasts
// EASY against this policy; we include it as an extra baseline and as a
// correctness anchor for tests (conservative never delays any queued job
// relative to its FCFS reservation).
//
// Every cycle rebuilds the free-capacity profile from the running jobs, then
// books each queued job's reservation into it.
#pragma once

#include "sched/scheduler.hpp"

namespace es::sched {

/// Piecewise-constant free-capacity profile over future time, seeded from
/// running jobs' planned ends.  Exposed for tests.
class CapacityProfile {
 public:
  /// Builds the profile at time `now` for a machine with `total` processors:
  /// free capacity rises at each active job's planned end.
  CapacityProfile(sim::Time now, int total,
                  const std::vector<JobRun*>& active);

  /// An empty all-free profile (rebuild() before use).
  CapacityProfile() : CapacityProfile(0, 0, {}) {}

  /// Re-seeds in place (same semantics as the constructor), reusing the
  /// segment storage so steady-state rebuilds do not allocate.
  void rebuild(sim::Time now, int total, const std::vector<JobRun*>& active);

  /// Earliest time >= now at which `procs` processors are simultaneously
  /// free for `duration` seconds.
  sim::Time earliest_start(int procs, double duration) const;

  /// Books `procs` processors during [start, start + duration).
  void reserve(sim::Time start, double duration, int procs);

  /// Free processors at time `t`.
  int free_at(sim::Time t) const;

 private:
  struct Segment {
    sim::Time begin;  ///< segment covers [begin, next.begin)
    int free;
  };
  /// Ensures a breakpoint exists at `t`, splitting the covering segment.
  std::size_t split_at(sim::Time t);

  sim::Time now_;
  int total_;
  std::vector<Segment> segments_;  ///< sorted by begin; last extends to +inf
};

class Conservative : public Scheduler {
 public:
  std::string name() const override { return "CONS"; }
  void cycle(SchedulerContext& ctx) override;

 private:
  CapacityProfile profile_;  ///< rebuilt each cycle (reuses capacity)
};

}  // namespace es::sched
