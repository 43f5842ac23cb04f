// Time-weighted utilization accounting.
//
// Integrates busy-processor-seconds over simulated time so the mean system
// utilization reported by the experiments is exact (not sampled).  This is
// the "mean utilization" metric of the paper's section V.
#pragma once

#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace es::cluster {

/// Serializable state of a bounded tracker (snapshot/restore).
struct UtilizationState {
  int busy = 0;
  sim::Time first = 0.0;
  sim::Time last = 0.0;
  bool started = false;
  double integral = 0.0;
  sim::Time mark_time = 0.0;  ///< see mark()
  double mark_integral = 0.0;
  std::vector<std::pair<sim::Time, int>> capacity_steps;
};

/// Exact integral of the busy-processor step function.
class UtilizationTracker {
 public:
  explicit UtilizationTracker(int capacity);

  /// Records that from `at` onwards `busy` processors are occupied.
  /// `at` must be non-decreasing across calls; busy in [0, capacity].
  void record(sim::Time at, int busy);

  /// Bounded mode (the engine's): stop retaining the per-record step list
  /// (a million-job run would otherwise hold millions of steps) and answer
  /// busy_proc_seconds from the incremental integral instead.  The
  /// incremental accumulator adds exactly the per-segment terms integrate()
  /// sums, in the same left-to-right order, so queries over
  /// [first record, >= last record] — or [first record, the marked
  /// instant] — are bitwise identical to the retained mode.  Queries must
  /// start at the first record and end at or after the last record or at
  /// the mark.  Must be set before the first record.
  void set_bounded(bool bounded);

  /// Bounded mode: remembers the integral through the last record, so a
  /// later query ending at that instant stays exact after more records
  /// (the engine marks every job finish; a watchdog-aborted run is
  /// queried at its last finish).
  void mark();

  /// Records that from `at` onwards `available` processors are in service
  /// (node failures shrink this below capacity; repairs restore it).  Only
  /// called when a failure model is active: with no capacity records the
  /// machine is treated as fully available for the whole run, keeping the
  /// no-failure arithmetic bit-identical to the original tracker.
  void record_capacity(sim::Time at, int available);

  /// Busy processor-seconds accumulated in [from, to].  The window must lie
  /// within [first record, last record]; the level after the last record is
  /// extrapolated as the last busy value.
  double busy_proc_seconds(sim::Time from, sim::Time to) const;

  /// In-service processor-seconds in [from, to]: the integral of the
  /// available-capacity step function (capacity * (to - from) when no
  /// capacity records were made).
  double available_proc_seconds(sim::Time from, sim::Time to) const;

  /// Mean utilization in [from, to] as a fraction of the *available*
  /// capacity timeline (0..1), so the metric stays meaningful while nodes
  /// are down.  Equals busy / (capacity * span) when no failures occurred.
  double mean_utilization(sim::Time from, sim::Time to) const;

  int capacity() const { return capacity_; }
  sim::Time first_time() const { return first_; }
  sim::Time last_time() const { return last_; }
  int current_busy() const { return busy_; }

  /// Total busy-proc-seconds integrated so far (up to the last record).
  double integral() const { return integral_; }

  /// Captures the mutable accounting state for a snapshot (bounded mode:
  /// there is no step list to carry).
  UtilizationState save_state() const;

  /// Restores state captured on a bounded tracker of the same capacity.
  void restore_state(const UtilizationState& state);

 private:
  struct Step {
    sim::Time time;
    int busy;
  };

  /// Integral of a step function over [from, to], extrapolating the last
  /// level past the final step.
  static double integrate(const std::vector<Step>& steps, sim::Time last,
                          sim::Time from, sim::Time to);

  int capacity_;
  bool bounded_ = false;  ///< no steps_ retention (streaming runs)
  int busy_ = 0;
  sim::Time first_ = 0.0;
  sim::Time last_ = 0.0;
  bool started_ = false;
  double integral_ = 0.0;  ///< busy-proc-seconds up to last_
  sim::Time mark_time_ = 0.0;
  double mark_integral_ = 0.0;  ///< integral_ when mark() was last called
  std::vector<Step> steps_;
  std::vector<Step> capacity_steps_;  ///< empty unless failures injected
};

}  // namespace es::cluster
