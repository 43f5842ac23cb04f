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

/// Serializable state of a tracker (snapshot/restore).
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
  /// Only the running integral is kept, not the step history (a
  /// million-job run would otherwise hold millions of steps).
  void record(sim::Time at, int busy);

  /// Remembers the integral through the last record, so a later query
  /// ending at that instant stays exact after more records (the engine
  /// marks every job finish; a watchdog-aborted run is queried at its last
  /// finish).
  void mark();

  /// Records that from `at` onwards `available` processors are in service
  /// (node failures shrink this below capacity; repairs restore it).  Only
  /// called when a failure model is active: with no capacity records the
  /// machine is treated as fully available for the whole run, keeping the
  /// no-failure arithmetic bit-identical to the original tracker.
  void record_capacity(sim::Time at, int available);

  /// Busy processor-seconds accumulated in [from, to], read from the
  /// running integral: one term busy * (next record - this record) per
  /// record, summed in record order (a same-instant record adds an exact
  /// +0.0).  Only whole-history windows are answered: `from` must be at or
  /// before the first record, and `to` at or before the first record (0),
  /// at the mark, or at or after the last record, past which the last busy
  /// level is extrapolated.
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

  /// Captures the mutable accounting state for a snapshot.
  UtilizationState save_state() const;

  /// Restores state captured on a tracker of the same capacity.
  void restore_state(const UtilizationState& state);

 private:
  struct Step {
    sim::Time time;
    int level;
  };

  /// Integral of a step function over [from, to], extrapolating the last
  /// level past the final step.
  static double integrate(const std::vector<Step>& steps, sim::Time last,
                          sim::Time from, sim::Time to);

  int capacity_;
  int busy_ = 0;
  sim::Time first_ = 0.0;
  sim::Time last_ = 0.0;
  bool started_ = false;
  double integral_ = 0.0;  ///< busy-proc-seconds up to last_
  sim::Time mark_time_ = 0.0;
  double mark_integral_ = 0.0;  ///< integral_ when mark() was last called
  std::vector<Step> capacity_steps_;  ///< empty unless failures injected
};

}  // namespace es::cluster
