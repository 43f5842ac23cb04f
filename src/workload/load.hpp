// Offered-load computation and calibration (paper sections II & IV-D).
//
//   Load = (1 / (duration * M)) * sum_i num_i * runtime_i
//
// i.e. total demanded processor-seconds over the machine's capacity across
// the trace span.  Experiments vary load the way the paper (and Shmueli &
// Feitelson) do: multiply all arrival times by a constant factor, which
// stretches or compresses the trace without touching job shapes.
//
// Runtimes stay fixed, so the span responds sub-linearly to a factor and
// calibration iterates.  The iteration runs over a LoadCalibrator fed each
// job once (generate() feeds it while sampling), and the factor chain it
// settles on is applied in one walk: scale_time() per timestamp, by
// Workload::scale_arrivals(factors) over a resident trace or by
// GeneratorSource per emitted job.
#pragma once

#include <cstddef>
#include <vector>

#include "workload/job.hpp"

namespace es::workload {

/// Offered load of a workload on an `machine_procs`-processor machine.
/// Uses actual runtimes and the Workload::duration() span.  Returns 0 for
/// degenerate (empty / zero-span) workloads.
double offered_load(const Workload& workload, int machine_procs);

/// Calibration stops once |load - target| / target < kCalibrationTolerance,
/// or after kCalibrationBudget rescalings.
inline constexpr double kCalibrationTolerance = 0.01;
inline constexpr int kCalibrationBudget = 25;

/// The load calibration loop over jobs fed once, in workload order.  It
/// keeps the scale-invariant processor-seconds and, for the span, only the
/// (nominal begin, runtime) pairs no other job's pair dominates: begin
/// ascending, runtime strictly descending.  scale_time() is monotone, so a
/// dominated job never ends last under any factor chain, and the span over
/// those pairs is the one offered_load() measures after the same
/// scale_arrivals() calls, bit for bit.  That holds for arrivals sorted
/// from a non-negative origin (normalize(), the parsers and the generator)
/// on which a dedicated start at or after its arrival stays >= 0.
class LoadCalibrator {
 public:
  struct Result {
    std::vector<double> factors;  ///< scale_arrivals() arguments, in order
    double load = 0;              ///< offered load after all of them
  };

  explicit LoadCalibrator(int machine_procs);

  /// Adds the next job; the first one added fixes the origin.
  void add(const Job& job);

  /// Starting from the unscaled load, appends the factor load / target
  /// until the load is within tolerance or the budget ran out, and logs a
  /// warning naming both loads when it missed.  A load <= 0 (degenerate
  /// workload) needs no factor.
  Result calibrate(double target) const;

  /// Offered load after scaling by `factors` in turn.
  double load(const std::vector<double>& factors) const;

  sim::Time origin() const { return origin_; }
  /// Non-dominated (begin, runtime) pairs kept: the calibrator's memory.
  std::size_t front_size() const { return front_.size(); }

 private:
  struct Point {
    sim::Time begin = 0;
    sim::Time runtime = 0;
  };

  int machine_procs_;
  bool empty_ = true;
  sim::Time origin_ = 0;
  double proc_seconds_ = 0;
  std::vector<Point> front_;
};

/// LoadCalibrator over the workload's jobs, then one scale_arrivals() walk
/// over the factor chain.  Returns the achieved load.
double calibrate_load(Workload& workload, int machine_procs, double target);

}  // namespace es::workload
