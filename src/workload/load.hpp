// Offered-load computation and calibration (paper sections II & IV-D).
//
//   Load = (1 / (duration * M)) * sum_i num_i * runtime_i
//
// i.e. total demanded processor-seconds over the machine's capacity across
// the trace span.  Experiments vary load the way the paper (and Shmueli &
// Feitelson) do: multiply all arrival times by a constant factor, which
// stretches or compresses the trace without touching job shapes.
#pragma once

#include <functional>

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

/// The load calibration loop, for any workload representation: starting
/// from the offered `load`, calls `rescale(load / target)`, which must
/// scale arrivals by that factor and return the new offered load, until the
/// load is within tolerance or the budget ran out (duration responds
/// nonlinearly to scaling because runtimes stay fixed, so this iterates).
/// Returns the achieved load, and logs a warning naming both loads when it
/// missed the target.  A `load` <= 0 (degenerate workload) is returned as
/// is.
double calibrate(double load, double target,
                 const std::function<double(double)>& rescale);

/// calibrate() over scale_arrivals() and offered_load().
double calibrate_load(Workload& workload, int machine_procs, double target);

}  // namespace es::workload
