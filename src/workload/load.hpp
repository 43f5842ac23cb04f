// Offered-load computation and calibration (paper sections II & IV-D).
//
//   Load = (1 / (duration * M)) * sum_i num_i * runtime_i
//
// i.e. total demanded processor-seconds over the machine's capacity across
// the trace span.  Experiments vary load the way the paper (and Shmueli &
// Feitelson) do: multiply all arrival times by a constant factor, which
// stretches or compresses the trace without touching job shapes.
#pragma once

#include "workload/job.hpp"

namespace es::workload {

/// Offered load of a workload on an `machine_procs`-processor machine.
/// Uses actual runtimes and the Workload::duration() span.  Returns 0 for
/// degenerate (empty / zero-span) workloads.
double offered_load(const Workload& workload, int machine_procs);

/// Scales arrival times until |offered_load - target| / target < tolerance
/// (duration responds nonlinearly to scaling because runtimes stay fixed, so
/// this iterates).  Returns the achieved load, and logs a warning naming
/// both loads when the iteration budget ran out outside the tolerance.
double calibrate_load(Workload& workload, int machine_procs, double target,
                      double tolerance = 0.01, int max_iterations = 25);

}  // namespace es::workload
