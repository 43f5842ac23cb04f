#include "workload/load.hpp"

#include <cmath>

#include "util/check.hpp"
#include "util/log.hpp"

namespace es::workload {

double offered_load(const Workload& workload, int machine_procs) {
  ES_EXPECTS(machine_procs > 0);
  const sim::Time span = workload.duration();
  if (span <= 0) return 0.0;
  double proc_seconds = 0.0;
  for (const Job& job : workload.jobs)
    proc_seconds += static_cast<double>(job.num) * job.actual_runtime();
  return proc_seconds / (span * machine_procs);
}

double calibrate_load(Workload& workload, int machine_procs, double target,
                      double tolerance, int max_iterations) {
  ES_EXPECTS(target > 0);
  ES_EXPECTS(tolerance > 0);
  double load = offered_load(workload, machine_procs);
  if (load <= 0) return load;
  for (int i = 0; i < max_iterations; ++i) {
    const double error = std::abs(load - target) / target;
    if (error < tolerance) break;
    // Stretch arrivals by load/target; the fixed runtime tail makes the
    // response sub-linear, hence the loop.
    workload.scale_arrivals(load / target);
    load = offered_load(workload, machine_procs);
  }
  ES_LOG_DEBUG("calibrated load %.4f (target %.4f)", load, target);
  if (std::abs(load - target) / target >= tolerance)
    ES_LOG_WARN("load calibration missed its target: offered load %.4f, "
                "target %.4f",
                load, target);
  return load;
}

}  // namespace es::workload
