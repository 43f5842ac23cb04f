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

double calibrate(double load, double target,
                 const std::function<double(double)>& rescale) {
  ES_EXPECTS(target > 0);
  if (load <= 0) return load;
  const auto missed = [&] {
    return std::abs(load - target) / target >= kCalibrationTolerance;
  };
  int rescalings = 0;
  for (; rescalings < kCalibrationBudget && missed(); ++rescalings) {
    // Stretch arrivals by load/target; the fixed runtime tail makes the
    // response sub-linear, hence the loop.
    load = rescale(load / target);
  }
  ES_LOG_DEBUG("calibrated load %.4f (target %.4f, %d rescalings)", load,
               target, rescalings);
  if (missed())
    ES_LOG_WARN("load calibration missed its target: offered load %.4f, "
                "target %.4f",
                load, target);
  return load;
}

double calibrate_load(Workload& workload, int machine_procs, double target) {
  return calibrate(offered_load(workload, machine_procs), target,
                   [&](double factor) {
                     workload.scale_arrivals(factor);
                     return offered_load(workload, machine_procs);
                   });
}

}  // namespace es::workload
