#include "workload/load.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>

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

LoadCalibrator::LoadCalibrator(int machine_procs)
    : machine_procs_(machine_procs) {
  ES_EXPECTS(machine_procs_ > 0);
}

void LoadCalibrator::add(const Job& job) {
  const sim::Time runtime = job.actual_runtime();
  proc_seconds_ += static_cast<double>(job.num) * runtime;
  if (empty_) {
    origin_ = job.arr;
    empty_ = false;
  }
  const sim::Time begin = job.nominal_begin();
  // A NaN end is never std::max's pick, and would break the front's order.
  if (std::isnan(begin) || std::isnan(runtime)) return;
  // The first pair at or after `begin` runs longest of all of those; batch
  // jobs in arrival order mostly land past the last pair and skip the
  // search.
  auto at = front_.end();
  if (!front_.empty() && begin <= front_.back().begin)
    at = std::lower_bound(
        front_.begin(), front_.end(), begin,
        [](const Point& point, sim::Time value) { return point.begin < value; });
  if (at != front_.end() && at->runtime >= runtime) return;  // dominated
  // The pairs this one dominates: one at an equal begin, and the run of
  // shorter ones right before it.
  auto last = at != front_.end() && at->begin == begin ? std::next(at) : at;
  auto first = at;
  while (first != front_.begin() && std::prev(first)->runtime <= runtime)
    --first;
  front_.insert(front_.erase(first, last), Point{begin, runtime});
}

double LoadCalibrator::load(const std::vector<double>& factors) const {
  // Workload::duration() and offered_load() over the front alone.
  sim::Time last = origin_;
  for (const Point& point : front_)
    last = std::max(last,
                    scale_time(point.begin, origin_, factors) + point.runtime);
  const sim::Time span = last - origin_;
  if (span <= 0) return 0.0;
  return proc_seconds_ / (span * machine_procs_);
}

LoadCalibrator::Result LoadCalibrator::calibrate(double target) const {
  ES_EXPECTS(target > 0);
  Result result;
  result.load = load(result.factors);
  if (result.load <= 0) return result;
  const auto missed = [&] {
    return std::abs(result.load - target) / target >= kCalibrationTolerance;
  };
  while (result.factors.size() < static_cast<std::size_t>(kCalibrationBudget) &&
         missed()) {
    // Stretch arrivals by load/target; the fixed runtime tail makes the
    // response sub-linear, hence the loop.
    result.factors.push_back(result.load / target);
    result.load = load(result.factors);
  }
  ES_LOG_DEBUG("calibrated load %.4f (target %.4f, %zu rescalings)",
               result.load, target, result.factors.size());
  if (missed())
    ES_LOG_WARN("load calibration missed its target: offered load %.4f, "
                "target %.4f",
                result.load, target);
  return result;
}

double calibrate_load(Workload& workload, int machine_procs, double target) {
  LoadCalibrator calibrator(machine_procs);
  for (const Job& job : workload.jobs) calibrator.add(job);
  const LoadCalibrator::Result result = calibrator.calibrate(target);
  for (const double factor : result.factors) workload.scale_arrivals(factor);
  return result.load;
}

}  // namespace es::workload
