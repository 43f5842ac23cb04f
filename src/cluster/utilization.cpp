#include "cluster/utilization.hpp"

#include <algorithm>
#include <vector>

#include "util/check.hpp"

namespace es::cluster {

UtilizationTracker::UtilizationTracker(int capacity) : capacity_(capacity) {
  ES_EXPECTS(capacity > 0);
}

void UtilizationTracker::mark() {
  ES_EXPECTS(started_);
  mark_time_ = last_;
  mark_integral_ = integral_;
}

void UtilizationTracker::record(sim::Time at, int busy) {
  ES_EXPECTS(busy >= 0 && busy <= capacity_);
  if (!started_) {
    started_ = true;
    first_ = last_ = at;
    busy_ = busy;
    return;
  }
  ES_EXPECTS(at >= last_);
  integral_ += static_cast<double>(busy_) * (at - last_);
  last_ = at;
  busy_ = busy;
}

void UtilizationTracker::record_capacity(sim::Time at, int available) {
  ES_EXPECTS(available >= 0 && available <= capacity_);
  if (!capacity_steps_.empty()) {
    ES_EXPECTS(at >= capacity_steps_.back().time);
    if (capacity_steps_.back().time == at) {
      capacity_steps_.back().level = available;
      return;
    }
  }
  capacity_steps_.push_back({at, available});
}

double UtilizationTracker::integrate(const std::vector<Step>& steps,
                                     sim::Time last, sim::Time from,
                                     sim::Time to) {
  ES_EXPECTS(from <= to);
  if (steps.empty() || to <= steps.front().time) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const sim::Time seg_start = steps[i].time;
    const sim::Time seg_end =
        (i + 1 < steps.size()) ? steps[i + 1].time : std::max(to, last);
    const sim::Time lo = std::max(from, seg_start);
    const sim::Time hi = std::min(to, seg_end);
    if (hi > lo) sum += static_cast<double>(steps[i].level) * (hi - lo);
  }
  return sum;
}

double UtilizationTracker::busy_proc_seconds(sim::Time from,
                                             sim::Time to) const {
  ES_EXPECTS(from <= to);
  if (!started_) return 0.0;
  // integral_ holds the per-record segment terms summed in record order;
  // a query ending at the mark returns the integral through the marked
  // record (later same-instant records add +0.0).
  ES_EXPECTS(from <= first_);
  if (to <= first_) return 0.0;
  if (to < last_) {
    ES_EXPECTS(to == mark_time_);
    return mark_integral_;
  }
  double sum = integral_;
  if (to > last_) sum += static_cast<double>(busy_) * (to - last_);
  return sum;
}

double UtilizationTracker::available_proc_seconds(sim::Time from,
                                                  sim::Time to) const {
  ES_EXPECTS(from <= to);
  if (capacity_steps_.empty())
    return static_cast<double>(capacity_) * (to - from);
  return integrate(capacity_steps_, capacity_steps_.back().time, from, to);
}

double UtilizationTracker::mean_utilization(sim::Time from,
                                            sim::Time to) const {
  if (to <= from) return 0.0;
  if (capacity_steps_.empty()) {
    // No failures: keep the original single-division arithmetic so results
    // are bit-identical to the pre-failure-model tracker.
    return busy_proc_seconds(from, to) /
           (static_cast<double>(capacity_) * (to - from));
  }
  const double available = available_proc_seconds(from, to);
  if (available <= 0) return 0.0;
  return busy_proc_seconds(from, to) / available;
}

}  // namespace es::cluster
