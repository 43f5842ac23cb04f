#include "workload/job.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace es::workload {
namespace {

std::string ecc_names[] = {"ET", "RT", "EP", "RP"};

}  // namespace

std::string to_string(EccType type) {
  return ecc_names[static_cast<int>(type)];
}

bool parse_ecc_type(const std::string& text, EccType& out) {
  for (int i = 0; i < 4; ++i) {
    if (text == ecc_names[i]) {
      out = static_cast<EccType>(i);
      return true;
    }
  }
  return false;
}

void Workload::normalize() {
  std::sort(jobs.begin(), jobs.end(), [](const Job& a, const Job& b) {
    if (a.arr != b.arr) return a.arr < b.arr;
    return a.id < b.id;
  });
  // Stable: commands tied on (issue, job) keep their file/generation order.
  // The engine dispatches same-instant commands in workload order and
  // resolves conflicts first-wins, so an unstable sort here would let the
  // winner of a contradictory pair flip between two normalize() calls.
  std::stable_sort(eccs.begin(), eccs.end(), [](const Ecc& a, const Ecc& b) {
    if (a.issue != b.issue) return a.issue < b.issue;
    return a.job_id < b.job_id;
  });
}

void Workload::scale_arrivals(double factor) {
  ES_EXPECTS(factor > 0);
  if (jobs.empty()) return;
  const sim::Time origin = jobs.front().arr;
  for (Job& job : jobs) {
    const sim::Time offset = job.arr - origin;
    job.arr = origin + offset * factor;
    if (job.dedicated() && job.start >= 0) {
      // Keep the relative lead time (start - arr) in scaled coordinates so a
      // dedicated job's reservation window stretches with the trace.
      job.start = origin + (job.start - origin) * factor;
    }
  }
  for (Ecc& ecc : eccs) {
    ecc.issue = origin + (ecc.issue - origin) * factor;
  }
}

sim::Time Workload::duration() const {
  if (jobs.empty()) return 0;
  const sim::Time first = jobs.front().arr;
  sim::Time last = first;
  for (const Job& job : jobs) last = std::max(last, job.nominal_end());
  return last - first;
}

std::size_t Workload::batch_count() const {
  return static_cast<std::size_t>(
      std::count_if(jobs.begin(), jobs.end(),
                    [](const Job& j) { return !j.dedicated(); }));
}

std::size_t Workload::dedicated_count() const {
  return jobs.size() - batch_count();
}

}  // namespace es::workload
