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
  // Each sort runs only on a range out of its order, which is exact: jobs
  // whose neighbours are all strictly (arr, id)-ordered are the only
  // sorted permutation, and a stable sort returns an ordered range as it
  // is.  A NaN time orders neither way, so it still takes the sort.
  const auto job_out_of_order = [](const Job& a, const Job& b) {
    return !job_before(a, b);
  };
  if (std::adjacent_find(jobs.begin(), jobs.end(), job_out_of_order) !=
      jobs.end())
    std::sort(jobs.begin(), jobs.end(), job_before);
  // Stable: commands tied on (issue, job) keep their file/generation order.
  // The engine dispatches same-instant commands in workload order and
  // resolves conflicts first-wins, so an unstable sort here would let the
  // winner of a contradictory pair flip between two normalize() calls.
  const auto ecc_out_of_order = [](const Ecc& a, const Ecc& b) {
    return !ecc_before(a, b) && !(a.issue == b.issue && a.job_id == b.job_id);
  };
  if (std::adjacent_find(eccs.begin(), eccs.end(), ecc_out_of_order) !=
      eccs.end())
    std::stable_sort(eccs.begin(), eccs.end(), ecc_before);
}

void Workload::scale_arrivals(double factor) {
  scale_arrivals(std::vector<double>{factor});
}

void Workload::scale_arrivals(const std::vector<double>& factors) {
  for (const double factor : factors) ES_EXPECTS(factor > 0);
  if (jobs.empty() || factors.empty()) return;
  const sim::Time origin = jobs.front().arr;
  for (Job& job : jobs) {
    job.arr = scale_time(job.arr, origin, factors);
    if (!job.dedicated()) continue;
    // Keep the relative lead time (start - arr) in scaled coordinates so a
    // dedicated job's reservation window stretches with the trace.  A
    // start moves only while it is >= 0, checked before each factor as
    // one walk per factor would.
    for (const double factor : factors)
      if (job.start >= 0) job.start = origin + (job.start - origin) * factor;
  }
  for (Ecc& ecc : eccs) ecc.issue = scale_time(ecc.issue, origin, factors);
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
