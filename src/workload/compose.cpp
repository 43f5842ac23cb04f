#include "workload/compose.hpp"

#include <algorithm>
#include <unordered_map>

#include "util/check.hpp"

namespace es::workload {
namespace {

/// Appends `addition`'s jobs/ECCs into `out` with IDs renumbered starting
/// at `next_id` and timestamps shifted by `shift`.
void append_renumbered(Workload& out, const Workload& addition,
                       JobId next_id, double shift) {
  std::unordered_map<JobId, JobId> remap;
  remap.reserve(addition.jobs.size());
  for (Job job : addition.jobs) {
    const JobId old_id = job.id;
    job.id = next_id++;
    remap.emplace(old_id, job.id);
    job.arr += shift;
    if (job.dedicated() && job.start >= 0) job.start += shift;
    out.jobs.push_back(job);
  }
  for (Ecc ecc : addition.eccs) {
    const auto it = remap.find(ecc.job_id);
    if (it == remap.end()) continue;  // ECC for a dropped/unknown job
    ecc.job_id = it->second;
    ecc.issue += shift;
    out.eccs.push_back(ecc);
  }
}

JobId max_id(const Workload& workload) {
  JobId top = 0;
  for (const Job& job : workload.jobs) top = std::max(top, job.id);
  return top;
}

}  // namespace

Workload concatenate(const Workload& base, const Workload& tail,
                     double gap) {
  ES_EXPECTS(gap >= 0);
  if (base.machine_procs > 0 && tail.machine_procs > 0)
    ES_EXPECTS(base.machine_procs == tail.machine_procs);
  Workload out = base;
  if (tail.jobs.empty()) return out;
  const double base_end =
      base.jobs.empty() ? 0.0 : base.jobs.front().arr + base.duration();
  const double shift = base_end + gap - tail.jobs.front().arr;
  append_renumbered(out, tail, max_id(base) + 1, shift);
  out.normalize();
  return out;
}

}  // namespace es::workload
