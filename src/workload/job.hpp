// Static job description and the workload container.
//
// A Job is the immutable submission record (what a CWF 'S' line carries);
// runtime state (skip counts, start times, residuals) lives in the scheduler
// engine.  Notation follows the paper: `num` = requested processors, `dur` =
// user-estimated execution time, `arr` = arrival/submit time, `start` =
// requested start time for dedicated jobs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/time.hpp"
#include "workload/ecc.hpp"

namespace es::workload {

using JobId = std::int64_t;

/// Batch jobs are placed by the scheduler at a time of its choosing;
/// dedicated (interactive / reserved-capacity) jobs carry a rigid
/// user-requested start time.
enum class JobType { kBatch, kDedicated };

/// Immutable submission record.
struct Job {
  JobId id = 0;
  sim::Time arr = 0;        ///< submit/arrival time (seconds)
  int num = 1;              ///< requested processors
  sim::Time dur = 1;        ///< user-estimated execution time (kill-by basis)
  sim::Time actual = -1;    ///< true runtime; -1 means "equal to dur"
  JobType type = JobType::kBatch;
  sim::Time start = -1;     ///< requested start time; -1 for batch jobs
  /// Multi-tenancy tags (PR 10): the submitting user (1-based rank from the
  /// generator's Zipf draw; 0 = untagged) and the fair-share pool index the
  /// job is charged to.  Policies other than FairShare ignore both.
  std::int32_t user = 0;
  std::int32_t pool = 0;

  bool dedicated() const { return type == JobType::kDedicated; }

  /// True runtime the job would consume if never killed or ECC-adjusted.
  sim::Time actual_runtime() const { return actual < 0 ? dur : actual; }

  /// Nominal begin: the arrival, or a dedicated job's later requested start.
  sim::Time nominal_begin() const {
    return dedicated() && start >= 0 ? std::max(arr, start) : arr;
  }

  /// Nominal completion: the nominal begin plus the true runtime.  A
  /// workload's span ends at the latest.
  sim::Time nominal_end() const { return nominal_begin() + actual_runtime(); }
};

/// The workload order of jobs: by arrival time, then id.  A function
/// object, like ecc_before.
inline constexpr auto job_before = [](const Job& a, const Job& b) {
  if (a.arr != b.arr) return a.arr < b.arr;
  return a.id < b.id;
};

/// `t` after scale_arrivals(f) for each f of `factors` in turn, around the
/// trace `origin` (its first arrival, a fixed point of every rescaling).
/// One factor at a time: a folded product would round differently.
inline sim::Time scale_time(sim::Time t, sim::Time origin,
                            const std::vector<double>& factors) {
  for (const double factor : factors) t = origin + (t - origin) * factor;
  return t;
}

/// A workload: submissions plus elastic control commands, as carried by one
/// CWF file.  Jobs are kept sorted by arrival time, ECCs by issue time.
struct Workload {
  std::vector<Job> jobs;
  std::vector<Ecc> eccs;
  int machine_procs = 0;     ///< machine the workload was generated for
  int granularity = 1;

  /// Sorts jobs by job_before() and ECCs stably by ecc_before(); call after
  /// edits.  A range already in its order is left as it is, which is what
  /// its sort would return.
  void normalize();

  /// Shifts & scales every timestamp (arrivals, dedicated start times, ECC
  /// issue times) by `factor` around the first arrival.  Durations are not
  /// touched.  This is the paper's load-variation method (multiply arrival
  /// times by a constant).
  void scale_arrivals(double factor);

  /// scale_arrivals(f) for each f of `factors` in turn, in one walk over
  /// the timestamps (scale_time() per timestamp): bit for bit the same
  /// trace as one walk per factor.
  void scale_arrivals(const std::vector<double>& factors);

  /// Total span from the first arrival to the last nominal completion.
  sim::Time duration() const;

  std::size_t batch_count() const;
  std::size_t dedicated_count() const;
};

}  // namespace es::workload
