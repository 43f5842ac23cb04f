// Post-hoc analysis of per-job outcomes: wait distributions, size-class
// fairness breakdowns and confidence intervals.
//
// Motivated by the mechanism at the heart of Delayed-LOS: skipping the
// queue-head job trades head-of-line fairness for packing.  The mean waits
// the paper reports cannot show *who pays* — these helpers break waits down
// by job size class and by distribution tail, feeding bench/fairness_study.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "sched/metrics.hpp"
#include "util/stats.hpp"

namespace es::exp {

/// Summary of one group of jobs' waiting times.
struct WaitSummary {
  std::size_t count = 0;
  double mean = 0;
  double median = 0;
  double p95 = 0;
  double p99 = 0;
  double max = 0;
};

/// Wait summary over all jobs of a result.
WaitSummary wait_distribution(const sched::SimulationResult& result);

/// Fairness breakdown by job size class.
struct FairnessBreakdown {
  WaitSummary small;   ///< jobs with procs <= small_threshold
  WaitSummary large;   ///< the rest
  /// Ratio of large-job mean wait to small-job mean wait (1 = even,
  /// > 1 = large jobs pay).  0 when a class is empty.
  double large_to_small_wait_ratio = 0;
};
FairnessBreakdown fairness_by_size(const sched::SimulationResult& result,
                                   int small_threshold);

/// 95% confidence half-width for the mean of `stats` (Student-t for small
/// samples, normal beyond 30).  0 for fewer than two samples.
double confidence_half_width_95(const util::RunningStats& stats);

/// Mean utilization (fraction of `machine_procs` busy) per equal-width time
/// bucket over [first arrival, last finish], reconstructed exactly from the
/// per-job outcomes.  Empty when the result has no jobs or buckets <= 0.
std::vector<double> utilization_timeline(
    const sched::SimulationResult& result, int machine_procs, int buckets);

/// Renders a timeline as a one-line ASCII bar profile (' ' through full
/// block by eighths), e.g. for simrun --profile.
std::string render_profile(const std::vector<double>& timeline);

}  // namespace es::exp
