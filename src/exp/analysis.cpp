#include "exp/analysis.hpp"

#include <algorithm>
#include <cmath>

namespace es::exp {
namespace {

WaitSummary summarize(util::Samples& samples) {
  WaitSummary summary;
  summary.count = samples.count();
  if (summary.count == 0) return summary;
  summary.mean = samples.mean();
  summary.median = samples.quantile(0.5);
  summary.p95 = samples.quantile(0.95);
  summary.p99 = samples.quantile(0.99);
  summary.max = samples.quantile(1.0);
  return summary;
}

}  // namespace

WaitSummary wait_distribution(const sched::SimulationResult& result) {
  util::Samples samples;
  for (const sched::JobOutcome& job : result.jobs) samples.add(job.wait);
  return summarize(samples);
}

FairnessBreakdown fairness_by_size(const sched::SimulationResult& result,
                                   int small_threshold) {
  util::Samples small_waits, large_waits;
  for (const sched::JobOutcome& job : result.jobs) {
    (job.procs <= small_threshold ? small_waits : large_waits).add(job.wait);
  }
  FairnessBreakdown breakdown;
  breakdown.small = summarize(small_waits);
  breakdown.large = summarize(large_waits);
  if (breakdown.small.count > 0 && breakdown.large.count > 0 &&
      breakdown.small.mean > 0) {
    breakdown.large_to_small_wait_ratio =
        breakdown.large.mean / breakdown.small.mean;
  }
  return breakdown;
}

std::vector<double> utilization_timeline(
    const sched::SimulationResult& result, int machine_procs, int buckets) {
  if (result.jobs.empty() || buckets <= 0 || machine_procs <= 0) return {};
  const double begin = result.first_arrival;
  const double end = result.last_finish;
  if (end <= begin) return std::vector<double>(static_cast<std::size_t>(buckets), 0.0);
  const double width = (end - begin) / buckets;
  std::vector<double> busy_seconds(static_cast<std::size_t>(buckets), 0.0);
  for (const sched::JobOutcome& job : result.jobs) {
    for (int b = 0; b < buckets; ++b) {
      const double lo = std::max(begin + b * width, job.started);
      const double hi = std::min(begin + (b + 1) * width, job.finished);
      if (hi > lo)
        busy_seconds[static_cast<std::size_t>(b)] += job.procs * (hi - lo);
    }
  }
  std::vector<double> timeline(static_cast<std::size_t>(buckets), 0.0);
  for (int b = 0; b < buckets; ++b)
    timeline[static_cast<std::size_t>(b)] =
        busy_seconds[static_cast<std::size_t>(b)] / (machine_procs * width);
  return timeline;
}

std::string render_profile(const std::vector<double>& timeline) {
  // Eighth-block bars, matching sparkline conventions.
  static const char* kBlocks[] = {" ", "▁", "▂", "▃",
                                  "▄", "▅", "▆", "▇",
                                  "█"};
  std::string out;
  for (double level : timeline) {
    const double clamped = level < 0 ? 0 : (level > 1 ? 1 : level);
    out += kBlocks[static_cast<int>(std::lround(clamped * 8))];
  }
  return out;
}

double confidence_half_width_95(const util::RunningStats& stats) {
  const std::size_t n = stats.count();
  if (n < 2) return 0.0;
  // Two-sided 97.5% Student-t quantiles for small df, then normal.
  static constexpr double kT[] = {0,     12.706, 4.303, 3.182, 2.776, 2.571,
                                  2.447, 2.365,  2.306, 2.262, 2.228, 2.201,
                                  2.179, 2.160,  2.145, 2.131, 2.120, 2.110,
                                  2.101, 2.093,  2.086, 2.080, 2.074, 2.069,
                                  2.064, 2.060,  2.056, 2.052, 2.048, 2.045};
  const std::size_t df = n - 1;
  const double t = df < std::size(kT) ? kT[df] : 1.96;
  return t * stats.stddev() / std::sqrt(static_cast<double>(n));
}

}  // namespace es::exp
