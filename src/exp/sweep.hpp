// Parameter sweeps and improvement summaries — the shapes of the paper's
// figures (metric vs load, metric vs C_s) and tables (max % improvement).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "exp/experiment.hpp"

namespace es::exp {

/// One x-position of a sweep with every x-dependent algorithm's aggregate.
struct SweepPoint {
  double x = 0;  ///< load, C_s, P_S, ... depending on the sweep
  std::map<std::string, Aggregate> by_algorithm;
};

struct Sweep {
  std::string x_label;
  std::vector<SweepPoint> points;
  /// Aggregates of x-independent reference algorithms (the flat lines of
  /// figures 5-6), shared by every point instead of copied into each one.
  std::map<std::string, Aggregate> references;

  /// Looks up `algorithm` at `point`: the point's own series first, then
  /// the shared references.  Returns nullptr when the sweep never ran it.
  const Aggregate* find(const SweepPoint& point,
                        const std::string& algorithm) const;

  /// The point's series merged with the shared references, in map (name)
  /// order — what consumers iterate to see every series at this x.
  std::map<std::string, const Aggregate*> merged(const SweepPoint& point) const;
};

/// Runs `algorithms` over the target loads (paper figures 7-11: x = offered
/// load, each point an independent N_J-job workload).  `base` supplies every
/// other knob; per-algorithm options come from `options`.
Sweep load_sweep(const workload::GeneratorConfig& base,
                 const std::vector<double>& loads,
                 const std::vector<std::string>& algorithms,
                 const core::AlgorithmOptions& options, int replications);

/// Runs Delayed-LOS across C_s values plus C_s-independent reference
/// algorithms (paper figures 5-6: x = C_s).  Every run takes `options`,
/// with max_skip_count set to the point's C_s for the Delayed-LOS series.
Sweep skip_count_sweep(const workload::GeneratorConfig& base, int cs_min,
                       int cs_max,
                       const std::vector<std::string>& reference_algorithms,
                       const core::AlgorithmOptions& options,
                       int replications);

/// Maximum percentage improvement of `candidate` over `baseline` across the
/// sweep (utilization: higher is better; wait/slowdown: lower is better) —
/// the quantity reported by the paper's Tables IV-VII.
struct Improvement {
  double utilization = 0;
  double wait = 0;
  double slowdown = 0;
};
Improvement max_improvement(const Sweep& sweep, const std::string& candidate,
                            const std::string& baseline);

}  // namespace es::exp
