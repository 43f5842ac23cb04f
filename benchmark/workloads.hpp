// The benchmark's named workloads and the single repetition that runs one.
//
// A repetition ("rep") is one child process's work: build the workload's
// inputs from the seed, run it once, and report timings, resource use, the
// paper's science metrics and a fingerprint of every deterministic result
// field.  A traced rep additionally wraps the calls into each layer's public
// interface (job source, scheduler policy, engine observer bus) from the
// outside and reports per-layer times and counts.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace es::benchmark {

/// A named workload.  Names are permanent: BENCHMARK.json, expected.tsv and
/// every recorded baseline key on them.
struct WorkloadInfo {
  const char* name;
  int threads;  ///< worker threads one rep uses (its process's pool size)
};

/// The workloads in their canonical order.
const std::vector<WorkloadInfo>& workloads();

/// Looks a workload up by name; null when unknown.
const WorkloadInfo* find_workload(const std::string& name);

/// A per-layer metric reported by traced reps.
struct LayerMetric {
  const char* name;
  const char* unit;
};

/// Every per-layer metric in report order.  The last one,
/// trace.overhead_ratio, is filled by the parent (it needs the untraced
/// reps' median); traced reps report all the others.
const std::vector<LayerMetric>& layer_metrics();

/// What one rep measured.  Timings are wall seconds unless noted.
struct RepResult {
  /// Empty when the rep ran; otherwise why it could not report at all.
  std::string error;
  double setup_s = 0;   ///< input, algorithm and engine construction
  double run_s = 0;     ///< the measured run (the whole campaign for
                        ///< campaign_fig)
  double cpu_s = 0;     ///< process user+sys time at the end of the run
  double peak_rss_mib = 0;  ///< process ru_maxrss at the end of the run
  std::uint64_t events = 0;       ///< simulation events fired
  std::uint64_t sims = 0;         ///< simulations attempted
  std::uint64_t failed_sims = 0;  ///< threw, aborted or failed a guard
  /// Hash over every deterministic result field of every simulation, in
  /// simulation order.  Equal across reps, threads and tracing by contract.
  std::uint64_t fingerprint = 0;
  // The paper's metrics (means over simulations for campaign_fig).
  double mean_wait_s = 0;
  double utilization = 0;
  double bounded_slowdown = 0;
  /// Traced reps only: (layer metric name, value) in layer_metrics() order,
  /// trace.overhead_ratio excluded.
  std::vector<std::pair<std::string, double>> layers;
};

/// Simulations one rep of `name` attempts.
std::uint64_t sims_per_rep(const std::string& name, bool quick);

/// Runs one rep of workload `name` in this process.  `quick` shrinks the
/// workload to a tenth for smoke runs; `traced` adds the layer wrappers.
/// Sizes the process-wide worker pool to the workload's thread count.
RepResult run_rep(const std::string& name, std::uint64_t seed, bool quick,
                  bool traced);

}  // namespace es::benchmark
