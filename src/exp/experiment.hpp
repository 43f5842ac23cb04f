// Experiment driver: one (workload model, algorithm) pair -> metrics, with
// seeded replication.  Every figure/table bench is a thin loop over these.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/factory.hpp"
#include "sched/engine.hpp"
#include "sched/metrics.hpp"
#include "workload/generator.hpp"

namespace es::exp {

/// Complete description of one simulation run.
struct RunSpec {
  workload::GeneratorConfig workload;
  std::string algorithm;              ///< factory name, e.g. "Delayed-LOS"
  core::AlgorithmOptions options{};   ///< C_s, lookahead
};

/// Mean-of-seeds aggregate of the paper's metrics.
struct Aggregate {
  std::string algorithm;
  int replications = 0;
  double utilization = 0;
  double mean_wait = 0;
  double slowdown = 0;
  double utilization_stddev = 0;
  double mean_wait_stddev = 0;
  double utilization_ci95 = 0;  ///< 95% confidence half-width of the mean
  double mean_wait_ci95 = 0;
  double offered_load = 0;            ///< mean achieved load
  double mean_dedicated_delay = 0;
  std::uint64_t ecc_processed = 0;
  /// DP hot-path counters summed over the replications (calls, fast-path
  /// exits, cache hits) — deterministic, used by perf baselines.
  sched::DpCounters dp;
  /// Event-kernel traffic over the replications (scheduled/cancelled/fired
  /// summed, peak pending maxed) — deterministic, like the DP counters.
  sim::EventQueueCounters events;
  /// Per-cycle shape histograms summed over the replications (all-zero
  /// unless AlgorithmOptions::engine.collect_cycle_stats is set).
  sched::CycleStats cycle;
};

/// Runs a prepared workload under a named algorithm.  The engine's machine
/// is shaped by the workload (procs + granularity).
sched::SimulationResult run_workload(const workload::Workload& workload,
                                     const std::string& algorithm,
                                     const core::AlgorithmOptions& options = {});

/// Same, with an external observer appended to the engine's attachment
/// chain after the config-selected built-ins (the invariant-oracle mount
/// point; see fuzz::OracleObserver).  The observer is not owned and must
/// outlive the call.
sched::SimulationResult run_workload(const workload::Workload& workload,
                                     const std::string& algorithm,
                                     const core::AlgorithmOptions& options,
                                     sched::EngineObserver* observer,
                                     sched::HookMask mask = sched::kAllHooks);

/// Runs a pull-based job source under a named algorithm without ever
/// materializing the workload: the engine holds only the jobs in flight
/// (see Engine::run_streamed).  The machine is shaped by the source.
/// Metrics are byte-identical to run_workload on the materialized
/// equivalent, and options.engine.paranoid checks the run as it does
/// there.
sched::SimulationResult run_source(workload::JobSource& source,
                                   const std::string& algorithm,
                                   const core::AlgorithmOptions& options = {});

/// Generates the spec's workload (with its seed) and runs it.
sched::SimulationResult run_once(const RunSpec& spec);

/// Runs `replications` seeds (workload.seed + 0..n-1) and averages.
Aggregate run_replicated(RunSpec spec, int replications);

/// Empirically picks the C_s in [cs_min, cs_max] minimizing mean job waiting
/// time for Delayed-LOS on the given workload model (the paper's Fig-5/6
/// procedure; applied per P_S before each load sweep).
int optimal_skip_count(const workload::GeneratorConfig& config, int cs_min,
                       int cs_max, int replications);

}  // namespace es::exp
