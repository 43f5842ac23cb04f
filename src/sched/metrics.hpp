// Per-run result record: the paper's performance metrics plus diagnostics.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sched/ecc_processor.hpp"
#include "sched/perf.hpp"
#include "sim/time.hpp"
#include "sim/watchdog.hpp"
#include "workload/job.hpp"

namespace es::sched {

/// Outcome of one job, for detailed analysis.
struct JobOutcome {
  workload::JobId id = 0;
  bool dedicated = false;
  bool killed = false;
  bool abandoned = false;   ///< dropped after a node-failure preemption
  int interruptions = 0;    ///< node-failure preemptions suffered
  int procs = 0;            ///< processors occupied
  sim::Time arrival = 0;
  sim::Time started = 0;    ///< last (successful) start
  sim::Time finished = 0;
  double wait = 0;          ///< batch: start - arrival; dedicated: start delay
  double run = 0;           ///< finished - started
};

/// Fault-injection statistics of one run (all zero when the failure model
/// is disabled).
struct FailureStats {
  std::uint64_t outages = 0;        ///< NodeDown events applied
  std::uint64_t interruptions = 0;  ///< running jobs preempted by failures
  std::uint64_t requeues = 0;       ///< interrupted jobs put back in queue
  std::uint64_t abandoned = 0;      ///< interrupted jobs dropped
  double lost_proc_seconds = 0;     ///< in-progress work discarded by
                                    ///< preemptions (restarts lose progress)
  double down_proc_seconds = 0;     ///< capacity-offline integral over the run
  double goodput_proc_seconds = 0;  ///< work of jobs that completed
  double wasted_proc_seconds = 0;   ///< killed/abandoned runs + lost work

  // Checkpoint/restart recovery (all zero when the checkpoint model is
  // disabled).
  std::uint64_t checkpoints = 0;    ///< checkpoints completed (periodic and
                                    ///< on-preempt)
  double checkpoint_overhead_proc_seconds = 0;  ///< capacity spent writing
                                                ///< checkpoints
  double saved_proc_seconds = 0;    ///< preempted work recovered from the
                                    ///< last checkpoint instead of re-run
};

/// Aggregate metrics of one simulation run.
struct SimulationResult {
  // --- the paper's three headline metrics ---
  double utilization = 0;   ///< mean system utilization in [0,1]
  double mean_wait = 0;     ///< mean job waiting time, seconds
  double slowdown = 0;      ///< (avg wait + avg run) / avg run (paper defn)

  // --- additional standard metrics ---
  double mean_per_job_slowdown = 0;      ///< mean of (wait+run)/run
  double mean_bounded_slowdown = 0;      ///< runtime floored at 10 s
  double mean_run = 0;
  double max_wait = 0;
  double mean_dedicated_delay = 0;  ///< mean start delay of dedicated jobs
  std::uint64_t dedicated_on_time = 0;  ///< dedicated jobs started exactly
                                        ///< at their requested start

  // --- run accounting ---
  std::uint64_t completed = 0;
  std::uint64_t killed = 0;
  std::uint64_t abandoned = 0;  ///< dropped by the kAbandon requeue policy
  sim::Time first_arrival = 0;
  sim::Time last_finish = 0;
  double makespan = 0;
  std::uint64_t cycles = 0;    ///< scheduler invocations
  std::uint64_t events = 0;    ///< simulation events processed
  /// How the run ended.  kCompleted unless a watchdog budget aborted it, in
  /// which case every metric above covers the partial run.
  sim::TerminationReason termination = sim::TerminationReason::kCompleted;
  std::uint64_t unfinished = 0;  ///< jobs not finished at a watchdog abort
  double offered_load = 0;     ///< load of the input workload
  EccStats ecc;                ///< ECC processor statistics (if enabled)
  FailureStats failure;        ///< fault-injection statistics (if enabled)
  /// Hot-path counters (DP calls / cache hits / fast-path exits) and wall
  /// timings.  Counters are deterministic; the wall fields are measurement
  /// only and never enter metrics CSVs.
  PerfStats perf;

  std::vector<JobOutcome> jobs;  ///< per-job detail (if keep_job_outcomes)

  /// Full audit trace; null unless EngineConfig::record_trace was set.
  std::shared_ptr<const class ScheduleTrace> trace;
};

}  // namespace es::sched
