// The one engine configuration struct — the single source of truth for
// every attachment knob, embedded verbatim by core::AlgorithmOptions and
// flowing unchanged through factory -> experiment -> simrun/bench.
//
// Kept separate from engine.hpp so config consumers (the factory, the
// experiment driver, CLI option parsing) can describe a run without
// pulling in the engine, the scheduler interface or the event kernel.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fault/checkpoint.hpp"
#include "fault/failure_model.hpp"
#include "sim/watchdog.hpp"

namespace es::sched {

/// One scheduling pool in the fair-share tree (flat list of siblings under
/// an implicit root; jobs carry a pool index into this list).  Pools beyond
/// this list (from job tags) default to weight 1, min_share 0.
struct FairSharePool {
  std::string name;
  /// Relative fair-share weight; entitlement = weight / sum(weights).
  double weight = 1.0;
  /// Guaranteed fraction of the machine [0, 1].  A pool running below its
  /// min share with pending demand starves on the (short) min-share timeout.
  double min_share = 0.0;
};

/// Knobs for the FairShare policy family and the FairnessObserver.
/// Modelled on the ytsaurus fair-share strategy: starvation below min-share
/// or below tolerance×fair-share triggers preemption of jobs from
/// over-share pools after the corresponding timeout.
struct FairShareConfig {
  /// Master switch for starvation-driven preemption.  Off = FairShare only
  /// reorders the queue (still fair-share weighted, never interrupts work).
  bool preemption_enabled = true;
  /// Seconds a pool may run below its min share (with pending demand)
  /// before the scheduler preempts on its behalf.
  double min_share_preemption_timeout = 300.0;
  /// Seconds a pool may run below tolerance × fair share before preemption.
  double fair_share_preemption_timeout = 1800.0;
  /// Fraction of the fair share below which a pool counts as starving.
  double fair_share_starvation_tolerance = 0.8;
  /// Per-job ceiling on policy-initiated preemptions (0 = unlimited);
  /// bounds thrash on jobs that keep getting displaced.
  int max_preemptions_per_job = 4;
  /// Attach the FairnessObserver (per-pool wait percentiles + Jain index
  /// into PerfStats).  Off by default — fairness accounting costs a queue
  /// walk per lifecycle event.
  bool collect_stats = false;
  /// The pool tree (flat).  Empty = single implicit pool 0, weight 1.
  std::vector<FairSharePool> pools;
};

/// Crash-consistency: periodic engine snapshots during the run.  Disabled
/// by default (zero `every_cycles`), which keeps the event pump on the
/// exact seed fast path.  Deliberately *excluded* from the restore
/// fingerprint — a resumed run may snapshot on a different cadence (or not
/// at all) without being a different simulation.
struct SnapshotPolicy {
  /// Serialize the full engine state every N scheduling cycles (0 = off).
  std::uint64_t every_cycles = 0;
  /// Snapshot-ring directory; empty = no disk ring (an in-memory sink
  /// registered via Engine::set_snapshot_sink still receives snapshots).
  std::string dir;
  /// Ring retention: newest K generations are kept on disk.
  std::size_t keep = 3;
};

struct EngineConfig {
  int machine_procs = 320;
  int granularity = 32;
  /// Process ECCs (the -E algorithm variants).  When false, ECCs in the
  /// workload are ignored and jobs keep their submitted requirements.
  /// The factory path derives this from the algorithm name suffix.
  bool process_eccs = false;
  /// Allow EP/RP to resize *running* jobs work-conservingly (the paper's
  /// section-VI resource-elasticity extension).  Requires process_eccs.
  bool allow_running_resize = false;
  /// Keep one JobOutcome per finished job in SimulationResult::jobs (per-job
  /// analyses and tests read them; the aggregate metrics do not need them).
  bool keep_job_outcomes = true;
  /// Attach a TraceObserver recording a full schedule audit trace
  /// (sched/trace.hpp) to the result.  Off by default — it grows with the
  /// event count.
  bool record_trace = false;
  /// Attach a CycleStatsObserver collecting per-cycle queue-depth /
  /// backfill / DP-invocation histograms into PerfStats (surfaced by
  /// `simrun --perf-report`).  Off by default.
  bool collect_cycle_stats = false;
  /// Re-verify structural invariants (ledger consistency, queue ordering,
  /// status coherence) after every scheduling cycle, and cross-check every
  /// attachment's accumulated stats against a from-scratch recomputation.
  /// O(jobs) per cycle; used by the test suite and for debugging new
  /// policies or observers.
  bool paranoid = false;
  /// Fault injection: when `failure.enabled`, NodeDown/NodeUp events shrink
  /// and restore machine capacity during the run (default: off, which keeps
  /// every result bit-identical to the failure-free engine).
  fault::FailureModelConfig failure;
  /// What happens to running jobs preempted when capacity is lost.
  fault::RequeuePolicy requeue = fault::RequeuePolicy::kRequeueHead;
  /// Checkpoint/restart recovery: when enabled, preempted-then-requeued
  /// jobs resume from their last checkpoint (remaining = runtime - banked)
  /// instead of restarting from scratch, at the cost of periodic checkpoint
  /// overhead.  Default: disabled, byte-identical to the seed engine.
  fault::CheckpointConfig checkpoint;
  /// Termination guardrails: event / sim-time / wall-clock budgets plus a
  /// no-progress detector.  When any budget trips, the run aborts
  /// gracefully and the result carries partial metrics tagged with a typed
  /// TerminationReason.  Default: disabled (no budget is checked).
  sim::WatchdogConfig watchdog;
  /// Periodic crash-consistent snapshots (see SnapshotPolicy).  Default:
  /// disabled.
  SnapshotPolicy snapshot;
  /// Fair-share pools, starvation timeouts and fairness accounting (used by
  /// the FairShare policy family and the FairnessObserver).
  FairShareConfig fairshare;
};

}  // namespace es::sched
