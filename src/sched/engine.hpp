// Simulation engine: wires a workload, a machine and a scheduling policy
// over the discrete-event kernel.
//
// Event flow (one run).  Every event is a (time, class, seq, tag) POD; the
// engine pops it and dispatch() switches on the class, with the tag naming
// the payload (docs/architecture.md has the class → payload table):
//   * every submission schedules a JobArrival at its arrival time;
//   * every dedicated job additionally schedules a DedicatedDue wake-up at
//     its requested start time;
//   * (-E variants) every ECC schedules an EccArrival at its issue time —
//     simulation order is the FCFS elastic control queue;
//   * those three are fed one JobSource chunk at a time (run() drains a
//     workload::MaterializedSource, whose chunks are WorkloadCursor
//     windows): when the last scheduled arrival fires, the next chunk's
//     records are built and its events scheduled, so the event heap and
//     the record arena hold only in-flight work;
//   * each event updates queues/state and then runs one scheduler cycle;
//   * policy start() decisions allocate processors and schedule JobFinish at
//     start + min(actual, kill-by estimate); jobs overrunning their estimate
//     are killed, per the backfilling literature;
//   * a finished job is folded into the running metric sums at once, and
//     its record is released as soon as no scheduled command still names
//     it, so memory follows the jobs in flight, not the trace length;
//   * (fault injection) the failure model chains NodeDown/NodeUp pairs: a
//     NodeDown preempts enough running jobs to cover the lost capacity and
//     applies the requeue policy; the paired NodeUp restores the processors
//     and, while unfinished jobs remain, schedules the next outage.
//
// The engine core does machine/queue/active-set mechanics only.  Every
// cross-cutting concern — audit tracing, failure accounting, checkpoint
// recovery bookkeeping, watchdog progress notes, ECC audits, cycle
// statistics — is an EngineObserver on the attachment chain
// (sched/attach/), registered at construction from the EngineConfig and
// dispatched at each lifecycle site.  See sched/attach/observer.hpp for
// the chain's ordering rules and docs/architecture.md for the map.
#pragma once

#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "cluster/machine.hpp"
#include "cluster/utilization.hpp"
#include "fault/failure_model.hpp"
#include "sched/attach/checkpoint_observer.hpp"
#include "sched/attach/cycle_stats_observer.hpp"
#include "sched/attach/ecc_audit_observer.hpp"
#include "sched/attach/failure_stats_observer.hpp"
#include "sched/attach/fairness_observer.hpp"
#include "sched/attach/observer.hpp"
#include "sched/attach/trace_observer.hpp"
#include "sched/attach/watchdog_progress_observer.hpp"
#include "sched/ecc_processor.hpp"
#include "sched/engine_config.hpp"
#include "sched/inflight_eccs.hpp"
#include "sched/job_arena.hpp"
#include "sched/metrics.hpp"
#include "sched/scheduler.hpp"
#include "sim/simulation.hpp"
#include "sim/watchdog.hpp"
#include "util/sampled_timer.hpp"
#include "workload/job.hpp"
#include "workload/source.hpp"

namespace es::sched {

/// One engine instance runs one workload with one policy.
class Engine {
 public:
  Engine(const EngineConfig& config, Scheduler& policy);

  /// Appends an external observer to the attachment chain, after the
  /// config-selected built-ins.  Must be called before run(); the engine
  /// does not take ownership.
  void add_observer(EngineObserver* observer, HookMask mask = kAllHooks) {
    attachments_.add(observer, mask);
  }

  /// Runs the whole workload to completion and returns the metrics: a thin
  /// wrapper over the streamed run of a workload::MaterializedSource (see
  /// its comment for what it accepts), so records live only while their
  /// jobs are in flight.  The workload must outlive the call.
  SimulationResult run(const workload::Workload& workload);

  /// Drains a JobSource chunk by chunk, holding only the jobs in flight.
  /// The next chunk is pulled when the last scheduled arrival fires;
  /// finished jobs are folded into the metrics immediately and their arena
  /// records released once their last command has dispatched.  For the
  /// same trace the result is byte-identical to run() (see
  /// workload/source.hpp for the ordering contracts that guarantee it),
  /// watchdog-aborted runs included.
  SimulationResult run_streamed(workload::JobSource& source);

  /// The machine, exposed for tests that inspect the final state.
  const cluster::Machine& machine() const { return machine_; }

 private:
  /// Runs the handler of one popped event: the class picks the handler
  /// and the tag (see job_tag) its payload.
  void dispatch(const sim::Event& event);
  /// The tag of `job`'s events: its arena handle, packed into 64 bits.
  std::uint64_t job_tag(const JobRun* job) const;
  /// The record a job event's tag names; it must still be live.
  JobRun* live_job(std::uint64_t tag);
  void on_arrival(JobRun* job);
  void on_ecc(const workload::Ecc& ecc);
  /// Fires the outage in `pending_outage_`.
  void on_node_down();
  void on_node_up(int procs);
  void schedule_next_outage(sim::Time from);
  void preempt_victim();
  /// Policy-initiated preemption (SchedulerContext::preempt): the shared
  /// preempt sequence with a forced tail requeue.
  void preempt_running(JobRun* job);
  /// Shared preempt machinery: cancel, release, retry-cap check, attachment
  /// hooks, requeue under `policy`.
  void preempt_job(JobRun* job, fault::RequeuePolicy requeue_policy);
  void start_job(JobRun* job);
  void finish_job(JobRun* job);
  void insert_active(JobRun* job);
  void remove_active(JobRun* job);
  void reposition_active(JobRun* job);
  void move_dedicated_head_to_batch_head();
  /// Warns once per process when the failure config cannot be expected to
  /// terminate on jobs like `jobs` (the first chunk stands for the trace).
  void warn_if_unbounded_retry(std::span<const workload::Job> jobs) const;
  void run_cycle();
  void pump_events();
  void check_invariants() const;
  CycleInfo cycle_info() const;
  ParanoidSnapshot paranoid_snapshot() const;
  bool all_jobs_finished() const {
    return source_exhausted_ && jobs_retired_ == jobs_built_;
  }

  /// The run shared by run() and run_streamed(): the first chunk, the
  /// event pump, the result.
  SimulationResult drive(workload::JobSource& source,
                         util::TimerTicks run_start);
  /// Post-pump bookkeeping: completed-run postconditions, the result,
  /// perf counters.
  SimulationResult finish_run(util::TimerTicks run_start);
  /// The metrics from the fold and the attachment ledgers; an aborted run
  /// first pulls the rest of its source into the offered load.
  SimulationResult collect();

  /// Running sums behind the mean metrics; see retire().
  struct FoldSums {
    double wait_sum = 0;
    double run_sum = 0;
    double sd_sum = 0;
    double bsd_sum = 0;
    double dedicated_delay_sum = 0;
    std::uint64_t dedicated_count = 0;
    std::uint64_t count = 0;
  };
  JobOutcome outcome_of(const JobRun* job) const;
  /// Means from the fold sums, utilization, downtime.
  void finalize_aggregate(SimulationResult& result) const;

  // --- the job feed -------------------------------------------------------

  /// Claims the record of `spec` and, when the engine processes ECCs,
  /// indexes it by id with its `ecc_count` pending commands.
  JobRun* build_job(const workload::Job& spec, int ecc_count);
  /// Adds a record to the id index; a live duplicate id is a precondition
  /// failure.
  void index_job(JobRun* job);
  /// Schedules a job's arrival and, for a dedicated job with a later
  /// requested start, its wake-up; counts the arrival as pending.
  void schedule_arrival(JobRun* job);
  void schedule_ecc(const workload::Ecc& ecc, std::uint64_t tag);
  /// Pulls chunks until an arrival is pending or the source is exhausted.
  void refill();
  /// Pulls and feeds the next chunk, or marks the source exhausted.
  void load_next_chunk();
  /// Replay of workload::offered_load(), term for term in trace order.
  void note_offered(const workload::Job& spec);
  double offered_load() const;
  /// Folds a finished job into the metric sums (completion order, the
  /// order the result's per-job list keeps) — does not release the record.
  void retire(JobRun* job);
  /// Releases a finished job's record once no scheduled command still
  /// targets it; no-op while the job waits or runs or commands pend.
  void maybe_release(JobRun* job);

  EngineConfig config_;
  Scheduler* policy_;
  sim::Simulation sim_;
  cluster::Machine machine_;
  cluster::UtilizationTracker utilization_;
  EccProcessor ecc_processor_;
  fault::FailureModel failure_model_;

  // The lifecycle event bus.  Built-in attachments are plain members (no
  // heap); the constructor registers the enabled ones with the chain in
  // the canonical order (see attach/observer.hpp).  AbortFlag lets the
  // watchdog-progress attachment abort the event pump.
  AbortFlag abort_;
  CheckpointObserver checkpoint_attach_;
  FailureStatsObserver failure_attach_;
  EccAuditObserver ecc_audit_attach_;
  TraceObserver trace_attach_;
  WatchdogProgressObserver progress_attach_;
  CycleStatsObserver cycle_stats_attach_;
  FairnessObserver fairness_attach_;
  AttachmentChain attachments_;

  JobRunArena arena_;  ///< owns the live JobRuns (and their cold fields)
  /// Live records by id, for command dispatch: kept only when the engine
  /// processes ECCs.
  std::unordered_map<workload::JobId, JobRun*> by_id_;
  JobQueue batch_queue_;                  ///< intrusive FIFO (W^b)
  std::vector<JobRun*> dedicated_queue_;  ///< sorted by (req_start, arr)
  std::vector<JobRun*> active_;  ///< running jobs, kept sorted by
                                 ///< (planned end, id); JobRun::active_index
                                 ///< back-references positions

  bool in_cycle_ = false;
  std::uint64_t cycles_ = 0;
  /// EP/RP commands applied to waiting jobs; handed to every cycle as
  /// SchedulerContext::queued_resizes.
  std::uint64_t queued_resizes_ = 0;
  sim::Time first_arrival_ = 0;
  sim::Time last_finish_ = 0;

  // Perf observability: DP counters are policy-cumulative, so run() keeps a
  // start snapshot and reports the delta.  Cycle wall time is sampled:
  // pump_events times 1 event in util::kTimerSamplePeriod (16) whole, and
  // run_cycle times the cycles those events run; finish_run applies the
  // cycles' share of the timed events to the event loop's wall time.
  DpCounters dp_baseline_;
  bool cycle_timed_ = false;  ///< the event being dispatched is timed
  util::TimerTicks sampled_event_ticks_ = 0;
  util::TimerTicks sampled_cycle_ticks_ = 0;
  util::TimerTicks loop_ticks_ = 0;  ///< pump_events' whole wall time

  sim::TerminationReason termination_ = sim::TerminationReason::kCompleted;

  // The job feed: a refill is due when `arrivals_pending_` drops to zero,
  // until the source is exhausted.
  workload::JobSource* source_ = nullptr;
  std::optional<std::uint64_t> total_jobs_;  ///< the source's, if known
  workload::SourceChunk chunk_;               ///< reused pull buffer
  bool source_exhausted_ = true;
  std::size_t arrivals_pending_ = 0;  ///< scheduled, not yet fired
  /// Records built for a command ahead of their own chunk, keyed by id;
  /// their arrivals are scheduled when that chunk comes.
  std::unordered_map<workload::JobId, JobRun*> ahead_;
  std::uint64_t jobs_built_ = 0;
  std::uint64_t jobs_retired_ = 0;
  std::uint64_t jobs_fed_ = 0;        ///< chunk jobs seen, in trace order
  std::uint64_t eccs_scheduled_ = 0;  ///< ECC event tags: trace index

  // Retire-time fold.  `folded_` carries the counter fields the fold
  // increments.  Wasted-work terms are deferred: FailureStatsObserver::
  // on_collect *assigns* the failure ledger, so the per-job terms are
  // added after it, in completion order.
  FoldSums sums_;
  SimulationResult folded_;
  std::vector<double> wasted_deferred_;
  std::vector<JobOutcome> outcomes_;  ///< only if keep_job_outcomes
  std::uint64_t retired_interruptions_ = 0;  ///< paranoid cross-check
  double offered_proc_seconds_ = 0;  ///< offered-load accumulators
  sim::Time offered_origin_ = 0;
  sim::Time offered_last_ = 0;

  // Event payloads the tags do not carry: the command of every scheduled
  // EccArrival (filled in schedule_ecc) and the outage of the (at most one)
  // scheduled NodeDown.
  InflightEccs eccs_in_flight_;
  bool has_pending_outage_ = false;
  fault::Outage pending_outage_{};
};

/// Convenience wrapper: one-shot run.
SimulationResult simulate(const EngineConfig& config, Scheduler& policy,
                          const workload::Workload& workload);

}  // namespace es::sched
