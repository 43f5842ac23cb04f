// The engine's typed lifecycle event bus.
//
// The engine core does machine/queue/active-set mechanics only; every
// cross-cutting concern — audit tracing, failure accounting, checkpoint
// replanning, watchdog progress notes, ECC audits, cycle statistics —
// lives in an EngineObserver attached to the engine's AttachmentChain.
// The engine dispatches a typed callback at each lifecycle site and the
// observers accumulate whatever they care about, depositing it into the
// SimulationResult at collect time.
//
// Design rules (load-bearing for the equivalence gates):
//   * allocation-free dispatch: the chain is a fixed-capacity table of
//     non-owning pointers, filled once at engine construction — nothing on
//     the steady-state path allocates (es_sim_alloc_test proves it);
//   * per-hook subscriber lists: observers register with a HookMask of the
//     callbacks they override, so a lifecycle site only virtual-dispatches
//     to observers that actually listen there — an enabled chain costs
//     nothing at the sites it ignores;
//   * the default chain is empty: with no attachment enabled every hook
//     reduces to a loop over zero entries, keeping the fast path within
//     noise of the pre-bus engine;
//   * deterministic order: observers fire in registration order at every
//     site.  The engine registers the built-ins as Checkpoint ->
//     FailureStats -> EccAudit -> Trace -> WatchdogProgress -> CycleStats;
//     CheckpointObserver must precede FailureStatsObserver because the
//     preempt accounting reads PreemptInfo::saved (banked work) when
//     computing lost work, and FailureStatsObserver must precede
//     TraceObserver because the preempt trace record carries
//     PreemptInfo::lost;
//   * observers never mutate engine state.  The two deliberate exceptions
//     are the typed PreemptInfo scratch-pad and on_checkpoint_replan
//     (which re-plans JobRun::ckpt_overhead_planned before the engine
//     seats the job), plus AbortFlag for observers that can abort the run.
#pragma once

#include <cstdint>

#include "fault/failure_model.hpp"
#include "sched/ecc_processor.hpp"
#include "sched/job_state.hpp"
#include "sched/perf.hpp"
#include "sim/time.hpp"
#include "sim/watchdog.hpp"
#include "util/check.hpp"
#include "workload/job.hpp"

namespace es::sched {

struct SimulationResult;

/// Lifecycle hook identifiers, one per EngineObserver callback.  Observers
/// register on the chain with a mask of the hooks they override; dispatch
/// then never touches an observer at a site it does not observe.
enum class Hook : std::uint32_t {
  kCycleBegin = 0,
  kCycleEnd,
  kArrival,
  kStart,
  kFinish,
  kEccApplied,
  kEccUnknownJob,
  kNodeDown,
  kNodeUp,
  kPreempt,
  kRequeue,
  kAbandon,
  kDedicatedMove,
  kCheckpointReplan,
  kCollect,
  kParanoidCheck,
  kCount,
};

using HookMask = std::uint32_t;

constexpr HookMask hook_bit(Hook hook) {
  return HookMask{1} << static_cast<std::uint32_t>(hook);
}

/// Subscribe-to-everything mask, the safe default for external observers.
constexpr HookMask kAllHooks =
    (HookMask{1} << static_cast<std::uint32_t>(Hook::kCount)) - 1;

/// Snapshot of queue/active shape handed to cycle hooks.  Built only when
/// the chain is non-empty (every field is O(1) to read off the engine).
struct CycleInfo {
  sim::Time now = 0;
  std::uint64_t cycle = 0;        ///< 1-based cycle ordinal
  std::size_t batch_depth = 0;    ///< batch queue length (W^b)
  std::size_t dedicated_depth = 0;  ///< dedicated queue length (W^d)
  std::size_t active_jobs = 0;    ///< running jobs
};

/// Scratch-pad threaded through the preempt hook.  The engine fills the
/// identity fields; CheckpointObserver writes `saved` (work banked by the
/// last checkpoint); FailureStatsObserver writes `lost` (unsaved partial
/// work, in proc-seconds) which TraceObserver records.
struct PreemptInfo {
  JobRun* job = nullptr;
  double elapsed = 0;  ///< seconds the attempt ran before preemption
  fault::RequeuePolicy policy = fault::RequeuePolicy::kRequeueHead;
  double saved = 0;  ///< checkpoint-banked work (seconds of runtime)
  double lost = 0;   ///< unsaved partial work (proc-seconds)
};

/// Independent recomputation of everything the built-in observers
/// accumulate incrementally, built by the engine in paranoid mode after
/// every cycle so each attachment can cross-check its own ledger.  Retired
/// jobs count through the engine's retire-time fold counters, the rest
/// from their live records.
struct ParanoidSnapshot {
  sim::Time now = 0;
  std::uint64_t cycle = 0;
  std::uint64_t interruptions = 0;  ///< sum of the jobs' interruptions
  std::uint64_t abandoned = 0;      ///< finished jobs with kAbandoned
  std::uint64_t finishes = 0;       ///< finished jobs, abandonments excluded
  std::size_t active_jobs = 0;
  std::uint64_t cycles = 0;
  DpCounters dp_delta;  ///< policy counters minus the run-start baseline
  const EccStats* ecc = nullptr;  ///< the processor's own command ledger
};

/// Set by an observer to abort the run from inside the event loop (the
/// watchdog-progress attachment trips it); polled by the engine's event
/// pump after every event.  Plain struct — the run is single-threaded.
struct AbortFlag {
  bool requested = false;
  sim::TerminationReason reason = sim::TerminationReason::kCompleted;
};

/// Lifecycle hooks.  Every callback defaults to a no-op so attachments
/// override only the sites they observe.  `job` references stay valid
/// until the job retires — it finished and no scheduled command still
/// names it — when the engine releases the record to its arena for reuse;
/// an attachment that needs a job past that point keeps a copy, not the
/// reference.
class EngineObserver {
 public:
  virtual ~EngineObserver() = default;

  virtual void on_cycle_begin(const CycleInfo& info) { (void)info; }
  virtual void on_cycle_end(const CycleInfo& info) { (void)info; }
  virtual void on_arrival(sim::Time now, const JobRun& job) {
    (void)now;
    (void)job;
  }
  /// `backfilled` marks a start that jumped past the batch-queue head.
  virtual void on_start(sim::Time now, const JobRun& job, bool backfilled) {
    (void)now;
    (void)job;
    (void)backfilled;
  }
  /// Fires for natural completions, kills and ECC-forced completions; the
  /// job's status distinguishes them.
  virtual void on_finish(sim::Time now, const JobRun& job) {
    (void)now;
    (void)job;
  }
  virtual void on_ecc_applied(sim::Time now, const JobRun& job,
                              const workload::Ecc& ecc, EccOutcome outcome) {
    (void)now;
    (void)job;
    (void)ecc;
    (void)outcome;
  }
  /// An ECC named a job id that is not in the workload.
  virtual void on_ecc_unknown_job(sim::Time now, const workload::Ecc& ecc) {
    (void)now;
    (void)ecc;
  }
  virtual void on_node_down(sim::Time now, int procs) {
    (void)now;
    (void)procs;
  }
  virtual void on_node_up(sim::Time now, int procs) {
    (void)now;
    (void)procs;
  }
  /// Fires after the victim left the machine/active set but before the
  /// requeue policy is applied; observers may fill PreemptInfo fields for
  /// observers later in the chain (see the ordering rules above).
  virtual void on_preempt(sim::Time now, PreemptInfo& info) {
    (void)now;
    (void)info;
  }
  /// `alloc` is the allocation the job held when preempted (JobRun::alloc
  /// is already reset by requeue time).
  virtual void on_requeue(sim::Time now, const JobRun& job, int alloc) {
    (void)now;
    (void)job;
    (void)alloc;
  }
  virtual void on_abandon(sim::Time now, const JobRun& job, int alloc) {
    (void)now;
    (void)job;
    (void)alloc;
  }
  virtual void on_dedicated_move(sim::Time now, const JobRun& job) {
    (void)now;
    (void)job;
  }
  /// The job's time bounds changed (start, ECC): re-plan per-attempt
  /// checkpoint overhead before the engine re-seats/reschedules it.
  virtual void on_checkpoint_replan(JobRun& job) { (void)job; }
  /// Deposit accumulated statistics into the result.  Runs after the
  /// engine fills the scalar fields and before the per-job outcome loop.
  virtual void on_collect(SimulationResult& result) const { (void)result; }
  /// Paranoid mode: cross-check incremental accumulators against the
  /// engine's from-scratch snapshot.  Assert on any divergence.
  virtual void on_paranoid_check(const ParanoidSnapshot& snapshot) const {
    (void)snapshot;
  }
};

/// Fixed-capacity, allocation-free dispatch chain.  The engine calls one
/// chain method per lifecycle site; the chain forwards to every observer
/// subscribed to that hook, in registration order.  Observers pass the
/// mask of hooks they override at add() time (external observers default
/// to kAllHooks), so no-op callbacks are never virtual-dispatched.
class AttachmentChain {
 public:
  static constexpr int kCapacity = 12;
  static constexpr int kHookCount = static_cast<int>(Hook::kCount);

  void add(EngineObserver* observer, HookMask mask = kAllHooks) {
    ES_EXPECTS(observer != nullptr);
    ES_EXPECTS(count_ < kCapacity);
    ++count_;
    for (int h = 0; h < kHookCount; ++h)
      if (mask & (HookMask{1} << h)) items_[h][counts_[h]++] = observer;
  }
  bool empty() const { return count_ == 0; }
  int size() const { return count_; }
  /// True when at least one observer subscribed to `hook` — lets the
  /// engine skip building hook arguments nobody will read.
  bool has(Hook hook) const {
    return counts_[static_cast<int>(hook)] != 0;
  }

  void on_cycle_begin(const CycleInfo& info) {
    for (int i = 0; i < counts_[idx(Hook::kCycleBegin)]; ++i)
      items_[idx(Hook::kCycleBegin)][i]->on_cycle_begin(info);
  }
  void on_cycle_end(const CycleInfo& info) {
    for (int i = 0; i < counts_[idx(Hook::kCycleEnd)]; ++i)
      items_[idx(Hook::kCycleEnd)][i]->on_cycle_end(info);
  }
  void on_arrival(sim::Time now, const JobRun& job) {
    for (int i = 0; i < counts_[idx(Hook::kArrival)]; ++i)
      items_[idx(Hook::kArrival)][i]->on_arrival(now, job);
  }
  void on_start(sim::Time now, const JobRun& job, bool backfilled) {
    for (int i = 0; i < counts_[idx(Hook::kStart)]; ++i)
      items_[idx(Hook::kStart)][i]->on_start(now, job, backfilled);
  }
  void on_finish(sim::Time now, const JobRun& job) {
    for (int i = 0; i < counts_[idx(Hook::kFinish)]; ++i)
      items_[idx(Hook::kFinish)][i]->on_finish(now, job);
  }
  void on_ecc_applied(sim::Time now, const JobRun& job,
                      const workload::Ecc& ecc, EccOutcome outcome) {
    for (int i = 0; i < counts_[idx(Hook::kEccApplied)]; ++i)
      items_[idx(Hook::kEccApplied)][i]->on_ecc_applied(now, job, ecc,
                                                        outcome);
  }
  void on_ecc_unknown_job(sim::Time now, const workload::Ecc& ecc) {
    for (int i = 0; i < counts_[idx(Hook::kEccUnknownJob)]; ++i)
      items_[idx(Hook::kEccUnknownJob)][i]->on_ecc_unknown_job(now, ecc);
  }
  void on_node_down(sim::Time now, int procs) {
    for (int i = 0; i < counts_[idx(Hook::kNodeDown)]; ++i)
      items_[idx(Hook::kNodeDown)][i]->on_node_down(now, procs);
  }
  void on_node_up(sim::Time now, int procs) {
    for (int i = 0; i < counts_[idx(Hook::kNodeUp)]; ++i)
      items_[idx(Hook::kNodeUp)][i]->on_node_up(now, procs);
  }
  void on_preempt(sim::Time now, PreemptInfo& info) {
    for (int i = 0; i < counts_[idx(Hook::kPreempt)]; ++i)
      items_[idx(Hook::kPreempt)][i]->on_preempt(now, info);
  }
  void on_requeue(sim::Time now, const JobRun& job, int alloc) {
    for (int i = 0; i < counts_[idx(Hook::kRequeue)]; ++i)
      items_[idx(Hook::kRequeue)][i]->on_requeue(now, job, alloc);
  }
  void on_abandon(sim::Time now, const JobRun& job, int alloc) {
    for (int i = 0; i < counts_[idx(Hook::kAbandon)]; ++i)
      items_[idx(Hook::kAbandon)][i]->on_abandon(now, job, alloc);
  }
  void on_dedicated_move(sim::Time now, const JobRun& job) {
    for (int i = 0; i < counts_[idx(Hook::kDedicatedMove)]; ++i)
      items_[idx(Hook::kDedicatedMove)][i]->on_dedicated_move(now, job);
  }
  void on_checkpoint_replan(JobRun& job) {
    for (int i = 0; i < counts_[idx(Hook::kCheckpointReplan)]; ++i)
      items_[idx(Hook::kCheckpointReplan)][i]->on_checkpoint_replan(job);
  }
  void on_collect(SimulationResult& result) const {
    for (int i = 0; i < counts_[idx(Hook::kCollect)]; ++i)
      items_[idx(Hook::kCollect)][i]->on_collect(result);
  }
  void on_paranoid_check(const ParanoidSnapshot& snapshot) const {
    for (int i = 0; i < counts_[idx(Hook::kParanoidCheck)]; ++i)
      items_[idx(Hook::kParanoidCheck)][i]->on_paranoid_check(snapshot);
  }

 private:
  static constexpr int idx(Hook hook) { return static_cast<int>(hook); }

  EngineObserver* items_[kHookCount][kCapacity] = {};
  int counts_[kHookCount] = {};
  int count_ = 0;
};

}  // namespace es::sched
