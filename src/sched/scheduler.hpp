// Scheduler policy interface and the per-cycle view handed to policies.
//
// The engine invokes `cycle()` at every event (arrival, completion, ECC,
// dedicated start due).  A policy inspects the queues and the machine and
// calls `start(job)` for every waiting job it activates *now*; reservations
// are implicit (recomputed each cycle), exactly as in EASY/LOS.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cluster/machine.hpp"
#include "sched/job_queue.hpp"
#include "sched/job_state.hpp"
#include "sched/perf.hpp"
#include "sim/time.hpp"

namespace es::snap {
class SnapshotWriter;
class SnapshotReader;
}  // namespace es::snap

namespace es::sched {

/// View of the system at one scheduling cycle.
//
// Queue discipline (paper 'Notations' box):
//  * batch  — FIFO by arrival (W^b)
//  * dedicated — sorted by requested start time (W^d)
//  * active — sorted ascending by residual execution time (A)
class SchedulerContext {
 public:
  sim::Time now = 0;
  const cluster::Machine* machine = nullptr;
  JobQueue* batch = nullptr;
  std::vector<JobRun*>* dedicated = nullptr;
  /// Live view of the engine's running set, kept incrementally sorted by
  /// (planned end, job id) — ascending estimated residual.  start() inserts
  /// the new runner in order, so freeze math within a cycle always sees the
  /// current set; no per-cycle snapshot or re-sort happens.
  const std::vector<JobRun*>* active = nullptr;

  /// Activates a waiting job now: engine removes it from its queue,
  /// allocates processors and schedules its completion.  The machine state
  /// visible through `machine` reflects the allocation immediately.
  std::function<void(JobRun*)> start;

  /// Moves the dedicated-queue head to the batch-queue head (Algorithm 3).
  /// The moved job keeps its arrival time and gets scount = C_s so it is
  /// started as soon as it fits.
  std::function<void()> move_dedicated_head_to_batch_head;

  /// Policy-initiated preemption (fair-share starvation relief): the engine
  /// stops the running job, cancels its completion, releases its
  /// processors, routes the full PreemptInfo through the attachment chain
  /// (checkpoint banking, failure/waste accounting) and requeues it at the
  /// batch *tail* — the same machinery node failures use, minus the outage.
  /// Precondition: job->status == kRunning.  Only policies returning true
  /// from initiates_preemption() may call this.
  std::function<void(JobRun*)> preempt;

  /// Free (unreserved) processors right now — the paper's `m`.
  int free() const { return machine->free(); }

  /// Processors a job occupies on this machine (requested size rounded up
  /// to the allocation granularity).  All capacity arithmetic in the
  /// policies uses this effective size.
  int alloc_of(const JobRun& job) const {
    return machine->allocation_for(job.num);
  }

  JobRun* batch_head() const { return batch->empty() ? nullptr : batch->front(); }
  JobRun* dedicated_head() const {
    return dedicated->empty() ? nullptr : dedicated->front();
  }
};

/// Policy interface.  Implementations are stateless across runs except for
/// tunables (C_s, lookahead) and reusable DP workspaces.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Human-readable algorithm name ("Delayed-LOS", "EASY-D", ...).
  virtual std::string name() const = 0;

  /// One scheduling cycle; may start any number of waiting jobs.
  virtual void cycle(SchedulerContext& ctx) = 0;

  /// Whether the policy understands the dedicated queue.  The engine rejects
  /// heterogeneous workloads on policies that do not.
  virtual bool supports_dedicated() const { return false; }

  /// Whether the policy may call SchedulerContext::preempt.  The engine
  /// attaches the failure-stats ledger for such policies even without fault
  /// injection, so preempted (wasted) work is always accounted.
  virtual bool initiates_preemption() const { return false; }

  /// Cumulative knapsack-kernel counters over this instance's lifetime
  /// (zero for policies without DP kernels).  The engine snapshots them at
  /// run start and reports the per-run delta in SimulationResult::perf.
  virtual DpCounters dp_counters() const { return {}; }

  // Vestiges of the retired DP result cache and speculative DP pipeline:
  // nothing in src/ calls or overrides these five, but the benchmark's
  // TimedScheduler still forwards them.  They go with the benchmark/ change
  // of ROADMAP items 1 and 8.
  virtual void set_dp_cache(bool /*enabled*/) {}
  virtual void set_dp_cache_slots(std::size_t /*slots*/) {}
  virtual void speculate(const SchedulerContext& /*ctx*/) {}
  virtual void settle_speculation() {}
  virtual void finish_speculation() {}

  /// Serializes policy state that influences *future* scheduling decisions
  /// into the open snapshot section.  Most policies are stateless across
  /// cycles (tunables are reconstructed from config; caches rebuild
  /// deterministically), so the default writes nothing.  Policies with
  /// semantic cross-cycle state — the adaptive selector's sliding decision
  /// window — must override both hooks or a restored run would silently
  /// diverge.
  virtual void save_state(snap::SnapshotWriter& /*writer*/) const {}

  /// Restores state written by save_state() from the open section.
  virtual void restore_state(snap::SnapshotReader& /*reader*/) {}
};

}  // namespace es::sched
