// Elastic Control Command processor (paper sections III-C and IV).
//
// ECCs arrive on their own 'elastic control queue' and are applied FCFS.
// An ET/RT command changes the target job's user-estimated execution time —
// and therefore its kill-by time and true runtime — whether the job is still
// queued or already running.  EP/RP (the paper's future-work resource
// dimension, which CWF already encodes) resize *queued* jobs; a running job
// cannot change shape without migration on a BlueGene-class machine.
#pragma once

#include <cstdint>
#include <vector>

#include "sched/job_state.hpp"
#include "workload/ecc.hpp"

namespace es::sched {

/// Outcome of applying one command, for logging/metrics.
enum class EccOutcome {
  kAppliedQueued,     ///< adjusted a waiting job
  kAppliedRunning,    ///< adjusted a running job (finish event rescheduled)
  kResizedRunning,    ///< EP/RP resized a running job (engine must resize
                      ///< the allocation and reschedule completion)
  kCompletedJob,      ///< RT shrank a running job to/below its elapsed time
  kRejectedFinished,  ///< target already completed/killed
  kRejectedShape,     ///< EP/RP on a running job (rigid mode)
  kRejectedBounds,    ///< would leave the job with no time / invalid size,
                      ///< a growth that does not fit the free pool, or a
                      ///< malformed (negative / non-finite) amount
  kSkippedConflict,   ///< contradicts an earlier same-instant command for
                      ///< the same job in the same dimension (first wins)
};

/// Statistics over all processed commands.
struct EccStats {
  std::uint64_t processed = 0;
  std::uint64_t extensions = 0;
  std::uint64_t reductions = 0;
  std::uint64_t rejected = 0;
  std::uint64_t unknown_job = 0;   ///< commands naming a job id that is not
                                   ///< in the workload (skipped with a
                                   ///< warning; tallied by the engine's
                                   ///< EccAuditObserver attachment)
  std::uint64_t after_finish = 0;  ///< commands arriving after the target
                                   ///< completed / was killed / abandoned
  std::uint64_t running_resizes = 0;  ///< EP/RP applied to running jobs
  std::uint64_t conflicts = 0;  ///< same-instant contradictory/duplicate
                                ///< commands skipped (first per job and
                                ///< dimension wins; counted separately
                                ///< from `rejected`)
  double time_added = 0;    ///< net seconds added by ET
  double time_removed = 0;  ///< net seconds removed by RT
  double procs_added = 0;   ///< net processors added by EP
  double procs_removed = 0; ///< net processors removed by RP
};

/// Applies commands to job state.  The engine owns the instance and invokes
/// it at each command's issue time (the simulation's event order *is* the
/// FCFS elastic control queue).
class EccProcessor {
 public:
  /// `machine_total`/`granularity` bound EP/RP resizing.
  EccProcessor(int machine_total, int granularity)
      : machine_total_(machine_total), granularity_(granularity) {}

  /// Enables EP/RP on *running* jobs (the paper's section-VI extension,
  /// implemented work-conservingly: remaining work procs x time is
  /// preserved, so shrinking stretches the remaining runtime and growing
  /// compresses it).  Off by default — BlueGene-class machines cannot
  /// reshape a running partition without migration.
  void set_running_resize(bool enabled) { running_resize_ = enabled; }
  bool running_resize() const { return running_resize_; }

  /// Applies `ecc` to `job` at time `now`.  `free_procs` is the machine's
  /// current free pool, needed to admit EP growth of a running job.  Does
  /// not touch the machine or the event queue: the returned outcome tells
  /// the engine whether to reschedule the job's finish event
  /// (kAppliedRunning), resize its allocation and reschedule
  /// (kResizedRunning), or finish it immediately (kCompletedJob).
  ///
  /// Same-instant conflict shield: when several commands target the same
  /// job at the same issue instant, the first one per dimension (time for
  /// ET/RT, processors for EP/RP) wins and the rest return
  /// kSkippedConflict — a contradictory extend/reduce pair or a duplicate
  /// in one CWF batch must not see order-dependent partial application.
  /// The engine dispatches commands in normalized (issue, job id) order,
  /// so same-group commands reach apply() contiguously.
  ///
  /// Malformed amounts (negative or non-finite) are rejected with
  /// kRejectedBounds rather than asserted: commands are external input.
  EccOutcome apply(const workload::Ecc& ecc, JobRun& job, sim::Time now,
                   int free_procs = 0);

  /// This ledger only covers commands that reached apply(); commands whose
  /// job id resolved to nothing never get here — the EccAuditObserver
  /// attachment counts those and merges them into the result's EccStats.
  const EccStats& stats() const { return stats_; }

 private:
  EccOutcome resize(const workload::Ecc& ecc, JobRun& job, sim::Time now,
                    int free_procs);

  int machine_total_;
  int granularity_;
  bool running_resize_ = false;
  EccStats stats_;
  // Same-instant conflict-shield state: the (job, instant) group of the
  // last command and which dimensions it already claimed.
  workload::JobId group_job_ = 0;
  sim::Time group_time_ = -1;
  bool group_time_dim_ = false;
  bool group_proc_dim_ = false;
};

}  // namespace es::sched
