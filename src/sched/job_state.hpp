// Mutable runtime state of a job inside the scheduling engine.
//
// The record is laid out structure-of-arrays-style for the scheduler's hot
// loops: the first cache line carries exactly the fields the active-order
// comparator, the DP eligibility scan and the freeze walks touch (times,
// requirements, checkpoint bank, status); the second line carries the
// colder linkage (queue links, arrival, finish event, arena slot).  Fields
// the engine touches at most twice per job lifetime (end time, failure
// interruption count) live in a parallel cold array owned by JobRunArena
// (sched/job_arena.hpp), so a queue of a million waiting jobs stays two
// lines per record instead of dragging metrics-only bytes through the
// cache.  The immutable submission (workload::Job) is consumed when the
// shell is built; only its id and arrival survive here.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"
#include "workload/job.hpp"

namespace es::sched {

enum class JobStatus : std::uint8_t {
  kWaiting,    ///< in a waiting queue
  kRunning,    ///< allocated on the machine
  kCompleted,  ///< ran to its (possibly ECC-adjusted) natural end
  kKilled,     ///< hit its kill-by time before completing
  kAbandoned,  ///< preempted by a node failure and dropped (kAbandon policy)
};

/// Runtime record; owned by the engine's JobRunArena, referenced by
/// schedulers.  Two cache lines; see the layout static_asserts below.
struct alignas(64) JobRun {
  // --- hot line: everything the per-cycle loops read -----------------------

  // Current requirements — start equal to the submission, drift under ECCs.
  double req_time = 0;     ///< user-estimated execution time (kill-by basis)
  double actual_time = 0;  ///< true runtime the job would consume

  // Checkpoint/restart state (fault recovery layer).  Both fields stay 0
  // when the checkpoint model is disabled, which keeps every duration
  // formula below arithmetically identical to the checkpoint-free engine.
  // Hot because estimated_duration() — the active-order sort key — reads
  // them on every comparison.
  double ckpt_progress = 0;  ///< useful work banked by completed checkpoints;
                             ///< a requeued job resumes from here
  double ckpt_overhead_planned = 0;  ///< wall overhead folded into the
                                     ///< current attempt's duration

  sim::Time start_time = -1;
  workload::JobId id = 0;  ///< the submission's id (tie-breaks every order)

  int num = 0;             ///< requested processors
  int alloc = 0;           ///< processors occupied when running (rounded to
                           ///< the machine granularity); 0 while waiting

  // Delayed-LOS state.
  int scount = 0;          ///< cycles the job was skipped at queue head

  // Lifecycle.
  JobStatus status = JobStatus::kWaiting;
  bool forced_priority = false;  ///< set when a due dedicated job is moved to
                                 ///< the batch head (Algorithm 3)
  bool in_batch_queue = false;
  /// Fair-share pool tag (from workload::Job::pool, clamped to 8 bits).
  /// Ignored by every policy except FairShare; fills what used to be
  /// padding, so the hot-line layout is unchanged.
  std::uint8_t pool = 0;

  // --- second line: linkage and per-arrival constants ----------------------

  sim::Time arr = 0;         ///< submission arrival time
  sim::Time req_start = -1;  ///< dedicated requested start time (-1 batch)

  // Container back-references, so removal is O(1) instead of a linear scan.
  // The intrusive batch-queue links are owned by sched::JobQueue; the
  // active-array index is owned by the engine, which keeps it exact while
  // inserts/erases shift neighbours.  -1 / null while not enrolled.
  JobRun* queue_prev = nullptr;
  JobRun* queue_next = nullptr;
  sim::EventHandle finish_event{};
  std::int32_t active_index = -1;

  /// Slot in the owning JobRunArena; indexes the cold parallel array.
  std::uint32_t arena_slot = 0;

  // FairShare state, unused by every other policy.  The waiting view's
  // index is owned by FairShare, which keeps it exact as jobs join its
  // per-pool lists, start and are compacted: the job's position in its
  // pool's list, kViewForced for a forced-priority job the view has seen,
  // kViewUnseen while the view holds no entry for it.
  static constexpr std::int32_t kViewUnseen = -1;
  static constexpr std::int32_t kViewForced = -2;
  std::int32_t view_index = kViewUnseen;
  /// Times FairShare's starvation relief preempted this job (enforces
  /// FairShareConfig::max_preemptions_per_job).
  std::int32_t policy_preemptions = 0;

  bool dedicated() const { return req_start >= 0; }

  /// Useful work still to execute: the completion bound (natural end or
  /// kill-by time, whichever comes first) less work banked by checkpoints.
  double remaining_work() const {
    const double limit = req_time < actual_time ? req_time : actual_time;
    return limit > ckpt_progress ? limit - ckpt_progress : 0.0;
  }

  /// Wall duration of the current attempt: the remaining work plus the
  /// checkpoint overhead planned into it.  With checkpointing disabled this
  /// is exactly min(req_time, actual_time), the classic kill-by bound.
  double run_duration() const {
    return remaining_work() + ckpt_overhead_planned;
  }

  /// Estimate-basis duration of the current/next attempt (`req_time` less
  /// banked work, plus planned checkpoint overhead): what reservations,
  /// freezes and capacity profiles must plan with — they never see the true
  /// runtime.
  double estimated_duration() const {
    const double remaining =
        req_time > ckpt_progress ? req_time - ckpt_progress : 0.0;
    return remaining + ckpt_overhead_planned;
  }

  /// Residual execution time (`a.res` in the paper) at time `now`.
  /// Precondition: running.
  double residual(sim::Time now) const {
    const double end = start_time + run_duration();
    return end > now ? end - now : 0.0;
  }
};

// The layout contract the hot loops rely on: the comparator/eligibility
// fields share the first 64-byte line, and the whole record is exactly two
// lines so arena chunks tile cache-line boundaries.
static_assert(sizeof(JobRun) == 128, "JobRun must stay two cache lines");
static_assert(offsetof(JobRun, req_time) == 0);
static_assert(offsetof(JobRun, status) < 64,
              "eligibility fields must sit in the first cache line");
static_assert(offsetof(JobRun, arr) == 64,
              "linkage fields start the second cache line");

/// Metrics-only fields, touched once at finish/preempt and once at collect:
/// kept out of JobRun in a parallel array (indexed by JobRun::arena_slot)
/// so waiting/running records stay two dense cache lines.
struct JobRunCold {
  sim::Time end_time = -1;  ///< set when finished/killed/abandoned

  // Failure bookkeeping.
  int interruptions = 0;  ///< times a node failure preempted this job; a
                          ///< requeued job restarts from scratch, so its
                          ///< place in the FIFO order is policy-defined

  /// Commands for this job that have not yet dispatched (0 unless the
  /// engine processes ECCs).  A finished job's record is released the
  /// moment this hits zero, so late commands still find it (the
  /// EccProcessor's rejected-after-finish audit) while the arena's live set
  /// stays bounded by the jobs in flight.
  std::int32_t ecc_pending = 0;
};

}  // namespace es::sched
