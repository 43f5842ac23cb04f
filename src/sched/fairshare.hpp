// FairShare: multi-tenant pool-weighted fair-share scheduling with
// starvation-driven preemption (ROADMAP item 1; modelled on the ytsaurus
// fair-share strategy).
//
// Jobs carry a pool tag (JobRun::pool).  Each pool has a weight and an
// optional min share; its entitlement is weight / sum(weights) of the
// in-service machine.  The policy:
//
//   1. *Starvation relief* (optional): a pool with pending demand running
//      below its min share (or below tolerance x fair share) for longer
//      than the corresponding timeout gets capacity preempted back from
//      pools running above their entitlement — youngest-started victims
//      first, through the engine's preempt/requeue machinery (the victim
//      re-enters the batch queue at the tail, checkpoint banking applies).
//   2. *Fair-share selection*: waiting jobs are started in pool-ratio order
//      (pool with the lowest running/weight first, FIFO within a pool) with
//      EASY-style aggressive backfill: the first job that does not fit
//      becomes the pivot and gets a shadow reservation; later candidates
//      start only if they fit and respect it.
//
// Work conservation: selection never refuses a fitting job, so a single
// tenant still drives the machine to the same utilization as EASY.  With
// one pool (untagged workload) the ratio order degenerates to FIFO and no
// preemption ever triggers — FairShare behaves as plain EASY backfilling.
//
// Cost per cycle: the waiting view persists across cycles.  Each pool
// keeps its non-forced waiting jobs in queue order with each job's
// allocation in a parallel array (JobRun::view_index is the job's
// position).  A cycle appends only the jobs pushed since the last one: the
// engine changes the batch queue by push_back (arrivals, tail requeues),
// push_front (head requeues, always forced) and erase (start), so the new
// non-forced jobs are the unseen suffix of the queue, found walking back
// from its tail.  A started job's entry becomes a tombstone in O(1) and a
// list is compacted when its tombstones outnumber its live entries.  An
// EP/RP command on a waiting job (SchedulerContext::queued_resizes) makes
// the next cycle re-read every live entry's allocation; nothing else
// changes one.  Forced jobs are counted, not listed: a cycle walks the
// forced prefix from the queue head, and walks on to the last forced job
// only while one sits behind a non-forced job (a head-requeued job that
// ran again and was requeued at the tail).  The running set is walked
// once for the pools' running allocations.
//
// Relief reads the view before it preempts: victims were running (in no
// list), re-enter at the queue tail and may not restart in the cycle that
// displaced them, so they join the view in the next cycle.  Selection ranks
// the pools only after a start and then runs through the chosen pool's list
// until a job starts or the list ends: a cycle costs O(new jobs + visits +
// starts x pools), with no gather of the whole queue.  This is exact — a
// skipped visit or a new pivot moves no ratio and no other pool's cursor, so
// ranking again before each visit (ties included) would choose the same pool
// until it starts a job or runs dry.  Once the pivot is set, a visit can
// start only a job that fits the free capacity, so the run skips the others
// (and tombstones) in a loop over the allocation array alone, reading no
// JobRun.  Selection stops as soon as less than one allocation grain is free
// — every job needs at least one.  A steady-state cycle never touches the
// heap.
//
// One instance serves one run: the view indexes records the engine owns.
#pragma once

#include <cstdint>
#include <vector>

#include "sched/engine_config.hpp"
#include "sched/scheduler.hpp"

namespace es::sched {

class FairShare final : public Scheduler {
 public:
  explicit FairShare(const FairShareConfig& config);

  std::string name() const override { return "FairShare"; }
  bool supports_dedicated() const override { return false; }
  bool initiates_preemption() const override {
    return config_.preemption_enabled;
  }
  void cycle(SchedulerContext& ctx) override;

 private:
  /// One pool: configuration, the persistent waiting list and the view one
  /// cycle works on.
  struct Pool {
    double weight = 1;
    double min_share = 0;
    /// When the pool first dropped below its share with pending demand
    /// (-1 = not currently below); kept across cycles.
    double below_share_since = -1;

    // Persistent: non-forced waiting jobs in queue order, and the
    // allocation of each beside it (kDead for a started job's tombstone).
    std::vector<JobRun*> waiting;
    std::vector<int> allocs;
    std::size_t first = 0;  ///< every entry before it is a tombstone
    std::size_t dead = 0;   ///< tombstones in the list

    // Reset by every cycle.
    double running = 0;       ///< processors held by the pool's running jobs
    JobRun* head = nullptr;   ///< first waiting job, forced ones included
    std::size_t next = 0;     ///< selection cursor into `waiting`

    std::size_t live() const { return waiting.size() - dead; }
  };

  /// Pool `p`, growing the pool universe (default weight 1) for a tag
  /// beyond every pool seen so far.
  Pool& pool_at(int p);

  /// Brings the view up to the queue: appends the jobs pushed since the
  /// last cycle and re-reads allocations after an EP/RP on a waiting job.
  void update_view(const SchedulerContext& ctx);
  /// Drops every tombstone from `pool`'s list.
  static void compact(Pool& pool);
  /// Takes `job` out of the view as it starts.
  void leave_view(JobRun* job);

  /// Youngest-started running job of any pool currently above its
  /// entitlement (excluding `starving_pool`), eligible under the per-job
  /// preemption cap.  Null when no such victim exists.
  JobRun* pick_victim(const SchedulerContext& ctx, double total_weight,
                      double available, int starving_pool) const;

  FairShareConfig config_;
  std::vector<Pool> pools_;

  /// Initial capacity of each configured pool's waiting and alloc lists
  /// (jobs); a deeper queue still grows them.
  static constexpr std::size_t kWaitingReserve = 128;

  bool viewing_ = false;              ///< false until the first cycle
  std::size_t forced_waiting_ = 0;    ///< forced jobs in the queue
  std::uint64_t queued_resizes_ = 0;  ///< ctx.queued_resizes last seen
  std::vector<JobRun*> forced_;       ///< per cycle: forced jobs, queue order
};

}  // namespace es::sched
