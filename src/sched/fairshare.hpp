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
// Cost per cycle: one pass over the running set and one over the batch
// queue gather everything both phases need (pool universe, running
// allocations, per-pool heads, forced prefix, per-pool waiting lists) into
// member scratch that keeps its capacity, so a steady-state cycle never
// touches the heap.  The gather runs before relief: victims were running
// (in no list), re-enter at the queue tail and may not restart in the cycle
// that displaced them, so no re-gather is needed.  Selection stops as soon
// as less than one allocation grain is free — every job needs at least one,
// so nothing else can start — which makes a cycle on a full machine cost
// the two gather passes plus relief.
#pragma once

#include <unordered_map>
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

  void save_state(snap::SnapshotWriter& writer) const override;
  void restore_state(snap::SnapshotReader& reader) override;

 private:
  /// Cross-cycle starvation timer: when the pool first dropped below its
  /// share with pending demand (-1 = not currently below).
  struct PoolState {
    double below_share_since = -1;
  };
  /// Per-cycle working view of one pool.  `weight`/`min_share` are fixed
  /// at construction; the rest is reset by every cycle.
  struct PoolScratch {
    double weight = 1;
    double min_share = 0;
    double running = 0;       ///< processors held by the pool's running jobs
    JobRun* head = nullptr;   ///< first waiting job, forced ones included
    std::vector<JobRun*> waiting;  ///< non-forced jobs in queue order
    std::size_t next = 0;          ///< selection cursor into `waiting`
  };

  /// Scratch of pool `p`, growing the pool universe (default weight 1) for
  /// a tag beyond every pool seen so far.
  PoolScratch& pool_scratch(int p);

  /// Youngest-started running job of any pool currently above its
  /// entitlement (excluding `starving_pool`), eligible under the per-job
  /// preemption cap.  Null when no such victim exists.
  JobRun* pick_victim(const SchedulerContext& ctx, double total_weight,
                      double available, int starving_pool) const;

  FairShareConfig config_;
  std::vector<PoolState> pools_;
  /// Policy-initiated preemptions per job id (serialized; enforces
  /// max_preemptions_per_job across restores).
  std::unordered_map<workload::JobId, int> preempt_counts_;

  /// Initial capacity of each configured pool's waiting list (jobs); a
  /// deeper queue still grows it.
  static constexpr std::size_t kWaitingReserve = 128;

  // Per-cycle scratch, never serialized: reset at the top of every cycle
  // and kept at capacity so steady-state cycles do not allocate.
  std::vector<PoolScratch> scratch_;
  std::vector<JobRun*> forced_;  ///< forced-priority prefix, queue order
};

}  // namespace es::sched
