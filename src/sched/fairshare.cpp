#include "sched/fairshare.hpp"

#include <algorithm>

#include "sched/reservation.hpp"
#include "util/check.hpp"

namespace es::sched {

FairShare::FairShare(const FairShareConfig& config) : config_(config) {
  ES_EXPECTS(config_.fair_share_starvation_tolerance >= 0 &&
             config_.fair_share_starvation_tolerance <= 1);
  pools_.resize(std::max<std::size_t>(config_.pools.size(), 1));
  scratch_.resize(pools_.size());
  for (std::size_t p = 0; p < config_.pools.size(); ++p) {
    scratch_[p].weight = config_.pools[p].weight;
    scratch_[p].min_share = config_.pools[p].min_share;
  }
  // Size the waiting lists before the run's long-lived structures exist.
  // Lists that first grow mid-run pin small blocks between the engine's
  // growing buffers; on the tenant_faults benchmark shape that heap
  // fragmentation raised peak RSS by about 4%.
  for (PoolScratch& s : scratch_) {
    s.waiting.reserve(kWaitingReserve);
    s.allocs.reserve(kWaitingReserve);
  }
}

FairShare::PoolScratch& FairShare::pool_scratch(int p) {
  const std::size_t index = static_cast<std::size_t>(p);
  if (index >= scratch_.size()) scratch_.resize(index + 1);
  return scratch_[index];
}

JobRun* FairShare::pick_victim(const SchedulerContext& ctx,
                               double total_weight, double available,
                               int starving_pool) const {
  JobRun* victim = nullptr;
  for (JobRun* job : *ctx.active) {
    const int p = job->pool;
    if (p == starving_pool) continue;
    const PoolScratch& s = scratch_[static_cast<std::size_t>(p)];
    const double entitlement = s.weight / total_weight * available;
    if (s.running <= entitlement) continue;
    if (config_.max_preemptions_per_job > 0) {
      const auto it = preempt_counts_.find(job->id);
      if (it != preempt_counts_.end() &&
          it->second >= config_.max_preemptions_per_job)
        continue;
    }
    // Youngest attempt loses the least work; id tie-break for determinism.
    if (victim == nullptr || job->start_time > victim->start_time ||
        (job->start_time == victim->start_time && job->id > victim->id))
      victim = job;
  }
  return victim;
}

void FairShare::cycle(SchedulerContext& ctx) {
  // --- gather: one pass over the running set, one over the batch queue ----
  for (PoolScratch& s : scratch_) {
    s.running = 0;
    s.head = nullptr;
    s.waiting.clear();
    s.allocs.clear();
    s.next = 0;
  }
  forced_.clear();
  int max_pool = -1;
  for (const JobRun* job : *ctx.active) {
    pool_scratch(job->pool).running += job->alloc;
    max_pool = std::max<int>(max_pool, job->pool);
  }
  // The waiting lists are gathered before starvation relief, in the same
  // pass as the heads relief needs, and not re-gathered after it.  Relief
  // only adds to the queue: each victim was running, so it is in no list,
  // and it re-enters at the batch *tail*.  A victim must not restart in the
  // cycle that displaced it, so a post-relief gather would only append jobs
  // selection skips; every other job is visited in the same order either
  // way.  forced_priority jobs (head-requeued after a failure) keep
  // absolute priority in queue order, as in every other policy.
  JobRun* queue_head = nullptr;  // oldest non-forced waiting job
  for (JobRun* job : *ctx.batch) {
    PoolScratch& s = pool_scratch(job->pool);
    max_pool = std::max<int>(max_pool, job->pool);
    if (s.head == nullptr) s.head = job;
    if (job->forced_priority) {
      forced_.push_back(job);
    } else {
      if (queue_head == nullptr) queue_head = job;
      s.waiting.push_back(job);
      s.allocs.push_back(ctx.alloc_of(*job));
    }
  }
  const int npools = std::max({static_cast<int>(config_.pools.size()),
                               max_pool + 1, 1});
  if (static_cast<int>(pools_.size()) < npools)
    pools_.resize(static_cast<std::size_t>(npools));
  double total_weight = 0;
  for (int p = 0; p < npools; ++p)
    total_weight += scratch_[static_cast<std::size_t>(p)].weight;

  // --- starvation relief --------------------------------------------------
  if (config_.preemption_enabled && npools > 1 && ctx.preempt) {
    const double available = ctx.machine->available();
    for (int p = 0; p < npools; ++p) {
      PoolState& state = pools_[static_cast<std::size_t>(p)];
      const PoolScratch& s = scratch_[static_cast<std::size_t>(p)];
      if (s.head == nullptr) {
        // No pending demand: a pool cannot starve on jobs it does not have.
        state.below_share_since = -1;
        continue;
      }
      const double entitlement = s.weight / total_weight * available;
      const double min_procs = s.min_share * available;
      const bool below_min = min_procs > 0 && s.running < min_procs;
      const bool below_fair =
          s.running < config_.fair_share_starvation_tolerance * entitlement;
      if (!below_min && !below_fair) {
        state.below_share_since = -1;
        continue;
      }
      if (state.below_share_since < 0) state.below_share_since = ctx.now;
      const double timeout = below_min
                                 ? config_.min_share_preemption_timeout
                                 : config_.fair_share_preemption_timeout;
      if (ctx.now - state.below_share_since < timeout) continue;

      // Starving: claw back capacity for this pool's first waiting job.
      const int need = ctx.alloc_of(*s.head);
      while (ctx.free() < need) {
        JobRun* victim = pick_victim(ctx, total_weight, available, p);
        if (victim == nullptr) break;
        scratch_[static_cast<std::size_t>(victim->pool)].running -=
            victim->alloc;
        if (config_.max_preemptions_per_job > 0)
          ++preempt_counts_[victim->id];
        ctx.preempt(victim);
      }
      // Relief attempted; the starvation clock restarts so the next
      // preemption on this pool's behalf waits a full timeout again.
      state.below_share_since = ctx.now;
    }
  }

  // --- fair-share selection with EASY-style backfill ----------------------
  // Every job occupies at least one allocation grain, so once less than a
  // grain is free no later visit can start anything; the pivot's shadow
  // reservation lives only within this cycle, so dropping the remaining
  // visits changes no decision.
  const int grain = ctx.machine->granularity();
  if (ctx.free() < grain) return;

  Freeze shadow;
  bool have_pivot = false;
  // Visits `job`, which occupies `alloc` processors; true when it started.
  const auto try_start = [&](JobRun* job, int alloc) {
    if (!have_pivot) {
      if (alloc <= ctx.free()) {
        ctx.start(job);
        scratch_[static_cast<std::size_t>(job->pool)].running += alloc;
        return true;
      }
      // First blocked job becomes the pivot with the classic shadow
      // reservation (skip when the need exceeds in-service capacity — no
      // completion chain can seat it until nodes come back).
      if (alloc <= ctx.machine->available())
        shadow = shadow_for_blocked(ctx, alloc);
      have_pivot = true;
      return false;
    }
    if (alloc <= ctx.free() && respects(shadow, ctx.now, *job, alloc)) {
      consume(shadow, ctx.now, *job, alloc);
      ctx.start(job);
      scratch_[static_cast<std::size_t>(job->pool)].running += alloc;
      return true;
    }
    return false;
  };

  for (JobRun* job : forced_) {
    try_start(job, ctx.alloc_of(*job));
    if (ctx.free() < grain) return;
  }

  // The batch-queue head keeps EASY's guarantee: it starts now or holds
  // the machine's shadow reservation.  Without this, a job in a
  // permanently over-share pool is visited last every cycle and can starve
  // without bound — the ratio order below only decides who *backfills*.
  if (queue_head != nullptr) {
    // The head is the front of its pool's (queue-ordered) waiting list.
    PoolScratch& s = scratch_[static_cast<std::size_t>(queue_head->pool)];
    s.next = 1;
    try_start(queue_head, s.allocs.front());
  }

  // Greedy pool-ratio order: visit the first unvisited waiting job of the
  // pool with the lowest running/weight ratio (lowest pool index on ties),
  // every waiting job at most once per cycle.  The ranking is redone only
  // after a start or when the chosen pool's list runs out: a skipped visit
  // or a new pivot moves no ratio and no other pool's cursor, so ranking
  // again would choose the same pool, ties included.
  while (ctx.free() >= grain) {
    int best = -1;
    double best_ratio = 0;
    for (int p = 0; p < npools; ++p) {
      const PoolScratch& s = scratch_[static_cast<std::size_t>(p)];
      if (s.next >= s.waiting.size()) continue;
      const double ratio = s.running / s.weight;
      if (best < 0 || ratio < best_ratio - 1e-12) {
        best = p;
        best_ratio = ratio;
      }
    }
    if (best < 0) break;
    PoolScratch& s = scratch_[static_cast<std::size_t>(best)];
    while (s.next < s.waiting.size()) {
      const std::size_t i = s.next++;
      if (try_start(s.waiting[i], s.allocs[i])) break;
    }
  }
}

}  // namespace es::sched
