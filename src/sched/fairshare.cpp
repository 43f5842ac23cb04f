#include "sched/fairshare.hpp"

#include <algorithm>
#include <limits>

#include "sched/reservation.hpp"
#include "util/check.hpp"

namespace es::sched {

namespace {

/// Allocation of a started job's tombstone: larger than any free capacity,
/// so the post-pivot skip loop passes over it with the jobs that do not
/// fit.
constexpr int kDead = std::numeric_limits<int>::max();

}  // namespace

FairShare::FairShare(const FairShareConfig& config) : config_(config) {
  ES_EXPECTS(config_.fair_share_starvation_tolerance >= 0 &&
             config_.fair_share_starvation_tolerance <= 1);
  pools_.resize(std::max<std::size_t>(config_.pools.size(), 1));
  for (std::size_t p = 0; p < config_.pools.size(); ++p) {
    pools_[p].weight = config_.pools[p].weight;
    pools_[p].min_share = config_.pools[p].min_share;
  }
  // Size the waiting lists before the run's long-lived structures exist.
  // Lists that first grow mid-run pin small blocks between the engine's
  // growing buffers; on the tenant_faults benchmark shape that heap
  // fragmentation raised peak RSS by about 4%.
  for (Pool& pool : pools_) {
    pool.waiting.reserve(kWaitingReserve);
    pool.allocs.reserve(kWaitingReserve);
  }
}

FairShare::Pool& FairShare::pool_at(int p) {
  const std::size_t index = static_cast<std::size_t>(p);
  if (index >= pools_.size()) pools_.resize(index + 1);
  return pools_[index];
}

void FairShare::compact(Pool& pool) {
  std::size_t out = 0;
  for (std::size_t i = pool.first; i < pool.waiting.size(); ++i) {
    if (pool.allocs[i] == kDead) continue;
    JobRun* job = pool.waiting[i];
    job->view_index = static_cast<std::int32_t>(out);
    pool.waiting[out] = job;
    pool.allocs[out] = pool.allocs[i];
    ++out;
  }
  pool.waiting.resize(out);
  pool.allocs.resize(out);
  pool.first = 0;
  pool.dead = 0;
}

void FairShare::leave_view(JobRun* job) {
  if (job->forced_priority) {
    ES_ASSERT(job->view_index == JobRun::kViewForced && forced_waiting_ > 0);
    --forced_waiting_;
  } else {
    Pool& pool = pools_[job->pool];
    const auto index = static_cast<std::size_t>(job->view_index);
    ES_ASSERT(index < pool.waiting.size() && pool.waiting[index] == job);
    pool.allocs[index] = kDead;
    ++pool.dead;
  }
  job->view_index = JobRun::kViewUnseen;
}

void FairShare::update_view(const SchedulerContext& ctx) {
  const JobQueue& queue = *ctx.batch;
  // Head requeues since the last cycle: unseen forced jobs at the front.
  for (JobRun* job = queue.front(); job != nullptr &&
                                    job->view_index == JobRun::kViewUnseen &&
                                    job->forced_priority;
       job = job->queue_next) {
    job->view_index = JobRun::kViewForced;
    ++forced_waiting_;
  }
  // Arrivals and tail requeues since the last cycle: the unseen suffix.
  const JobRun* seen = queue.back();
  while (seen != nullptr && seen->view_index == JobRun::kViewUnseen)
    seen = seen->queue_prev;
  for (JobRun* job = seen != nullptr ? seen->queue_next : queue.front();
       job != nullptr; job = job->queue_next) {
    if (job->forced_priority) {
      job->view_index = JobRun::kViewForced;
      ++forced_waiting_;
    } else {
      Pool& pool = pool_at(job->pool);
      job->view_index = static_cast<std::int32_t>(pool.waiting.size());
      pool.waiting.push_back(job);
      pool.allocs.push_back(ctx.alloc_of(*job));
    }
  }
  // An EP/RP command resized a waiting job: re-read every allocation.
  if (ctx.queued_resizes != queued_resizes_) {
    queued_resizes_ = ctx.queued_resizes;
    for (Pool& pool : pools_)
      for (std::size_t i = pool.first; i < pool.waiting.size(); ++i)
        if (pool.allocs[i] != kDead)
          pool.allocs[i] = ctx.alloc_of(*pool.waiting[i]);
  }
}

JobRun* FairShare::pick_victim(const SchedulerContext& ctx,
                               double total_weight, double available,
                               int starving_pool) const {
  const int cap = config_.max_preemptions_per_job;
  JobRun* victim = nullptr;
  for (JobRun* job : *ctx.active) {
    const int p = job->pool;
    if (p == starving_pool) continue;
    const Pool& s = pools_[static_cast<std::size_t>(p)];
    const double entitlement = s.weight / total_weight * available;
    if (s.running <= entitlement) continue;
    if (cap > 0 && job->policy_preemptions >= cap) continue;
    // Youngest attempt loses the least work; id tie-break for determinism.
    if (victim == nullptr || job->start_time > victim->start_time ||
        (job->start_time == victim->start_time && job->id > victim->id))
      victim = job;
  }
  return victim;
}

void FairShare::cycle(SchedulerContext& ctx) {
  // --- the waiting view ---------------------------------------------------
  if (!viewing_) {
    // A new instance holds no entry, whatever index an earlier instance
    // left in the records of the jobs already queued.
    for (JobRun* job : *ctx.batch) job->view_index = JobRun::kViewUnseen;
    viewing_ = true;
  }
  for (Pool& pool : pools_) {
    if (pool.dead > pool.live()) compact(pool);
    while (pool.first < pool.waiting.size() &&
           pool.allocs[pool.first] == kDead)
      ++pool.first;
    pool.running = 0;
    pool.head = nullptr;
  }
  update_view(ctx);
  int max_pool = -1;
  for (const JobRun* job : *ctx.active) {
    pool_at(job->pool).running += job->alloc;
    max_pool = std::max<int>(max_pool, job->pool);
  }
  // forced_priority jobs (head-requeued after a failure) keep absolute
  // priority in queue order, as in every other policy.  The walk from the
  // head finds them all unless one sits behind a non-forced job; then it
  // goes on to the last one, taking each pool's first waiting job on the
  // way as its head.
  forced_.clear();
  JobRun* queue_head = ctx.batch->front();  // oldest non-forced waiting job
  if (forced_waiting_ > 0) {
    const auto visit_forced = [&](JobRun* job) {
      forced_.push_back(job);
      Pool& pool = pool_at(job->pool);
      if (pool.head == nullptr) pool.head = job;
      max_pool = std::max<int>(max_pool, job->pool);
    };
    while (queue_head != nullptr && queue_head->forced_priority) {
      visit_forced(queue_head);
      queue_head = queue_head->queue_next;
    }
    for (JobRun* job = queue_head;
         forced_.size() < forced_waiting_ && job != nullptr;
         job = job->queue_next) {
      if (job->forced_priority) {
        visit_forced(job);
      } else {
        Pool& pool = pools_[job->pool];
        if (pool.head == nullptr) pool.head = job;
      }
    }
    ES_ASSERT(forced_.size() == forced_waiting_);
  }
  // A pool's first live entry is its head unless a forced job came first.
  for (std::size_t p = 0; p < pools_.size(); ++p) {
    Pool& pool = pools_[p];
    pool.next = pool.first;
    if (pool.live() == 0) continue;
    if (pool.head == nullptr) pool.head = pool.waiting[pool.first];
    max_pool = std::max<int>(max_pool, static_cast<int>(p));
  }
  const int npools = std::max({static_cast<int>(config_.pools.size()),
                               max_pool + 1, 1});
  double total_weight = 0;
  for (int p = 0; p < npools; ++p)
    total_weight += pools_[static_cast<std::size_t>(p)].weight;

  // --- starvation relief --------------------------------------------------
  if (config_.preemption_enabled && npools > 1 && ctx.preempt) {
    const double available = ctx.machine->available();
    for (int p = 0; p < npools; ++p) {
      Pool& s = pools_[static_cast<std::size_t>(p)];
      if (s.head == nullptr) {
        // No pending demand: a pool cannot starve on jobs it does not have.
        s.below_share_since = -1;
        continue;
      }
      const double entitlement = s.weight / total_weight * available;
      const double min_procs = s.min_share * available;
      const bool below_min = min_procs > 0 && s.running < min_procs;
      const bool below_fair =
          s.running < config_.fair_share_starvation_tolerance * entitlement;
      if (!below_min && !below_fair) {
        s.below_share_since = -1;
        continue;
      }
      if (s.below_share_since < 0) s.below_share_since = ctx.now;
      const double timeout = below_min
                                 ? config_.min_share_preemption_timeout
                                 : config_.fair_share_preemption_timeout;
      if (ctx.now - s.below_share_since < timeout) continue;

      // Starving: claw back capacity for this pool's first waiting job.
      const int need = ctx.alloc_of(*s.head);
      while (ctx.free() < need) {
        JobRun* victim = pick_victim(ctx, total_weight, available, p);
        if (victim == nullptr) break;
        pools_[static_cast<std::size_t>(victim->pool)].running -=
            victim->alloc;
        ++victim->policy_preemptions;
        ctx.preempt(victim);
      }
      // Relief attempted; the starvation clock restarts so the next
      // preemption on this pool's behalf waits a full timeout again.
      s.below_share_since = ctx.now;
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
  const auto start = [&](JobRun* job, int alloc) {
    leave_view(job);
    pools_[job->pool].running += alloc;
    ctx.start(job);
  };
  // Visits `job`, which occupies `alloc` processors; true when it started.
  const auto try_start = [&](JobRun* job, int alloc) {
    if (!have_pivot) {
      if (alloc <= ctx.free()) {
        start(job, alloc);
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
      start(job, alloc);
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
    // The head is the first live entry of its pool's (queue-ordered) list.
    Pool& s = pools_[queue_head->pool];
    const auto index = static_cast<std::size_t>(queue_head->view_index);
    ES_ASSERT(index == s.first);
    s.next = index + 1;
    try_start(queue_head, s.allocs[index]);
  }

  // Greedy pool-ratio order: visit the first unvisited waiting job of the
  // pool with the lowest running/weight ratio (lowest pool index on ties),
  // every waiting job at most once per cycle.  The ranking is redone only
  // after a start or when the chosen pool's list runs out: a skipped visit
  // or a new pivot moves no ratio and no other pool's cursor, so ranking
  // again would choose the same pool, ties included.  A pool whose
  // remaining entries are all tombstones may be chosen once and run dry
  // without a visit; the next ranking excludes it, as if it never ranked.
  while (ctx.free() >= grain) {
    int best = -1;
    double best_ratio = 0;
    for (int p = 0; p < npools; ++p) {
      const Pool& s = pools_[static_cast<std::size_t>(p)];
      if (s.next >= s.waiting.size()) continue;
      const double ratio = s.running / s.weight;
      if (best < 0 || ratio < best_ratio - 1e-12) {
        best = p;
        best_ratio = ratio;
      }
    }
    if (best < 0) break;
    Pool& s = pools_[static_cast<std::size_t>(best)];
    const int* allocs = s.allocs.data();
    const std::size_t n = s.allocs.size();
    std::size_t i = s.next;
    while (i < n) {
      if (have_pivot) {
        // Past the pivot only a job that fits the free capacity can start.
        const int free = ctx.free();
        while (i < n && allocs[i] > free) ++i;
        if (i == n) break;
      } else if (allocs[i] == kDead) {
        ++i;
        continue;
      }
      const std::size_t k = i++;
      if (try_start(s.waiting[k], allocs[k])) break;
    }
    s.next = i;
  }
}

}  // namespace es::sched
