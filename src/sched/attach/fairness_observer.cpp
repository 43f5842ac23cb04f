#include "sched/attach/fairness_observer.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "sched/metrics.hpp"
#include "util/check.hpp"

namespace es::sched {
namespace {

/// Nearest-rank quantile over an already-sorted sample.
double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const double rank = q * static_cast<double>(sorted.size());
  std::size_t index = static_cast<std::size_t>(std::ceil(rank));
  if (index > 0) --index;
  if (index >= sorted.size()) index = sorted.size() - 1;
  return sorted[index];
}

}  // namespace

FairnessObserver::FairnessObserver(const FairShareConfig& config,
                                   int machine_procs)
    : config_(config), machine_procs_(machine_procs) {
  ES_EXPECTS(machine_procs_ > 0);
  ensure_pool(static_cast<int>(config_.pools.size()) - 1);
}

void FairnessObserver::ensure_pool(int pool) {
  if (pool < 0) return;
  const std::size_t need = static_cast<std::size_t>(pool) + 1;
  if (pending_.size() >= need) return;
  pending_.resize(need, 0);
  running_alloc_.resize(need, 0);
  backlogged_seconds_.resize(need, 0);
  service_integral_.resize(need, 0);
  waits_.resize(need);
}

double FairnessObserver::weight_of(std::size_t pool) const {
  return pool < config_.pools.size() ? config_.pools[pool].weight : 1.0;
}

void FairnessObserver::advance(sim::Time now) {
  if (!clock_started_) {
    clock_started_ = true;
    last_time_ = now;
    return;
  }
  const double dt = now - last_time_;
  if (dt > 0) {
    for (std::size_t p = 0; p < pending_.size(); ++p) {
      if (pending_[p] == 0) continue;
      backlogged_seconds_[p] += dt;
      service_integral_[p] += running_alloc_[p] * dt;
    }
    last_time_ = now;
  }
}

void FairnessObserver::mark_waiting(sim::Time now, const JobRun& job) {
  ensure_pool(job.pool);
  if (job.arena_slot >= waiting_.size()) waiting_.resize(job.arena_slot + 1);
  waiting_[job.arena_slot] = Waiting{true, job.pool, job.id, now};
  ++pending_[static_cast<std::size_t>(job.pool)];
}

const FairnessObserver::Waiting* FairnessObserver::take_waiting(
    const JobRun& job) {
  if (job.arena_slot >= waiting_.size()) return nullptr;
  Waiting& entry = waiting_[job.arena_slot];
  if (!entry.waiting || entry.id != job.id) return nullptr;
  entry.waiting = false;
  return &entry;
}

void FairnessObserver::on_arrival(sim::Time now, const JobRun& job) {
  advance(now);
  // Dedicated jobs are excluded: their start time is user-mandated, so the
  // scheduler cannot be fair or unfair to them.
  if (!job.dedicated()) mark_waiting(now, job);
}

void FairnessObserver::on_start(sim::Time now, const JobRun& job,
                                bool /*backfilled*/) {
  advance(now);
  ensure_pool(job.pool);
  const std::size_t p = static_cast<std::size_t>(job.pool);
  if (const Waiting* entry = take_waiting(job)) {
    waits_[p].push_back(now - entry->since);
    ES_EXPECTS(pending_[static_cast<std::size_t>(entry->pool)] > 0);
    --pending_[static_cast<std::size_t>(entry->pool)];
  }
  running_alloc_[p] += job.alloc;
}

void FairnessObserver::on_finish(sim::Time now, const JobRun& job) {
  advance(now);
  ensure_pool(job.pool);
  if (const Waiting* entry = take_waiting(job)) {
    // Finished without ever starting (e.g. an ECC collapsed the job while it
    // was queued): close the pending entry without a wait sample.
    --pending_[static_cast<std::size_t>(entry->pool)];
    return;
  }
  running_alloc_[static_cast<std::size_t>(job.pool)] -= job.alloc;
}

void FairnessObserver::on_preempt(sim::Time now, PreemptInfo& info) {
  advance(now);
  ensure_pool(info.job->pool);
  running_alloc_[static_cast<std::size_t>(info.job->pool)] -= info.job->alloc;
}

void FairnessObserver::on_requeue(sim::Time now, const JobRun& job,
                                  int /*alloc*/) {
  advance(now);
  // The new wait starts now: a preempted tenant queues again.
  mark_waiting(now, job);
}

void FairnessObserver::on_abandon(sim::Time now, const JobRun& job,
                                  int /*alloc*/) {
  advance(now);
  if (const Waiting* entry = take_waiting(job))
    --pending_[static_cast<std::size_t>(entry->pool)];
}

void FairnessObserver::on_collect(SimulationResult& result) const {
  FairnessStats& out = result.perf.fairness;
  out.collected = true;
  out.pools.clear();
  const std::size_t npools = pending_.size();
  if (npools == 0) {
    out.jain = 1.0;
    return;
  }
  double total_weight = 0;
  for (std::size_t p = 0; p < npools; ++p) total_weight += weight_of(p);

  double sum = 0, sum_sq = 0;
  std::size_t backlogged_pools = 0;
  for (std::size_t p = 0; p < npools; ++p) {
    PoolFairnessStats pool;
    pool.name = p < config_.pools.size() && !config_.pools[p].name.empty()
                    ? config_.pools[p].name
                    : "pool" + std::to_string(p);
    pool.weight = weight_of(p);
    pool.entitlement_share = pool.weight / total_weight;
    std::vector<double> sorted = waits_[p];
    std::sort(sorted.begin(), sorted.end());
    pool.started = sorted.size();
    if (!sorted.empty()) {
      double total = 0;
      for (const double w : sorted) total += w;
      pool.wait_mean = total / static_cast<double>(sorted.size());
      pool.wait_p50 = quantile_sorted(sorted, 0.50);
      pool.wait_p99 = quantile_sorted(sorted, 0.99);
      pool.wait_max = sorted.back();
    }
    pool.backlogged_seconds = backlogged_seconds_[p];
    if (pool.backlogged_seconds > 0) {
      pool.service_share = service_integral_[p] / pool.backlogged_seconds /
                           static_cast<double>(machine_procs_);
      pool.satisfaction =
          std::min(1.0, pool.service_share / pool.entitlement_share);
      sum += pool.satisfaction;
      sum_sq += pool.satisfaction * pool.satisfaction;
      ++backlogged_pools;
    }
    out.pools.push_back(std::move(pool));
  }
  out.jain = backlogged_pools == 0
                 ? 1.0
                 : (sum * sum) / (static_cast<double>(backlogged_pools) *
                                  sum_sq);
}

}  // namespace es::sched
