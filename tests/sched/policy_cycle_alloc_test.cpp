// Allocation audit of the policy cycle.
//
// FairShare keeps its waiting view (per-pool waiting and allocation lists)
// across cycles and its per-cycle state (pool views, the forced jobs) in
// members that are reset, not rebuilt, and EASY keeps its backfill
// snapshot the same way, so once the scratch has grown to the queue's
// shape a cycle never touches the heap.  This binary drives both policies
// directly on a hand-built SchedulerContext with a deep multi-pool queue
// and counts global operator new calls after warm-up, in the two states a
// saturated machine cycles through: no free grain at all, and free
// capacity that the pivot's shadow reservation keeps every candidate out
// of.  A FairShare case also tags the backlog beyond the configured pools,
// whose scratch grows mid-run, and another preempts for a starving pool in
// every cycle.  The audit is its own test binary because the instrumented
// operators are process-global.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "cluster/machine.hpp"
#include "sched/easy.hpp"
#include "sched/fairshare.hpp"
#include "testing/counting_new.hpp"

namespace es::sched {
namespace {

using es::testing::allocations;

constexpr int kProcs = 320;
constexpr int kGrain = 32;
constexpr int kPools = 4;
constexpr int kQueueDepth = 200;

/// Engine stand-in: owns the jobs, the queues and the machine, and hands
/// out a context whose start/preempt callbacks only count (neither scenario
/// may start or preempt anything).
class Harness {
 public:
  Harness() : machine_(kProcs, kGrain) {
    ctx_.now = 10;
    ctx_.machine = &machine_;
    ctx_.batch = &batch_;
    ctx_.dedicated = &dedicated_;
    ctx_.active = &active_;
    ctx_.start = [this](JobRun*) { ++starts_; };
    ctx_.preempt = [this](JobRun*) { ++preempts_; };
  }

  /// A running job occupying `procs` until `end` by its estimate.  Call in
  /// ascending `end` order: the active set is sorted by planned end.
  void run(int procs, double end, int pool) {
    JobRun& job = make(procs, end, pool);
    job.status = JobStatus::kRunning;
    job.start_time = 0;
    job.alloc = machine_.allocate(job.id, procs);
    active_.push_back(&job);
  }

  void enqueue(int procs, double estimate, int pool, bool forced = false) {
    JobRun& job = make(procs, estimate, pool);
    job.forced_priority = forced;
    batch_.push_back(&job);
  }

  /// The deep waiting queue behind the scenario-specific head: small jobs
  /// whose estimates all cross any shadow time, spread over `pools` pools.
  void enqueue_backlog(int pools = kPools) {
    for (int i = 0; i < kQueueDepth; ++i)
      enqueue(kGrain * (1 + i % 2), 5000, i % pools);
  }

  /// Makes preempt() really preempt, as the engine's does: the victim
  /// leaves the active set and the machine and waits at the queue tail.
  void requeue_on_preempt() {
    ctx_.preempt = [this](JobRun* job) {
      active_.erase(std::find(active_.begin(), active_.end(), job));
      machine_.release(job->id);
      job->status = JobStatus::kWaiting;
      job->alloc = 0;
      job->start_time = -1;
      batch_.push_back(job);
      ++preempts_;
    };
  }

  /// Takes the last preempted job out of the queue and starts a new job
  /// of its pool and size in its place, with a later end than every other.
  void replace_victim(double end) {
    JobRun* victim = batch_.back();
    batch_.erase(victim);
    run(victim->num, end, victim->pool);
  }

  SchedulerContext& ctx() { return ctx_; }
  int free() const { return machine_.free(); }
  int starts() const { return starts_; }
  int preempts() const { return preempts_; }

 private:
  JobRun& make(int procs, double estimate, int pool) {
    JobRun& job = jobs_.emplace_back();
    job.id = static_cast<workload::JobId>(jobs_.size());
    job.num = procs;
    job.req_time = estimate;
    job.actual_time = estimate;
    job.pool = static_cast<std::uint8_t>(pool);
    return job;
  }

  cluster::Machine machine_;
  std::deque<JobRun> jobs_;  // stable addresses
  JobQueue batch_;
  std::vector<JobRun*> dedicated_;
  std::vector<JobRun*> active_;
  SchedulerContext ctx_;
  int starts_ = 0;
  int preempts_ = 0;
};

/// Four weighted pools, prod with a min share: relief evaluates every pool
/// each cycle but, with `now` fixed, no starvation timeout ever elapses.
FairShareConfig four_pools() {
  FairShareConfig config;
  config.pools = {{"prod", 4.0, 0.25},
                  {"batch", 2.0, 0.0},
                  {"dev", 1.0, 0.0},
                  {"scavenger", 1.0, 0.0}};
  return config;
}

/// Machine full: ten one-grain runners, a forced prefix, a deep queue.
void fill_machine(Harness& harness) {
  for (int i = 0; i < kProcs / kGrain; ++i)
    harness.run(kGrain, 100 + i, i % kPools);
  for (int i = 0; i < 3; ++i) harness.enqueue(kGrain, 500, i, true);
  harness.enqueue_backlog();
  ASSERT_EQ(harness.free(), 0);
}

/// Two grains free, but the forced head needs the whole machine: it
/// becomes the pivot with a shadow at t=100 and zero shadow capacity, and
/// every backlog job fits now yet runs past the shadow.
void block_by_shadow(Harness& harness, int backlog_pools = kPools) {
  harness.run(kProcs - 2 * kGrain, 100, 0);
  harness.enqueue(kProcs, 500, 1, true);
  harness.enqueue_backlog(backlog_pools);
  ASSERT_EQ(harness.free(), 2 * kGrain);
}

/// Warms the policy up, then asserts `cycles` more cycles allocate nothing
/// and change nothing.
void expect_allocation_free(Scheduler& policy, Harness& harness) {
  for (int i = 0; i < 4; ++i) policy.cycle(harness.ctx());
  const std::uint64_t before = allocations();
  for (int i = 0; i < 5000; ++i) policy.cycle(harness.ctx());
  EXPECT_EQ(allocations(), before)
      << policy.name() << " cycle must not touch the heap at steady state";
  EXPECT_EQ(harness.starts(), 0);
  EXPECT_EQ(harness.preempts(), 0);
}

TEST(PolicyCycleAlloc, FairShareOnAFullMachine) {
  Harness harness;
  fill_machine(harness);
  FairShare policy(four_pools());
  expect_allocation_free(policy, harness);
}

TEST(PolicyCycleAlloc, FairShareWithFreeCapacityBlockedByTheShadow) {
  Harness harness;
  block_by_shadow(harness);
  FairShare policy(four_pools());
  expect_allocation_free(policy, harness);
}

TEST(PolicyCycleAlloc, FairShareWithPoolsBeyondTheConfiguredOnes) {
  // Tags 4 and 5 are not configured: their scratch grows on first sight,
  // without the constructor's reserve, and must then keep its capacity.
  Harness harness;
  block_by_shadow(harness, kPools + 2);
  FairShare policy(four_pools());
  expect_allocation_free(policy, harness);
}

TEST(PolicyCycleAlloc, FairShareStarvationRelief) {
  // prod (min share 0.25) waits with nothing running while the three
  // other pools fill the machine, and its timeout is zero: every cycle
  // preempts the youngest runner for prod's one-grain head.  The queue head
  // needs the whole machine, so it pivots and its shadow keeps prod's job
  // (and the backlog) from starting.  Between cycles the victim is replaced
  // by a new job — a new record under the per-job preemption cap — outside
  // the count, since the harness's machine ledger allocates.
  Harness harness;
  harness.requeue_on_preempt();
  for (int i = 0; i < kProcs / kGrain; ++i)
    harness.run(kGrain, 100 + i, 1 + i % (kPools - 1));
  harness.enqueue(kProcs, 500, 1);
  harness.enqueue(kGrain, 5000, 0);
  harness.enqueue_backlog();
  FairShareConfig config = four_pools();
  config.min_share_preemption_timeout = 0;
  config.max_preemptions_per_job = 1;
  FairShare policy(config);
  std::uint64_t allocated = 0;
  constexpr int kWarmup = 4;
  constexpr int kCycles = 5000;
  for (int i = 0; i < kWarmup + kCycles; ++i) {
    const std::uint64_t before = allocations();
    policy.cycle(harness.ctx());
    if (i >= kWarmup) allocated += allocations() - before;
    ASSERT_EQ(harness.preempts(), i + 1) << "relief must preempt every cycle";
    harness.replace_victim(1000 + i);
  }
  EXPECT_EQ(allocated, 0u)
      << "a relief cycle must not touch the heap at steady state";
  EXPECT_EQ(harness.starts(), 0);
}

TEST(PolicyCycleAlloc, EasyWithFreeCapacityBlockedByTheShadow) {
  Harness harness;
  block_by_shadow(harness);
  Easy policy;
  expect_allocation_free(policy, harness);
}

}  // namespace
}  // namespace es::sched
