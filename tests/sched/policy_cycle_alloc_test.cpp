// Allocation audit of the policy cycle.
//
// FairShare keeps its per-cycle working state (pool views, waiting lists,
// the forced prefix) in members that are reset, not rebuilt, and EASY keeps
// its backfill snapshot the same way, so once the scratch has grown to the
// queue's shape a cycle never touches the heap.  This binary drives both
// policies directly on a hand-built SchedulerContext with a deep multi-pool
// queue and counts global operator new calls after warm-up, in the two
// states a saturated machine cycles through: no free grain at all, and free
// capacity that the pivot's shadow reservation keeps every candidate out
// of.  It is its own test binary because the instrumented operators are
// process-global.
#include <gtest/gtest.h>

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
  /// whose estimates all cross any shadow time, spread over every pool.
  void enqueue_backlog() {
    for (int i = 0; i < kQueueDepth; ++i)
      enqueue(kGrain * (1 + i % 2), 5000, i % kPools);
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
void block_by_shadow(Harness& harness) {
  harness.run(kProcs - 2 * kGrain, 100, 0);
  harness.enqueue(kProcs, 500, 1, true);
  harness.enqueue_backlog();
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

TEST(PolicyCycleAlloc, EasyWithFreeCapacityBlockedByTheShadow) {
  Harness harness;
  block_by_shadow(harness);
  Easy policy;
  expect_allocation_free(policy, harness);
}

}  // namespace
}  // namespace es::sched
