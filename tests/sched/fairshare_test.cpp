// FairShare policy semantics: single-pool degeneration to EASY, starvation
// preemption through the engine's preempt/requeue machinery, the per-job
// preemption cap, selection diffed against a visit-by-visit reference on
// randomized cycles, the persistent waiting view diffed against a policy
// built anew every cycle, and golden per-job decision fingerprints of
// multi-pool runs.
#include "sched/fairshare.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "cluster/machine.hpp"
#include "core/factory.hpp"
#include "exp/experiment.hpp"
#include "sched/reservation.hpp"
#include "testing/helpers.hpp"
#include "workload/generator.hpp"

namespace es::sched {
namespace {

workload::GeneratorConfig tenant_config(int num_users, int num_pools) {
  workload::GeneratorConfig config;
  config.num_jobs = 250;
  config.seed = 17;
  config.target_load = 1.0;
  config.num_users = num_users;
  config.num_pools = num_pools;
  return config;
}

/// Suspend/resume preemption with hours-scale relief timeouts disabled down
/// to near-zero so the small test workloads actually trigger relief.
core::AlgorithmOptions aggressive_fairshare_options() {
  core::AlgorithmOptions options;
  options.engine.fairshare.pools = {{"a", 1.0, 0.0}, {"b", 1.0, 0.45}};
  options.engine.fairshare.min_share_preemption_timeout = 60;
  options.engine.fairshare.fair_share_preemption_timeout = 600;
  options.engine.checkpoint.enabled = true;
  options.engine.checkpoint.on_preempt = true;
  return options;
}

TEST(FairShare, SinglePoolDegeneratesToEasyExactly) {
  // Untagged workload: one pool, ratio order is FIFO, no preemption —
  // decision-for-decision EASY backfilling.
  workload::GeneratorConfig config;
  config.num_jobs = 300;
  config.seed = 5;
  config.target_load = 0.9;
  const workload::Workload workload = workload::generate(config);
  const core::AlgorithmOptions options;
  const SimulationResult easy = exp::run_workload(workload, "EASY", options);
  const SimulationResult fair =
      exp::run_workload(workload, "FairShare", options);
  EXPECT_EQ(fair.completed, easy.completed);
  EXPECT_EQ(fair.killed, easy.killed);
  EXPECT_DOUBLE_EQ(fair.utilization, easy.utilization);
  EXPECT_DOUBLE_EQ(fair.mean_wait, easy.mean_wait);
  EXPECT_DOUBLE_EQ(fair.makespan, easy.makespan);
  EXPECT_EQ(fair.failure.interruptions, 0u);
}

TEST(FairShare, FactoryBuildsBothVariants) {
  const auto plain = core::make_algorithm("FairShare");
  EXPECT_EQ(plain.policy->name(), "FairShare");
  EXPECT_TRUE(plain.policy->initiates_preemption());
  EXPECT_FALSE(plain.policy->supports_dedicated());
  const auto elastic = core::make_algorithm("FairShare-E");
  EXPECT_TRUE(elastic.process_eccs);
}

TEST(FairShare, StarvationReliefPreemptsAndEveryJobStillFinishes) {
  const workload::Workload workload =
      workload::generate(tenant_config(16, 2));
  const SimulationResult result = exp::run_workload(
      workload, "FairShare", aggressive_fairshare_options());
  EXPECT_GT(result.failure.interruptions, 0u)
      << "min-share starvation must trigger preemption on this workload";
  EXPECT_EQ(result.failure.abandoned, 0u);
  EXPECT_EQ(result.completed + result.killed, workload.jobs.size())
      << "preempted jobs must requeue and finish, not vanish";
  EXPECT_GT(result.failure.saved_proc_seconds, 0.0)
      << "checkpoint-on-preempt must bank the victims' elapsed work";
}

TEST(FairShare, PreemptionDisabledNeverInterrupts) {
  const workload::Workload workload =
      workload::generate(tenant_config(16, 2));
  core::AlgorithmOptions options = aggressive_fairshare_options();
  options.engine.fairshare.preemption_enabled = false;
  EXPECT_FALSE(FairShare(options.engine.fairshare).initiates_preemption());
  const SimulationResult result =
      exp::run_workload(workload, "FairShare", options);
  EXPECT_EQ(result.failure.interruptions, 0u);
  EXPECT_EQ(result.completed + result.killed, workload.jobs.size());
}

TEST(FairShare, PerJobPreemptionCapHolds) {
  const workload::Workload workload =
      workload::generate(tenant_config(16, 2));
  core::AlgorithmOptions options = aggressive_fairshare_options();
  options.engine.fairshare.max_preemptions_per_job = 1;
  const SimulationResult result =
      exp::run_workload(workload, "FairShare", options);
  for (const JobOutcome& job : result.jobs)
    EXPECT_LE(job.interruptions, 1) << "job " << job.id;
}

// --- selection against the visit-by-visit reference ------------------------
//
// Selection ranks the pools once per start and then runs through the chosen
// pool's waiting list.  reference_selection() is the loop it replaced,
// transcribed: the same phase with the pool argmin recomputed before every
// visit.  On randomized hand-built cycles both must start the same jobs in
// the same order.

/// Engine stand-in whose start() really starts: the job leaves the batch
/// queue, takes its allocation and joins the active set in planned-end
/// order.  Every start() is logged by job id.
class CycleHarness {
 public:
  CycleHarness(int procs, int grain) : machine_(procs, grain) {
    ctx_.machine = &machine_;
    ctx_.batch = &batch_;
    ctx_.dedicated = &dedicated_;
    ctx_.active = &active_;
    ctx_.start = [this](JobRun* job) {
      batch_.erase(job);
      activate(*job);
      started_.push_back(job->id);
    };
  }

  void run(int procs, double estimate, int pool) {
    activate(make(procs, estimate, pool));
  }

  void enqueue(int procs, double estimate, int pool, bool forced) {
    JobRun& job = make(procs, estimate, pool);
    job.forced_priority = forced;
    batch_.push_back(&job);
  }

  void take_offline(int procs) { machine_.take_offline(procs); }

  /// Completes the running job with the earliest planned end and moves the
  /// clock to it.  False when nothing runs.
  bool finish_first() {
    if (active_.empty()) return false;
    JobRun* job = active_.front();
    ctx_.now = std::max(ctx_.now, planned_end(*job));
    machine_.release(job->id);
    job->status = JobStatus::kCompleted;
    active_.erase(active_.begin());
    return true;
  }

  /// Resizes the `index`-th waiting job, as an EP/RP command between
  /// cycles does, and counts it in the context as the engine does.
  void resize_waiting(std::size_t index, int procs) {
    for (JobRun* job : batch_)
      if (index-- == 0) job->num = procs;
    ++ctx_.queued_resizes;
  }

  /// Preempts the `index`-th running job (in planned-end order) back into
  /// the queue, as the engine's requeue does: at the tail keeping its
  /// forced flag, or at the head as a forced job.
  void requeue(std::size_t index, bool at_head) {
    JobRun* job = active_[index];
    active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(index));
    machine_.release(job->id);
    job->status = JobStatus::kWaiting;
    job->alloc = 0;
    job->start_time = -1;
    if (at_head) {
      job->forced_priority = true;
      batch_.push_front(job);
    } else {
      batch_.push_back(job);
    }
  }

  SchedulerContext& ctx() { return ctx_; }
  const cluster::Machine& machine() const { return machine_; }
  std::size_t running() const { return active_.size(); }
  std::size_t waiting() const { return batch_.size(); }
  const std::vector<workload::JobId>& started() const { return started_; }

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

  void activate(JobRun& job) {
    job.status = JobStatus::kRunning;
    job.start_time = ctx_.now;
    job.alloc = machine_.allocate(job.id, job.num);
    const auto before = [](const JobRun* a, const JobRun* b) {
      const sim::Time end_a = planned_end(*a);
      const sim::Time end_b = planned_end(*b);
      return end_a < end_b || (end_a == end_b && a->id < b->id);
    };
    active_.insert(
        std::upper_bound(active_.begin(), active_.end(), &job, before),
        &job);
  }

  cluster::Machine machine_;
  std::deque<JobRun> jobs_;  // stable addresses
  JobQueue batch_;
  std::vector<JobRun*> dedicated_;
  std::vector<JobRun*> active_;
  SchedulerContext ctx_;
  std::vector<workload::JobId> started_;
};

/// What the randomized cycles exercised, counted by the reference.
struct SelectionCoverage {
  int exact_ties = 0;       ///< pool ratios compared equal
  int ulp_ties = 0;         ///< pool ratios unequal but within 1e-12
  int no_shadow_pivots = 0; ///< pivot larger than the in-service capacity
  int forced_prefixes = 0;  ///< cycles with forced-priority jobs
  int deep_queues = 0;      ///< cycles deeper than FairShare's initial
                            ///< waiting-list capacity (128)
  int unconfigured_starts = 0;  ///< starts from pools beyond the config
};

/// The selection phase with the pool argmin recomputed before every visit.
/// Relief is out of scope: the scenarios run with preemption disabled.
void reference_selection(SchedulerContext& ctx, const FairShareConfig& config,
                         SelectionCoverage& coverage) {
  struct Pool {
    double weight = 1;
    double running = 0;
    std::vector<JobRun*> waiting;
    std::size_t next = 0;
  };
  std::vector<Pool> pools(std::max<std::size_t>(config.pools.size(), 1));
  for (std::size_t p = 0; p < config.pools.size(); ++p)
    pools[p].weight = config.pools[p].weight;
  const auto pool = [&](int p) -> Pool& {
    const std::size_t index = static_cast<std::size_t>(p);
    if (index >= pools.size()) pools.resize(index + 1);
    return pools[index];
  };
  for (const JobRun* job : *ctx.active) pool(job->pool).running += job->alloc;
  std::vector<JobRun*> forced;
  JobRun* queue_head = nullptr;
  for (JobRun* job : *ctx.batch) {
    Pool& s = pool(job->pool);
    if (job->forced_priority) {
      forced.push_back(job);
    } else {
      if (queue_head == nullptr) queue_head = job;
      s.waiting.push_back(job);
    }
  }
  if (!forced.empty()) ++coverage.forced_prefixes;
  if (ctx.batch->size() > 128) ++coverage.deep_queues;
  const int npools = static_cast<int>(pools.size());

  const int grain = ctx.machine->granularity();
  if (ctx.free() < grain) return;

  Freeze shadow;
  bool have_pivot = false;
  const auto try_start = [&](JobRun* job) {
    const int alloc = ctx.alloc_of(*job);
    if (!have_pivot) {
      if (alloc <= ctx.free()) {
        ctx.start(job);
        pool(job->pool).running += alloc;
        if (job->pool >= config.pools.size()) ++coverage.unconfigured_starts;
        return;
      }
      if (alloc <= ctx.machine->available())
        shadow = shadow_for_blocked(ctx, alloc);
      else
        ++coverage.no_shadow_pivots;
      have_pivot = true;
      return;
    }
    if (alloc <= ctx.free() && respects(shadow, ctx.now, *job, alloc)) {
      consume(shadow, ctx.now, *job, alloc);
      ctx.start(job);
      pool(job->pool).running += alloc;
      if (job->pool >= config.pools.size()) ++coverage.unconfigured_starts;
    }
  };

  for (JobRun* job : forced) {
    try_start(job);
    if (ctx.free() < grain) return;
  }
  if (queue_head != nullptr) {
    pool(queue_head->pool).next = 1;
    try_start(queue_head);
  }
  while (ctx.free() >= grain) {
    int best = -1;
    double best_ratio = 0;
    for (int p = 0; p < npools; ++p) {
      const Pool& s = pools[static_cast<std::size_t>(p)];
      if (s.next >= s.waiting.size()) continue;
      const double ratio = s.running / s.weight;
      if (best >= 0 && std::abs(ratio - best_ratio) <= 1e-12)
        ++(ratio == best_ratio ? coverage.exact_ties : coverage.ulp_ties);
      if (best < 0 || ratio < best_ratio - 1e-12) {
        best = p;
        best_ratio = ratio;
      }
    }
    if (best < 0) break;
    Pool& s = pools[static_cast<std::size_t>(best)];
    try_start(s.waiting[s.next++]);
  }
}

/// Machine shape and policy config of one randomized cycle.
struct SelectionScenario {
  std::uint64_t seed = 0;
  int grain = 1;
  int units = 0;  ///< machine size in grains
  int npools = 1; ///< pool tags in use; the first `config.pools` configured
  FairShareConfig config;
};

/// Pool weights come from one family per scenario: {1, 2, 3} tie exactly
/// on proportional loads, {0.3, 0.9} tie within one ulp (32/0.3 vs 96/0.9).
SelectionScenario draw_scenario(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  SelectionScenario scenario;
  scenario.seed = seed;
  const int grains[] = {1, 8, 32};
  scenario.grain = grains[rng() % 3];
  scenario.units = 8 + static_cast<int>(rng() % 17);
  scenario.npools = 1 + static_cast<int>(rng() % 6);
  const std::vector<std::vector<double>> families = {
      {1, 2, 3}, {0.3, 0.9}, {0.3, 0.9, 1, 2, 3}};
  const std::vector<double>& family = families[rng() % families.size()];
  const int configured = static_cast<int>(
      rng() % static_cast<std::uint64_t>(scenario.npools + 1));
  for (int p = 0; p < configured; ++p) {
    std::string name = "p";
    name += std::to_string(p);
    scenario.config.pools.push_back(
        {std::move(name), family[rng() % family.size()], 0.0});
  }
  scenario.config.preemption_enabled = false;
  return scenario;
}

/// Fills `harness` with the scenario's cycle: an optional outage, running
/// jobs (one per pool in proportion to its weight, or random), an optional
/// forced prefix, a head that may exceed the in-service capacity, and a
/// backlog up to 300 deep over every pool tag.  The same scenario always
/// builds the same cycle.
void populate(CycleHarness& harness, const SelectionScenario& scenario) {
  std::mt19937_64 rng(scenario.seed ^ 0x9e3779b97f4a7c15ull);
  const int grain = scenario.grain;
  const auto pick = [&](int lo, int hi) {
    const auto span = static_cast<std::uint64_t>(hi - lo + 1);
    return lo + static_cast<int>(rng() % span);
  };
  // A job of `grains` grains asks for up to one grain less than it gets.
  const auto procs = [&](int grains) {
    return std::max(1, grains * grain - pick(0, grain - 1));
  };
  const auto pool_tag = [&] { return pick(0, scenario.npools - 1); };

  int idle = scenario.units;
  if (pick(0, 3) == 0) {
    const int offline = pick(1, std::max(1, scenario.units / 4));
    harness.take_offline(offline * grain);
    idle -= offline;
  }
  if (pick(0, 1) == 0) {
    for (int p = 0; p < scenario.npools; ++p) {
      const double weight = p < static_cast<int>(scenario.config.pools.size())
                                ? scenario.config.pools[p].weight
                                : 1.0;
      const int share = weight == 0.9 || weight == 3 ? 3 : weight == 2 ? 2 : 1;
      if (share > idle) break;
      harness.run(share * grain, pick(1, 1000), p);
      idle -= share;
    }
  } else {
    for (int i = pick(0, scenario.units); i > 0 && idle > 0; --i) {
      const int grains = pick(1, std::min(3, idle));
      harness.run(procs(grains), pick(1, 1000), pool_tag());
      idle -= grains;
    }
  }
  if (pick(0, 2) == 0)
    for (int i = pick(1, 3); i > 0; --i)
      harness.enqueue(procs(pick(1, scenario.units)), pick(1, 2000),
                      pool_tag(), true);
  const int available = harness.machine().available() / grain;
  const int head_grains = available < scenario.units && pick(0, 1) == 0
                              ? pick(available + 1, scenario.units)
                              : pick(1, scenario.units);
  harness.enqueue(procs(head_grains), pick(1, 2000), pool_tag(), false);
  for (int i = pick(0, 300); i > 0; --i) {
    const int grains = pick(0, 4) == 0 ? pick(1, scenario.units) : pick(1, 3);
    harness.enqueue(procs(grains), pick(1, 2000), pool_tag(), false);
  }
}

TEST(FairShare, SelectionMatchesVisitByVisitReference) {
  SelectionCoverage coverage;
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    const SelectionScenario scenario = draw_scenario(seed);
    const int procs = scenario.units * scenario.grain;
    CycleHarness fast(procs, scenario.grain);
    CycleHarness slow(procs, scenario.grain);
    populate(fast, scenario);
    populate(slow, scenario);
    FairShare policy(scenario.config);
    std::mt19937_64 between(seed);
    for (int cycle = 0; cycle < 8; ++cycle) {
      policy.cycle(fast.ctx());
      reference_selection(slow.ctx(), scenario.config, coverage);
      ASSERT_EQ(fast.started(), slow.started())
          << "seed " << seed << ", cycle " << cycle;
      // Between cycles: the earliest planned completion, and an EP/RP-style
      // resize of one waiting job.
      if (!fast.finish_first()) break;
      ASSERT_TRUE(slow.finish_first());
      if (fast.waiting() == 0) continue;
      const std::size_t index = between() % fast.waiting();
      const int size = 1 + static_cast<int>(between() % procs);
      fast.resize_waiting(index, size);
      slow.resize_waiting(index, size);
    }
  }
  EXPECT_GT(coverage.exact_ties, 0);
  EXPECT_GT(coverage.ulp_ties, 0);
  EXPECT_GT(coverage.no_shadow_pivots, 0);
  EXPECT_GT(coverage.forced_prefixes, 0);
  EXPECT_GT(coverage.deep_queues, 0);
  EXPECT_GT(coverage.unconfigured_starts, 0);
}

// --- the persistent view against a policy built anew every cycle -----------
//
// FairShare keeps its per-pool waiting lists across cycles and updates them
// from the queue's changes.  A FairShare built for a single cycle gathers
// the whole queue instead, so on the same randomized queue edits both must
// start the same jobs in the same order.

/// What the randomized edits exercised.
struct ViewCoverage {
  int compactions = 0;    ///< cycles that moved a waiting job's view index
  int tail_requeues = 0;  ///< running jobs requeued at the tail
  int head_requeues = 0;  ///< running jobs requeued at the head as forced
  int forced_behind = 0;  ///< cycles with a forced job behind a non-forced
  int resizes = 0;        ///< waiting jobs resized between cycles
  int arrivals = 0;       ///< jobs pushed at the tail between cycles
};

/// View index of every non-forced waiting job, in queue order.
std::vector<std::pair<const JobRun*, std::int32_t>> view_indices(
    CycleHarness& harness) {
  std::vector<std::pair<const JobRun*, std::int32_t>> indices;
  for (const JobRun* job : *harness.ctx().batch)
    if (!job->forced_priority) indices.emplace_back(job, job->view_index);
  return indices;
}

bool forced_behind_non_forced(CycleHarness& harness) {
  bool non_forced = false;
  for (const JobRun* job : *harness.ctx().batch) {
    if (job->forced_priority && non_forced) return true;
    non_forced = non_forced || !job->forced_priority;
  }
  return false;
}

TEST(FairShare, PersistentViewMatchesFreshPolicy) {
  ViewCoverage coverage;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const SelectionScenario scenario = draw_scenario(seed);
    const int procs = scenario.units * scenario.grain;
    CycleHarness kept(procs, scenario.grain);
    CycleHarness fresh(procs, scenario.grain);
    populate(kept, scenario);
    populate(fresh, scenario);
    FairShare policy(scenario.config);
    std::mt19937_64 rng(seed * 0x2545f4914f6cdd1dull);
    const auto pick = [&](int lo, int hi) {
      return lo + static_cast<int>(rng() % static_cast<std::uint64_t>(
                                               hi - lo + 1));
    };
    for (int cycle = 0; cycle < 12; ++cycle) {
      if (forced_behind_non_forced(kept)) ++coverage.forced_behind;
      const auto before = view_indices(kept);
      policy.cycle(kept.ctx());
      FairShare(scenario.config).cycle(fresh.ctx());
      ASSERT_EQ(kept.started(), fresh.started())
          << "seed " << seed << ", cycle " << cycle;
      const auto after = view_indices(kept);
      for (const auto& [job, index] : before) {
        const auto it = std::find_if(
            after.begin(), after.end(),
            [job = job](const auto& entry) { return entry.first == job; });
        if (it != after.end() && it->second < index) {
          ++coverage.compactions;
          break;
        }
      }

      // Between cycles, the same edits on both sides: completions,
      // arrivals, requeues at either end and EP/RP-style resizes.
      for (int i = pick(0, 2); i > 0; --i) {
        if (!kept.finish_first()) break;
        ASSERT_TRUE(fresh.finish_first());
      }
      for (int i = pick(0, 3); i > 0; --i) {
        const int size = pick(1, procs);
        const int estimate = pick(1, 2000);
        const int pool = pick(0, scenario.npools - 1);
        kept.enqueue(size, estimate, pool, false);
        fresh.enqueue(size, estimate, pool, false);
        ++coverage.arrivals;
      }
      for (int i = pick(0, 2); i > 0 && kept.running() > 0; --i) {
        const auto index = static_cast<std::size_t>(
            pick(0, static_cast<int>(kept.running()) - 1));
        const bool at_head = pick(0, 2) == 0;
        kept.requeue(index, at_head);
        fresh.requeue(index, at_head);
        ++(at_head ? coverage.head_requeues : coverage.tail_requeues);
      }
      for (int i = pick(0, 2); i > 0 && kept.waiting() > 0; --i) {
        const auto index = static_cast<std::size_t>(
            pick(0, static_cast<int>(kept.waiting()) - 1));
        const int size = pick(1, procs);
        kept.resize_waiting(index, size);
        fresh.resize_waiting(index, size);
        ++coverage.resizes;
      }
    }
  }
  EXPECT_GT(coverage.compactions, 0);
  EXPECT_GT(coverage.tail_requeues, 0);
  EXPECT_GT(coverage.head_requeues, 0);
  EXPECT_GT(coverage.forced_behind, 0);
  EXPECT_GT(coverage.resizes, 0);
  EXPECT_GT(coverage.arrivals, 0);
}

// --- golden decision fingerprints ------------------------------------------
//
// Each case runs a multi-pool FairShare simulation and hashes every job's
// (id, start, finish, interruptions).  The constants pin the policy's
// decisions: a change to the cycle that is meant to be a pure speed-up must
// leave all of them untouched.  Regenerate only for a deliberate change of
// FairShare semantics.

using es::testing::outcome_hash;

/// Jobs interrupted at least once (by starvation relief or a node failure).
std::size_t interrupted_jobs(const SimulationResult& result) {
  std::size_t count = 0;
  for (const JobOutcome& job : result.jobs)
    if (job.interruptions > 0) ++count;
  return count;
}

workload::GeneratorConfig golden_config(int num_pools) {
  workload::GeneratorConfig config;
  config.num_jobs = 400;
  config.seed = 29;
  config.target_load = 1.0;
  config.num_users = 24;
  config.num_pools = num_pools;
  return config;
}

/// Four weighted pools, prod and dev with a min share, minute-scale relief.
core::AlgorithmOptions four_weighted_pools_options() {
  core::AlgorithmOptions options;
  options.engine.fairshare.pools = {{"prod", 4.0, 0.25},
                                    {"batch", 2.0, 0.0},
                                    {"dev", 1.0, 0.1},
                                    {"scavenger", 1.0, 0.0}};
  options.engine.fairshare.min_share_preemption_timeout = 120;
  options.engine.fairshare.fair_share_preemption_timeout = 900;
  return options;
}

TEST(FairShareGolden, FourWeightedPoolsWithMinShare) {
  const workload::Workload workload = workload::generate(golden_config(4));
  const SimulationResult result = exp::run_workload(
      workload, "FairShare", four_weighted_pools_options());
  EXPECT_GT(interrupted_jobs(result), 0u);
  EXPECT_EQ(result.completed + result.killed, workload.jobs.size());
  EXPECT_EQ(outcome_hash(result), 0x63adde7b0bc267e4ull);
}

TEST(FairShareGolden, ElasticCommandsOnFourPools) {
  // ECCs change waiting jobs between cycles: ET/RT their estimates (the
  // shadow test), EP/RP their sizes (the allocation compared against free
  // capacity), so selection must read both afresh every cycle.
  workload::GeneratorConfig config = golden_config(4);
  config.p_extend = 0.3;
  config.p_reduce = 0.3;
  config.p_extend_procs = 0.3;
  config.p_reduce_procs = 0.3;
  const workload::Workload workload = workload::generate(config);
  const SimulationResult result = exp::run_workload(
      workload, "FairShare-E", four_weighted_pools_options());
  EXPECT_GT(result.ecc.time_added, 0.0);
  EXPECT_GT(result.ecc.time_removed, 0.0);
  EXPECT_GT(result.ecc.procs_added, 0.0);
  EXPECT_GT(result.ecc.procs_removed, 0.0);
  EXPECT_EQ(result.completed + result.killed, workload.jobs.size());
  EXPECT_EQ(outcome_hash(result), 0xd3ebe54eefb02570ull);
}

TEST(FairShareGolden, PreemptionUnderThePerJobCap) {
  const workload::Workload workload = workload::generate(golden_config(2));
  core::AlgorithmOptions options = aggressive_fairshare_options();
  options.engine.fairshare.max_preemptions_per_job = 1;
  const SimulationResult result =
      exp::run_workload(workload, "FairShare", options);
  EXPECT_GT(interrupted_jobs(result), 0u);
  for (const JobOutcome& job : result.jobs)
    EXPECT_LE(job.interruptions, 1) << "job " << job.id;
  EXPECT_EQ(outcome_hash(result), 0x3a810d59405da863ull);
}

TEST(FairShareGolden, NodeFailuresWithHeadRequeue) {
  // Head requeue puts interrupted jobs in front with forced priority: the
  // cycle must serve that prefix before any pool-ratio selection.
  const workload::Workload workload = workload::generate(golden_config(3));
  core::AlgorithmOptions options = aggressive_fairshare_options();
  options.engine.fairshare.pools.push_back({"c", 2.0, 0.0});
  options.engine.failure.enabled = true;
  options.engine.failure.seed = 7;
  options.engine.failure.mtbf = 2 * 3600.0;
  options.engine.failure.mttr = 20 * 60.0;
  options.engine.failure.max_nodes = 2;
  options.engine.requeue = fault::RequeuePolicy::kRequeueHead;
  const SimulationResult result =
      exp::run_workload(workload, "FairShare", options);
  EXPECT_GT(result.failure.outages, 0u);
  EXPECT_GT(result.failure.requeues, 0u);
  EXPECT_EQ(outcome_hash(result), 0xcadbf079ed936720ull);
}

TEST(FairShareGolden, PoolTagsBeyondTheConfiguredPools) {
  // Two configured pools, tags over five: pools 2-4 join with weight 1.
  const workload::Workload workload = workload::generate(golden_config(5));
  const core::AlgorithmOptions options = aggressive_fairshare_options();
  const SimulationResult result =
      exp::run_workload(workload, "FairShare", options);
  EXPECT_EQ(result.completed + result.killed, workload.jobs.size());
  EXPECT_EQ(outcome_hash(result), 0x0eabbe077059bbf1ull);
}

TEST(FairShareGolden, GranularityOne) {
  workload::GeneratorConfig config = golden_config(3);
  config.machine_procs = 256;
  config.size.unit = 1;
  config.size.lo1 = 8;
  config.size.hi1 = 40;
  config.size.lo2 = 48;
  config.size.hi2 = 160;
  const workload::Workload workload = workload::generate(config);
  ASSERT_EQ(workload.granularity, 1);
  const core::AlgorithmOptions options = aggressive_fairshare_options();
  const SimulationResult result =
      exp::run_workload(workload, "FairShare", options);
  EXPECT_GT(interrupted_jobs(result), 0u);
  EXPECT_EQ(outcome_hash(result), 0x4d1c1aed5794cf32ull);
}

}  // namespace
}  // namespace es::sched
