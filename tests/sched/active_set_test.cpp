// Incremental active-set maintenance audit.
//
// The engine keeps `active_` sorted by (planned end, job id) incrementally —
// insert on start, reposition on ECC/resize, O(1) removal via back-reference
// on finish/preempt — instead of re-sorting a snapshot every cycle.  These
// tests wrap a real policy with an auditor that, at every cycle boundary AND
// after every intra-cycle start(), re-sorts the live view from scratch and
// demands element-wise equality and exact `active_index` back-references.
// The scenarios deliberately hit every mutation path: plain
// start/finish churn, ECC extend/reduce and running-resize repositioning,
// failure preemption with head/tail requeue, and checkpoint-resume requeue.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/factory.hpp"
#include "sched/engine.hpp"
#include "sched/job_state.hpp"
#include "sched/scheduler.hpp"
#include "testing/helpers.hpp"
#include "workload/generator.hpp"

namespace es::sched {
namespace {

using es::testing::batch_job;
using es::testing::make_workload;

double planned_end(const JobRun& job) {
  return job.start_time + job.estimated_duration();
}

/// Pass-through policy that audits the active view around the inner cycle.
class ActiveOrderAuditor : public Scheduler {
 public:
  explicit ActiveOrderAuditor(Scheduler& inner) : inner_(&inner) {}

  std::string name() const override { return inner_->name(); }
  bool supports_dedicated() const override {
    return inner_->supports_dedicated();
  }
  DpCounters dp_counters() const override { return inner_->dp_counters(); }

  void cycle(SchedulerContext& ctx) override {
    verify(ctx, "cycle entry");
    SchedulerContext wrapped = ctx;
    const std::function<void(JobRun*)> inner_start = ctx.start;
    wrapped.start = [this, &ctx, inner_start](JobRun* job) {
      inner_start(job);
      // The live view must already contain the new runner, in order, before
      // the policy's next freeze computation looks at it.
      verify(ctx, "after start()");
      ++starts_audited_;
    };
    inner_->cycle(wrapped);
    verify(ctx, "cycle exit");
    ++cycles_audited_;
  }

  std::uint64_t cycles_audited() const { return cycles_audited_; }
  std::uint64_t starts_audited() const { return starts_audited_; }

 private:
  void verify(const SchedulerContext& ctx, const char* where) {
    const std::vector<JobRun*>& active = *ctx.active;
    // From-scratch re-sort; (end, id) is a strict total order (ids unique),
    // so there is exactly one correct arrangement to compare against.
    std::vector<JobRun*> resorted = active;
    std::sort(resorted.begin(), resorted.end(),
              [](const JobRun* a, const JobRun* b) {
                const double ea = planned_end(*a);
                const double eb = planned_end(*b);
                if (ea != eb) return ea < eb;
                return a->id < b->id;
              });
    for (std::size_t i = 0; i < active.size(); ++i) {
      EXPECT_EQ(active[i], resorted[i])
          << where << ": incremental order diverges from a from-scratch "
          << "re-sort at position " << i << " (t=" << ctx.now << ")";
      EXPECT_EQ(active[i]->active_index, static_cast<std::ptrdiff_t>(i))
          << where << ": stale back-reference for job "
          << active[i]->id;
      EXPECT_EQ(active[i]->status, JobStatus::kRunning)
          << where << ": non-running job " << active[i]->id
          << " in the active set";
      EXPECT_FALSE(active[i]->in_batch_queue)
          << where << ": job " << active[i]->id
          << " is simultaneously active and batch-queued";
    }
    // The intrusive batch queue must stay disjoint from the active set and
    // internally consistent.
    JobRun* prev = nullptr;
    for (JobRun* job : *ctx.batch) {
      EXPECT_TRUE(job->in_batch_queue);
      EXPECT_EQ(job->active_index, -1)
          << where << ": queued job " << job->id
          << " still holds an active index";
      EXPECT_EQ(job->queue_prev, prev)
          << where << ": broken intrusive link before job " << job->id;
      prev = job;
    }
  }

  Scheduler* inner_;
  std::uint64_t cycles_audited_ = 0;
  std::uint64_t starts_audited_ = 0;
};

struct AuditedRun {
  SimulationResult result;
  std::uint64_t cycles = 0;
  std::uint64_t starts = 0;
};

AuditedRun run_audited(const workload::Workload& workload,
                       const std::string& algorithm,
                       core::AlgorithmOptions options = {}) {
  core::Algorithm algo = core::make_algorithm(algorithm, options);
  ActiveOrderAuditor auditor(*algo.policy);
  EngineConfig config;
  config.machine_procs = workload.machine_procs;
  config.granularity = workload.granularity;
  config.process_eccs = algo.process_eccs;
  config.allow_running_resize = algo.allow_running_resize;
  config.paranoid = true;  // engine-side invariants in the same run
  config.failure = options.engine.failure;
  config.requeue = options.engine.requeue;
  config.checkpoint = options.engine.checkpoint;
  AuditedRun run;
  run.result = simulate(config, auditor, workload);
  run.cycles = auditor.cycles_audited();
  run.starts = auditor.starts_audited();
  return run;
}

workload::Ecc ecc_at(double issue, workload::JobId job_id,
                     workload::EccType type, double amount) {
  workload::Ecc ecc;
  ecc.issue = issue;
  ecc.job_id = job_id;
  ecc.type = type;
  ecc.amount = amount;
  return ecc;
}

TEST(ActiveSet, StartFinishChurnKeepsOrderUnderLoad) {
  workload::GeneratorConfig config;
  config.num_jobs = 200;
  config.seed = 11;
  config.target_load = 1.1;  // deep queue: many candidates per cycle
  config.p_small = 0.5;
  const auto run = run_audited(workload::generate(config), "Delayed-LOS");
  EXPECT_EQ(run.result.completed + run.result.killed, 200u);
  EXPECT_GE(run.starts, 200u);
  EXPECT_GT(run.cycles, run.starts);
}

TEST(ActiveSet, EccExtendRepositionsRunningJob) {
  // j1 (end 100) and j2 (end 80) are both running; the ET at t=10 pushes
  // j2's planned end to 180, which must swap the active order mid-run.
  const auto workload = make_workload(
      20, 1, {batch_job(1, 0, 10, 100), batch_job(2, 0, 10, 80)},
      {ecc_at(10, 2, workload::EccType::kExtendTime, 100)});
  const auto run = run_audited(workload, "EASY-E");
  EXPECT_EQ(run.result.ecc.processed, 1u);
  EXPECT_EQ(run.result.jobs.size(), 2u);
}

TEST(ActiveSet, EccReduceRepositionsRunningJob) {
  // The RT at t=10 pulls j1's planned end from 100 to 40, below j2's 80.
  const auto workload = make_workload(
      20, 1, {batch_job(1, 0, 10, 100), batch_job(2, 0, 10, 80)},
      {ecc_at(10, 1, workload::EccType::kReduceTime, 60)});
  const auto run = run_audited(workload, "EASY-E");
  EXPECT_EQ(run.result.ecc.processed, 1u);
}

TEST(ActiveSet, EqualPlannedEndsFallBackToIdOrder) {
  // Three identical jobs start together and share one planned end: the tie
  // must break on id, and the auditor's from-scratch sort checks exactly
  // that at every cycle.
  const auto workload = make_workload(
      30, 1,
      {batch_job(3, 0, 10, 50), batch_job(1, 0, 10, 50),
       batch_job(2, 0, 10, 50)});
  const auto run = run_audited(workload, "EASY");
  EXPECT_EQ(run.result.completed, 3u);
}

TEST(ActiveSet, RandomizedElasticChurnWithRunningResize) {
  // ET/RT/EP/RP streams against a loaded machine exercise both reposition
  // paths (time reshape, running resize) thousands of times.
  workload::GeneratorConfig config;
  config.num_jobs = 150;
  config.seed = 7;
  config.target_load = 0.95;
  config.p_extend = 0.3;
  config.p_reduce = 0.2;
  config.p_extend_procs = 0.15;
  config.p_reduce_procs = 0.15;
  core::AlgorithmOptions options;
  options.engine.allow_running_resize = true;
  const auto run =
      run_audited(workload::generate(config), "Delayed-LOS-E", options);
  EXPECT_EQ(run.result.completed + run.result.killed, 150u);
  EXPECT_GT(run.result.ecc.processed, 0u);
}

TEST(ActiveSet, PreemptionRequeueHeadAndTailKeepOrder) {
  workload::GeneratorConfig config;
  config.num_jobs = 120;
  config.seed = 3;
  config.target_load = 0.9;
  for (const auto requeue :
       {fault::RequeuePolicy::kRequeueHead, fault::RequeuePolicy::kRequeueTail}) {
    core::AlgorithmOptions options;
    options.engine.failure.enabled = true;
    options.engine.failure.mtbf = 2000;
    options.engine.failure.mttr = 500;
    options.engine.failure.max_nodes = 3;
    options.engine.requeue = requeue;
    const auto run = run_audited(workload::generate(config), "EASY", options);
    EXPECT_GT(run.result.failure.interruptions, 0u)
        << "scenario must actually preempt to exercise remove_active";
    EXPECT_EQ(run.result.completed + run.result.killed, 120u);
  }
}

TEST(ActiveSet, CheckpointResumeRequeueKeepsOrder) {
  // Checkpointed jobs carry nonzero ckpt_progress / planned overhead, which
  // feeds estimated_duration() — the sort key — so resume-and-restart churn
  // is the hardest reposition workload.
  workload::GeneratorConfig config;
  config.num_jobs = 120;
  config.seed = 5;
  config.target_load = 0.9;
  core::AlgorithmOptions options;
  options.engine.failure.enabled = true;
  options.engine.failure.mtbf = 1500;
  options.engine.failure.mttr = 400;
  options.engine.failure.max_nodes = 2;
  options.engine.checkpoint.enabled = true;
  options.engine.checkpoint.interval = 300;
  options.engine.checkpoint.overhead = 10;
  options.engine.checkpoint.on_preempt = true;
  const auto run = run_audited(workload::generate(config), "EASY", options);
  EXPECT_GT(run.result.failure.interruptions, 0u);
  EXPECT_EQ(run.result.completed + run.result.killed, 120u);
}

TEST(ActiveSet, DedicatedPromotionKeepsQueueAndActiveConsistent) {
  workload::GeneratorConfig config;
  config.num_jobs = 120;
  config.seed = 9;
  config.target_load = 0.9;
  config.p_dedicated = 0.4;
  const auto run = run_audited(workload::generate(config), "Hybrid-LOS");
  EXPECT_EQ(run.result.completed + run.result.killed, 120u);
  EXPECT_GT(run.cycles, 0u);
}

}  // namespace
}  // namespace es::sched
