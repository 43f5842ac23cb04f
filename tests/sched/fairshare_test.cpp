// FairShare policy semantics: single-pool degeneration to EASY, starvation
// preemption through the engine's preempt/requeue machinery, the per-job
// preemption cap, policy-state serialization, and golden per-job decision
// fingerprints of multi-pool runs.
#include "sched/fairshare.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "core/factory.hpp"
#include "exp/experiment.hpp"
#include "snap/snapshot.hpp"
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

TEST(FairShare, PolicyStateSerializationRoundTrips) {
  FairShareConfig config;
  config.pools = {{"a", 2.0, 0.1}, {"b", 1.0, 0.0}};
  const FairShare original(config);
  snap::SnapshotWriter writer;
  writer.begin_section("POLI");
  original.save_state(writer);
  writer.end_section();
  const std::string image = writer.finish();

  FairShare restored(config);
  snap::SnapshotReader reader(image);
  reader.open_section("POLI");
  restored.restore_state(reader);
  EXPECT_EQ(reader.remaining(), 0u);

  snap::SnapshotWriter again;
  again.begin_section("POLI");
  restored.save_state(again);
  again.end_section();
  EXPECT_EQ(again.finish(), image);
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

TEST(FairShareGolden, FourWeightedPoolsWithMinShare) {
  const workload::Workload workload = workload::generate(golden_config(4));
  core::AlgorithmOptions options;
  options.engine.fairshare.pools = {{"prod", 4.0, 0.25},
                                    {"batch", 2.0, 0.0},
                                    {"dev", 1.0, 0.1},
                                    {"scavenger", 1.0, 0.0}};
  options.engine.fairshare.min_share_preemption_timeout = 120;
  options.engine.fairshare.fair_share_preemption_timeout = 900;
  const SimulationResult result =
      exp::run_workload(workload, "FairShare", options);
  EXPECT_GT(interrupted_jobs(result), 0u);
  EXPECT_EQ(result.completed + result.killed, workload.jobs.size());
  EXPECT_EQ(outcome_hash(result), 0x63adde7b0bc267e4ull);
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
