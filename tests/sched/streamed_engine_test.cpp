// Streamed-vs-materialized engine parity: Engine::run_streamed must
// reproduce Engine::run byte for byte on the same workload — every
// deterministic metric, counter, ledger and per-job outcome — across the
// algorithm families, chunk sizes that force mid-run refills, ECC
// processing, dedicated jobs, failure injection and checkpointing.  This is
// the contract that lets the million-job bench gate the streaming path on a
// golden fingerprint instead of trusting the memory savings blindly.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/factory.hpp"
#include "exp/experiment.hpp"
#include "testing/helpers.hpp"
#include "testing/parity.hpp"
#include "workload/generator.hpp"
#include "workload/source.hpp"

namespace es {
namespace {

using testing::expect_identical;

/// Runs the workload both ways and asserts full parity.
void check_parity(const workload::Workload& workload,
                  const std::string& algorithm,
                  core::AlgorithmOptions options = {},
                  std::size_t chunk_jobs = 7) {
  const sched::SimulationResult materialized =
      exp::run_workload(workload, algorithm, options);
  workload::MaterializedSource source(workload, chunk_jobs);
  const sched::SimulationResult streamed =
      exp::run_source(source, algorithm, options);
  expect_identical(materialized, streamed);
}

workload::GeneratorConfig small_config(int jobs = 120) {
  workload::GeneratorConfig config;
  config.machine_procs = 64;
  config.size.unit = 8;
  config.num_jobs = jobs;
  config.seed = 11;
  return config;
}

TEST(StreamedEngine, MatchesMaterializedAcrossAlgorithms) {
  // Every factory algorithm over an elastic trace (ECCs everywhere) in
  // 64-job chunks.  Dedicated-aware algorithms get a heterogeneous trace
  // with node failures and periodic checkpoints on top.
  workload::GeneratorConfig config;
  config.machine_procs = 320;
  config.num_jobs = 300;
  config.seed = 1;
  config.p_small = 0.5;
  config.p_extend = 0.2;
  config.p_reduce = 0.2;
  config.target_load = 0.9;
  const workload::Workload batch = workload::generate(config);
  config.p_dedicated = 0.4;
  config.seed = 18;
  const workload::Workload hetero = workload::generate(config);
  ASSERT_FALSE(batch.eccs.empty());
  ASSERT_GT(hetero.dedicated_count(), 0u);

  core::AlgorithmOptions options;
  options.lookahead = 250;
  const core::AlgorithmOptions faulty =
      testing::with_faults_and_checkpoints(options);

  for (const std::string& algorithm : core::algorithm_names()) {
    SCOPED_TRACE(algorithm);
    const bool dedicated =
        core::make_algorithm(algorithm).policy->supports_dedicated();
    check_parity(dedicated ? hetero : batch, algorithm,
                 dedicated ? faulty : options, 64);
  }
}

TEST(StreamedEngine, MatchesAcrossChunkSizes) {
  const workload::Workload workload = workload::generate(small_config());
  // 1-job chunks maximize refills; a huge chunk degenerates to one pull.
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{13},
                                  std::size_t{100000}}) {
    SCOPED_TRACE(chunk);
    check_parity(workload, "Delayed-LOS", {}, chunk);
  }
}

TEST(StreamedEngine, MatchesWithEccsAndElasticity) {
  workload::GeneratorConfig config = small_config();
  config.p_extend = 0.3;
  config.p_reduce = 0.2;
  config.p_extend_procs = 0.2;
  config.p_reduce_procs = 0.2;
  config.max_eccs_per_job = 3;
  const workload::Workload workload = workload::generate(config);
  ASSERT_FALSE(workload.eccs.empty());
  for (const char* algorithm : {"Delayed-LOS-E", "EASY-E", "LOS-E"}) {
    SCOPED_TRACE(algorithm);
    check_parity(workload, algorithm);
  }
  // The same command stream ignored: the pending-command retire gate must
  // not leak into the non-ECC engine.
  check_parity(workload, "Delayed-LOS");
}

TEST(StreamedEngine, MatchesWithDedicatedJobs) {
  workload::GeneratorConfig config = small_config();
  config.p_dedicated = 0.4;
  const workload::Workload workload = workload::generate(config);
  for (const char* algorithm : {"EASY-D", "LOS-D", "Hybrid-LOS"}) {
    SCOPED_TRACE(algorithm);
    check_parity(workload, algorithm);
  }
}

TEST(StreamedEngine, MatchesUnderFailuresEveryRequeuePolicy) {
  const workload::Workload workload = workload::generate(small_config());
  for (const fault::RequeuePolicy policy :
       {fault::RequeuePolicy::kRequeueHead, fault::RequeuePolicy::kRequeueTail,
        fault::RequeuePolicy::kAbandon}) {
    SCOPED_TRACE(static_cast<int>(policy));
    core::AlgorithmOptions options;
    options.engine.failure.enabled = true;
    options.engine.failure.mtbf = 4000;
    options.engine.failure.mttr = 600;
    options.engine.failure.max_nodes = 2;
    options.engine.failure.seed = 5;
    options.engine.requeue = policy;
    check_parity(workload, "Delayed-LOS", options);
  }
}

TEST(StreamedEngine, MatchesWithCheckpointRestart) {
  const workload::Workload workload = workload::generate(small_config());
  core::AlgorithmOptions options;
  options.engine.failure.enabled = true;
  options.engine.failure.mtbf = 4000;
  options.engine.failure.mttr = 600;
  options.engine.failure.max_nodes = 2;
  options.engine.failure.seed = 5;
  options.engine.checkpoint.enabled = true;
  options.engine.checkpoint.interval = 1800;
  options.engine.checkpoint.overhead = 60;
  check_parity(workload, "Delayed-LOS", options);
}

TEST(StreamedEngine, WatchdogAbortFoldsTheSameFinishedJobs) {
  // An aborted run agrees on everything too: utilization is integrated to
  // the last finish, unfinished and the offered load count the whole
  // trace, not just the chunks pulled before the abort.
  const workload::Workload workload = workload::generate(small_config());
  core::AlgorithmOptions options;
  options.engine.watchdog.max_events = 200;
  const sched::SimulationResult materialized =
      exp::run_workload(workload, "Delayed-LOS", options);
  EXPECT_NE(materialized.termination, sim::TerminationReason::kCompleted);
  EXPECT_GT(materialized.unfinished, 0u);
  check_parity(workload, "Delayed-LOS", options);
}

TEST(StreamedEngine, ParanoidModeChecksRetiredJobsThroughTheFold) {
  // Paranoid mode cross-checks every attachment ledger against the fold
  // counters plus the live records after each cycle, on any source: node
  // failures, requeues and abandonments all retire records mid-run.
  workload::GeneratorConfig config = small_config(200);
  config.target_load = 0.9;
  core::AlgorithmOptions options;
  options.engine.failure.enabled = true;
  options.engine.failure.mtbf = 4000;
  options.engine.failure.mttr = 600;
  options.engine.failure.max_nodes = 2;
  options.engine.failure.seed = 5;
  options.engine.failure.max_interruptions = 2;
  options.engine.requeue = fault::RequeuePolicy::kRequeueTail;
  const sched::SimulationResult plain =
      exp::run_workload(workload::generate(config), "Delayed-LOS", options);
  EXPECT_GT(plain.abandoned, 0u);
  options.engine.paranoid = true;
  workload::GeneratorSource source(config, 16);
  expect_identical(plain, exp::run_source(source, "Delayed-LOS", options));
}

TEST(StreamedEngine, GeneratorSourceStreamsWithoutMaterializing) {
  // End-to-end: the generator-backed source against the materialized
  // generate() + run() pipeline, including load calibration.
  workload::GeneratorConfig config = small_config();
  config.target_load = 0.8;
  const workload::Workload workload = workload::generate(config);
  const sched::SimulationResult materialized =
      exp::run_workload(workload, "Delayed-LOS");
  workload::GeneratorSource source(config, 16);
  const sched::SimulationResult streamed =
      exp::run_source(source, "Delayed-LOS");
  expect_identical(materialized, streamed);
}

TEST(StreamedEngine, GeneratorSourceKeepsFairSharePools) {
  // A tagged generator config streamed into multi-pool FairShare with
  // starvation relief must schedule job for job like the materialized run;
  // an untagged stream would silently collapse to one pool.
  workload::GeneratorConfig config = small_config(200);
  config.target_load = 1.0;
  config.num_users = 16;
  config.num_pools = 3;
  const workload::Workload workload = workload::generate(config);
  core::AlgorithmOptions options;
  options.engine.fairshare.pools = {
      {"a", 2.0, 0.3}, {"b", 1.0, 0.0}, {"c", 1.0, 0.0}};
  options.engine.fairshare.min_share_preemption_timeout = 60;
  options.engine.fairshare.fair_share_preemption_timeout = 600;
  const sched::SimulationResult materialized =
      exp::run_workload(workload, "FairShare", options);
  EXPECT_GT(materialized.failure.interruptions, 0u)
      << "the parity run must exercise pool-driven preemption";
  workload::GeneratorSource source(config, 16);
  const sched::SimulationResult streamed =
      exp::run_source(source, "FairShare", options);
  expect_identical(materialized, streamed);
}

TEST(StreamedEngine, HandCraftedTieGroupsAtChunkBoundaries) {
  // Equal arrivals straddling the nominal chunk edge: the source must
  // extend the chunk so same-instant arrival order (and any same-instant
  // command ordering) survives streaming.
  std::vector<workload::Job> jobs;
  for (int i = 0; i < 30; ++i)
    jobs.push_back(testing::batch_job(i + 1, 100.0 * (i / 3), 8, 600.0));
  std::vector<workload::Ecc> eccs;
  for (int i = 0; i < 10; ++i) {
    workload::Ecc ecc;
    ecc.job_id = 3 * i + 1;
    ecc.type = workload::EccType::kExtendTime;
    ecc.amount = 120;
    ecc.issue = 100.0 * i;  // same instant as a 3-job arrival group
    eccs.push_back(ecc);
  }
  const workload::Workload workload =
      testing::make_workload(64, 8, jobs, eccs);
  for (const std::size_t chunk :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{4}}) {
    SCOPED_TRACE(chunk);
    check_parity(workload, "Delayed-LOS-E", {}, chunk);
  }
}

}  // namespace
}  // namespace es
