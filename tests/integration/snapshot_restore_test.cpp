// Crash-consistent snapshot/restore end to end: a run killed at an event
// boundary and resumed from the engine's own snapshot must reproduce the
// uninterrupted run bit for bit — for every factory algorithm, and
// exhaustively across *every* kill point on small scenarios built around
// the nastiest interactions (a snapshot taken while nodes are down, a
// preempted job holding a banked checkpoint in the requeue, contradictory
// same-instant ECC pairs, a reservation-saturated machine).  Plus the
// rejection contract: wrong-run snapshots, tampered images, and a trace
// ledger restored into an engine that cannot hold it.  Multi-window runs
// resume identically from snapshots taken on either side of every window
// refill of the feed, which holds only the in-flight job records.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench/refill_cycles.hpp"
#include "core/factory.hpp"
#include "exp/experiment.hpp"
#include "sched/engine.hpp"
#include "snap/snapshot.hpp"
#include "testing/helpers.hpp"
#include "workload/generator.hpp"
#include "workload/source.hpp"

namespace es {
namespace {

using es::testing::batch_job;
using es::testing::dedicated_job;
using es::testing::make_workload;

/// Runs the simulation with snapshot-every-cycle capture and an event
/// budget of `kill_events`, returning the last snapshot image taken before
/// the watchdog killed the run (empty when the kill landed before the
/// first snapshot).
std::string snapshot_before_kill(const workload::Workload& workload,
                                 const std::string& algorithm,
                                 const core::AlgorithmOptions& options,
                                 std::uint64_t kill_events) {
  core::AlgorithmOptions killed = options;
  killed.engine.snapshot.every_cycles = 1;
  killed.engine.watchdog.max_events = kill_events;
  std::string image;
  (void)exp::run_workload_prepared(
      workload, algorithm, killed, [&image](sched::Engine& engine) {
        engine.set_snapshot_sink(
            [&image](const std::string& bytes) { image = bytes; });
      });
  return image;
}

/// Snapshot taken right after the event that ran cycle `cycle`; the run is
/// killed one event later.  Far cheaper than snapshotting every cycle on
/// runs of thousands of jobs (each image holds every live record and
/// every kept outcome).  Empty
/// when the kill landed first, which needs an event that runs no cycle.
std::string snapshot_at_cycle(const workload::Workload& workload,
                              const std::string& algorithm,
                              const core::AlgorithmOptions& options,
                              std::uint64_t cycle) {
  core::AlgorithmOptions killed = options;
  killed.engine.snapshot.every_cycles = cycle;
  killed.engine.watchdog.max_events = cycle + 1;
  std::string image;
  (void)exp::run_workload_prepared(
      workload, algorithm, killed, [&image](sched::Engine& engine) {
        engine.set_snapshot_sink(
            [&image](const std::string& bytes) { image = bytes; });
      });
  return image;
}

/// Field-by-field equality of every deterministic result quantity; doubles
/// are compared exactly because a resumed run must replay the identical
/// floating-point operation sequence.
void expect_identical(const sched::SimulationResult& expected,
                      const sched::SimulationResult& actual,
                      const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(expected.completed, actual.completed);
  EXPECT_EQ(expected.killed, actual.killed);
  EXPECT_EQ(expected.abandoned, actual.abandoned);
  EXPECT_EQ(expected.unfinished, actual.unfinished);
  EXPECT_EQ(expected.cycles, actual.cycles);
  EXPECT_EQ(expected.events, actual.events);
  EXPECT_EQ(expected.utilization, actual.utilization);
  EXPECT_EQ(expected.mean_wait, actual.mean_wait);
  EXPECT_EQ(expected.slowdown, actual.slowdown);
  EXPECT_EQ(expected.makespan, actual.makespan);
  EXPECT_EQ(expected.ecc.processed, actual.ecc.processed);
  EXPECT_EQ(expected.ecc.conflicts, actual.ecc.conflicts);
  EXPECT_EQ(expected.failure.outages, actual.failure.outages);
  EXPECT_EQ(expected.failure.interruptions, actual.failure.interruptions);
  EXPECT_EQ(expected.failure.requeues, actual.failure.requeues);
  EXPECT_EQ(expected.failure.checkpoints, actual.failure.checkpoints);
  EXPECT_EQ(expected.failure.saved_proc_seconds,
            actual.failure.saved_proc_seconds);
  EXPECT_EQ(expected.failure.wasted_proc_seconds,
            actual.failure.wasted_proc_seconds);
  ASSERT_EQ(expected.jobs.size(), actual.jobs.size());
  for (std::size_t i = 0; i < expected.jobs.size(); ++i) {
    const sched::JobOutcome& a = expected.jobs[i];
    const sched::JobOutcome& b = actual.jobs[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.killed, b.killed);
    EXPECT_EQ(a.abandoned, b.abandoned);
    EXPECT_EQ(a.interruptions, b.interruptions);
    EXPECT_EQ(a.procs, b.procs);
    EXPECT_EQ(a.started, b.started) << "job " << a.id;
    EXPECT_EQ(a.finished, b.finished) << "job " << a.id;
    EXPECT_EQ(a.wait, b.wait);
    EXPECT_EQ(a.run, b.run);
  }
}

/// The exhaustive harness: kills the run at every event boundary from 1 to
/// the uninterrupted event count, resumes each from its last snapshot, and
/// requires bit-identical results.  Small workloads keep this affordable
/// while covering every possible restore instant — including the awkward
/// ones (nodes down, checkpoints banked, reservations pinned).
void expect_every_kill_point_resumes(const workload::Workload& workload,
                                     const std::string& algorithm,
                                     const core::AlgorithmOptions& options) {
  const sched::SimulationResult uninterrupted =
      exp::run_workload(workload, algorithm, options);
  ASSERT_EQ(uninterrupted.termination, sim::TerminationReason::kCompleted);
  for (std::uint64_t kill = 1; kill <= uninterrupted.events; ++kill) {
    const std::string image =
        snapshot_before_kill(workload, algorithm, options, kill);
    sched::SimulationResult resumed;
    if (image.empty()) {
      resumed = exp::run_workload(workload, algorithm, options);
    } else {
      snap::SnapshotReader reader(image);
      resumed = exp::resume_workload(workload, algorithm, options, reader);
    }
    expect_identical(uninterrupted, resumed,
                     "kill at " + std::to_string(kill) + " events");
  }
}

core::AlgorithmOptions scripted_failure_options(
    std::vector<fault::Outage> script,
    fault::RequeuePolicy policy = fault::RequeuePolicy::kRequeueHead) {
  core::AlgorithmOptions options;
  options.engine.failure.enabled = true;
  options.engine.failure.script = std::move(script);
  options.engine.requeue = policy;
  return options;
}

TEST(SnapshotRestore, EveryKillPointAcrossAPendingOutage) {
  // The outage window 50..80 guarantees snapshots taken while 64 procs are
  // offline (pending NodeUp) and snapshots taken with the NodeDown still
  // pending — both chains must rebuild from the single pending-outage slot.
  const auto workload = make_workload(
      320, 32,
      {batch_job(1, 0, 320, 100), batch_job(2, 10, 96, 200),
       batch_job(3, 20, 160, 150), batch_job(4, 120, 320, 80)});
  expect_every_kill_point_resumes(workload, "EASY",
                                  scripted_failure_options({{50, 80, 64}}));
}

TEST(SnapshotRestore, EveryKillPointWithBankedCheckpointInRequeue) {
  // Checkpoints every 20 s of work; the t=50 outage preempts job 1 with
  // 40 s banked, so kill points between the preemption and the restart
  // snapshot a requeued job whose remaining work differs from its spec —
  // exactly the state a naive restore would lose.
  const auto workload = make_workload(
      320, 32,
      {batch_job(1, 0, 320, 100), batch_job(2, 5, 64, 120),
       batch_job(3, 60, 128, 90)});
  core::AlgorithmOptions options = scripted_failure_options({{50, 80, 32}});
  options.engine.checkpoint.enabled = true;
  options.engine.checkpoint.interval = 20;
  options.engine.checkpoint.overhead = 5;
  expect_every_kill_point_resumes(workload, "EASY", options);
}

TEST(SnapshotRestore, EveryKillPointThroughAnEccStorm) {
  // Contradictory same-instant ECC pairs: the conflict shield's
  // first-wins-per-dimension state must survive a snapshot taken between
  // the two commands of a pair.
  std::vector<workload::Ecc> eccs;
  auto ecc = [](workload::JobId job, double issue, workload::EccType type,
                double amount) {
    workload::Ecc e;
    e.job_id = job;
    e.issue = issue;
    e.type = type;
    e.amount = amount;
    return e;
  };
  eccs.push_back(ecc(1, 30, workload::EccType::kExtendTime, 60));
  eccs.push_back(ecc(1, 30, workload::EccType::kReduceTime, 40));
  eccs.push_back(ecc(2, 45, workload::EccType::kExtendProcs, 32));
  eccs.push_back(ecc(2, 45, workload::EccType::kReduceProcs, 32));
  eccs.push_back(ecc(3, 10, workload::EccType::kExtendTime, 120));
  eccs.push_back(ecc(9, 40, workload::EccType::kExtendTime, 50));  // unknown
  const auto workload = make_workload(
      320, 32,
      {batch_job(1, 0, 160, 100), batch_job(2, 5, 96, 150),
       batch_job(3, 8, 64, 80), batch_job(4, 50, 320, 60)},
      eccs);
  expect_every_kill_point_resumes(workload, "Hybrid-LOS-E", {});
}

TEST(SnapshotRestore, EveryKillPointOnADedicatedSaturatedMachine) {
  // Back-to-back reservations pin the dedicated queue while batch work
  // drains around them; restore must preserve the dedicated ordering and
  // the due events.
  const auto workload = make_workload(
      320, 32,
      {dedicated_job(1, 0, 320, 50, 100), dedicated_job(2, 0, 320, 50, 150),
       dedicated_job(3, 10, 160, 40, 210), batch_job(4, 0, 96, 120),
       batch_job(5, 20, 64, 90), batch_job(6, 30, 320, 60)});
  expect_every_kill_point_resumes(workload, "Hybrid-LOS", {});
}

TEST(SnapshotRestore, EveryFactoryAlgorithmResumesIdentically) {
  // The full algorithm matrix at a generated-workload scale, one mid-run
  // kill each (the per-boundary sweeps above cover the kill-point axis).
  // Dedicated-aware algorithms also run with node failures and periodic
  // checkpoints, so the restore covers the failure RNG, requeues and
  // checkpoint banks too.
  workload::GeneratorConfig config;
  config.machine_procs = 320;
  config.num_jobs = 60;
  config.seed = 99;
  config.p_extend = 0.2;
  config.p_reduce = 0.2;
  config.target_load = 0.9;
  const workload::Workload batch = workload::generate(config);
  config.p_dedicated = 0.35;
  config.seed = 101;
  const workload::Workload hetero = workload::generate(config);
  const core::AlgorithmOptions faulty =
      testing::with_faults_and_checkpoints();

  for (const std::string& name : core::algorithm_names()) {
    const bool dedicated =
        core::make_algorithm(name).policy->supports_dedicated();
    const workload::Workload& workload = dedicated ? hetero : batch;
    const core::AlgorithmOptions options =
        dedicated ? faulty : core::AlgorithmOptions{};
    const sched::SimulationResult uninterrupted =
        exp::run_workload(workload, name, options);
    const std::string image = snapshot_before_kill(
        workload, name, options, uninterrupted.events / 2 + 1);
    ASSERT_FALSE(image.empty()) << name;
    snap::SnapshotReader reader(image);
    const sched::SimulationResult resumed =
        exp::resume_workload(workload, name, options, reader);
    expect_identical(uninterrupted, resumed, name);
  }
}

TEST(SnapshotRestore, AdaptivePolicyStateSurvivesRestore) {
  // The AdaptiveSelector carries cross-cycle semantic state; a restore
  // that dropped it would pick differently after resume.
  workload::GeneratorConfig config;
  config.machine_procs = 320;
  config.num_jobs = 80;
  config.seed = 7;
  config.target_load = 1.0;
  const workload::Workload workload = workload::generate(config);
  const core::AlgorithmOptions options;
  const sched::SimulationResult uninterrupted =
      exp::run_workload(workload, "Adaptive", options);
  for (const std::uint64_t kill :
       {uninterrupted.events / 4 + 1, uninterrupted.events / 2 + 1,
        (3 * uninterrupted.events) / 4 + 1}) {
    const std::string image =
        snapshot_before_kill(workload, "Adaptive", options, kill);
    ASSERT_FALSE(image.empty());
    snap::SnapshotReader reader(image);
    const sched::SimulationResult resumed =
        exp::resume_workload(workload, "Adaptive", options, reader);
    expect_identical(uninterrupted, resumed,
                     "kill at " + std::to_string(kill));
  }
}

TEST(SnapshotRestore, RejectsSnapshotOfADifferentWorkload) {
  const auto workload =
      make_workload(320, 32, {batch_job(1, 0, 320, 100),
                              batch_job(2, 10, 96, 200)});
  const std::string image = snapshot_before_kill(workload, "EASY", {}, 3);
  ASSERT_FALSE(image.empty());
  auto other = workload;
  other.jobs[1].dur = 250;  // same shape, different run
  other.normalize();
  snap::SnapshotReader reader(image);
  try {
    (void)exp::resume_workload(other, "EASY", {}, reader);
    FAIL() << "foreign snapshot accepted";
  } catch (const snap::SnapshotError& error) {
    EXPECT_EQ(error.kind(), snap::SnapshotErrorKind::kMismatch);
  }
}

TEST(SnapshotRestore, RejectsSnapshotOfADifferentPolicy) {
  const auto workload =
      make_workload(320, 32, {batch_job(1, 0, 320, 100),
                              batch_job(2, 10, 96, 200)});
  const std::string image = snapshot_before_kill(workload, "EASY", {}, 3);
  ASSERT_FALSE(image.empty());
  snap::SnapshotReader reader(image);
  try {
    (void)exp::resume_workload(workload, "FCFS", {}, reader);
    FAIL() << "cross-policy snapshot accepted";
  } catch (const snap::SnapshotError& error) {
    EXPECT_EQ(error.kind(), snap::SnapshotErrorKind::kMismatch);
  }
}

TEST(SnapshotRestore, RejectsTamperedImage) {
  const auto workload =
      make_workload(320, 32, {batch_job(1, 0, 320, 100),
                              batch_job(2, 10, 96, 200)});
  std::string image = snapshot_before_kill(workload, "EASY", {}, 3);
  ASSERT_GT(image.size(), 21u);
  image[20] = static_cast<char>(static_cast<unsigned char>(image[20]) ^ 0x10);
  try {
    snap::SnapshotReader reader(image);
    (void)exp::resume_workload(workload, "EASY", {}, reader);
    FAIL() << "tampered snapshot accepted";
  } catch (const snap::SnapshotError& error) {
    EXPECT_EQ(error.kind(), snap::SnapshotErrorKind::kCorrupt);
  }
}

TEST(SnapshotRestore, SavedTraceNeedsATracingEngine) {
  // A snapshot carrying a non-empty trace ledger cannot restore into an
  // engine that is not recording one — silently dropping audit rows would
  // make the resumed trace a lie.
  const auto workload =
      make_workload(320, 32, {batch_job(1, 0, 320, 100),
                              batch_job(2, 10, 96, 200)});
  core::AlgorithmOptions tracing;
  tracing.engine.record_trace = true;
  const sched::SimulationResult uninterrupted =
      exp::run_workload(workload, "EASY", tracing);
  const std::string image = snapshot_before_kill(
      workload, "EASY", tracing, uninterrupted.events / 2 + 1);
  ASSERT_FALSE(image.empty());
  {
    snap::SnapshotReader reader(image);
    try {
      (void)exp::resume_workload(workload, "EASY", {}, reader);
      FAIL() << "trace-bearing snapshot accepted by a non-tracing engine";
    } catch (const snap::SnapshotError& error) {
      EXPECT_EQ(error.kind(), snap::SnapshotErrorKind::kMismatch);
    }
  }
  // With tracing enabled the same snapshot resumes to the identical run.
  snap::SnapshotReader reader(image);
  const sched::SimulationResult resumed =
      exp::resume_workload(workload, "EASY", tracing, reader);
  expect_identical(uninterrupted, resumed, "traced resume");
}

/// Hybrid-LOS-E over three feed windows (two refills) with dedicated
/// reservations, time/processor ECCs, node failures and checkpointing.
workload::Workload three_window_workload() {
  workload::GeneratorConfig config;
  config.machine_procs = 320;
  config.num_jobs = 9000;
  config.seed = 4242;
  config.p_dedicated = 0.3;
  config.p_extend = 0.2;
  config.p_reduce = 0.2;
  config.p_extend_procs = 0.1;
  config.p_reduce_procs = 0.1;
  config.target_load = 0.9;
  return workload::generate(config);
}

core::AlgorithmOptions three_window_options() {
  core::AlgorithmOptions options;
  options.engine.failure.enabled = true;
  options.engine.failure.seed = 23;
  options.engine.failure.mtbf = 12 * 3600.0;
  options.engine.failure.mttr = 30 * 60.0;
  options.engine.failure.max_nodes = 2;
  options.engine.checkpoint.enabled = true;
  options.engine.checkpoint.interval = 1800;
  options.engine.checkpoint.overhead = 30;
  return options;
}

TEST(SnapshotRestore, ResumesAcrossWindowRefills) {
  // Kill points on both sides of every refill of the materialized feed
  // (the cursor and the current window's unfired arrivals must survive a
  // snapshot taken just before, at and just after it) plus seven sampled
  // mid-window points.
  const workload::Workload workload = three_window_workload();
  const core::AlgorithmOptions options = three_window_options();
  bench::RefillCycles refills(workload);
  const sched::SimulationResult uninterrupted =
      exp::run_workload(workload, "Hybrid-LOS-E", options, &refills,
                        bench::RefillCycles::kHookMask);
  ASSERT_EQ(uninterrupted.termination, sim::TerminationReason::kCompleted);
  ASSERT_EQ(refills.cycles.size(), 2u);
  EXPECT_LT(uninterrupted.perf.events.peak_pending,
            3 * workload::WorkloadCursor::kDefaultChunkJobs);

  std::vector<std::uint64_t> kill_cycles;
  for (const std::uint64_t refill : refills.cycles)
    for (const std::uint64_t cycle : {refill - 1, refill, refill + 1})
      kill_cycles.push_back(cycle);
  for (std::uint64_t k = 1; k < 8; ++k)
    kill_cycles.push_back(uninterrupted.cycles * k / 8);
  for (const std::uint64_t cycle : kill_cycles) {
    const std::string image =
        snapshot_at_cycle(workload, "Hybrid-LOS-E", options, cycle);
    ASSERT_FALSE(image.empty()) << "cycle " << cycle;
    snap::SnapshotReader reader(image);
    const sched::SimulationResult resumed =
        exp::resume_workload(workload, "Hybrid-LOS-E", options, reader);
    expect_identical(uninterrupted, resumed,
                     "snapshot at cycle " + std::to_string(cycle));
    EXPECT_EQ(uninterrupted.perf.events.scheduled,
              resumed.perf.events.scheduled);
    EXPECT_EQ(uninterrupted.perf.events.cancelled,
              resumed.perf.events.cancelled);
    EXPECT_EQ(uninterrupted.perf.events.fired, resumed.perf.events.fired);
    EXPECT_EQ(uninterrupted.perf.events.peak_pending,
              resumed.perf.events.peak_pending);
  }
}

/// FNV-1a over a snapshot image's raw bytes.
std::uint64_t image_hash(const std::string& image) {
  std::uint64_t hash = 14695981039346656037ull;
  for (const char byte : image) {
    hash ^= static_cast<unsigned char>(byte);
    hash *= 1099511628211ull;
  }
  return hash;
}

/// Hashes of the images snapshot_at_cycle() takes at each of `cycles`.
std::vector<std::uint64_t> image_hashes(
    const workload::Workload& workload, const std::string& algorithm,
    const core::AlgorithmOptions& options,
    const std::vector<std::uint64_t>& cycles) {
  std::vector<std::uint64_t> hashes;
  for (const std::uint64_t cycle : cycles) {
    const std::string image =
        snapshot_at_cycle(workload, algorithm, options, cycle);
    EXPECT_FALSE(image.empty()) << "cycle " << cycle;
    hashes.push_back(image_hash(image));
  }
  return hashes;
}

TEST(SnapshotRestore, ImageBytesArePinned) {
  // The snapshot format is the event kernel's persistence contract: the
  // EVTS section stores every pending (time, class, seq, tag) and the
  // rest of the image every ledger the engine keeps.  These hashes were
  // recorded from the format-3 writer (live records only, retired jobs
  // folded into FOLD, the retired DP result cache's ENGN word written as
  // 0); any change to what a snapshot holds, or in which order, changes
  // them.
  {
    // Hybrid-LOS-E with dedicated jobs, ECCs, failures and checkpoints:
    // kill points on both sides of both window refills, plus two sampled.
    const workload::Workload workload = three_window_workload();
    const core::AlgorithmOptions options = three_window_options();
    bench::RefillCycles refills(workload);
    const sched::SimulationResult run =
        exp::run_workload(workload, "Hybrid-LOS-E", options, &refills,
                          bench::RefillCycles::kHookMask);
    ASSERT_EQ(refills.cycles.size(), 2u);
    EXPECT_GT(run.ecc.processed, 0u);
    EXPECT_GT(run.failure.outages, 0u);
    EXPECT_GT(run.failure.checkpoints, 0u);
    std::vector<std::uint64_t> cycles;
    for (const std::uint64_t refill : refills.cycles)
      for (const std::uint64_t cycle : {refill - 1, refill, refill + 1})
        cycles.push_back(cycle);
    cycles.push_back(run.cycles / 3);
    cycles.push_back(run.cycles * 5 / 6);
    EXPECT_EQ(image_hashes(workload, "Hybrid-LOS-E", options, cycles),
              (std::vector<std::uint64_t>{
                  0x76ba723f229906dbull, 0x5a0a12d171dffdb0ull,
                  0x20778aa793f41ce5ull, 0x12b3581d0af5a367ull,
                  0x4b802c1ee7336f0dull, 0xf066afe9d8343712ull,
                  0x69269dd2817598e7ull, 0x4effa8f669634aa0ull}));
  }
  {
    // 4-pool FairShare with policy preemption, failures and tail requeue.
    workload::GeneratorConfig config;
    config.machine_procs = 320;
    config.num_jobs = 5000;
    config.seed = 2929;
    config.target_load = 0.95;
    config.num_users = 32;
    config.num_pools = 4;
    const workload::Workload workload = workload::generate(config);
    core::AlgorithmOptions options = three_window_options();
    options.engine.requeue = fault::RequeuePolicy::kRequeueTail;
    options.engine.fairshare.pools = {{"prod", 4.0, 0.25},
                                      {"batch", 2.0, 0.0},
                                      {"dev", 1.0, 0.1},
                                      {"scavenger", 1.0, 0.0}};
    options.engine.fairshare.min_share_preemption_timeout = 120;
    options.engine.fairshare.fair_share_preemption_timeout = 900;
    const sched::SimulationResult run =
        exp::run_workload(workload, "FairShare", options);
    EXPECT_GT(run.failure.interruptions, run.failure.outages);
    std::vector<std::uint64_t> cycles;
    for (std::uint64_t k = 1; k < 6; ++k) cycles.push_back(run.cycles * k / 6);
    EXPECT_EQ(image_hashes(workload, "FairShare", options, cycles),
              (std::vector<std::uint64_t>{
                  0x5b7dbb95d2d5fc72ull, 0x4b8ffedea10fb20cull,
                  0xa7233f07f3861010ull, 0xbdfe9a4d34b5ff45ull,
                  0xd875d7ec5a78b46bull}));
  }
}

/// The EVTS section's payload: offset and length inside a snapshot image
/// (8-byte header, then sections framed as fourcc, u64 length, payload,
/// CRC32 of the payload).
std::pair<std::size_t, std::size_t> evts_payload(const std::string& image) {
  std::size_t at = 8;
  while (at + 12 <= image.size()) {
    std::uint64_t length = 0;
    std::memcpy(&length, image.data() + at + 4, sizeof length);
    if (image.compare(at, 4, "EVTS") == 0) return {at + 12, length};
    at += 12 + length + 4;
  }
  ADD_FAILURE() << "no EVTS section";
  return {0, 0};
}

TEST(SnapshotRestore, RejectsEccEventsOutOfSchedulingOrder) {
  // ECC events are scheduled in tag order, so EVTS (in seq order) lists
  // their tags ascending; a swapped or duplicated tag would apply a
  // command twice or out of turn, and is corrupt even under a valid CRC.
  workload::GeneratorConfig config;
  config.machine_procs = 320;
  config.num_jobs = 60;
  config.seed = 5;
  config.p_extend = 0.3;
  config.p_reduce = 0.3;
  config.target_load = 0.9;
  const workload::Workload workload = workload::generate(config);
  const std::string image = snapshot_before_kill(workload, "EASY-E", {}, 3);
  ASSERT_FALSE(image.empty());
  const auto [payload, length] = evts_payload(image);
  constexpr std::size_t kEntry = 28;  // f64 time, i32 class, u64 seq, tag
  std::vector<std::size_t> ecc_tags;  // offsets of the ECC entries' tags
  for (std::size_t at = payload + 8; at + kEntry <= payload + length;
       at += kEntry) {
    std::int32_t cls = 0;
    std::memcpy(&cls, image.data() + at + 8, sizeof cls);
    if (cls == static_cast<std::int32_t>(sim::EventClass::kEccArrival))
      ecc_tags.push_back(at + 20);
  }
  ASSERT_GE(ecc_tags.size(), 2u);
  {
    snap::SnapshotReader reader(image);  // the untouched image resumes
    EXPECT_EQ(exp::resume_workload(workload, "EASY-E", {}, reader)
                  .termination,
              sim::TerminationReason::kCompleted);
  }
  for (const bool duplicate : {false, true}) {
    std::string bad = image;
    // Swap the first two ECC tags, or copy the first over the second.
    bad.replace(ecc_tags[1], 8, image, ecc_tags[0], 8);
    if (!duplicate) bad.replace(ecc_tags[0], 8, image, ecc_tags[1], 8);
    const std::uint32_t crc = snap::crc32(bad.data() + payload, length);
    std::memcpy(bad.data() + payload + length, &crc, sizeof crc);
    try {
      snap::SnapshotReader reader(bad);
      (void)exp::resume_workload(workload, "EASY-E", {}, reader);
      FAIL() << (duplicate ? "duplicate" : "swapped") << " ECC tags accepted";
    } catch (const snap::SnapshotError& error) {
      EXPECT_EQ(error.kind(), snap::SnapshotErrorKind::kCorrupt);
      EXPECT_NE(std::string(error.what()).find("scheduling order"),
                std::string::npos)
          << error.what();
    }
  }
}

TEST(SnapshotRestore, RejectsOlderFormatVersions) {
  // Version 1 carried no window cursor and version 2 every job record,
  // retired or not; there is no migration path from either.
  const auto workload =
      make_workload(320, 32, {batch_job(1, 0, 320, 100),
                              batch_job(2, 10, 96, 200)});
  const std::string image = snapshot_before_kill(workload, "EASY", {}, 3);
  ASSERT_GT(image.size(), 8u);
  for (const int version : {1, 2}) {
    std::string old = image;
    // Format version, little-endian u32 at bytes 4..7.
    old[4] = static_cast<char>(version);
    old[5] = old[6] = old[7] = 0;
    try {
      snap::SnapshotReader reader(old);
      (void)exp::resume_workload(workload, "EASY", {}, reader);
      FAIL() << "version-" << version << " snapshot accepted";
    } catch (const snap::SnapshotError& error) {
      EXPECT_EQ(error.kind(), snap::SnapshotErrorKind::kVersion);
    }
  }
}

}  // namespace
}  // namespace es
