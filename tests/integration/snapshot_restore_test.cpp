// Crash recovery by deterministic replay, end to end: a run killed at an
// event boundary and resumed from its own recovery record (the run is
// replayed from t = 0, checked against the record's state hash and
// continued) must reproduce the uninterrupted run bit for bit — for every
// factory algorithm, and exhaustively across *every* kill point on small
// scenarios built around the nastiest interactions (a record written while
// nodes are down, a preempted job holding a banked checkpoint in the
// requeue, contradictory same-instant ECC pairs, a reservation-saturated
// machine).  Plus the rejection contract: wrong-run records, tampered
// records, older formats.  Multi-window and streamed runs resume
// identically from records written on either side of a feed refill.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
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

/// Runs the simulation with a record every cycle and an event budget of
/// `kill_events`, returning the last recovery record written before the
/// watchdog killed the run (empty when the kill landed before the first
/// record).
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

/// Record written right after the event that ran cycle `cycle`; the run is
/// killed one event later.  Empty when the kill landed first, which needs
/// an event that runs no cycle.
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
/// the uninterrupted event count, resumes each from its last record, and
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
  // The outage window 50..80 guarantees records written while 64 procs are
  // offline (pending NodeUp) and records written with the NodeDown still
  // pending — the replay must reach both states and continue from them.
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
  // record a requeued job whose remaining work differs from its spec.
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
  // Contradictory same-instant ECC pairs: records land between the two
  // commands of a pair, while the conflict shield holds the first.
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
  // drains around them; a resume must reach the same dedicated ordering
  // and due events.
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
  // checkpoints, so the replay covers the failure RNG, requeues and
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
  // The AdaptiveSelector carries cross-cycle semantic state (its sliding
  // arrival window); the replay must rebuild it to pick the same delegates
  // after the recorded event.
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

/// `record` with the `index`-th u64 of its one section's payload replaced
/// by `value` and the section CRC recomputed: a well-formed record that
/// says something else (8-byte header, then the section framed as fourcc,
/// u64 length, payload, CRC32 of the payload).
std::string with_record_word(std::string record, std::size_t index,
                             std::uint64_t value) {
  constexpr std::size_t kPayload = 20;
  std::uint64_t length = 0;
  std::memcpy(&length, record.data() + 12, sizeof length);
  EXPECT_EQ(length, 24u);
  std::memcpy(record.data() + kPayload + 8 * index, &value, sizeof value);
  const std::uint32_t crc = snap::crc32(record.data() + kPayload, length);
  std::memcpy(record.data() + kPayload + length, &crc, sizeof crc);
  return record;
}

TEST(SnapshotRestore, RejectsARecordTheReplayDisagreesWith) {
  // Each field of a CRC-valid record is checked against the replay: the
  // fingerprint (a different run), the event ordinal (past the end of the
  // run) and the state hash.
  const auto workload =
      make_workload(320, 32, {batch_job(1, 0, 320, 100),
                              batch_job(2, 10, 96, 200)});
  const std::string record = snapshot_before_kill(workload, "EASY", {}, 3);
  ASSERT_FALSE(record.empty());
  {
    snap::SnapshotReader reader(record);  // the untouched record resumes
    EXPECT_EQ(exp::resume_workload(workload, "EASY", {}, reader).termination,
              sim::TerminationReason::kCompleted);
  }
  const struct {
    std::size_t index;
    std::uint64_t value;
    snap::SnapshotErrorKind kind;
  } mutations[] = {{0, 0x1234, snap::SnapshotErrorKind::kMismatch},
                   {1, 1000000, snap::SnapshotErrorKind::kCorrupt},
                   {1, 0, snap::SnapshotErrorKind::kCorrupt},
                   {2, 0x1234, snap::SnapshotErrorKind::kCorrupt}};
  for (const auto& mutation : mutations) {
    try {
      snap::SnapshotReader reader(
          with_record_word(record, mutation.index, mutation.value));
      (void)exp::resume_workload(workload, "EASY", {}, reader);
      FAIL() << "word " << mutation.index << " = " << mutation.value
             << " accepted";
    } catch (const snap::SnapshotError& error) {
      EXPECT_EQ(error.kind(), mutation.kind)
          << "word " << mutation.index << ": " << error.what();
    }
  }
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
  // (records written just before, at and just after it) plus seven sampled
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
                     "record at cycle " + std::to_string(cycle));
    EXPECT_EQ(uninterrupted.perf.events.scheduled,
              resumed.perf.events.scheduled);
    EXPECT_EQ(uninterrupted.perf.events.cancelled,
              resumed.perf.events.cancelled);
    EXPECT_EQ(uninterrupted.perf.events.fired, resumed.perf.events.fired);
    EXPECT_EQ(uninterrupted.perf.events.peak_pending,
              resumed.perf.events.peak_pending);
  }
}

TEST(SnapshotRestore, StreamedRunResumesInsideGeneratorChunks) {
  // A streamed GeneratorSource run records and resumes like a materialized
  // one: the resume pulls a fresh generator, with no cursor to seek.  Kill
  // points inside the first, second and third of three chunks.
  workload::GeneratorConfig config;
  config.machine_procs = 320;
  config.num_jobs = 9000;
  config.seed = 4243;
  config.p_dedicated = 0.3;
  config.p_extend = 0.2;
  config.p_reduce = 0.2;
  config.target_load = 0.9;
  const core::AlgorithmOptions options = three_window_options();
  workload::GeneratorSource reference(config);
  const sched::SimulationResult uninterrupted =
      exp::run_source(reference, "Hybrid-LOS-E", options);
  ASSERT_EQ(uninterrupted.termination, sim::TerminationReason::kCompleted);
  for (const std::uint64_t eighths : {1, 4, 7}) {
    const std::uint64_t cycle = uninterrupted.cycles * eighths / 8;
    core::AlgorithmOptions killed = options;
    killed.engine.snapshot.every_cycles = cycle;
    killed.engine.watchdog.max_events = cycle + 1;
    std::string record;
    workload::GeneratorSource recording(config);
    (void)exp::run_source(recording, "Hybrid-LOS-E", killed,
                          [&record](sched::Engine& engine) {
                            engine.set_snapshot_sink(
                                [&record](const std::string& bytes) {
                                  record = bytes;
                                });
                          });
    ASSERT_FALSE(record.empty()) << "cycle " << cycle;
    snap::SnapshotReader reader(record);
    workload::GeneratorSource replayed(config);
    expect_identical(
        uninterrupted,
        exp::resume_source(replayed, "Hybrid-LOS-E", options, reader),
        "record at cycle " + std::to_string(cycle));
  }
}

TEST(SnapshotRestore, RejectsOlderFormatVersions) {
  // Versions 1 to 3 were engine state images (version 1 without a window
  // cursor, version 2 with every job record, version 3 with the live ones);
  // a replay has no use for any of them.
  const auto workload =
      make_workload(320, 32, {batch_job(1, 0, 320, 100),
                              batch_job(2, 10, 96, 200)});
  const std::string image = snapshot_before_kill(workload, "EASY", {}, 3);
  ASSERT_GT(image.size(), 8u);
  for (const int version : {1, 2, 3}) {
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
