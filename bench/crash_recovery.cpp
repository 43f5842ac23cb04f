// crash_recovery — kill-point injection harness for crash recovery by
// deterministic replay (Engine::resume).
//
// Five legs, every one a hard gate (non-zero exit on any failure):
//
//   1. randomized kill points: the reference run is repeated with a
//      recovery record every cycle and an event-budget watchdog that kills
//      it at a random event boundary; the run is then replayed to the last
//      record written before the kill, checked against it and finished.
//      The resumed result must serialize byte-identically to the
//      uninterrupted run — for every kill point, across batch/elastic and
//      heterogeneous/faulty workloads.  Full mode injects >= 200 kill
//      points; --quick a couple dozen.
//   2. corruption matrix: a captured record is mutilated — truncated at
//      sampled lengths, single-bit-flipped at sampled offsets,
//      format-version bumped — and every mutation must be *rejected* with
//      a typed SnapshotError.
//   3. ring fallback: a disk ring of K generations whose newest member is
//      corrupted must fall back to the previous intact generation and
//      resume successfully from it.
//   4. window refills: a run long enough for Engine::run() to feed its
//      events in several windows is killed one cycle before, at and one
//      cycle after every refill, and at sampled mid-window cycles; each
//      resume must match the uninterrupted run byte for byte.  One record
//      is written, at the target cycle.
//   5. generator chunks: the same trace streamed from a GeneratorSource is
//      killed on both sides of its first refill and inside its second
//      chunk, and resumed by pulling a fresh generator.
//
// The harness captures records through Engine::set_snapshot_sink, so legs
// 1, 4 and 5 do no filesystem traffic; leg 3 exercises the real ring
// directory.
#include <cstdio>
#include <filesystem>
#include <string>
#include <unistd.h>
#include <vector>

#include "bench_common.hpp"
#include "exp/experiment.hpp"
#include "refill_cycles.hpp"
#include "snap/ring.hpp"
#include "snap/snapshot.hpp"
#include "util/rng.hpp"

namespace {

struct CrashCase {
  std::string name;
  es::workload::Workload workload;
  es::core::AlgorithmOptions options;
  std::string algorithm;
  std::string expected;          ///< uninterrupted deterministic CSV
  std::uint64_t events = 0;      ///< uninterrupted event count
};

/// Runs the case with a record every `every_cycles` cycles, killed at
/// `kill_events` and resumed from the last pre-kill record.  Returns true
/// when the resumed result matches the uninterrupted serialization byte
/// for byte.
bool kill_and_resume_matches(const CrashCase& test, std::uint64_t kill_events,
                             std::uint64_t every_cycles,
                             std::uint64_t* records_out) {
  es::core::AlgorithmOptions killed = test.options;
  killed.engine.snapshot.every_cycles = every_cycles;
  killed.engine.watchdog.max_events = kill_events;
  std::string last_record;
  std::uint64_t records = 0;
  (void)es::exp::run_workload_prepared(
      test.workload, test.algorithm, killed,
      [&last_record, &records](es::sched::Engine& engine) {
        engine.set_snapshot_sink(
            [&last_record, &records](const std::string& record) {
              last_record = record;
              ++records;
            });
      });
  if (records_out != nullptr) *records_out += records;
  es::sched::SimulationResult resumed;
  if (last_record.empty()) {
    // Killed before the first record: recovery is a fresh full run.
    resumed = es::exp::run_workload(test.workload, test.algorithm,
                                    test.options);
  } else {
    es::snap::SnapshotReader reader(last_record);
    resumed = es::exp::resume_workload(test.workload, test.algorithm,
                                       test.options, reader);
  }
  return es::bench::result_fingerprint_csv(resumed) == test.expected;
}

/// True when the mutated record is rejected with a typed SnapshotError by
/// validation or by the replay's check (acceptance of a mutated record is
/// the failure mode this harness exists to catch).
bool rejected(const CrashCase& test, const std::string& record) {
  try {
    es::snap::SnapshotReader reader(record);
    (void)es::exp::resume_workload(test.workload, test.algorithm,
                                   test.options, reader);
  } catch (const es::snap::SnapshotError&) {
    return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  es::bench::BenchOptions options;
  if (!es::bench::parse_bench_options(
          argc, argv,
          "Crash-recovery gate: randomized kill points, corruption matrix, "
          "ring fallback",
          options))
    return 0;

  const int kill_points = options.quick ? 24 : 200;
  const int corruption_samples = options.quick ? 48 : 256;

  // --- the reference runs ----------------------------------------------
  es::workload::GeneratorConfig config;
  config.machine_procs = 320;
  config.num_jobs = options.quick ? 120 : 250;
  config.seed = options.seed;
  config.p_small = 0.5;
  config.p_extend = 0.25;
  config.p_reduce = 0.25;
  config.target_load = 0.9;

  std::vector<CrashCase> cases;
  {
    CrashCase batch;
    batch.name = "batch-elastic";
    batch.workload = es::workload::generate(config);
    batch.algorithm = "Hybrid-LOS-E";
    batch.options = es::bench::algo_options(options);
    cases.push_back(batch);

    es::workload::GeneratorConfig hetero_config = config;
    hetero_config.p_dedicated = 0.4;
    hetero_config.seed = options.seed + 29;
    CrashCase hetero;
    hetero.name = "hetero-faulty-ckpt";
    hetero.workload = es::workload::generate(hetero_config);
    hetero.algorithm = "Hybrid-LOS-E";
    hetero.options = es::bench::algo_options(options);
    hetero.options.engine.failure.enabled = true;
    hetero.options.engine.failure.seed = 7;
    hetero.options.engine.failure.mtbf = 30000;
    hetero.options.engine.failure.mttr = 3000;
    hetero.options.engine.failure.max_nodes = 3;
    hetero.options.engine.checkpoint.enabled = true;
    hetero.options.engine.checkpoint.interval = 1500;
    hetero.options.engine.checkpoint.overhead = 20;
    hetero.options.engine.checkpoint.on_preempt = true;
    cases.push_back(hetero);

    CrashCase adaptive;
    adaptive.name = "adaptive-policy-state";
    adaptive.workload = cases.front().workload;
    adaptive.algorithm = "Adaptive";
    adaptive.options = es::bench::algo_options(options);
    cases.push_back(adaptive);
  }
  for (CrashCase& test : cases) {
    const es::sched::SimulationResult uninterrupted =
        es::exp::run_workload(test.workload, test.algorithm, test.options);
    test.expected = es::bench::result_fingerprint_csv(uninterrupted);
    test.events = uninterrupted.events;
  }

  // --- leg 1: randomized kill points -----------------------------------
  es::util::Rng rng(options.seed ^ 0xc0ffee);
  int failures = 0;
  std::uint64_t records_taken = 0;
  for (int i = 0; i < kill_points; ++i) {
    const CrashCase& test = cases[static_cast<std::size_t>(i) % cases.size()];
    const std::uint64_t kill_events = static_cast<std::uint64_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(test.events)));
    if (!kill_and_resume_matches(test, kill_events, 1, &records_taken)) {
      std::printf("kill point %d (%s, %llu events): DIVERGED\n", i,
                  test.name.c_str(),
                  static_cast<unsigned long long>(kill_events));
      ++failures;
    }
  }
  std::printf("kill points: %d injected across %zu cases, %llu records, "
              "%d divergences\n",
              kill_points, cases.size(),
              static_cast<unsigned long long>(records_taken), failures);

  // --- leg 2: corruption matrix ----------------------------------------
  // One representative mid-run record per case, then sampled truncations
  // and bit flips plus a version bump.  Every mutation must be rejected.
  // (SnapshotRestore.RejectsARecordTheReplayDisagreesWith rewrites each
  // payload word under a valid CRC.)
  int accepted_mutations = 0;
  int mutations = 0;
  for (const CrashCase& test : cases) {
    es::core::AlgorithmOptions killed = test.options;
    killed.engine.snapshot.every_cycles = 1;
    killed.engine.watchdog.max_events = test.events / 2 + 1;
    std::string record;
    (void)es::exp::run_workload_prepared(
        test.workload, test.algorithm, killed,
        [&record](es::sched::Engine& engine) {
          engine.set_snapshot_sink(
              [&record](const std::string& bytes) { record = bytes; });
        });
    if (record.empty()) {
      std::printf("corruption matrix: %s captured no record\n",
                  test.name.c_str());
      ++accepted_mutations;
      continue;
    }

    for (int i = 0; i < corruption_samples; ++i) {
      ++mutations;
      const auto cut = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(record.size()) - 1));
      if (!rejected(test, record.substr(0, cut))) {
        std::printf("corruption: %s truncated to %zu bytes ACCEPTED\n",
                    test.name.c_str(), cut);
        ++accepted_mutations;
      }
    }
    for (int i = 0; i < corruption_samples; ++i) {
      ++mutations;
      std::string flipped = record;
      const auto offset = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(flipped.size()) - 1));
      const int bit = static_cast<int>(rng.uniform_int(0, 7));
      flipped[offset] = static_cast<char>(
          static_cast<unsigned char>(flipped[offset]) ^ (1u << bit));
      if (!rejected(test, flipped)) {
        std::printf("corruption: %s bit flip at %zu/%d ACCEPTED\n",
                    test.name.c_str(), offset, bit);
        ++accepted_mutations;
      }
    }
    {
      ++mutations;
      // Bump the format-version field (bytes 4..7, little-endian).
      std::string bumped = record;
      bumped[4] = static_cast<char>(static_cast<unsigned char>(bumped[4]) + 1);
      if (!rejected(test, bumped)) {
        std::printf("corruption: %s version bump ACCEPTED\n",
                    test.name.c_str());
        ++accepted_mutations;
      }
    }
  }
  std::printf("corruption matrix: %d mutations, %d wrongly accepted\n",
              mutations, accepted_mutations);

  // --- leg 3: ring fallback --------------------------------------------
  // Run with a real disk ring, corrupt the newest generation, and check
  // that recovery falls back to the previous one and still resumes to the
  // uninterrupted result.
  bool ring_ok = true;
  {
    const CrashCase& test = cases.front();
    const std::string ring_dir =
        (std::filesystem::temp_directory_path() /
         ("es_crash_recovery_" + std::to_string(::getpid())))
            .string();
    es::core::AlgorithmOptions killed = test.options;
    killed.engine.snapshot.every_cycles = 1;
    killed.engine.snapshot.dir = ring_dir;
    killed.engine.snapshot.keep = 4;
    killed.engine.watchdog.max_events = test.events / 2 + 1;
    (void)es::exp::run_workload_prepared(test.workload, test.algorithm,
                                         killed, nullptr);
    const std::vector<es::snap::SnapshotEntry> ring =
        es::snap::list_snapshots(ring_dir);
    if (ring.size() < 2) {
      std::printf("ring fallback: expected >= 2 generations, found %zu\n",
                  ring.size());
      ring_ok = false;
    } else {
      // Mutilate the newest generation on disk: damage a CRC-protected
      // payload byte (offset 20, past the header and the first section's
      // tag + length frame).
      std::string newest = ring.back().path;
      {
        std::FILE* file = std::fopen(newest.c_str(), "r+b");
        if (file != nullptr) {
          std::fseek(file, 20, SEEK_SET);
          std::fputc(0xA5, file);
          std::fclose(file);
        }
      }
      const auto intact = es::snap::latest_intact(ring_dir);
      if (!intact || intact->path == newest) {
        std::printf("ring fallback: corrupt newest generation was not "
                    "skipped\n");
        ring_ok = false;
      } else {
        auto reader = es::snap::read_snapshot_file(intact->path);
        const es::sched::SimulationResult resumed = es::exp::resume_workload(
            test.workload, test.algorithm, test.options, reader);
        ring_ok =
            es::bench::result_fingerprint_csv(resumed) == test.expected;
        if (!ring_ok)
          std::printf("ring fallback: resume from generation %llu "
                      "diverged\n",
                      static_cast<unsigned long long>(intact->generation));
      }
    }
    std::error_code cleanup_error;
    std::filesystem::remove_all(ring_dir, cleanup_error);
  }
  std::printf("ring fallback: %s\n", ring_ok ? "ok" : "FAILED");

  // --- legs 4 and 5: kill points around the feed refills ---------------
  // Three windows in --quick (two refills), five in full mode.  A kill one
  // event after the record at cycle C resumes from that record: every
  // event of this workload runs one cycle, so C cycles take C events.
  int window_failures = 0;
  int chunk_failures = 0;
  {
    es::workload::GeneratorConfig window_config = config;
    window_config.num_jobs = options.quick ? 9000 : 20000;
    window_config.p_dedicated = 0.3;
    window_config.p_extend_procs = 0.1;
    window_config.p_reduce_procs = 0.1;
    window_config.seed = options.seed + 57;
    CrashCase windows;
    windows.name = "multi-window";
    windows.workload = es::workload::generate(window_config);
    windows.algorithm = "Hybrid-LOS-E";
    windows.options = cases[1].options;  // failures + checkpointing
    es::bench::RefillCycles refills(windows.workload);
    const es::sched::SimulationResult uninterrupted = es::exp::run_workload(
        windows.workload, windows.algorithm, windows.options, &refills,
        es::bench::RefillCycles::kHookMask);
    windows.expected = es::bench::result_fingerprint_csv(uninterrupted);
    std::vector<std::uint64_t> kill_cycles;
    for (const std::uint64_t refill : refills.cycles)
      for (const std::uint64_t cycle : {refill - 1, refill, refill + 1})
        kill_cycles.push_back(cycle);
    const int sampled = options.quick ? 4 : 16;
    for (int i = 0; i < sampled; ++i)
      kill_cycles.push_back(static_cast<std::uint64_t>(rng.uniform_int(
          1, static_cast<std::int64_t>(uninterrupted.cycles))));
    for (const std::uint64_t cycle : kill_cycles) {
      std::uint64_t records = 0;
      if (!kill_and_resume_matches(windows, cycle + 1, cycle, &records) ||
          records != 1) {
        std::printf("window kill at cycle %llu (%llu records): DIVERGED\n",
                    static_cast<unsigned long long>(cycle),
                    static_cast<unsigned long long>(records));
        ++window_failures;
      }
    }
    std::printf("window refills: %zu refills, peak pending %llu, %zu kill "
                "points, %d divergences\n",
                refills.cycles.size(),
                static_cast<unsigned long long>(
                    uninterrupted.perf.events.peak_pending),
                kill_cycles.size(), window_failures);
    if (refills.cycles.size() < 2) {
      std::printf("window refills: expected >= 2 refills\n");
      ++window_failures;
    } else {
      // Leg 5: the same trace streamed from the generator, whose chunks
      // cut where the materialized windows do.  Kill points on both sides
      // of the first refill and in the middle of the second chunk.
      const std::uint64_t first = refills.cycles[0];
      const std::uint64_t second = refills.cycles[1];
      for (const std::uint64_t cycle :
           {first - 1, first + 1, (first + second) / 2}) {
        es::core::AlgorithmOptions killed = windows.options;
        killed.engine.snapshot.every_cycles = cycle;
        killed.engine.watchdog.max_events = cycle + 1;
        std::string record;
        es::workload::GeneratorSource recording(window_config);
        (void)es::exp::run_source(
            recording, windows.algorithm, killed,
            [&record](es::sched::Engine& engine) {
              engine.set_snapshot_sink(
                  [&record](const std::string& bytes) { record = bytes; });
            });
        bool matches = false;
        if (!record.empty()) {
          es::snap::SnapshotReader reader(record);
          es::workload::GeneratorSource replayed(window_config);
          matches = es::bench::result_fingerprint_csv(es::exp::resume_source(
                        replayed, windows.algorithm, windows.options,
                        reader)) == windows.expected;
        }
        if (!matches) {
          std::printf("generator-chunk kill at cycle %llu: %s\n",
                      static_cast<unsigned long long>(cycle),
                      record.empty() ? "NO RECORD" : "DIVERGED");
          ++chunk_failures;
        }
      }
      std::printf("generator chunks: 3 kill points, %d divergences\n",
                  chunk_failures);
    }
  }

  const bool ok = failures == 0 && accepted_mutations == 0 && ring_ok &&
                  window_failures == 0 && chunk_failures == 0;
  std::printf("crash_recovery: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
