// Million-job scale soak (BENCH_PR8.json): the scale_10k experiment pushed
// three orders of magnitude past the paper's 500-job campaigns, which is
// the regime production traces occupy (SDSC/CTC-scale archives run to
// millions of jobs).
//
// Legs, in a deliberate order — util::peak_rss_bytes() is the process
// high-water mark, so the leg whose footprint is under test must run while
// the mark is still low:
//
//   1. streamed: one Delayed-LOS run over the full trace pulled through a
//      GeneratorSource in bounded chunks.  The trace never materializes;
//      engine state is the in-flight jobs only.  This is the headline
//      events/s and peak-RSS number.
//   2. streamed, 8-slot DP cache: the identical run with the result cache
//      narrowed to its pre-widening shape — the before/after for the
//      cache-hit-rate fix, on the workload where it matters.
//   3. materialized: the same trace generated up front and run through
//      Engine::run — the RSS comparison point (sub-linear claim) and the
//      full-length parity gate: the deterministic result serialization of
//      legs 1 and 3 must be byte-identical.
//   4. per-job parity at a bounded N: with per-job outcome ledgers on
//      (deliberately off in the full-length legs — the ledger itself is
//      O(N) memory), streamed vs materialized fingerprints must match down
//      to every per-job line.
//   5. campaign (PR 9): the granularity-1, 4096-processor, load-1.0 point —
//      the wide-machine regime where the event-throughput levers bite —
//      run twice: *before* (binary heap, scalar DP rows, no speculation)
//      and *after* (calendar band, vector rows, speculative pipelining
//      when --jobs > 1).  The two runs must produce byte-identical result
//      fingerprints; the events/s and DP ns/invocation delta is the PR 9
//      headline, recorded in BENCH_PR9.json.
//
// Exit status gates the three parity verdicts; throughput and RSS are
// measurements, recorded in BENCH_PR8.json / BENCH_PR9.json for the
// trajectory.  Every BENCH record carries `host_cores` and `threads`: the
// PR 8 record was taken on a 1-core host, which made its speedup figure
// meaningless without that provenance.
#include <cstdio>

#include "bench_common.hpp"
#include "core/dp.hpp"
#include "util/atomic_file.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  es::bench::BenchOptions options;
  if (!es::bench::parse_bench_options(
          argc, argv, "Million-job scale soak (streamed vs materialized)",
          options))
    return 0;

  // --quick is the CI smoke shape: 100k jobs keeps the Release leg a few
  // seconds while still ~50 refill chunks deep into streaming.
  const std::size_t big = options.quick ? 100000 : 1000000;
  const double load = 0.7;  // scale_10k's stable regime
  const es::workload::GeneratorConfig config =
      es::bench::scale_workload(options, big, load);
  es::core::AlgorithmOptions algo = es::bench::algo_options(options);
  // The per-job outcome ledger is itself O(N) memory; the full-length legs
  // measure the engine, not the ledger.  Leg 4 turns it back on.
  algo.engine.keep_job_outcomes = false;

  std::printf("scale_1m: %zu jobs, Delayed-LOS, load %.1f\n", big, load);

  // Leg 1: streamed, widened (default) DP cache.
  const es::bench::ScaleLeg streamed =
      es::bench::run_scale_leg(config, "Delayed-LOS", algo, true);

  // Leg 2: streamed, pre-widening 8-slot DP cache (before/after record).
  es::core::AlgorithmOptions narrow = algo;
  narrow.dp_cache_slots = 8;
  const es::bench::ScaleLeg narrow_cache =
      es::bench::run_scale_leg(config, "Delayed-LOS", narrow, true);

  // Leg 3: materialized — RSS comparison point and full-length parity.
  const es::bench::ScaleLeg materialized =
      es::bench::run_scale_leg(config, "Delayed-LOS", algo, false);
  const bool full_identical =
      es::bench::result_fingerprint_csv(streamed.result) ==
      es::bench::result_fingerprint_csv(materialized.result);

  // Leg 4: per-job parity at a ledger-friendly N.
  const std::size_t parity_jobs = options.quick ? 5000 : 20000;
  es::core::AlgorithmOptions ledger = algo;
  ledger.engine.keep_job_outcomes = true;
  const es::workload::GeneratorConfig parity_config =
      es::bench::scale_workload(options, parity_jobs, load);
  const es::bench::ScaleLeg parity_streamed =
      es::bench::run_scale_leg(parity_config, "Delayed-LOS", ledger, true);
  const es::bench::ScaleLeg parity_materialized =
      es::bench::run_scale_leg(parity_config, "Delayed-LOS", ledger, false);
  const bool per_job_identical =
      es::bench::result_fingerprint_csv(parity_streamed.result) ==
      es::bench::result_fingerprint_csv(parity_materialized.result);

  // Leg 5 (PR 9): granularity 1 on a 4096-processor machine at load 1.0 —
  // every processor is its own allocation grain, so DP capacities run to
  // 4096 columns.  A streamed run takes its granularity from the
  // generator's size unit, so the unit is 1 and the sizes are given in
  // processors: the wide_g1 benchmark mix, 32-96 small and 128-320 large.
  // Run the identical workload twice: "before" reverts every PR 9 lever
  // (binary-heap event queue, scalar DP rows, no speculation); "after" is
  // the shipping default.  p_small 0.2 biases toward wide jobs, the
  // widest-table shape.
  const std::size_t campaign_jobs = options.quick ? 20000 : 200000;
  es::workload::GeneratorConfig campaign_config =
      es::bench::scale_workload(options, campaign_jobs, 1.0, 0.2);
  campaign_config.machine_procs = 4096;
  campaign_config.size.unit = 1;
  campaign_config.size.lo1 = 32;
  campaign_config.size.hi1 = 96;
  campaign_config.size.lo2 = 128;
  campaign_config.size.hi2 = 320;
  es::core::AlgorithmOptions campaign = es::bench::algo_options(options);
  campaign.engine.keep_job_outcomes = false;
  campaign.engine.granularity = 1;
  campaign.engine.machine_procs = 4096;

  es::core::AlgorithmOptions campaign_off = campaign;
  campaign_off.engine.calendar_event_queue = false;
  campaign_off.engine.speculative_dp = false;
  es::core::set_dp_simd_enabled(false);
  const es::bench::ScaleLeg campaign_before = es::bench::run_scale_leg(
      campaign_config, "Delayed-LOS", campaign_off, true);
  es::core::set_dp_simd_enabled(true);
  const es::bench::ScaleLeg campaign_after =
      es::bench::run_scale_leg(campaign_config, "Delayed-LOS", campaign, true);
  const bool campaign_identical =
      es::bench::result_fingerprint_csv(campaign_before.result) ==
      es::bench::result_fingerprint_csv(campaign_after.result);

  // The speculative pipeline only opens with a worker pool; when this bench
  // ran serially (the default), run the after-configuration once more on a
  // 2-thread pool so the record always carries live speculation counters
  // and their parity proof.  On a 1-core host this leg oversubscribes: its
  // wall time documents the pipeline's determinism, not its throughput.
  const unsigned threads = es::util::global_parallelism();
  unsigned pipelined_threads = threads;
  es::bench::ScaleLeg campaign_pipelined = campaign_after;
  if (threads <= 1) {
    pipelined_threads = 2;
    es::util::set_global_parallelism(2);
    campaign_pipelined = es::bench::run_scale_leg(campaign_config,
                                                  "Delayed-LOS", campaign,
                                                  true);
    es::util::set_global_parallelism(static_cast<int>(threads));
  }
  const bool pipelined_identical =
      es::bench::result_fingerprint_csv(campaign_pipelined.result) ==
      es::bench::result_fingerprint_csv(campaign_before.result);
  const auto dp_ns = [](const es::bench::ScaleLeg& leg) {
    const auto& dp = leg.result.perf.dp;
    if (dp.table_runs == 0) return 0.0;
    return 1e9 * dp.table_seconds / static_cast<double>(dp.table_runs);
  };

  const auto mib = [](std::uint64_t bytes) {
    return static_cast<double>(bytes) / (1024.0 * 1024.0);
  };
  es::util::AsciiTable table("Million-job scale — streamed vs materialized");
  table.set_columns(
      {"leg", "N", "wall s", "events", "Mev/s", "peak RSS MiB"});
  const auto row = [&](const char* name, std::size_t jobs,
                       const es::bench::ScaleLeg& leg) {
    table.cell(name)
        .cell(static_cast<long long>(jobs))
        .cell(leg.wall_seconds, 3)
        .cell(static_cast<long long>(leg.events_fired))
        .cell(leg.events_per_second / 1e6, 2)
        .cell(mib(leg.peak_rss_bytes), 1);
    table.end_row();
  };
  row("streamed", big, streamed);
  row("streamed cache=8", big, narrow_cache);
  row("materialized", big, materialized);
  row("parity streamed", parity_jobs, parity_streamed);
  row("parity materialized", parity_jobs, parity_materialized);
  row("campaign g=1 before", campaign_jobs, campaign_before);
  row("campaign g=1 after", campaign_jobs, campaign_after);
  row("campaign pipelined", campaign_jobs, campaign_pipelined);
  table.render(std::cout);

  // PR 5's scale leg measured 1.30372e6 events/s at 10k jobs on the
  // recorded host; the acceptance target is a multiple of that at 100x the
  // trace length.
  const double pr5_events_per_second = 1.30372e6;
  const double hit_after = streamed.result.perf.dp_cache_hit_rate();
  const double hit_before = narrow_cache.result.perf.dp_cache_hit_rate();
  std::printf(
      "\nstreamed: %.2fM events/s (%.2fx the PR 5 scale leg), peak RSS "
      "%.1f MiB vs materialized %.1f MiB\n",
      streamed.events_per_second / 1e6,
      streamed.events_per_second / pr5_events_per_second,
      mib(streamed.peak_rss_bytes), mib(materialized.peak_rss_bytes));
  std::printf("dp cache: 8 slots %.1f%% hits -> %d slots %.1f%% hits\n",
              100.0 * hit_before, algo.dp_cache_slots, 100.0 * hit_after);
  std::printf("parity: full-length %s, per-job (N=%zu) %s\n",
              full_identical ? "byte-identical" : "DIVERGED", parity_jobs,
              per_job_identical ? "byte-identical" : "DIVERGED");
  std::printf(
      "campaign g=1 p=4096: %.0f -> %.0f events/s (%.2fx), DP %.1f -> %.1f "
      "ns/invocation, results %s\n",
      campaign_before.events_per_second, campaign_after.events_per_second,
      campaign_before.events_per_second > 0
          ? campaign_after.events_per_second /
                campaign_before.events_per_second
          : 0.0,
      dp_ns(campaign_before), dp_ns(campaign_after),
      campaign_identical ? "byte-identical" : "DIVERGED");
  const auto& spec = campaign_pipelined.result.perf.dp;
  std::printf(
      "campaign pipelined (threads %u): %llu launched, %llu hits, %llu "
      "discarded, results %s (host_cores %u, bench threads %u)\n",
      pipelined_threads, static_cast<unsigned long long>(spec.spec_launched),
      static_cast<unsigned long long>(spec.spec_hits),
      static_cast<unsigned long long>(spec.spec_discarded),
      pipelined_identical ? "byte-identical" : "DIVERGED",
      es::util::hardware_parallelism(), threads);

  const std::string out_path = "BENCH_PR8.json";
  const bool ok = es::util::write_file_atomic(out_path, [&](std::ostream&
                                                                out) {
    out << "{\n"
        << "  \"bench\": \"scale_1m\",\n"
        << "  \"pr\": 8,\n"
        << "  \"host_cores\": " << es::util::hardware_parallelism() << ",\n"
        << "  \"threads\": " << threads << ",\n"
        << "  \"workload\": {\"num_jobs\": " << big
        << ", \"target_load\": " << load
        << ", \"p_small\": 0.5, \"algorithm\": \"Delayed-LOS\", "
           "\"chunk_jobs\": "
        << es::workload::GeneratorSource::kDefaultChunkJobs << "},\n"
        << "  \"streamed\": {\"wall_seconds\": " << streamed.wall_seconds
        << ", \"events_fired\": " << streamed.events_fired
        << ", \"events_per_second\": " << streamed.events_per_second
        << ", \"peak_rss_bytes\": " << streamed.peak_rss_bytes
        << ", \"speedup_vs_pr5_scale\": "
        << streamed.events_per_second / pr5_events_per_second << "},\n"
        << "  \"materialized\": {\"wall_seconds\": "
        << materialized.wall_seconds
        << ", \"events_fired\": " << materialized.events_fired
        << ", \"events_per_second\": " << materialized.events_per_second
        << ", \"peak_rss_bytes\": " << materialized.peak_rss_bytes << "},\n"
        << "  \"dp_cache\": {\"slots_before\": 8, \"hit_rate_before\": "
        << hit_before << ", \"slots_after\": " << algo.dp_cache_slots
        << ", \"hit_rate_after\": " << hit_after << "},\n"
        << "  \"parity\": {\"full_length_identical\": "
        << (full_identical ? "true" : "false")
        << ", \"per_job_num_jobs\": " << parity_jobs
        << ", \"per_job_identical\": "
        << (per_job_identical ? "true" : "false") << "}\n"
        << "}\n";
    return out.good();
  });
  if (!ok) {
    std::fprintf(stderr, "scale_1m: cannot write %s\n", out_path.c_str());
    return 3;
  }
  std::printf("[json] %s\n", out_path.c_str());

  // PR 9 record: the campaign leg before/after with full provenance.  The
  // levers that need concurrency (speculative DP) only engage when
  // `threads` > 1 — a record with threads == 1 measures the event queue and
  // SIMD rows alone, and says nothing about the pipelined configuration.
  const std::string pr9_path = "BENCH_PR9.json";
  const auto leg_json = [&](std::ostream& out, const char* name,
                            const es::bench::ScaleLeg& leg) {
    const auto& dp = leg.result.perf.dp;
    out << "  \"" << name << "\": {\"wall_seconds\": " << leg.wall_seconds
        << ", \"events_fired\": " << leg.events_fired
        << ", \"events_per_second\": " << leg.events_per_second
        << ", \"dp_table_runs\": " << dp.table_runs
        << ", \"dp_table_seconds\": " << dp.table_seconds
        << ", \"dp_ns_per_invocation\": " << dp_ns(leg)
        << ", \"spec_launched\": " << dp.spec_launched
        << ", \"spec_hits\": " << dp.spec_hits
        << ", \"spec_discarded\": " << dp.spec_discarded << "}";
  };
  const bool ok9 = es::util::write_file_atomic(pr9_path, [&](std::ostream&
                                                                 out) {
    out << "{\n"
        << "  \"bench\": \"scale_1m\",\n"
        << "  \"pr\": 9,\n"
        << "  \"host_cores\": " << es::util::hardware_parallelism() << ",\n"
        << "  \"threads\": " << threads << ",\n"
        << "  \"campaign\": {\"num_jobs\": " << campaign_jobs
        << ", \"target_load\": 1.0, \"p_small\": 0.2, \"granularity\": 1, "
           "\"machine_procs\": 4096, \"algorithm\": \"Delayed-LOS\"},\n";
    leg_json(out, "before", campaign_before);
    out << ",\n";
    leg_json(out, "after", campaign_after);
    out << ",\n";
    leg_json(out, "after_pipelined", campaign_pipelined);
    out << ",\n"
        << "  \"pipelined_threads\": " << pipelined_threads << ",\n"
        << "  \"speedup\": "
        << (campaign_before.events_per_second > 0
                ? campaign_after.events_per_second /
                      campaign_before.events_per_second
                : 0.0)
        << ",\n"
        << "  \"parity\": {\"campaign_identical\": "
        << (campaign_identical ? "true" : "false")
        << ", \"pipelined_identical\": "
        << (pipelined_identical ? "true" : "false") << "}\n"
        << "}\n";
    return out.good();
  });
  if (!ok9) {
    std::fprintf(stderr, "scale_1m: cannot write %s\n", pr9_path.c_str());
    return 3;
  }
  std::printf("[json] %s\n", pr9_path.c_str());
  return (full_identical && per_job_identical && campaign_identical &&
          pipelined_identical)
             ? 0
             : 1;
}
