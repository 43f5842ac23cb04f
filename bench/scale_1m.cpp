// Million-job scale soak: the scale_10k experiment pushed three orders of
// magnitude past the paper's 500-job campaigns, which is the regime
// production traces occupy (SDSC/CTC-scale archives run to millions of
// jobs).  Timing lives in benchmark/ (the bgp_1m workload); this bench
// gates the streamed path against the materialized one.
//
// Legs, in a deliberate order — util::peak_rss_bytes() is the process
// high-water mark, so the leg whose footprint is under test must run while
// the mark is still low:
//
//   1. streamed: one Delayed-LOS run over the full trace pulled through a
//      GeneratorSource in bounded chunks.  The trace never materializes;
//      engine state is the in-flight jobs only.
//   2. materialized: the same trace generated up front and run through
//      Engine::run — the RSS comparison point and the full-length parity
//      gate: the deterministic result serialization of legs 1 and 2 must be
//      byte-identical.  Engine::run streams the workload window by window,
//      so both its event-heap high-water mark (`peak_pending`) and its
//      job-record high-water mark (`peak_live_jobs`) must stay under three
//      feed windows; an up-front schedule would hold every arrival, and an
//      up-front build every record.
//   3. per-job parity at a bounded N: with per-job outcome ledgers on
//      (deliberately off in the full-length legs — the ledger itself is
//      O(N) memory), streamed vs materialized fingerprints must match down
//      to every per-job line.
//
// Exit status gates the two parity verdicts and the peak_pending and
// peak_live_jobs bounds.  The closing `summary:` line carries both legs'
// peak RSS for the Release CI job's ceiling checks; RSS is not gated here
// because sanitizer builds inflate it.
#include <cstdio>

#include "bench_common.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  es::bench::BenchOptions options;
  if (!es::bench::parse_bench_options(
          argc, argv, "Million-job scale soak (streamed vs materialized)",
          options))
    return 0;

  // --quick is the CI smoke shape: 100k jobs keeps the Release leg a few
  // seconds while still ~25 refill chunks deep into streaming.
  const std::size_t big = options.quick ? 100000 : 1000000;
  const double load = 0.7;  // scale_10k's stable regime
  const es::workload::GeneratorConfig config =
      es::bench::scale_workload(options, big, load);
  es::core::AlgorithmOptions algo = es::bench::algo_options(options);
  // The per-job outcome ledger is itself O(N) memory; the full-length legs
  // measure the engine, not the ledger.  Leg 3 turns it back on.
  algo.engine.keep_job_outcomes = false;

  std::printf("scale_1m: %zu jobs, Delayed-LOS, load %.1f\n", big, load);

  // Leg 1: streamed.
  const es::bench::ScaleLeg streamed =
      es::bench::run_scale_leg(config, "Delayed-LOS", algo, true);

  // Leg 2: materialized — RSS comparison point, full-length parity and the
  // window-feed bounds.
  const es::bench::ScaleLeg materialized =
      es::bench::run_scale_leg(config, "Delayed-LOS", algo, false);
  const bool full_identical =
      es::bench::result_fingerprint_csv(streamed.result) ==
      es::bench::result_fingerprint_csv(materialized.result);
  const std::uint64_t window_bound =
      3 * es::workload::WorkloadCursor::kDefaultChunkJobs;
  const std::uint64_t pending = materialized.result.perf.events.peak_pending;
  const bool pending_ok = pending > 0 && pending < window_bound;
  const std::uint64_t live = materialized.result.perf.peak_live_jobs;
  const bool live_ok = live > 0 && live < window_bound;

  // Leg 3: per-job parity at a ledger-friendly N.
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

  const auto mib = [](std::uint64_t bytes) {
    return static_cast<double>(bytes) / (1024.0 * 1024.0);
  };
  es::util::AsciiTable table("Million-job scale — streamed vs materialized");
  table.set_columns(
      {"leg", "N", "wall s", "events", "Mev/s", "peak pending",
       "peak live jobs", "peak RSS MiB"});
  const auto row = [&](const char* name, std::size_t jobs,
                       const es::bench::ScaleLeg& leg) {
    table.cell(name)
        .cell(static_cast<long long>(jobs))
        .cell(leg.wall_seconds, 3)
        .cell(static_cast<long long>(leg.events_fired))
        .cell(leg.events_per_second / 1e6, 2)
        .cell(static_cast<long long>(leg.result.perf.events.peak_pending))
        .cell(static_cast<long long>(leg.result.perf.peak_live_jobs))
        .cell(mib(leg.peak_rss_bytes), 1);
    table.end_row();
  };
  row("streamed", big, streamed);
  row("materialized", big, materialized);
  row("parity streamed", parity_jobs, parity_streamed);
  row("parity materialized", parity_jobs, parity_materialized);
  table.render(std::cout);

  std::printf("\nparity: full-length %s, per-job (N=%zu) %s\n",
              full_identical ? "byte-identical" : "DIVERGED", parity_jobs,
              per_job_identical ? "byte-identical" : "DIVERGED");
  std::printf("materialized peak pending %llu (bound %llu): %s\n",
              static_cast<unsigned long long>(pending),
              static_cast<unsigned long long>(window_bound),
              pending_ok ? "ok" : "EXCEEDED");
  std::printf("materialized peak live jobs %llu (bound %llu): %s\n",
              static_cast<unsigned long long>(live),
              static_cast<unsigned long long>(window_bound),
              live_ok ? "ok" : "EXCEEDED");
  std::printf("summary: streamed_rss_bytes=%llu materialized_rss_bytes=%llu\n",
              static_cast<unsigned long long>(streamed.peak_rss_bytes),
              static_cast<unsigned long long>(materialized.peak_rss_bytes));
  return (full_identical && per_job_identical && pending_ok && live_ok) ? 0
                                                                        : 1;
}
