// simrun — run one simulation from the command line.
//
//   $ simrun --trace trace.cwf --algorithm Hybrid-LOS-E --procs 320
//   $ simrun --synthetic --num-jobs 500 --p-small 0.2 --load 0.9
//            --algorithm Delayed-LOS --cs 7 --per-job jobs.csv
//   $ simrun --synthetic --replications 8 --jobs 4   # 8 seeds, 4 threads
//   $ simrun --scenario repro.scn --algorithm LOS-E  # replay a fuzz repro
//
// Prints the paper's three metrics plus diagnostics; optionally dumps
// per-job outcomes as CSV for plotting.  CSV outputs are written atomically
// (temp file + rename) so a crash mid-write never leaves a truncated file.
// With --replications N the run is repeated over N derived seeds (fanned
// across --jobs worker threads) and the seed-mean aggregate is printed —
// byte-identical output whatever the thread count.
//
// Configuration: every engine/algorithm parameter (core/config_spine.hpp)
// and every synthetic-workload/tenancy knob (workload/generator.hpp) lives in
// one registry.  The parameter flags (--procs, --cs, --mtbf, --num-jobs,
// --p-small, --load, --users, ...) are generated from its dotless aliases,
// so --help, --list-params and --dump-config show the same docs and
// defaults.  Precedence is typed flags > --scenario file
// > --config file > defaults; a malformed or out-of-range value exits 2
// naming the field.  A scenario fixes the machine shape, so --procs and
// --granularity are rejected alongside it.
//
// Exit codes: 0 success, 1 usage error, 2 invalid flag combination or
// unknown algorithm, 3 output I/O error, 4 watchdog abort (partial metrics
// were printed).
#include <cstdio>
#include <iostream>
#include <ostream>
#include <string>

#include "core/config_spine.hpp"
#include "core/dp.hpp"
#include "core/factory.hpp"
#include "exp/analysis.hpp"
#include "exp/experiment.hpp"
#include "fuzz/scenario.hpp"
#include "sim/watchdog.hpp"
#include "util/atomic_file.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/log.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "workload/cwf.hpp"
#include "workload/generator.hpp"
#include "workload/load.hpp"

namespace {

// Flag-validation failure: field-named message, distinct exit code (2).
int flag_error(const char* flag, const char* message) {
  std::fprintf(stderr, "simrun: --%s: %s\n", flag, message);
  return 2;
}

// Human-friendly range label for one log2 histogram bucket: "[0]", "[1]",
// "[2..3]", ..., "[32768+]" for the overflow bucket.
std::string bucket_label(int b) {
  const auto lo = es::sched::CycleStats::bucket_lo(b);
  const auto hi = es::sched::CycleStats::bucket_hi(b);
  std::string label = "[";
  label += std::to_string(lo);
  if (lo == hi) {
    label += "]";
  } else if (b == es::sched::CycleStats::kBuckets - 1) {
    label += "+]";
  } else {
    label += "..";
    label += std::to_string(hi);
    label += "]";
  }
  return label;
}

// Appends the CycleStatsObserver counters to a perf table: the summary
// tallies plus one row per non-empty histogram bucket.  Everything here is
// deterministic, so the parallel-vs-serial output diff stays byte-exact.
void add_cycle_stats_rows(es::util::AsciiTable& table,
                          const es::sched::CycleStats& cycle) {
  table.cell("cycles observed")
      .cell(static_cast<long long>(cycle.cycles)).end_row();
  table.cell("job starts / backfilled")
      .cell(std::to_string(cycle.starts) + " / " +
            std::to_string(cycle.backfill_starts))
      .end_row();
  table.cell("max queue depth at cycle")
      .cell(static_cast<long long>(cycle.max_queue_depth)).end_row();
  for (int b = 0; b < es::sched::CycleStats::kBuckets; ++b) {
    if (cycle.queue_depth[b] == 0) continue;
    table.cell("queue depth " + bucket_label(b) + " cycles")
        .cell(static_cast<long long>(cycle.queue_depth[b])).end_row();
  }
  for (int b = 0; b < es::sched::CycleStats::kBuckets; ++b) {
    if (cycle.dp_calls[b] == 0) continue;
    table.cell("DP calls/cycle " + bucket_label(b) + " cycles")
        .cell(static_cast<long long>(cycle.dp_calls[b])).end_row();
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace;
  std::string algorithm = "Delayed-LOS";
  std::string per_job_csv;
  std::string log_level = "warn";
  bool synthetic = false;
  int replications = 1;
  int parallel_jobs = 1;
  bool perf_report = false;
  bool streamed = false;
  bool no_dp_simd = false;

  std::string scenario_path;
  std::string config_path;
  bool dump_config = false;
  bool list_params = false;

  // The configuration spine: one registry bound to the live option structs.
  // Its dotless aliases are simrun's parameter flags (--procs, --mtbf, ...).
  es::core::AlgorithmOptions options;
  es::workload::GeneratorConfig generator_config;
  es::util::ParamRegistry registry;
  es::core::register_run_params(registry, options);
  es::workload::register_generator_params(registry, generator_config);
  es::workload::register_tenancy_params(registry, generator_config);

  es::util::CliParser cli(
      "Run one scheduling simulation.  A typed --mtbf > 0 turns fault "
      "injection on; --ckpt-interval > 0 or --ckpt-on-preempt turns "
      "checkpoint recovery on.");
  cli.add_option("trace", "SWF/CWF trace to replay", &trace);
  cli.add_option("config", "load engine/algorithm/workload parameters from "
                 "this key=value config file; explicit CLI flags override "
                 "file values, which override built-in defaults",
                 &config_path);
  cli.add_flag("dump-config", "print the effective configuration (after "
               "--config and CLI overrides) as a loadable config file and "
               "exit", &dump_config);
  cli.add_flag("list-params", "print every registered configuration "
               "parameter with its type, default, range and doc, then exit",
               &list_params);
  cli.add_flag("synthetic", "generate a synthetic workload instead",
               &synthetic);
  cli.add_option("scenario", "replay a serialized atlas scenario (*.scn) "
                 "through --algorithm; the file carries the workload, the "
                 "machine shape and engine parameters layered over --config "
                 "(typed flags still override them)",
                 &scenario_path);
  cli.add_option("algorithm", "algorithm name (Table III, FCFS, CONS, Adaptive)",
                 &algorithm);
  bool list_algorithms = false;
  cli.add_flag("list-algorithms", "print every known algorithm name and exit",
               &list_algorithms);
  cli.add_option("replications", "repeat over this many derived seeds and "
                 "print the aggregate (default 1)", &replications);
  cli.add_option("jobs", "worker threads fanning the replications "
                 "(default 1 = serial; 0 = all cores)", &parallel_jobs);
  cli.add_flag("perf-report", "print hot-path counters (DP calls, "
               "fast-path exits, table runs; event-queue scheduled/"
               "cancelled/fired, peak pending) and wall timings",
               &perf_report);
  cli.add_flag("streamed", "synthetic workloads: pull the jobs straight "
               "from the generator in bounded chunks instead of "
               "materializing them; results are byte-identical, memory stays "
               "flat at million-job scale (a trace already runs window by "
               "window)", &streamed);
  cli.add_flag("no-dp-simd", "force the scalar DP row kernel (selections "
               "are identical either way; for perf comparison)", &no_dp_simd);
  bool profile = false;
  std::string trace_csv;
  cli.add_option("per-job", "write per-job outcomes to this CSV", &per_job_csv);
  cli.add_option("trace-out", "write the full schedule audit trace to this CSV",
                 &trace_csv);
  cli.add_flag("profile", "print an ASCII utilization-over-time profile",
               &profile);
  cli.add_option("log", "log level: debug/info/warn/error/off", &log_level);
  cli.add_param_flags(registry);
  if (!cli.parse(argc, argv)) return 1;
  es::util::set_log_level(es::util::parse_log_level(log_level));

  if (list_algorithms) {
    for (const std::string& name : es::core::algorithm_names())
      std::printf("%s\n", name.c_str());
    return 0;
  }
  if (list_params) {
    std::fputs(registry.list_params().c_str(), stdout);
    return 0;
  }

  const bool have_scenario = !scenario_path.empty();
  if (have_scenario && (synthetic || !trace.empty()))
    return flag_error("scenario", "a scenario file already carries its "
                      "workload; drop --trace/--synthetic");
  if (have_scenario && (cli.was_set("procs") || cli.was_set("granularity")))
    return flag_error("scenario", "a scenario file fixes the machine shape; "
                      "drop --procs/--granularity");

  // Precedence is CLI > scenario file > config file > built-in defaults:
  // the config file loads first, the scenario's engine lines are applied
  // over it, then every parameter flag the user typed is set over both, in
  // command-line order.  finalize() then re-checks ranges and runs the
  // cross-field rules (granularity divides procs, resize needs ECCs,
  // checkpoint overhead needs an interval, pool min-shares sum <= 1, ...).
  // Every failure names the offending field.
  es::sched::EngineConfig& engine = options.engine;
  es::fuzz::Scenario scenario;
  try {
    if (!config_path.empty()) registry.load_file(config_path);
    if (have_scenario) {
      scenario = es::fuzz::load_scenario(scenario_path, engine);
      engine = scenario.engine;
    }
    cli.apply_param_flags(registry);
    // Derived settings: a typed --mtbf > 0 turns fault injection on, and a
    // checkpoint trigger (interval or on-preempt) turns checkpointing on.
    if (cli.was_set("mtbf") && engine.failure.mtbf > 0)
      engine.failure.enabled = true;
    if (engine.checkpoint.interval > 0 || engine.checkpoint.on_preempt)
      engine.checkpoint.enabled = true;
    engine.record_trace |= !trace_csv.empty();
    engine.collect_cycle_stats |= perf_report;
    registry.finalize();
  } catch (const es::util::ConfigError& error) {
    std::fprintf(stderr, "simrun: config: %s\n", error.what());
    return 2;
  } catch (const es::fuzz::ScenarioError& error) {
    // Malformed content is a validation failure (2); an unreadable file is
    // an I/O failure (3) — the same conventions as the CSV outputs.
    std::fprintf(stderr, "simrun: --scenario: %s\n", error.what());
    return 2;
  } catch (const std::runtime_error& error) {
    std::fprintf(stderr, "simrun: --scenario: %s\n", error.what());
    return 3;
  }

  if (dump_config) {
    std::fputs(registry.dump_config().c_str(), stdout);
    return 0;
  }

  // Flag validation (exit 2): catch contradictory or degenerate settings
  // before spending any simulation time on them.
  if (!es::core::is_algorithm_name(algorithm)) {
    std::fprintf(stderr, "simrun: --algorithm: unknown algorithm '%s'\n",
                 algorithm.c_str());
    std::fprintf(stderr, "known names (try --list-algorithms):\n");
    for (const std::string& name : es::core::algorithm_names())
      std::fprintf(stderr, "  %s\n", name.c_str());
    return 2;
  }
  // Checkpoints only pay off when something preempts: fault injection or a
  // policy (FairShare) that claws capacity back on its own.  Only flags the
  // user typed are checked — a shared config file may carry checkpoint
  // settings that are simply inert for a non-preempting algorithm.
  if (((cli.was_set("ckpt-interval") && engine.checkpoint.interval > 0) ||
       (cli.was_set("ckpt-on-preempt") && engine.checkpoint.on_preempt)) &&
      !engine.failure.enabled &&
      !es::core::make_algorithm(algorithm, options)
           .policy->initiates_preemption())
    return flag_error("ckpt-interval", "checkpoint recovery only matters "
                      "under fault injection or a preempting policy; set "
                      "--mtbf > 0 as well");
  if (replications < 1)
    return flag_error("replications", "must be >= 1");
  if (parallel_jobs < 0)
    return flag_error("jobs", "must be >= 0 (0 = all cores, 1 = serial)");
  if (replications > 1 && (!per_job_csv.empty() || !trace_csv.empty()))
    return flag_error("replications", "per-job/trace CSVs describe a single "
                      "run; drop --per-job/--trace-out or use "
                      "--replications 1");
  if (replications > 1 && !trace.empty())
    return flag_error("replications", "derived seeds only vary synthetic "
                      "workloads; a fixed trace would repeat the same run");
  if (have_scenario && replications > 1)
    return flag_error("replications", "a scenario describes one fixed run; "
                      "use --replications 1");
  if (streamed && have_scenario)
    return flag_error("streamed", "scenario files are materialized repros; "
                      "drop --scenario or --streamed");
  // A streamed trace runs the materialized path (the parsed file is already
  // resident), so only a synthetic stream bypasses it: it pulls jobs from
  // the generator.
  const bool from_generator = streamed && (synthetic || trace.empty());
  if (streamed && replications > 1)
    return flag_error("streamed", "the seed-mean aggregate path "
                      "materializes its workloads; use --replications 1");
  if (parallel_jobs == 0) parallel_jobs = es::util::hardware_parallelism();
  es::util::set_global_parallelism(parallel_jobs);

  es::workload::Workload workload;
  if (have_scenario) {
    workload = scenario.workload;
    std::printf("Scenario %s [%s seed %llu]: %zu jobs, %zu ECCs, "
                "offered load %.3f\n",
                scenario.name.c_str(), scenario.family.c_str(),
                static_cast<unsigned long long>(scenario.seed),
                workload.jobs.size(), workload.eccs.size(),
                es::workload::offered_load(workload,
                                           workload.machine_procs));
  } else if (synthetic || trace.empty()) {
    generator_config.machine_procs = engine.machine_procs;
    if (streamed) {
      // Never materialize: the jobs flow straight from the generator into
      // the engine in bounded chunks.  The machine shape still has to be
      // on the (empty) workload for the reporting epilogue.
      workload.machine_procs = engine.machine_procs;
      workload.granularity = generator_config.size.unit;
      std::printf("Synthetic workload (streamed): %zu jobs\n",
                  generator_config.num_jobs);
    } else {
      workload = es::workload::generate(generator_config);
      std::printf("Synthetic workload: %zu jobs, offered load %.3f\n",
                  workload.jobs.size(),
                  es::workload::offered_load(workload, engine.machine_procs));
    }
  } else {
    try {
      workload = es::workload::load_cwf_workload(trace);
    } catch (const es::workload::TraceError& error) {
      std::fprintf(stderr, "simrun: --trace %s: %s\n", trace.c_str(),
                   error.what());
      return 2;
    }
    workload.machine_procs = engine.machine_procs;
    workload.granularity = engine.granularity;
    std::erase_if(workload.jobs, [&engine](const es::workload::Job& job) {
      return job.num > engine.machine_procs;
    });
    if (workload.jobs.empty()) {
      std::fprintf(stderr, "simrun: no usable jobs in %s\n", trace.c_str());
      return 1;
    }
    std::printf("Trace %s: %zu jobs, offered load %.3f\n", trace.c_str(),
                workload.jobs.size(),
                es::workload::offered_load(workload, engine.machine_procs));
  }

  es::core::set_dp_simd_enabled(!no_dp_simd);
  if (workload.dedicated_count() > 0 &&
      !es::core::make_algorithm(algorithm).policy->supports_dedicated())
    return flag_error("algorithm", "this workload contains dedicated jobs; "
                      "pick a dedicated-aware (-D/Hybrid) algorithm");
  if (from_generator && generator_config.p_dedicated > 0 &&
      !es::core::make_algorithm(algorithm).policy->supports_dedicated())
    return flag_error("algorithm", "streamed synthetic workloads with "
                      "--p-dedicated > 0 need a dedicated-aware (-D/Hybrid) "
                      "algorithm");

  if (replications > 1) {
    // Seed-mean aggregate mode: N derived seeds fanned across the worker
    // pool.  Everything printed here is deterministic — identical bytes at
    // any --jobs value — so diffing serial vs parallel output is a test.
    es::exp::RunSpec spec;
    spec.workload = generator_config;
    spec.algorithm = algorithm;
    spec.options = options;
    const es::exp::Aggregate aggregate =
        es::exp::run_replicated(spec, replications);
    es::util::AsciiTable table("simrun — " + algorithm + " (mean of " +
                               std::to_string(replications) + " seeds)");
    table.set_columns({"metric", "value"});
    table.cell("mean utilization %").cell(100.0 * aggregate.utilization, 2).end_row();
    table.cell("utilization ci95 %").cell(100.0 * aggregate.utilization_ci95, 2).end_row();
    table.cell("mean wait (s)").cell(aggregate.mean_wait, 1).end_row();
    table.cell("mean wait ci95 (s)").cell(aggregate.mean_wait_ci95, 1).end_row();
    table.cell("slowdown (paper defn)").cell(aggregate.slowdown, 3).end_row();
    table.cell("offered load").cell(aggregate.offered_load, 3).end_row();
    table.cell("ECCs processed").cell(static_cast<long long>(aggregate.ecc_processed)).end_row();
    if (perf_report) {
      table.cell("DP calls").cell(static_cast<long long>(aggregate.dp.calls)).end_row();
      table.cell("DP fast-path exits").cell(static_cast<long long>(aggregate.dp.fast_path)).end_row();
      table.cell("DP table runs").cell(static_cast<long long>(aggregate.dp.table_runs)).end_row();
      table.cell("events scheduled").cell(static_cast<long long>(aggregate.events.scheduled)).end_row();
      table.cell("events cancelled").cell(static_cast<long long>(aggregate.events.cancelled)).end_row();
      table.cell("events fired").cell(static_cast<long long>(aggregate.events.fired)).end_row();
      table.cell("peak pending events").cell(static_cast<long long>(aggregate.events.peak_pending)).end_row();
      add_cycle_stats_rows(table, aggregate.cycle);
    }
    table.render(std::cout);
    return 0;
  }

  es::sched::SimulationResult result;
  if (from_generator) {
    es::workload::GeneratorSource source(generator_config);
    result = es::exp::run_source(source, algorithm, options);
  } else {
    result = es::exp::run_workload(workload, algorithm, options);
  }

  es::util::AsciiTable table("simrun — " + algorithm);
  table.set_columns({"metric", "value"});
  table.cell("mean utilization %").cell(100.0 * result.utilization, 2).end_row();
  table.cell("mean wait (s)").cell(result.mean_wait, 1).end_row();
  table.cell("slowdown (paper defn)").cell(result.slowdown, 3).end_row();
  table.cell("mean per-job slowdown").cell(result.mean_per_job_slowdown, 3).end_row();
  table.cell("mean bounded slowdown").cell(result.mean_bounded_slowdown, 3).end_row();
  table.cell("completed / killed")
      .cell(std::to_string(result.completed) + " / " +
            std::to_string(result.killed))
      .end_row();
  table.cell("dedicated on time").cell(static_cast<long long>(result.dedicated_on_time)).end_row();
  table.cell("mean dedicated delay (s)").cell(result.mean_dedicated_delay, 1).end_row();
  table.cell("ECCs processed").cell(static_cast<long long>(result.ecc.processed)).end_row();
  if (result.ecc.unknown_job > 0 || result.ecc.after_finish > 0) {
    table.cell("ECCs skipped (unknown job / after finish)")
        .cell(std::to_string(result.ecc.unknown_job) + " / " +
              std::to_string(result.ecc.after_finish))
        .end_row();
  }
  table.cell("events / cycles")
      .cell(std::to_string(result.events) + " / " +
            std::to_string(result.cycles))
      .end_row();
  table.cell("termination").cell(es::sim::to_string(result.termination)).end_row();
  if (result.termination != es::sim::TerminationReason::kCompleted)
    table.cell("unfinished jobs").cell(static_cast<long long>(result.unfinished)).end_row();
  if (options.engine.failure.enabled) {
    const auto& failure = result.failure;
    table.cell("outages").cell(static_cast<long long>(failure.outages)).end_row();
    table.cell("jobs interrupted / requeued")
        .cell(std::to_string(failure.interruptions) + " / " +
              std::to_string(failure.requeues))
        .end_row();
    table.cell("jobs abandoned").cell(static_cast<long long>(failure.abandoned)).end_row();
    table.cell("lost proc-seconds").cell(failure.lost_proc_seconds, 0).end_row();
    table.cell("down proc-seconds").cell(failure.down_proc_seconds, 0).end_row();
    table.cell("goodput proc-seconds").cell(failure.goodput_proc_seconds, 0).end_row();
    table.cell("wasted proc-seconds").cell(failure.wasted_proc_seconds, 0).end_row();
    if (options.engine.checkpoint.enabled) {
      table.cell("checkpoints taken").cell(static_cast<long long>(failure.checkpoints)).end_row();
      table.cell("checkpoint overhead proc-seconds")
          .cell(failure.checkpoint_overhead_proc_seconds, 0).end_row();
      table.cell("saved proc-seconds").cell(failure.saved_proc_seconds, 0).end_row();
    }
  }
  table.render(std::cout);

  if (result.perf.fairness.collected) {
    const es::sched::FairnessStats& fairness = result.perf.fairness;
    es::util::AsciiTable fair_table("fairness — per-pool service and wait");
    fair_table.set_columns({"pool", "weight", "entitled", "got", "started",
                            "wait mean (s)", "wait p99 (s)", "satisfaction"});
    for (const es::sched::PoolFairnessStats& pool : fairness.pools) {
      fair_table.cell(pool.name)
          .cell(pool.weight, 2)
          .cell(pool.entitlement_share, 3)
          .cell(pool.service_share, 3)
          .cell(static_cast<long long>(pool.started))
          .cell(pool.wait_mean, 1)
          .cell(pool.wait_p99, 1)
          .cell(pool.satisfaction, 3)
          .end_row();
    }
    fair_table.render(std::cout);
    std::printf("Jain fairness index: %.4f\n", fairness.jain);
  }

  if (perf_report) {
    // Counters are deterministic; the wall rows are measurement only.
    // Cycle and DP-table wall are sampled: the engine times 1 event and the
    // DP kernel 1 table fill in es::util::kTimerSamplePeriod (16), and each
    // row scales its sample up (sched/perf.hpp).
    const es::sched::PerfStats& perf = result.perf;
    es::util::AsciiTable perf_table("perf — hot-path breakdown");
    perf_table.set_columns({"counter", "value"});
    perf_table.cell("DP calls").cell(static_cast<long long>(perf.dp.calls)).end_row();
    perf_table.cell("DP fast-path exits").cell(static_cast<long long>(perf.dp.fast_path)).end_row();
    perf_table.cell("DP table runs").cell(static_cast<long long>(perf.dp.table_runs)).end_row();
    perf_table.cell("DP table cells").cell(static_cast<long long>(perf.dp.table_cells)).end_row();
    perf_table.cell("events scheduled").cell(static_cast<long long>(perf.events.scheduled)).end_row();
    perf_table.cell("events cancelled").cell(static_cast<long long>(perf.events.cancelled)).end_row();
    perf_table.cell("events fired").cell(static_cast<long long>(perf.events.fired)).end_row();
    perf_table.cell("peak pending events").cell(static_cast<long long>(perf.events.peak_pending)).end_row();
    add_cycle_stats_rows(perf_table, perf.cycle);
    perf_table.cell("cycle wall (s)").cell(perf.cycle_seconds, 4).end_row();
    perf_table.cell("run wall (s)").cell(perf.wall_seconds, 4).end_row();
    // Derived throughput figures.  Always printed so report parsers see a
    // stable row set; a zero denominator (instant run, no DP invocations)
    // reports 0 instead of dividing by it.
    perf_table.cell("events per second")
        .cell(perf.wall_seconds > 0
                  ? static_cast<double>(perf.events.fired) / perf.wall_seconds
                  : 0.0,
              0)
        .end_row();
    perf_table.cell("DP table wall (s)").cell(perf.dp.table_seconds, 4).end_row();
    perf_table.cell("DP ns per invocation")
        .cell(perf.dp.table_runs > 0
                  ? 1e9 * perf.dp.table_seconds /
                        static_cast<double>(perf.dp.table_runs)
                  : 0.0,
              1)
        .end_row();
    if (perf.peak_rss_bytes > 0) {
      perf_table.cell("peak RSS (MiB)")
          .cell(static_cast<double>(perf.peak_rss_bytes) / (1024.0 * 1024.0),
                1)
          .end_row();
    }
    perf_table.render(std::cout);
  }

  if (profile) {
    const auto timeline =
        es::exp::utilization_timeline(result, workload.machine_procs, 72);
    std::printf("\nutilization over time (%s total):\n%s\n",
                es::util::format_duration(result.makespan).c_str(),
                es::exp::render_profile(timeline).c_str());
  }

  // CSV outputs are crash-safe: written to a temp sibling and renamed into
  // place, so readers never observe a truncated file.  On a watchdog abort
  // the files still carry the partial run (tagged via the termination row).
  if (!trace_csv.empty() && result.trace != nullptr) {
    const bool ok = es::util::write_file_atomic(
        trace_csv, [&result](std::ostream& out) {
          result.trace->write_csv(out);
          return out.good();
        });
    if (!ok) {
      std::fprintf(stderr, "simrun: cannot write %s\n", trace_csv.c_str());
      return 3;
    }
    std::printf("[csv] %s (%zu events)\n", trace_csv.c_str(),
                result.trace->size());
  }

  if (!per_job_csv.empty()) {
    const bool ok = es::util::write_file_atomic(
        per_job_csv, [&result](std::ostream& out) {
          es::util::CsvWriter csv(out);
          csv.set_header({"id", "dedicated", "killed", "procs", "arrival",
                          "started", "finished", "wait", "run"});
          for (const auto& job : result.jobs) {
            csv.cell(static_cast<long long>(job.id))
                .cell(static_cast<long long>(job.dedicated))
                .cell(static_cast<long long>(job.killed))
                .cell(job.procs)
                .cell(job.arrival)
                .cell(job.started)
                .cell(job.finished)
                .cell(job.wait)
                .cell(job.run);
            csv.end_row();
          }
          return out.good();
        });
    if (!ok) {
      std::fprintf(stderr, "simrun: cannot write %s\n", per_job_csv.c_str());
      return 3;
    }
    std::printf("[csv] %s (%zu rows)\n", per_job_csv.c_str(),
                result.jobs.size());
  }
  return result.termination == es::sim::TerminationReason::kCompleted ? 0 : 4;
}
