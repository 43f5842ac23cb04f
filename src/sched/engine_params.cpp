#include "sched/engine_params.hpp"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

namespace es::sched {
namespace {

std::string repr_double(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

FairSharePool& pool_by_name(std::vector<FairSharePool>& pools,
                            const std::string& name) {
  for (FairSharePool& pool : pools)
    if (pool.name == name) return pool;
  pools.push_back(FairSharePool{name, 1.0, 0.0});
  return pools.back();
}

}  // namespace

void register_engine_params(util::ParamRegistry& registry,
                            EngineConfig& config) {
  // --- machine shape -----------------------------------------------------
  registry
      .add_int("engine.machine_procs", &config.machine_procs,
               "total processors in the simulated machine")
      .range(1, 1 << 20)
      .alias("engine.procs")
      .alias("procs");
  registry
      .add_int("engine.granularity", &config.granularity,
               "allocation granularity in processors (node-card size)")
      .range(1, 1 << 20)
      .alias("engine.gran")
      .alias("granularity");
  registry.add_rule("engine.granularity", [&config]() -> std::string {
    if (config.granularity > config.machine_procs)
      return "granularity (" + std::to_string(config.granularity) +
             ") exceeds engine.machine_procs (" +
             std::to_string(config.machine_procs) + ")";
    if (config.machine_procs % config.granularity != 0)
      return "engine.machine_procs (" + std::to_string(config.machine_procs) +
             ") is not a multiple of granularity (" +
             std::to_string(config.granularity) + ")";
    return {};
  });

  // --- elasticity --------------------------------------------------------
  registry.add_bool("engine.process_eccs", &config.process_eccs,
                    "process runtime elasticity change commands (the -E "
                    "algorithm variants)");
  registry.add_bool(
      "engine.allow_running_resize", &config.allow_running_resize,
      "allow EP/RP ECCs to resize running jobs work-conservingly; requires "
      "engine.process_eccs");
  registry.add_rule("engine.allow_running_resize", [&config]() -> std::string {
    if (config.allow_running_resize && !config.process_eccs)
      return "requires engine.process_eccs=true (resizing running jobs is an "
             "ECC-processing extension)";
    return {};
  });

  // --- engine mechanics (fingerprint-relevant) ---------------------------
  registry.add_enum("engine.requeue", &config.requeue,
                    {{"head", static_cast<int>(fault::RequeuePolicy::kRequeueHead)},
                     {"tail", static_cast<int>(fault::RequeuePolicy::kRequeueTail)},
                     {"abandon", static_cast<int>(fault::RequeuePolicy::kAbandon)}},
                    "where failure-preempted jobs re-enter the batch queue")
      .alias("requeue");

  // --- engine mechanics (behaviour-neutral; excluded from fingerprint) ---
  registry
      .add_bool("engine.keep_job_outcomes", &config.keep_job_outcomes,
                "keep per-job outcomes in SimulationResult::jobs")
      .no_fingerprint();
  registry
      .add_bool("engine.record_trace", &config.record_trace,
                "attach a TraceObserver recording a full schedule audit "
                "trace")
      .no_fingerprint();
  registry
      .add_bool("engine.collect_cycle_stats", &config.collect_cycle_stats,
                "attach a CycleStatsObserver (per-cycle queue/backfill/DP "
                "histograms)")
      .no_fingerprint();
  registry
      .add_bool("engine.paranoid", &config.paranoid,
                "re-verify structural invariants after every cycle (slow; "
                "test/debug aid)")
      .no_fingerprint();

  // --- fault injection ---------------------------------------------------
  registry.add_bool("failure.enabled", &config.failure.enabled,
                    "inject NodeDown/NodeUp capacity outages during the run");
  registry.add_uint64("failure.seed", &config.failure.seed,
                      "RNG seed for the stochastic outage sequence")
      .alias("fail-seed");
  registry
      .add_double("failure.mtbf", &config.failure.mtbf,
                  "mean seconds between outage onsets (exponential)")
      .range(0, 1e15)
      .alias("failure.mean_time_between_failures")
      .alias("mtbf");
  registry
      .add_double("failure.mttr", &config.failure.mttr,
                  "mean outage duration in seconds (exponential)")
      .range(0, 1e15)
      .alias("failure.mean_time_to_repair")
      .alias("mttr");
  registry
      .add_int("failure.min_nodes", &config.failure.min_nodes,
               "smallest outage size in node cards")
      .range(1, 1 << 20)
      .alias("fail-min-nodes");
  registry
      .add_int("failure.max_nodes", &config.failure.max_nodes,
               "largest outage size in node cards")
      .range(1, 1 << 20)
      .alias("fail-max-nodes");
  registry
      .add_int("failure.max_interruptions", &config.failure.max_interruptions,
               "abandon a job preempted more than this many times (0 = retry "
               "forever)")
      .range(0, 1 << 30)
      .alias("fail-retry-cap");
  registry.add_rule("failure.max_nodes", [&config]() -> std::string {
    if (config.failure.max_nodes < config.failure.min_nodes)
      return "failure.max_nodes (" + std::to_string(config.failure.max_nodes) +
             ") is below failure.min_nodes (" +
             std::to_string(config.failure.min_nodes) + ")";
    return {};
  });
  registry.add_rule("failure.mtbf", [&config]() -> std::string {
    if (config.failure.enabled && config.failure.script.empty() &&
        config.failure.mtbf <= 0)
      return "stochastic failure injection needs a positive MTBF (or a "
             "scripted outage sequence)";
    return {};
  });
  registry.add_rule("failure.mttr", [&config]() -> std::string {
    if (config.failure.enabled && config.failure.script.empty() &&
        config.failure.mttr <= 0)
      return "stochastic failure injection needs a positive MTTR (or a "
             "scripted outage sequence)";
    return {};
  });

  // --- checkpoint/restart ------------------------------------------------
  registry.add_bool("checkpoint.enabled", &config.checkpoint.enabled,
                    "resume preempted jobs from their last checkpoint");
  registry
      .add_double("checkpoint.interval", &config.checkpoint.interval,
                  "useful-work seconds between periodic checkpoints (0 = "
                  "none)")
      .range(0, 1e15)
      .alias("ckpt-interval");
  registry
      .add_double("checkpoint.overhead", &config.checkpoint.overhead,
                  "wall seconds each periodic checkpoint costs")
      .range(0, 1e15)
      .alias("ckpt-overhead");
  registry.add_bool("checkpoint.on_preempt", &config.checkpoint.on_preempt,
                    "bank all executed work at preemption time "
                    "(checkpoint-on-signal)")
      .alias("ckpt-on-preempt");
  registry.add_rule("checkpoint.overhead", [&config]() -> std::string {
    if (config.checkpoint.overhead > 0 && config.checkpoint.interval <= 0)
      return "checkpoint overhead without a positive checkpoint.interval "
             "never applies";
    return {};
  });
  registry.add_rule("checkpoint.enabled", [&config]() -> std::string {
    if (config.checkpoint.enabled && config.checkpoint.interval <= 0 &&
        !config.checkpoint.on_preempt)
      return "checkpointing needs a positive checkpoint.interval or "
             "checkpoint.on_preempt=true";
    return {};
  });

  // --- watchdog budgets (termination guardrails; not part of the
  // --- simulated behaviour, so excluded from the fingerprint) ------------
  registry
      .add_uint64("watchdog.max_events", &config.watchdog.max_events,
                  "abort after this many processed events (0 = unlimited)")
      .alias("max-events")
      .no_fingerprint();
  registry
      .add_double("watchdog.max_sim_time", &config.watchdog.max_sim_time,
                  "abort before crossing this simulated time (0 = unlimited)")
      .range(0, 1e18)
      .alias("max-sim-time")
      .no_fingerprint();
  registry
      .add_double("watchdog.wall_budget", &config.watchdog.wall_budget,
                  "abort after this many real seconds (0 = unlimited)")
      .range(0, 1e9)
      .alias("wall-budget")
      .no_fingerprint();
  registry
      .add_int("watchdog.no_progress_cycles",
               &config.watchdog.no_progress_cycles,
               "abort after this many consecutive zero-progress cycles (0 = "
               "off)")
      .range(0, 1 << 30)
      .alias("no-progress-cycles")
      .no_fingerprint();

  // --- snapshot cadence (crash consistency; cadence is not behaviour) ----
  registry
      .add_uint64("snapshot.every_cycles", &config.snapshot.every_cycles,
                  "serialize engine state every N scheduling cycles (0 = "
                  "off)")
      .alias("snapshot-every")
      .no_fingerprint();
  registry
      .add_string("snapshot.dir", &config.snapshot.dir,
                  "snapshot-ring directory (empty = in-memory sink only)")
      .alias("snapshot-dir")
      .no_fingerprint();
  registry
      .add_size("snapshot.keep", &config.snapshot.keep,
                "snapshot generations retained on disk")
      .range(1, 1 << 20)
      .alias("snapshot-keep")
      .no_fingerprint();

  // --- fair-share scheduling --------------------------------------------
  registry.add_bool("fairshare.preemption", &config.fairshare.preemption_enabled,
                    "allow FairShare to preempt over-share pools for starving "
                    "ones");
  registry
      .add_double("fairshare.min_share_preemption_timeout",
                  &config.fairshare.min_share_preemption_timeout,
                  "seconds below min share (with demand) before preemption")
      .range(0, 1e12);
  registry
      .add_double("fairshare.fair_share_preemption_timeout",
                  &config.fairshare.fair_share_preemption_timeout,
                  "seconds below tolerance x fair share before preemption")
      .range(0, 1e12);
  registry
      .add_double("fairshare.fair_share_starvation_tolerance",
                  &config.fairshare.fair_share_starvation_tolerance,
                  "fraction of fair share below which a pool is starving")
      .range(0, 1);
  registry
      .add_int("fairshare.max_preemptions_per_job",
               &config.fairshare.max_preemptions_per_job,
               "per-job cap on policy-initiated preemptions (0 = unlimited)")
      .range(0, 1 << 20);
  registry
      .add_bool("fairshare.collect_stats", &config.fairshare.collect_stats,
                "attach the FairnessObserver (per-pool wait percentiles + "
                "Jain index)")
      .no_fingerprint();

  // --- pool tree: dynamic pool.<name>.{weight,min_share} family ----------
  std::vector<FairSharePool>* pools = &config.fairshare.pools;
  registry.add_dynamic(
      "pool.",
      [pools](const std::string& suffix, const std::string& value) {
        const std::size_t dot = suffix.rfind('.');
        if (dot == std::string::npos || dot == 0)
          throw util::ConfigError(
              "pool." + suffix,
              "expected pool.<name>.weight or pool.<name>.min_share");
        const std::string name = suffix.substr(0, dot);
        const std::string attr = suffix.substr(dot + 1);
        const std::string field = "pool." + suffix;
        char* end = nullptr;
        const double parsed = std::strtod(value.c_str(), &end);
        if (end == value.c_str() || *end != '\0')
          throw util::ConfigError(field,
                                  "expected a number, got '" + value + "'");
        FairSharePool& pool = pool_by_name(*pools, name);
        if (attr == "weight") {
          if (parsed <= 0)
            throw util::ConfigError(field, "pool weight must be positive");
          pool.weight = parsed;
        } else if (attr == "min_share") {
          if (parsed < 0 || parsed > 1)
            throw util::ConfigError(field,
                                    "min_share must be within [0, 1]");
          pool.min_share = parsed;
        } else {
          throw util::ConfigError(
              field, "unknown pool attribute '" + attr +
                         "' (expected weight or min_share)");
        }
      },
      [pools]() {
        std::vector<std::pair<std::string, std::string>> entries;
        for (const FairSharePool& pool : *pools) {
          entries.emplace_back("pool." + pool.name + ".weight",
                               repr_double(pool.weight));
          entries.emplace_back("pool." + pool.name + ".min_share",
                               repr_double(pool.min_share));
        }
        return entries;
      });
  registry.add_rule("pool", [&config]() -> std::string {
    double min_share_total = 0;
    for (const FairSharePool& pool : config.fairshare.pools)
      min_share_total += pool.min_share;
    if (min_share_total > 1.0 + 1e-12)
      return "pool min_share values sum to " + repr_double(min_share_total) +
             " (> 1.0, over-committing the machine)";
    if (config.fairshare.pools.size() > 255)
      return "at most 255 pools are supported (job pool tags are 8-bit)";
    return {};
  });
}

}  // namespace es::sched
