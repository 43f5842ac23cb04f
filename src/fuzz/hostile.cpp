#include "fuzz/hostile.hpp"

#include <algorithm>
#include <cmath>

#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace es::fuzz {

namespace {

// Distinct SplitMix-style salts so each family explores an independent
// region of seed space even for equal user seeds.
constexpr std::uint64_t kFamilySalt = 0x9e3779b97f4a7c15ULL;

util::Rng family_rng(const std::string& family, std::uint64_t seed) {
  std::uint64_t h = kFamilySalt;
  for (const char c : family) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  return util::Rng(h ^ seed);
}

double round_time(double value) { return std::max(0.0, std::round(value)); }

double round_duration(double value) { return std::max(1.0, std::round(value)); }

/// Quantizes every timestamp/duration/amount to whole seconds so the CWF
/// serialization (`%.0f`) round-trips exactly.
void quantize(workload::Workload& workload) {
  for (workload::Job& job : workload.jobs) {
    job.arr = round_time(job.arr);
    job.dur = round_duration(job.dur);
    if (job.actual >= 0) job.actual = round_duration(job.actual);
    if (job.start >= 0) job.start = round_time(job.start);
  }
  for (workload::Ecc& ecc : workload.eccs) {
    ecc.issue = round_time(ecc.issue);
    ecc.amount = std::max(1.0, std::round(ecc.amount));
  }
  workload.normalize();
}

fault::RequeuePolicy pick_requeue(util::Rng& rng) {
  switch (rng.uniform_int(0, 2)) {
    case 0: return fault::RequeuePolicy::kRequeueHead;
    case 1: return fault::RequeuePolicy::kRequeueTail;
    default: return fault::RequeuePolicy::kAbandon;
  }
}

Scenario base_scenario(const std::string& family, std::uint64_t seed) {
  Scenario scenario;
  scenario.family = family;
  scenario.seed = seed;
  scenario.name = family + "-" + std::to_string(seed);
  // Safety net: no hostile scenario here legitimately needs more events.
  // A run that trips these budgets is a livelock/runaway finding, which
  // is exactly what expect_completion flags for the oracle.
  scenario.engine.watchdog.max_events = 20'000'000;
  scenario.engine.watchdog.no_progress_cycles = 500'000;
  return scenario;
}

workload::GeneratorConfig base_generator(util::Rng& rng, std::size_t jobs) {
  workload::GeneratorConfig config;
  config.num_jobs = jobs;
  config.seed = rng.next_u64();
  return config;
}

Scenario make_flash_crowd(std::uint64_t seed) {
  util::Rng rng = family_rng("flash_crowd", seed);
  Scenario scenario = base_scenario("flash_crowd", seed);

  workload::GeneratorConfig config =
      base_generator(rng, 80 + static_cast<std::size_t>(rng.uniform_int(0, 60)));
  config.p_small = rng.uniform(0.2, 0.8);
  workload::Workload workload = workload::generate(config);

  // Rewrite arrivals into a handful of near-simultaneous waves.  Every
  // wave lands its whole cohort within a seconds-wide window, and a
  // sprinkle of jobs is inflated to (near-)full machine size so a wave
  // head can wall off the machine while backfill churns behind it.
  const int waves = static_cast<int>(rng.uniform_int(3, 6));
  std::vector<double> wave_start(static_cast<std::size_t>(waves));
  double t = 0;
  for (double& start : wave_start) {
    start = t;
    t += rng.exponential(2400.0);
  }
  for (workload::Job& job : workload.jobs) {
    const auto wave = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(waves) - 1));
    job.arr = wave_start[wave] + rng.uniform(0.0, 4.0);
    if (job.start >= 0) job.start = job.arr + rng.uniform(600.0, 7200.0);
    if (rng.bernoulli(0.1)) {
      job.num = workload.machine_procs -
                workload.granularity *
                    static_cast<int>(rng.uniform_int(0, 1));
    }
  }
  quantize(workload);
  scenario.workload = std::move(workload);
  return scenario;
}

Scenario make_heavy_tail(std::uint64_t seed) {
  util::Rng rng = family_rng("heavy_tail", seed);
  Scenario scenario = base_scenario("heavy_tail", seed);

  workload::GeneratorConfig config =
      base_generator(rng, 80 + static_cast<std::size_t>(rng.uniform_int(0, 60)));
  config.p_small = rng.uniform(0.1, 0.5);
  // f-model estimate spread: users over-estimate by wildly varying factors.
  config.estimate_uniform_max = rng.uniform(2.0, 12.0);
  config.target_load = rng.uniform(0.8, 1.4);
  workload::Workload workload = workload::generate(config);

  for (workload::Job& job : workload.jobs) {
    const double roll = rng.uniform01();
    if (roll < 0.08) {
      // Monster: runtime stretched toward the cap; estimate barely covers.
      const double actual = job.actual_runtime() * rng.uniform(30.0, 120.0);
      job.actual = std::min(actual, 6.5 * 86400.0);
      job.dur = job.actual * rng.uniform(1.0, 1.3);
    } else if (roll < 0.2) {
      // Doomed: true runtime exceeds the estimate, so the engine kills the
      // job at its (possibly ECC-extended) kill-by time.
      job.actual = job.dur * rng.uniform(1.05, 2.5);
    } else if (roll < 0.5) {
      // Confetti: sub-minute jobs that keep the backfill window busy.
      job.actual = rng.uniform(1.0, 60.0);
      job.dur = std::max(job.actual, job.dur);
    }
  }
  quantize(workload);
  scenario.workload = std::move(workload);
  return scenario;
}

Scenario make_ecc_storm(std::uint64_t seed) {
  util::Rng rng = family_rng("ecc_storm", seed);
  Scenario scenario = base_scenario("ecc_storm", seed);

  workload::GeneratorConfig config =
      base_generator(rng, 60 + static_cast<std::size_t>(rng.uniform_int(0, 50)));
  // The two probabilities share one unit budget (generator precondition:
  // p_extend + p_reduce <= 1), so draw the second from what is left.
  config.p_extend = rng.uniform(0.3, 0.6);
  config.p_reduce = rng.uniform(0.3, 1.0 - config.p_extend);
  config.p_extend_procs = rng.uniform(0.1, 0.4);
  config.p_reduce_procs = rng.uniform(0.1, 0.4);
  config.max_eccs_per_job = static_cast<int>(rng.uniform_int(2, 5));
  config.target_load = rng.uniform(0.7, 1.2);
  workload::Workload workload = workload::generate(config);

  // Contradictory and duplicate same-instant pairs: pick victims and hit
  // each with an extend+reduce (or extend+extend) pair issued at the exact
  // same instant, in both the time and the processor dimension.  Resolution
  // must be deterministic and first-wins per dimension.
  const auto pair_types =
      [](util::Rng& r) -> std::pair<workload::EccType, workload::EccType> {
    switch (r.uniform_int(0, 3)) {
      case 0: return {workload::EccType::kExtendTime,
                      workload::EccType::kReduceTime};
      case 1: return {workload::EccType::kExtendProcs,
                      workload::EccType::kReduceProcs};
      case 2: return {workload::EccType::kExtendTime,
                      workload::EccType::kExtendTime};
      default: return {workload::EccType::kReduceProcs,
                       workload::EccType::kReduceProcs};
    }
  };
  for (const workload::Job& job : workload.jobs) {
    if (!rng.bernoulli(0.25)) continue;
    const auto [first, second] = pair_types(rng);
    workload::Ecc a;
    a.job_id = job.id;
    a.issue = job.arr + rng.uniform(0.0, job.dur);
    a.type = first;
    a.amount = first == workload::EccType::kExtendTime ||
                       first == workload::EccType::kReduceTime
                   ? rng.uniform(60.0, 0.5 * job.dur + 120.0)
                   : static_cast<double>(rng.uniform_int(1, 96));
    workload::Ecc b = a;
    b.type = second;
    b.amount = second == workload::EccType::kExtendTime ||
                       second == workload::EccType::kReduceTime
                   ? rng.uniform(60.0, 0.5 * job.dur + 120.0)
                   : static_cast<double>(rng.uniform_int(1, 96));
    workload.eccs.push_back(a);
    workload.eccs.push_back(b);
  }
  // Boundary-value amounts: the occasional astronomically large (but
  // finite, CWF-valid) extension probes overflow handling downstream.
  for (const workload::Job& job : workload.jobs) {
    if (!rng.bernoulli(0.02)) continue;
    workload::Ecc extreme;
    extreme.job_id = job.id;
    extreme.issue = job.arr + rng.uniform(0.0, job.dur);
    extreme.type = workload::EccType::kExtendTime;
    extreme.amount = 1e15;
    workload.eccs.push_back(extreme);
  }
  quantize(workload);
  scenario.workload = std::move(workload);
  // An ET of 1e15 seconds legitimately stretches the simulated horizon;
  // cap sim time instead of flagging the abort as a finding.
  scenario.engine.watchdog.max_sim_time = 1e18;
  return scenario;
}

Scenario make_outage_cascade(std::uint64_t seed) {
  util::Rng rng = family_rng("outage_cascade", seed);
  Scenario scenario = base_scenario("outage_cascade", seed);

  workload::GeneratorConfig config =
      base_generator(rng, 70 + static_cast<std::size_t>(rng.uniform_int(0, 50)));
  config.target_load = rng.uniform(0.6, 1.1);
  workload::Workload workload = workload::generate(config);
  quantize(workload);

  fault::FailureModelConfig& failure = scenario.engine.failure;
  failure.enabled = true;
  failure.max_interruptions = static_cast<int>(rng.uniform_int(1, 5));
  const int cards = workload.machine_procs / workload.granularity;
  if (rng.bernoulli(0.5)) {
    // Scripted cascade: a few correlated outages, each taking out a large
    // contiguous slice of the machine (several node cards at once).
    const int outages = static_cast<int>(rng.uniform_int(3, 6));
    double down = round_time(rng.uniform(600.0, 7200.0));
    for (int i = 0; i < outages; ++i) {
      fault::Outage outage;
      outage.down = down;
      outage.up = down + round_duration(rng.uniform(600.0, 7200.0));
      outage.procs =
          workload.granularity *
          static_cast<int>(rng.uniform_int(2, std::max(2, cards / 2)));
      failure.script.push_back(outage);
      down = outage.up + round_duration(rng.exponential(3600.0));
    }
  } else {
    // Harsh stochastic regime: MTBF on the order of job runtimes, with
    // multi-card outage sizes.
    failure.seed = rng.next_u64();
    failure.mtbf = round_duration(rng.uniform(1800.0, 7200.0));
    failure.mttr = round_duration(rng.uniform(300.0, 3600.0));
    failure.min_nodes = 1;
    failure.max_nodes = static_cast<int>(
        rng.uniform_int(2, std::max(2, cards / 2)));
  }
  scenario.engine.requeue = pick_requeue(rng);
  scenario.workload = std::move(workload);
  return scenario;
}

Scenario make_dedicated_saturation(std::uint64_t seed) {
  util::Rng rng = family_rng("dedicated_saturation", seed);
  Scenario scenario = base_scenario("dedicated_saturation", seed);

  workload::GeneratorConfig config =
      base_generator(rng, 70 + static_cast<std::size_t>(rng.uniform_int(0, 50)));
  config.p_dedicated = rng.uniform(0.4, 0.75);
  // Short booking horizons cluster the reservations, so many dedicated
  // windows overlap and compete with the batch queue for the same procs.
  config.dedicated_start_mean = rng.uniform(600.0, 5400.0);
  config.target_load = rng.uniform(0.7, 1.2);
  workload::Workload workload = workload::generate(config);
  quantize(workload);
  scenario.workload = std::move(workload);
  return scenario;
}

Scenario make_checkpoint_churn(std::uint64_t seed) {
  util::Rng rng = family_rng("checkpoint_churn", seed);
  Scenario scenario = base_scenario("checkpoint_churn", seed);

  workload::GeneratorConfig config =
      base_generator(rng, 60 + static_cast<std::size_t>(rng.uniform_int(0, 40)));
  config.target_load = rng.uniform(0.6, 1.0);
  workload::Workload workload = workload::generate(config);
  // Stretch a slice of the jobs so checkpoint intervals fit several times
  // into an attempt (otherwise the churn never banks anything).
  for (workload::Job& job : workload.jobs) {
    if (!rng.bernoulli(0.3)) continue;
    job.dur *= rng.uniform(3.0, 10.0);
    if (job.actual >= 0) job.actual *= rng.uniform(3.0, 10.0);
  }
  quantize(workload);

  fault::CheckpointConfig& ckpt = scenario.engine.checkpoint;
  ckpt.enabled = true;
  ckpt.interval = round_duration(rng.uniform(60.0, 900.0));
  ckpt.overhead = round_time(rng.uniform(0.0, 60.0));
  ckpt.on_preempt = rng.bernoulli(0.5);

  fault::FailureModelConfig& failure = scenario.engine.failure;
  failure.enabled = true;
  failure.seed = rng.next_u64();
  failure.mtbf = round_duration(rng.uniform(1800.0, 10800.0));
  failure.mttr = round_duration(rng.uniform(300.0, 1800.0));
  failure.min_nodes = 1;
  failure.max_nodes = static_cast<int>(rng.uniform_int(1, 4));
  failure.max_interruptions = static_cast<int>(rng.uniform_int(2, 6));
  scenario.engine.requeue = rng.bernoulli(0.5)
                                ? fault::RequeuePolicy::kRequeueHead
                                : fault::RequeuePolicy::kRequeueTail;
  scenario.workload = std::move(workload);
  return scenario;
}

Scenario make_crash_restart(std::uint64_t seed) {
  util::Rng rng = family_rng("crash_restart", seed);
  Scenario scenario = base_scenario("crash_restart", seed);

  // The whole feature surface in one trace — elastic commands, sometimes
  // dedicated reservations, failure churn with checkpoint banking — i.e.
  // everything a snapshot has to round-trip.  The oracle treats this
  // family specially: every run is re-executed with snapshot capture,
  // killed at event boundaries and resumed, and the resumed result must
  // match the uninterrupted one exactly (check_run's restore-equivalence
  // differential).
  workload::GeneratorConfig config =
      base_generator(rng, 50 + static_cast<std::size_t>(rng.uniform_int(0, 40)));
  config.p_small = rng.uniform(0.3, 0.7);
  config.p_extend = rng.uniform(0.1, 0.4);
  config.p_reduce = rng.uniform(0.1, 0.4);
  config.p_extend_procs = rng.uniform(0.0, 0.3);
  config.p_reduce_procs = rng.uniform(0.0, 0.3);
  if (rng.bernoulli(0.4)) config.p_dedicated = rng.uniform(0.2, 0.5);
  config.target_load = rng.uniform(0.7, 1.1);
  workload::Workload workload = workload::generate(config);
  quantize(workload);

  if (rng.bernoulli(0.6)) {
    fault::FailureModelConfig& failure = scenario.engine.failure;
    failure.enabled = true;
    failure.seed = rng.next_u64();
    failure.mtbf = round_duration(rng.uniform(3600.0, 14400.0));
    failure.mttr = round_duration(rng.uniform(300.0, 1800.0));
    failure.min_nodes = 1;
    failure.max_nodes = static_cast<int>(rng.uniform_int(1, 3));
    failure.max_interruptions = static_cast<int>(rng.uniform_int(2, 5));
    scenario.engine.requeue = pick_requeue(rng);
    if (rng.bernoulli(0.5)) {
      fault::CheckpointConfig& ckpt = scenario.engine.checkpoint;
      ckpt.enabled = true;
      ckpt.interval = round_duration(rng.uniform(120.0, 1200.0));
      ckpt.overhead = round_time(rng.uniform(0.0, 45.0));
      ckpt.on_preempt = rng.bernoulli(0.5);
    }
  }
  scenario.workload = std::move(workload);
  return scenario;
}

}  // namespace

const std::vector<std::string>& family_names() {
  static const std::vector<std::string> names = {
      "flash_crowd",      "heavy_tail",           "ecc_storm",
      "outage_cascade",   "dedicated_saturation", "checkpoint_churn",
      "crash_restart",
  };
  return names;
}

Scenario make_scenario(const std::string& family, std::uint64_t seed) {
  if (family == "flash_crowd") return make_flash_crowd(seed);
  if (family == "heavy_tail") return make_heavy_tail(seed);
  if (family == "ecc_storm") return make_ecc_storm(seed);
  if (family == "outage_cascade") return make_outage_cascade(seed);
  if (family == "dedicated_saturation") return make_dedicated_saturation(seed);
  if (family == "checkpoint_churn") return make_checkpoint_churn(seed);
  if (family == "crash_restart") return make_crash_restart(seed);
  throw ScenarioError("unknown hostile family '" + family + "'");
}

}  // namespace es::fuzz
