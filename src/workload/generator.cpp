#include "workload/generator.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>

#include "util/check.hpp"
#include "util/param_registry.hpp"
#include "workload/load.hpp"

namespace es::workload {

// Independent streams per attribute: adding dedicated jobs or ECCs must not
// reshuffle sizes/runtimes/arrivals of the underlying trace.  The member
// initialisation order is the split order, and the split order is the trace.
JobSampler::JobSampler(const GeneratorConfig& config)
    : config_(config),
      master_(config.seed),
      size_rng_(master_.split()),
      runtime_rng_(master_.split()),
      arrival_rng_(master_.split()),
      type_rng_(master_.split()),
      ecc_rng_(master_.split()),
      estimate_rng_(master_.split()),
      user_rng_(master_.split()),
      arrivals_(arrival_rng_) {
  // Every precondition of the model, for generate() and GeneratorSource.
  ES_EXPECTS(config.num_jobs > 0);
  ES_EXPECTS(config.machine_procs > 0);
  ES_EXPECTS(config.p_small >= 0 && config.p_small <= 1);
  ES_EXPECTS(config.p_dedicated >= 0 && config.p_dedicated <= 1);
  ES_EXPECTS(config.p_extend >= 0 && config.p_extend <= 1);
  ES_EXPECTS(config.p_reduce >= 0 && config.p_reduce <= 1);
  ES_EXPECTS(config.p_extend + config.p_reduce <= 1);
  ES_EXPECTS(config.p_extend_procs + config.p_reduce_procs <= 1);
  ES_EXPECTS(config.estimate_factor >= 1.0);
  if (config.num_users > 0) {
    ES_EXPECTS(config.zipf_exponent > 0);
    ES_EXPECTS(config.num_pools >= 0);
  }
}

bool JobSampler::next(Job& job, std::vector<Ecc>* eccs,
                      const ZipfSampler* users) {
  const GeneratorConfig& config = config_;
  if (drawn_ >= config.num_jobs) return false;
  job = Job{};
  job.id = static_cast<JobId>(++drawn_);
  job.arr = arrivals_.next();
  job.num = std::min(config.size.sample(size_rng_, config.p_small),
                     config.machine_procs);
  const double actual = config.runtime.sample(runtime_rng_, job.num);
  job.actual = actual;
  if (config.estimate_uniform_max > 1.0) {
    job.dur = actual * estimate_rng_.uniform(1.0, config.estimate_uniform_max);
  } else {
    job.dur = actual * config.estimate_factor;
  }
  if (type_rng_.bernoulli(config.p_dedicated)) {
    job.type = JobType::kDedicated;
    job.start = job.arr + type_rng_.exponential(config.dedicated_start_mean);
  }
  if (eccs != nullptr) {
    // With probability P_E a job gets an ET command, otherwise with
    // probability P_R an RT command (mutually exclusive per draw, as the
    // paper treats them as alternative perturbations of a job).  EP/RP
    // commands (resource dimension) draw independently.
    for (int k = 0; k < config.max_eccs_per_job; ++k) {
      const double draw = ecc_rng_.uniform01();
      EccType type;
      if (draw < config.p_extend) {
        type = EccType::kExtendTime;
      } else if (draw < config.p_extend + config.p_reduce) {
        type = EccType::kReduceTime;
      } else {
        continue;
      }
      Ecc ecc;
      ecc.job_id = job.id;
      ecc.type = type;
      double amount =
          ecc_rng_.exponential(config.ecc_amount_frac_mean * job.dur);
      if (type == EccType::kReduceTime) {
        // Keep at least 10% of the runtime after reduction.
        amount = std::min(amount, 0.9 * job.dur);
      }
      ecc.amount = std::max(1.0, amount);
      ecc.issue =
          job.arr + ecc_rng_.uniform(0.0, config.issue_window_frac * job.dur);
      eccs->push_back(ecc);
    }
    const double proc_draw = ecc_rng_.uniform01();
    if (proc_draw < config.p_extend_procs + config.p_reduce_procs) {
      Ecc ecc;
      ecc.job_id = job.id;
      ecc.type = proc_draw < config.p_extend_procs ? EccType::kExtendProcs
                                                   : EccType::kReduceProcs;
      ecc.amount = std::max(
          1.0, std::round(ecc_rng_.exponential(config.ecc_proc_amount_mean)));
      ecc.issue =
          job.arr + ecc_rng_.uniform(0.0, config.issue_window_frac * job.dur);
      eccs->push_back(ecc);
    }
  }
  if (users != nullptr) {
    // Multi-tenant tagging: Zipf-distributed submitters, pools round-robin
    // over user rank.  Drawn in id order, so insensitive to arrival ties.
    job.user = users->sample(user_rng_);
    job.pool = config.num_pools > 0 ? (job.user - 1) % config.num_pools : 0;
  }
  return true;
}

Workload generate(const GeneratorConfig& config) {
  JobSampler sampler(config);
  std::optional<ZipfSampler> users;
  if (config.num_users > 0)
    users.emplace(config.num_users, config.zipf_exponent);

  Workload workload;
  workload.machine_procs = config.machine_procs;
  workload.granularity = config.size.unit;
  workload.jobs.reserve(config.num_jobs);
  // One pass: each job feeds the calibrator as it is drawn.  The arrival
  // process never steps back and ids count up, so the jobs come out in
  // normalize()'s order and its job sort is skipped.
  LoadCalibrator calibrator(config.machine_procs);
  const bool calibrate = config.target_load > 0;
  Job job;
  while (sampler.next(job, &workload.eccs, users ? &*users : nullptr)) {
    if (calibrate) calibrator.add(job);
    workload.jobs.push_back(job);
  }
  workload.normalize();
  if (calibrate)
    workload.scale_arrivals(calibrator.calibrate(config.target_load).factors);
  return workload;
}

void register_generator_params(util::ParamRegistry& registry,
                               GeneratorConfig& config) {
  // One-sided ranges: JobSampler bounds these knobs from below only; the
  // largest finite double still rejects inf and NaN.
  constexpr double kNoUpperBound = std::numeric_limits<double>::max();
  // N_J's cap of 1e9 is not JobSampler's: generate() reserves N_J jobs up
  // front, and counts near SIZE_MAX throw std::length_error there.
  registry
      .add_size("workload.num_jobs", &config.num_jobs,
                "N_J: synthetic jobs to generate")
      .range(1, 1'000'000'000)
      .alias("num-jobs");
  registry.add_uint64("workload.seed", &config.seed, "generator RNG seed")
      .alias("seed");
  registry
      .add_double("workload.p_small", &config.p_small,
                  "P_S: probability that a job is small")
      .range(0, 1)
      .alias("p-small");
  registry
      .add_double("workload.p_dedicated", &config.p_dedicated,
                  "P_D: probability that a job is dedicated (has a "
                  "requested start time)")
      .range(0, 1)
      .alias("p-dedicated");
  registry
      .add_double("workload.p_extend", &config.p_extend,
                  "P_E: probability that a job gets an extend-time (ET) "
                  "command")
      .range(0, 1)
      .alias("p-extend");
  registry
      .add_double("workload.p_reduce", &config.p_reduce,
                  "P_R: probability that a job gets a reduce-time (RT) "
                  "command")
      .range(0, 1)
      .alias("p-reduce");
  registry
      .add_double("workload.target_load", &config.target_load,
                  "scale arrival times to this offered load (0 = keep the "
                  "model's raw arrivals, which overload the default machine; "
                  "simrun prints the offered load)")
      .range(0, kNoUpperBound)
      .alias("load");
  registry
      .add_double("workload.estimate_factor", &config.estimate_factor,
                  "requested time = factor x actual runtime (1 = exact "
                  "estimates)")
      .range(1, kNoUpperBound)
      .alias("estimate-factor");
  // ET and RT are alternative outcomes of one uniform draw per job.
  registry.add_rule("workload.p_reduce", [&config] {
    const double sum = config.p_extend + config.p_reduce;
    if (sum <= 1) return std::string();
    char message[128];
    std::snprintf(message, sizeof message,
                  "workload.p_extend + workload.p_reduce = %g exceeds 1 (ET "
                  "and RT share one draw per job)",
                  sum);
    return std::string(message);
  });
}

void register_tenancy_params(util::ParamRegistry& registry,
                             GeneratorConfig& config) {
  registry
      .add_int("tenancy.users", &config.num_users,
               "Zipf-distributed submitting users to tag jobs with (0 = "
               "untagged)")
      .range(0, 10'000'000)
      .alias("tenancy.num_users")
      .alias("users");
  registry
      .add_double("tenancy.zipf_exponent", &config.zipf_exponent,
                  "Zipf exponent of per-user submission rates")
      .range(0.01, 10)
      .alias("zipf-exponent");
  registry
      .add_int("tenancy.pools", &config.num_pools,
               "fair-share pools jobs are charged to, round-robin over user "
               "rank (0 = all in pool 0)")
      .range(0, 255)
      .alias("tenancy.num_pools")
      .alias("pools");
}

ZipfSampler::ZipfSampler(int n, double s) {
  ES_EXPECTS(n >= 1);
  cdf_.resize(static_cast<std::size_t>(n));
  double total = 0;
  for (int k = 1; k <= n; ++k) {
    total += std::pow(static_cast<double>(k), -s);
    cdf_[static_cast<std::size_t>(k - 1)] = total;
  }
  for (double& c : cdf_) c /= total;
  cdf_.back() = 1.0;  // guard against accumulated rounding
}

int ZipfSampler::sample(util::Rng& rng) const {
  const double u = rng.uniform01();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<int>(it - cdf_.begin()) + 1;
}

double ZipfSampler::probability(int rank) const {
  ES_EXPECTS(rank >= 1 &&
             rank <= static_cast<int>(cdf_.size()));
  const std::size_t i = static_cast<std::size_t>(rank - 1);
  return i == 0 ? cdf_[0] : cdf_[i] - cdf_[i - 1];
}

Workload generate_sdsc_like(std::size_t num_jobs, int procs,
                            std::uint64_t seed) {
  ES_EXPECTS(procs >= 2);
  util::Rng master(seed);
  util::Rng size_rng = master.split();
  util::Rng runtime_rng = master.split();
  util::Rng arrival_rng = master.split();

  LogUniformSize size_model;
  size_model.hi = std::log2(static_cast<double>(procs));

  RuntimeParams runtime;  // Table I constants fit SP2-class traces too.

  Workload workload;
  workload.machine_procs = procs;
  workload.granularity = 1;
  workload.jobs.reserve(num_jobs);
  ArrivalProcess arrivals(arrival_rng);
  for (std::size_t i = 0; i < num_jobs; ++i) {
    Job job;
    job.id = static_cast<JobId>(i + 1);
    job.arr = arrivals.next();
    job.num = std::min(size_model.sample(size_rng), procs);
    job.actual = runtime.sample(runtime_rng, job.num);
    job.dur = job.actual;
    workload.jobs.push_back(job);
  }
  workload.normalize();
  return workload;
}

}  // namespace es::workload
