// CWF workload generator (paper section IV-D).
//
// Produces synthetic heterogeneous, elastic workloads: job sizes from the
// two-stage uniform model (P_S small-job probability), runtimes from the
// size-correlated hyper-Gamma, arrivals from the Gamma renewal process,
// dedicated jobs mixed in with probability P_D, and ECCs injected with
// extension probability P_E / reduction probability P_R.  Every stream draws
// from its own split of the seed so toggling one feature (e.g. P_D) leaves
// the other attributes of the trace unchanged.
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.hpp"
#include "workload/job.hpp"
#include "workload/lublin.hpp"

namespace es::util {
class ParamRegistry;
}  // namespace es::util

namespace es::workload {

/// All knobs of the synthetic model.  Defaults reproduce the paper's
/// BlueGene/P configuration.
struct GeneratorConfig {
  int machine_procs = 320;      ///< M
  std::size_t num_jobs = 500;   ///< N_J per simulation point
  std::uint64_t seed = 1;

  double p_small = 0.5;         ///< P_S: small-job probability
  double p_dedicated = 0.0;     ///< P_D: dedicated-job probability
  double p_extend = 0.0;        ///< P_E: ET injection probability
  double p_reduce = 0.0;        ///< P_R: RT injection probability

  /// EP/RP injection (resource dimension, the paper's section-VI
  /// extension; CWF field 20 already defines the mnemonics).
  double p_extend_procs = 0.0;
  double p_reduce_procs = 0.0;
  /// EP/RP amount = max(1, round(Exp(mean))) processors.
  double ecc_proc_amount_mean = 64.0;

  util::TwoStageUniform size{};     ///< {1..3}x32 / {4..10}x32 by default
  RuntimeParams runtime{};          ///< Table I

  /// Requested-start-time offset for dedicated jobs: start = arr +
  /// Exp(mean).  The paper specifies only "exponential"; the default keeps
  /// the booking horizon on the order of high-load queueing delays, so
  /// reservations are genuinely in the future (exercising the
  /// schedule-around-reservations machinery) without dominating the trace.
  double dedicated_start_mean = 4 * 3600.0;

  /// ECC amount = Exp(mean = this fraction of the job's duration), clamped
  /// so reductions keep at least 10% of the runtime.
  double ecc_amount_frac_mean = 0.25;

  /// ECC issue time = arr + U(0, issue_window_frac * dur).  Early-biased so
  /// most commands land while the job is queued or freshly running.
  double issue_window_frac = 0.9;

  /// Maximum ECC count per job (the paper allows imposing such a cap).
  int max_eccs_per_job = 1;

  /// User runtime estimates: dur = estimate_factor * actual.  1.0 = exact
  /// estimates; 2.0 reproduces the "over-estimated by two times" scenario
  /// discussed for backfilling.
  double estimate_factor = 1.0;

  /// Stochastic estimate quality (the backfilling literature's "f-model"):
  /// when > 1, dur = actual * U(1, estimate_uniform_max) per job, drawn
  /// from its own RNG stream, overriding estimate_factor.  Real users
  /// over-estimate by wildly varying amounts; this models that spread.
  double estimate_uniform_max = 0.0;

  /// If > 0, arrival times are scaled until the offered load matches this
  /// target (see load.hpp).  0 keeps the model's raw arrivals, which
  /// overload the default machine (offered load ~15 at M = 320).
  double target_load = 0.0;

  /// Multi-tenancy: when > 0, every job is tagged with a submitting user
  /// drawn from Zipf(zipf_exponent) over ranks 1..num_users (heavy-hitter
  /// submission rates, the "millions of users" shape) and charged to pool
  /// `(user - 1) % num_pools`.  0 = untagged single-tenant trace.  The user
  /// stream draws from its own RNG split, so enabling tenancy leaves sizes /
  /// runtimes / arrivals / ECCs of the trace byte-identical.
  int num_users = 0;
  double zipf_exponent = 1.1;
  int num_pools = 0;  ///< 0 = every tagged job lands in pool 0
};

/// Registers the model knobs the command-line tools set as workload.* params
/// (N_J, seed, P_S, P_D, P_E, P_R, target load, estimate factor), each with
/// its flag spelling as dotless alias, plus the rule that P_E + P_R <= 1.
/// The ranges cover JobSampler's preconditions (and reject NaN and inf), so
/// a config that passes finalize() never trips them; N_J is also capped at
/// 1e9.  The registry must not outlive `config`.
void register_generator_params(util::ParamRegistry& registry,
                               GeneratorConfig& config);

/// Registers the tenancy.* knobs (Zipf users over pools).
void register_tenancy_params(util::ParamRegistry& registry,
                             GeneratorConfig& config);

/// Discrete Zipf sampler over ranks 1..n: P(k) proportional to k^-s.
/// Deterministic CDF inversion (binary search), exposed for tests and the
/// fairshare bench.
class ZipfSampler {
 public:
  ZipfSampler(int n, double s);
  /// Draws a rank in [1, n].
  int sample(util::Rng& rng) const;
  double probability(int rank) const;

 private:
  std::vector<double> cdf_;
};

/// The one per-job draw of the model: generate() loops it over the whole
/// trace, GeneratorSource over chunks (and over its calibration passes).
/// Each attribute draws from its own split of the seed, in a fixed split
/// order, so the job, command and tag of draw i do not depend on which of
/// them a caller asks for.  Construction checks the config's preconditions.
class JobSampler {
 public:
  explicit JobSampler(const GeneratorConfig& config);

  /// Draws the next job (ids run 1..num_jobs in draw order, arrivals are
  /// unscaled and non-decreasing); false once num_jobs were drawn.
  /// When `eccs` is non-null the job's commands are appended to it, and
  /// when `users` is non-null the job is tagged with a submitting user and
  /// its pool; passes that need neither skip those streams.
  bool next(Job& job, std::vector<Ecc>* eccs, const ZipfSampler* users);

  const GeneratorConfig& config() const { return config_; }

 private:
  GeneratorConfig config_;
  util::Rng master_;
  util::Rng size_rng_;
  util::Rng runtime_rng_;
  util::Rng arrival_rng_;
  util::Rng type_rng_;
  util::Rng ecc_rng_;
  util::Rng estimate_rng_;
  /// Split after the original six streams so pre-tenancy traces stay
  /// byte-identical: it only consumes entropy when jobs are tagged.
  util::Rng user_rng_;
  ArrivalProcess arrivals_;
  std::size_t drawn_ = 0;
};

/// Generates a workload from the model.  Jobs get IDs 1..num_jobs in arrival
/// order.  Postconditions: jobs sorted by arrival, sizes within
/// [granularity, machine_procs], all durations positive.  With a target
/// load, the trace is bit for bit calibrate_load() applied to the trace
/// generated with target_load 0.
Workload generate(const GeneratorConfig& config);

/// Generates the Fig-1 "SDSC-like" validation trace: Lublin's original
/// log-uniform sizes on a `procs`-processor SP2-class machine (granularity
/// 1), batch jobs only, no ECCs.
Workload generate_sdsc_like(std::size_t num_jobs, int procs,
                            std::uint64_t seed);

}  // namespace es::workload
