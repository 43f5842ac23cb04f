// Deterministic random-number generation and the statistical distributions
// used by the workload models.
//
// Everything in the simulator draws from an es::util::Rng seeded explicitly,
// so a (seed, parameters) pair reproduces a bit-identical experiment.  The
// generator is xoshiro256** (public domain, Blackman & Vigna) seeded through
// SplitMix64; we avoid std::mt19937 because its stream is not guaranteed
// identical across standard-library implementations for the distribution
// adaptors, and we want trace files to be reproducible anywhere.
#pragma once

#include <array>
#include <cstdint>

namespace es::util {

/// xoshiro256** pseudo-random generator with explicit, portable semantics.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit words of state via SplitMix64 so that any seed,
  /// including 0, yields a well-mixed state.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Raw 64-bit draw.
  std::uint64_t next_u64();

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }
  result_type operator()() { return next_u64(); }

  /// Uniform double in [0, 1).  Uses the top 53 bits.
  double uniform01();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in the inclusive range [lo, hi] (unbiased via rejection).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Bernoulli trial: true with probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Exponential variate with the given mean (mean > 0).
  double exponential(double mean);

  /// Standard normal variate (Marsaglia polar method, cached pair).
  double normal();

  /// Gamma(shape alpha, scale beta) variate, mean = alpha * beta.
  /// Marsaglia & Tsang squeeze method; handles alpha < 1 by boosting.
  double gamma(double alpha, double beta);

  /// Splits off an independently-seeded child generator.  Used to give each
  /// workload attribute (sizes, runtimes, arrivals, ...) its own stream so
  /// that toggling one feature does not perturb the others.
  Rng split();

  /// Returns a copy of the internal state, for tests.
  std::array<std::uint64_t, 4> state() const { return s_; }

 private:
  std::array<std::uint64_t, 4> s_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

/// Hyper-Gamma distribution: with probability p a Gamma(a1,b1) variate,
/// otherwise Gamma(a2,b2).  This is the runtime model of Lublin & Feitelson
/// (JPDC 2003) as used by the paper (Table I).
struct HyperGamma {
  double a1 = 0, b1 = 0;  ///< first Gamma (short jobs)
  double a2 = 0, b2 = 0;  ///< second Gamma (long jobs)

  /// Draws with mixing probability p of selecting the *first* Gamma.
  double sample(Rng& rng, double p) const;

  /// Mean of the mixture at mixing probability p.
  double mean(double p) const { return p * a1 * b1 + (1 - p) * a2 * b2; }
};

/// Two-stage uniform size distribution (paper section IV-D): small jobs drawn
/// uniformly from {lo1..hi1} with probability p_small, large jobs from
/// {lo2..hi2} otherwise, each multiplied by `unit` processors.
struct TwoStageUniform {
  int lo1 = 1, hi1 = 3;    ///< small-job multiplier range (inclusive)
  int lo2 = 4, hi2 = 10;   ///< large-job multiplier range (inclusive)
  int unit = 32;           ///< processors per multiplier step (BG/P node card)

  /// Draws a job size in processors.
  int sample(Rng& rng, double p_small) const;

  /// Expected size in processors at the given small-job probability.
  double mean(double p_small) const;
};

}  // namespace es::util
