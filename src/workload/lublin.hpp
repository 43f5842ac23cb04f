// Lublin–Feitelson analytical workload model (JPDC 2003) as instantiated by
// the paper (section IV-D, Tables I & II).
//
// Three attribute models:
//  * Job size — the paper replaces Lublin's log-uniform parallelism model
//    with a two-stage uniform over BlueGene/P node cards: small jobs are
//    {1..3} x 32 processors with probability P_S, large jobs {4..10} x 32
//    otherwise (util::TwoStageUniform).  For the Fig-1 SDSC-like trace we
//    also provide Lublin's original log-uniform size model.
//  * Runtime — hyper-Gamma: Gamma(a1,b1) with probability p, Gamma(a2,b2)
//    otherwise, where p = p_a * s + p_b couples runtime to job size s (larger
//    jobs draw from the long-runtime Gamma more often).  Samples are the
//    natural log of the runtime in seconds, per Lublin's log-space fitting.
//  * Arrivals — section IV-D read as hourly buckets: each 1-hour interval
//    receives ~Gamma(α_num, β_num) jobs, fewer outside the rush window
//    (ARAR), at intra-hour offsets shaped by Gamma(α_arr, β_arr).  The
//    gaps are normalized into the hour, so β_arr, the paper's load knob,
//    shapes nothing; load is set by arrival scaling instead.
//
// Absolute magnitudes are calibrated per-experiment by arrival scaling
// (workload/load.hpp), so the unit conventions here only set the starting
// point; the distribution *shapes* are what the schedulers react to.
#pragma once

#include <vector>

#include "util/rng.hpp"

namespace es::workload {

/// Table I of the paper: hyper-Gamma runtime parameters and the size
/// correlation line p = p_a * s + p_b (clamped to [0,1]).
struct RuntimeParams {
  double a1 = 4.2;
  double b1 = 0.94;
  double a2 = 312;
  double b2 = 0.03;
  double p_a = -0.0054;
  double p_b = 0.78;
  /// Correlation uses s in units of `size_unit` processors; the paper's
  /// p_a is fitted for node counts, and the two-stage sizes are multiples of
  /// 32 procs, so s = procs / size_unit with size_unit = 1 keeps the paper's
  /// literal formula.  Clamping keeps out-of-range sizes sane.
  double size_unit = 1.0;
  double min_runtime = 1.0;          ///< floor, seconds
  double max_runtime = 7 * 86400.0;  ///< cap, seconds

  /// Mixing probability for a job of `procs` processors.
  double mixing_p(int procs) const;

  /// Draws a runtime in seconds for a job of `procs` processors.
  double sample(util::Rng& rng, int procs) const;
};

/// Stateful arrival sequence generator over Table II's constants (see
/// lublin.cpp): produces non-decreasing arrival times (seconds since trace
/// start).  Each 1-hour interval receives ~Gamma(α_num, β_num) jobs (scaled
/// down by ARAR in off-hours) at offsets whose relative spacing follows
/// Gamma(α_arr, β_arr) renormalized into the hour, so only α_arr shapes the
/// intra-hour spacing.  Mildly bursty at the hour scale: queues are stable
/// below the utilization ceiling and metrics are N-independent (matching
/// the paper's 10,000-job check).
class ArrivalProcess {
 public:
  explicit ArrivalProcess(util::Rng rng);

  /// Next arrival time; non-decreasing across calls.
  double next();

 private:
  void fill_bucket();

  util::Rng rng_;
  // Pending offsets of the current hour, descending.
  double bucket_begin_ = 0.0;
  std::vector<double> bucket_;
  bool first_ = true;
};

/// Lublin's original log-uniform parallelism model, used for the SDSC-like
/// validation trace of Fig 1 (machines without the 32-proc granularity).
/// With probability `p_serial` a job is serial; otherwise log2(size) is drawn
/// from a two-stage uniform over [lo, med] / [med, hi] and rounded to a power
/// of two with probability `p_pow2`.
struct LogUniformSize {
  double p_serial = 0.24;
  double p_pow2 = 0.75;
  double lo = 0.8;
  double med = 4.5;
  double hi = 7.0;  ///< log2 of the machine size (128 procs -> 7)
  double prob_first_stage = 0.86;

  int sample(util::Rng& rng) const;
};

}  // namespace es::workload
