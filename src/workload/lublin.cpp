#include "workload/lublin.hpp"

#include <algorithm>
#include <cmath>

namespace es::workload {

double RuntimeParams::mixing_p(int procs) const {
  const double s = static_cast<double>(procs) / size_unit;
  return std::clamp(p_a * s + p_b, 0.0, 1.0);
}

double RuntimeParams::sample(util::Rng& rng, int procs) const {
  const double p = mixing_p(procs);
  const util::HyperGamma hg{a1, b1, a2, b2};
  const double log_runtime = hg.sample(rng, p);
  return std::clamp(std::exp(log_runtime), min_runtime, max_runtime);
}

namespace {

// Table II of the paper: arrival-process parameters.
constexpr double kAlphaArr = 13.2303;
// β_arr is the paper's load knob (varied in [0.4101, 0.6101]), but it cannot
// change a rate here: fill_bucket() divides each hour's Gamma(α_arr, β_arr)
// gaps by their sum, so the scale cancels.  It stays as the Gamma's scale
// because x·β / Σ(x·β) does not round like x / Σx: dropping it moves every
// generated trace in its last bits.
constexpr double kBetaArr = 0.5101;
constexpr double kAlphaNum = 15.1737;
constexpr double kBetaNum = 0.9631;
constexpr double kArar = 1.0225;  // arrive rush-to-all ratio
// Rush window, hours of day [begin, end): Lublin's daily cycle peaks during
// working hours.
constexpr int kRushBeginHour = 8;
constexpr int kRushEndHour = 18;

bool rush(double at) {
  const double hour_of_day = std::fmod(at / 3600.0, 24.0);
  return hour_of_day >= kRushBeginHour && hour_of_day < kRushEndHour;
}

}  // namespace

ArrivalProcess::ArrivalProcess(util::Rng rng) : rng_(rng) {}

void ArrivalProcess::fill_bucket() {
  // Advance hour by hour until a bucket receives at least one job.
  for (;;) {
    if (!first_) bucket_begin_ += 3600.0;
    first_ = false;
    double expected = rng_.gamma(kAlphaNum, kBetaNum);
    // ARAR is the rush-to-all arrival-rate ratio: off-hour buckets are that
    // much thinner.
    if (!rush(bucket_begin_)) expected /= kArar;
    const int count = static_cast<int>(std::lround(expected));
    if (count <= 0) continue;
    // Intra-hour offsets: gaps shaped by Gamma(α_arr, β_arr), renormalized
    // so the batch spans the hour ("inter-arrival time for jobs arriving
    // within a 1-hour interval").
    gaps_.resize(static_cast<std::size_t>(count) + 1);
    double total = 0;
    for (double& g : gaps_) {
      g = rng_.gamma(kAlphaArr, kBetaArr);
      total += g;
    }
    bucket_.clear();
    double cursor = 0;
    for (int i = 0; i < count; ++i) {
      cursor += gaps_[static_cast<std::size_t>(i)];
      bucket_.push_back(bucket_begin_ + 3600.0 * cursor / total);
    }
    // Consumed back-to-front.
    std::reverse(bucket_.begin(), bucket_.end());
    return;
  }
}

double ArrivalProcess::next() {
  if (bucket_.empty()) fill_bucket();
  const double at = bucket_.back();
  bucket_.pop_back();
  return at;
}

int LogUniformSize::sample(util::Rng& rng) const {
  if (rng.bernoulli(p_serial)) return 1;
  const bool first = rng.bernoulli(prob_first_stage);
  const double log_size =
      first ? rng.uniform(lo, med) : rng.uniform(med, hi);
  double size = std::pow(2.0, log_size);
  if (rng.bernoulli(p_pow2)) {
    // Round to the nearest power of two, a dominant feature of real traces.
    size = std::pow(2.0, std::round(log_size));
  }
  const int max_size = static_cast<int>(std::lround(std::pow(2.0, hi)));
  return std::clamp(static_cast<int>(std::lround(size)), 1, max_size);
}

}  // namespace es::workload
