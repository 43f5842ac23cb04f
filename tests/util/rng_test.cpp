#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace es::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++equal;
  EXPECT_LE(equal, 1);
}

TEST(Rng, ZeroSeedIsWellMixed) {
  Rng rng(0);
  // SplitMix seeding must not produce a degenerate all-zero state.
  EXPECT_NE(rng.next_u64(), 0u);
  EXPECT_NE(rng.next_u64(), rng.next_u64());
}

TEST(Rng, Uniform01InRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform01();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, Uniform01MeanNearHalf) {
  Rng rng(11);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform01();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-3.0, 9.0);
    EXPECT_GE(x, -3.0);
    EXPECT_LT(x, 9.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusively) {
  Rng rng(13);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto x = rng.uniform_int(1, 6);
    EXPECT_GE(x, 1);
    EXPECT_LE(x, 6);
    saw_lo |= (x == 1);
    saw_hi |= (x == 6);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_int(42, 42), 42);
}

TEST(Rng, UniformIntUnbiased) {
  Rng rng(19);
  int counts[6] = {};
  const int n = 60000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_int(0, 5)];
  for (int c : counts) EXPECT_NEAR(c, n / 6.0, 5 * std::sqrt(n / 6.0));
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(23);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / static_cast<double>(n), 0.3, 0.01);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(29);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, ExponentialMeanAndPositivity) {
  Rng rng(31);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.exponential(250.0);
    EXPECT_GT(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, 250.0, 5.0);
}

TEST(Rng, NormalMoments) {
  Rng rng(37);
  double sum = 0, sq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.01);
  EXPECT_NEAR(sq / n, 1.0, 0.02);
}

struct GammaCase {
  double alpha, beta;
};

class GammaMoments : public ::testing::TestWithParam<GammaCase> {};

TEST_P(GammaMoments, MeanAndVarianceMatchTheory) {
  const auto [alpha, beta] = GetParam();
  Rng rng(41 + static_cast<std::uint64_t>(alpha * 100));
  double sum = 0, sq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.gamma(alpha, beta);
    EXPECT_GT(x, 0.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, alpha * beta, 0.03 * alpha * beta + 0.01);
  EXPECT_NEAR(var, alpha * beta * beta, 0.08 * alpha * beta * beta + 0.01);
}

// Includes the paper's Table I/II parameters: runtime Gammas (4.2, 0.94) and
// (312, 0.03), arrival Gammas (13.2303, 0.5101) and (15.1737, 0.9631), plus
// a sub-1 shape exercising the boost path.
INSTANTIATE_TEST_SUITE_P(PaperParameters, GammaMoments,
                         ::testing::Values(GammaCase{4.2, 0.94},
                                           GammaCase{312.0, 0.03},
                                           GammaCase{13.2303, 0.5101},
                                           GammaCase{15.1737, 0.9631},
                                           GammaCase{0.5, 2.0},
                                           GammaCase{1.0, 1.0}));

TEST(Rng, SplitStreamsAreIndependentAndDeterministic) {
  Rng parent1(99), parent2(99);
  Rng child_a1 = parent1.split();
  Rng child_b1 = parent1.split();
  Rng child_a2 = parent2.split();
  // Same parent seed -> same first child stream.
  for (int i = 0; i < 32; ++i)
    EXPECT_EQ(child_a1.next_u64(), child_a2.next_u64());
  // Sibling children differ.
  Rng child_a3 = Rng(99).split();
  int equal = 0;
  for (int i = 0; i < 32; ++i)
    if (child_b1.next_u64() == child_a3.next_u64()) ++equal;
  EXPECT_LE(equal, 1);
}

TEST(HyperGamma, MixesTheTwoComponents) {
  Rng rng(55);
  // Components with well-separated means.
  const HyperGamma hg{2.0, 1.0, 200.0, 1.0};
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += hg.sample(rng, 0.75);
  // mean = 0.75*2 + 0.25*200 = 51.5
  EXPECT_NEAR(sum / n, hg.mean(0.75), 2.5);
}

TEST(HyperGamma, DegenerateProbabilitiesPickOneComponent) {
  Rng rng(60);
  const HyperGamma hg{2.0, 1.0, 200.0, 1.0};
  double sum0 = 0, sum1 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum1 += hg.sample(rng, 1.0);
  for (int i = 0; i < n; ++i) sum0 += hg.sample(rng, 0.0);
  EXPECT_NEAR(sum1 / n, 2.0, 0.2);
  EXPECT_NEAR(sum0 / n, 200.0, 2.5);
}

TEST(TwoStageUniform, PaperSizesAreNodeCardMultiples) {
  Rng rng(70);
  const TwoStageUniform sizes{};  // paper defaults: {1..3} / {4..10} x 32
  for (int i = 0; i < 5000; ++i) {
    const int s = sizes.sample(rng, 0.5);
    EXPECT_EQ(s % 32, 0);
    EXPECT_GE(s, 32);
    EXPECT_LE(s, 320);
  }
}

TEST(TwoStageUniform, SmallFractionTracksProbability) {
  Rng rng(71);
  const TwoStageUniform sizes{};
  for (double p_small : {0.2, 0.5, 0.8}) {
    int small = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
      if (sizes.sample(rng, p_small) <= 96) ++small;
    EXPECT_NEAR(small / static_cast<double>(n), p_small, 0.02);
  }
}

TEST(TwoStageUniform, MeanMatchesPaperReportedAverages) {
  // The paper reports sampled n-bar = 180.84 (P_S=.2), 139.35 (P_S=.5),
  // 89.72 (P_S=.8); the model means are 192, 144, 96 — sampled means must
  // match the model, and sit in the paper's ballpark.
  const TwoStageUniform sizes{};
  EXPECT_NEAR(sizes.mean(0.2), 192.0, 0.01);
  EXPECT_NEAR(sizes.mean(0.5), 144.0, 0.01);
  EXPECT_NEAR(sizes.mean(0.8), 96.0, 0.01);
  Rng rng(72);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += sizes.sample(rng, 0.2);
  EXPECT_NEAR(sum / n, sizes.mean(0.2), 1.0);
}

}  // namespace
}  // namespace es::util
