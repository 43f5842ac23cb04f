// Microbenchmarks for the scheduling kernels (google-benchmark): the cost
// of Basic_DP / Reservation_DP as a function of queue length and capacity
// grains — the complexity discussion behind Shmueli's 50-job lookahead
// limit (paper section II) — and a whole-cycle comparison against EASY's
// linear scan.
#include <benchmark/benchmark.h>

#include "core/dp.hpp"
#include "core/dp_reference.hpp"
#include "exp/experiment.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace {

std::vector<int> random_weights(std::size_t n, int max_grains,
                                std::uint64_t seed) {
  es::util::Rng rng(seed);
  std::vector<int> weights;
  weights.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    weights.push_back(static_cast<int>(rng.uniform_int(1, max_grains)));
  return weights;
}

void BM_BasicDp(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const int capacity = static_cast<int>(state.range(1));
  const auto weights = random_weights(n, capacity, 42);
  es::core::DpWorkspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(es::core::basic_dp(weights, capacity, ws));
  }
  state.SetComplexityN(state.range(0));
}
// Queue length sweep at BlueGene/P capacity (10 grains) and at a
// granularity-1 SP2 (128 grains).
BENCHMARK(BM_BasicDp)
    ->Args({10, 10})
    ->Args({50, 10})
    ->Args({250, 10})
    ->Args({1000, 10})
    ->Args({50, 128})
    ->Args({250, 128})
    ->Complexity(benchmark::oN);

/// Job sizes of the wide_g1 shape in grains (granularity 1): 32-96
/// processors with probability 0.2, else 128-320.
std::vector<int> wide_g1_weights(std::size_t n, std::uint64_t seed) {
  es::util::Rng rng(seed);
  std::vector<int> weights;
  weights.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    weights.push_back(static_cast<int>(rng.bernoulli(0.2)
                                           ? rng.uniform_int(32, 96)
                                           : rng.uniform_int(128, 320)));
  return weights;
}

/// Reservation_DP table fill (detail::, bypassing the fast path and the
/// cache): arg 0 is queue length, arg 1 capacity and arg 2 shadow capacity
/// in grains.  The 224-grain legs are the wide_g1 shape — 4096 processors
/// at granularity 1, with its job-size mix — and a shadow capacity that
/// binds (64), equals the capacity (224) or is the whole machine (4096).
/// Each iteration compares its selection against the reference recurrence
/// (tests/core/dp_reference.hpp) computed up front, aborting on the first
/// divergence.
void BM_ReservationDp(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const int capacity = static_cast<int>(state.range(1));
  const int shadow_capacity = static_cast<int>(state.range(2));
  const auto weights = capacity > 128 ? wide_g1_weights(n, 43)
                                      : random_weights(n, capacity, 43);
  es::util::Rng rng(44);
  std::vector<int> shadows;
  shadows.reserve(n);
  for (int w : weights) shadows.push_back(rng.bernoulli(0.5) ? w : 0);
  const auto expected = es::testing::reference_reservation_dp(
      weights, shadows, capacity, shadow_capacity);
  es::core::DpWorkspace ws;
  for (auto _ : state) {
    const auto selected = es::core::detail::reservation_dp_table(
        weights, shadows, capacity, shadow_capacity, ws);
    if (selected != expected) {
      state.SkipWithError("reservation fill diverged from the reference");
      break;
    }
    benchmark::DoNotOptimize(selected);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ReservationDp)
    ->Args({10, 10, 5})
    ->Args({50, 10, 5})
    ->Args({250, 10, 5})
    ->Args({1000, 10, 5})
    ->Args({50, 128, 64})
    ->Args({250, 128, 64})
    ->Args({250, 224, 64})
    ->Args({250, 224, 224})
    ->Args({250, 224, 4096})
    ->Complexity(benchmark::oN);

/// SIMD row fill before/after at the granularity-1 wide-machine shape:
/// arg 0 is queue length, arg 1 capacity in grains (4096 = every processor
/// of the campaign machine its own grain), arg 2 the tier (0 = forced
/// scalar, 1 = the runtime-detected vector kernel).  Each iteration runs
/// the unconditional table fill (detail::, bypassing fast path and cache)
/// and compares its selection against a scalar reference computed up
/// front — the timing table doubles as a selection-identity proof on this
/// host's kernel, aborting on the first divergence.
void BM_BasicDpRowFill(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const int capacity = static_cast<int>(state.range(1));
  const bool simd = state.range(2) != 0;
  // Weights well under capacity so the optimum is a genuine subset choice,
  // not "take everything" — the shape the row recurrence actually sweats.
  const auto weights = random_weights(n, capacity / 8, 45);
  es::core::DpWorkspace reference_ws;
  es::core::set_dp_simd_enabled(false);
  const auto expected =
      es::core::detail::basic_dp_table(weights, capacity, reference_ws);
  es::core::set_dp_simd_enabled(simd);
  es::core::DpWorkspace ws;
  for (auto _ : state) {
    const auto selected =
        es::core::detail::basic_dp_table(weights, capacity, ws);
    if (selected != expected) {
      state.SkipWithError("vector row fill diverged from scalar selection");
      break;
    }
    benchmark::DoNotOptimize(selected);
  }
  state.SetLabel(simd ? es::core::dp_simd_level_name(es::core::dp_simd_level())
                      : "scalar");
  es::core::set_dp_simd_enabled(true);
}
BENCHMARK(BM_BasicDpRowFill)
    ->Args({50, 512, 0})
    ->Args({50, 512, 1})
    ->Args({50, 4096, 0})
    ->Args({50, 4096, 1})
    ->Args({250, 4096, 0})
    ->Args({250, 4096, 1});

/// Whole-simulation cost per policy: events per second through the engine
/// on the paper's 500-job point.
void BM_FullSimulation(benchmark::State& state,
                       const std::string& algorithm) {
  es::workload::GeneratorConfig config;
  config.num_jobs = 500;
  config.seed = 7;
  config.target_load = 0.9;
  const auto workload = es::workload::generate(config);
  es::core::AlgorithmOptions options;
  options.lookahead = 250;
  std::uint64_t events = 0;
  for (auto _ : state) {
    const auto result = es::exp::run_workload(workload, algorithm, options);
    events += result.events;
    benchmark::DoNotOptimize(result.mean_wait);
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK_CAPTURE(BM_FullSimulation, easy, "EASY");
BENCHMARK_CAPTURE(BM_FullSimulation, los, "LOS");
BENCHMARK_CAPTURE(BM_FullSimulation, delayed_los, "Delayed-LOS");
BENCHMARK_CAPTURE(BM_FullSimulation, conservative, "CONS");

/// DP result-cache audit: the same Delayed-LOS run at each cache width,
/// reporting the end-to-end hit rate.  Arg 0 is the slot count; the 8-slot
/// shape is the pre-widening cache (which measured ~1.7% hits on the PR 5
/// baseline — evicted instances long before the schedule re-posed them).
/// The default width measures ~9% here (and more under heavier load, where
/// the normalized key collapses deep too-big queues); the benchmark FAILS
/// below a 6% floor, so a regression in the cache key or the eviction
/// policy is caught here rather than as a silent slowdown.
void BM_DpCacheHitRate(benchmark::State& state) {
  const int slots = static_cast<int>(state.range(0));
  es::workload::GeneratorConfig config;
  config.num_jobs = 2000;
  config.seed = 11;
  config.target_load = 0.9;
  const auto workload = es::workload::generate(config);
  es::core::AlgorithmOptions options;
  options.lookahead = 250;
  options.dp_cache_slots = slots;
  double hit_rate = 0;
  for (auto _ : state) {
    const auto result =
        es::exp::run_workload(workload, "Delayed-LOS", options);
    hit_rate = result.perf.dp_cache_hit_rate();
    benchmark::DoNotOptimize(hit_rate);
  }
  state.counters["dp_hit_rate"] = hit_rate;
  if (slots == static_cast<int>(es::core::DpWorkspace::kDefaultCacheSlots) &&
      hit_rate < 0.06) {
    state.SkipWithError("widened DP cache hit rate regressed below 6%");
  }
}
BENCHMARK(BM_DpCacheHitRate)
    ->Arg(8)
    ->Arg(static_cast<int>(es::core::DpWorkspace::kDefaultCacheSlots));

}  // namespace

BENCHMARK_MAIN();
