// Figure 6 — same sweep as Fig 5 with P_S = 0.8 (small jobs dominate).
// The paper observes insensitivity to C_s beyond ~3 when there are few
// large jobs to skip for.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  es::bench::BenchOptions options;
  if (!es::bench::parse_bench_options(
          argc, argv, "Fig 6: metrics vs C_s (Load=0.9, P_S=0.8)", options))
    return 0;

  es::workload::GeneratorConfig config = es::bench::base_workload(options);
  config.p_small = 0.8;
  config.target_load = 0.9;

  const int cs_max = options.quick ? 8 : 20;
  const es::exp::Sweep sweep = es::exp::skip_count_sweep(
      config, 1, cs_max, {"EASY", "LOS"}, es::bench::algo_options(options),
      options.replications);

  es::exp::print_sweep(std::cout, "Fig 6 — Load=0.9, P_S=0.8", sweep,
                       {"EASY", "LOS", "Delayed-LOS"});

  // Spread of Delayed-LOS wait across C_s >= 3: the paper's insensitivity
  // observation.
  double lo = 0, hi = 0;
  for (const auto& point : sweep.points) {
    if (point.x < 3) continue;
    const double wait = point.by_algorithm.at("Delayed-LOS").mean_wait;
    if (lo == 0 || wait < lo) lo = wait;
    if (wait > hi) hi = wait;
  }
  std::printf(
      "Delayed-LOS wait spread across C_s>=3: %.1f%% (paper: flat beyond "
      "~3)\n\n",
      hi > 0 ? 100.0 * (hi - lo) / hi : 0.0);
  es::bench::save_csv(options, "fig06_skipcount_ps08", sweep);
  return 0;
}
