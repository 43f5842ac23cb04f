// Figure 5 — batch workload: mean utilization and mean job waiting time vs
// the maximum skip count C_s in [1, 20], at Load = 0.9 and P_S = 0.5.
// EASY and LOS appear as flat reference lines.  The paper observes a wait
// minimum around C_s = 7-8 followed by a stable plateau.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  es::bench::BenchOptions options;
  if (!es::bench::parse_bench_options(
          argc, argv, "Fig 5: metrics vs C_s (Load=0.9, P_S=0.5)", options))
    return 0;

  es::workload::GeneratorConfig config = es::bench::base_workload(options);
  config.p_small = 0.5;
  config.target_load = 0.9;

  const int cs_max = options.quick ? 8 : 20;
  const es::exp::Sweep sweep = es::exp::skip_count_sweep(
      config, 1, cs_max, {"EASY", "LOS"}, es::bench::algo_options(options),
      options.replications);

  es::exp::print_sweep(std::cout, "Fig 5 — Load=0.9, P_S=0.5", sweep,
                       {"EASY", "LOS", "Delayed-LOS"});

  // Report the empirically optimal C_s by mean waiting time.
  double best_wait = 0;
  double best_cs = 0;
  for (const auto& point : sweep.points) {
    const double wait = point.by_algorithm.at("Delayed-LOS").mean_wait;
    if (best_cs == 0 || wait < best_wait) {
      best_wait = wait;
      best_cs = point.x;
    }
  }
  std::printf("Optimal C_s by mean wait: %.0f (paper: ~7-8)\n\n", best_cs);
  es::bench::save_csv(options, "fig05_skipcount_ps05", sweep);
  return 0;
}
