// Figure 7 + Table IV — batch workload dominated by large jobs (P_S = 0.2):
// mean utilization and waiting time vs offered load in [0.5, 1.0], and the
// paper's Table IV (maximum % improvement of Delayed-LOS over LOS/EASY).
//
// The paper's shape: LOS *worse* than EASY (its central claim about varied
// job sizes) and Delayed-LOS ahead of both.  Here Delayed-LOS leads, but
// LOS beats EASY: paired over 200 seeds, LOS - EASY mean wait is
// -4.24 +/- 0.73 ks at load 0.9, LOS ahead on 157/200 seeds (EXPERIMENTS.md,
// Known deviation 7; the cause is open).  C_s is tuned per-P_S with the
// Fig-5 procedure before the sweep, as in the paper.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  es::bench::BenchOptions options;
  if (!es::bench::parse_bench_options(
          argc, argv, "Fig 7 / Table IV: metrics vs load (P_S=0.2)", options))
    return 0;

  es::workload::GeneratorConfig config = es::bench::base_workload(options);
  config.p_small = 0.2;

  // Pre-sweep C_s tuning at Load = 0.9 (paper section V-A).
  es::workload::GeneratorConfig tuning = config;
  tuning.target_load = 0.9;
  const int cs = es::exp::optimal_skip_count(tuning, 1, options.quick ? 4 : 12,
                                             options.replications);
  std::printf("Tuned C_s for P_S=0.2: %d\n\n", cs);

  const std::vector<std::string> algorithms{"EASY", "LOS", "Delayed-LOS"};
  const es::exp::Sweep sweep =
      es::exp::load_sweep(config, es::bench::load_grid(options), algorithms,
                          es::bench::algo_options(options, cs),
                          options.replications);

  es::exp::print_sweep(std::cout, "Fig 7 — P_S=0.2", sweep, algorithms);
  es::exp::print_improvements(
      std::cout,
      "Table IV — max % improvement of Delayed-LOS (paper: util 4.1/1.52, "
      "wait 31.88/21.65, slowdown 30.3/20.41)",
      sweep, "Delayed-LOS", {"LOS", "EASY"});
  es::bench::save_csv(options, "fig07_load_ps02", sweep);
  return 0;
}
