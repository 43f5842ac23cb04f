#include "core/config_spine.hpp"

#include "sched/engine_params.hpp"

namespace es::core {

void register_run_params(util::ParamRegistry& registry,
                         AlgorithmOptions& options) {
  registry
      .add_int("algorithm.max_skip_count", &options.max_skip_count,
               "C_s skip budget for Delayed-LOS / Hybrid-LOS")
      .range(0, 1 << 20)
      .alias("algorithm.cs")
      .alias("cs");
  registry
      .add_int("algorithm.lookahead", &options.lookahead,
               "DP lookahead depth (Shmueli's 50-job limit)")
      .range(1, 1 << 20)
      .alias("lookahead");
  sched::register_engine_params(registry, options.engine);
}

}  // namespace es::core
