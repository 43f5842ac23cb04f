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
  registry
      .add_bool("algorithm.dp_cache", &options.dp_cache,
                "memoize knapsack instances across scheduling events "
                "(bit-identical either way)")
      .no_fingerprint();
  registry
      .add_int("algorithm.dp_cache_slots", &options.dp_cache_slots,
               "DP result-cache slot count")
      .range(1, 1 << 20)
      .no_fingerprint();
  sched::register_engine_params(registry, options.engine);
}

}  // namespace es::core
