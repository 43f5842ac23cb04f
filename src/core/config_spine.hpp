// The configuration spine: one ParamRegistry covering AlgorithmOptions and
// through it the whole EngineConfig tree.  simrun, every bench binary, and
// tests route config files, --dump-config, --list-params, and finalize-time
// validation through this call instead of hand-rolling option plumbing; the
// synthetic workload's workload.* / tenancy.* knobs register beside
// GeneratorConfig (workload/generator.hpp).
#pragma once

#include "core/factory.hpp"
#include "util/param_registry.hpp"

namespace es::core {

/// Registers the algorithm.* tunables plus every engine.* / failure.* /
/// checkpoint.* / watchdog.* / fairshare.* / pool.* parameter
/// against `options`'s live storage.  The registry must not outlive
/// `options`.
void register_run_params(util::ParamRegistry& registry,
                         AlgorithmOptions& options);

}  // namespace es::core
