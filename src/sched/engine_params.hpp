// Declarative registration of every EngineConfig field (and its nested
// failure/checkpoint/watchdog/fairshare sub-configs) with the
// util::ParamRegistry.  One registration drives the config-file loader,
// --dump-config / --list-params generation and finalize-time validation —
// see docs/architecture.md, "configuration spine".
#pragma once

#include "sched/engine_config.hpp"
#include "util/param_registry.hpp"

namespace es::sched {

/// Registers all EngineConfig parameters against `config`'s live storage.
/// The registry must not outlive `config`.  Includes the dynamic
/// `pool.<name>.weight` / `pool.<name>.min_share` family bound to
/// `config.fairshare.pools`, and the cross-field rules (granularity vs
/// machine size, allow_running_resize requires process_eccs, failure node
/// range and positive MTBF/MTTR, checkpoint trigger and interval, pool
/// min-share budget).  Simrun's parameter flags are the dotless aliases.
void register_engine_params(util::ParamRegistry& registry,
                            EngineConfig& config);

}  // namespace es::sched
