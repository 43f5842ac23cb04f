// Property-based hostile-scenario families.
//
// Each family is a deterministic map (seed -> Scenario) that targets one
// engine stress axis the hand-written test suites cannot cover
// systematically:
//
//   flash_crowd           arrival bursts: whole cohorts (including
//                         full-machine jobs) submitted within seconds,
//                         stressing queue ordering and backfill churn
//   heavy_tail            extreme runtime mixes and wildly wrong user
//                         estimates (f-model spreads, killed jobs),
//                         stressing kill-by accounting and DP lookahead
//   ecc_storm             dense ECC traffic with contradictory and
//                         duplicate same-instant commands per job, plus
//                         occasional extreme amounts — the EccProcessor
//                         conflict shield's reason to exist
//   outage_cascade        correlated multi-node outages (scripted cascades
//                         or harsh stochastic MTBF/MTTR) under every
//                         requeue policy and finite retry budgets
//   dedicated_saturation  reservation-heavy traces with short booking
//                         horizons, saturating the dedicated queue (only
//                         dedicated-aware policies run it)
//   checkpoint_churn      checkpoint/restart under failure churn: short
//                         intervals, non-trivial overhead, preemptions
//                         racing periodic checkpoints
//   crash_restart         the full feature surface in one trace (ECCs,
//                         dedicated jobs, failures, checkpoints)
//
// All times are quantized to whole seconds so a scenario serializes through
// the CWF layer (`%.0f`) bit-identically: the in-memory scenario the fuzzer
// ran IS the file the corpus commits.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/scenario.hpp"

namespace es::fuzz {

/// The hostile family names, in the atlas's canonical order.
const std::vector<std::string>& family_names();

/// Builds the scenario `family`/`seed`.  Deterministic: the same pair
/// yields a bit-identical scenario on every build.  Throws ScenarioError
/// for unknown family names.
Scenario make_scenario(const std::string& family, std::uint64_t seed);

}  // namespace es::fuzz
