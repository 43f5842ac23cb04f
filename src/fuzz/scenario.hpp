// Adversarial scenario atlas: serialized, replayable hostile scenarios.
//
// A Scenario is one fully materialized simulation setup — the workload
// (jobs + ECCs, embedded as CWF lines) plus every engine knob that shapes a
// run (requeue policy, fault injection, checkpointing, watchdog budgets).
// Scenarios are the unit the atlas fuzzes, the shrinker minimizes, the
// corpus under data/corpus/ commits, and `simrun --scenario` replays.
//
// Design rule: the workload is always *materialized*, never a generator
// recipe.  A corpus file must replay bit-identically forever, and recipe
// replay would silently invalidate the corpus every time a generator
// changes.  The (family, seed) provenance is kept as metadata only.
//
// File format (text, line-oriented, "# " comments):
//
//   # elastisched scenario v2
//   scenario-version = 2
//   name = checkpoint_churn-1
//   family = checkpoint_churn
//   seed = 1
//   expect-completion = 1
//   engine.machine_procs = 320
//   engine.granularity = 32
//   engine.requeue = tail
//   failure.enabled = true
//   failure.seed = 14597305093991985489
//   failure.mtbf = 6109
//   failure.mttr = 302
//   failure.max_interruptions = 2
//   checkpoint.enabled = true
//   checkpoint.interval = 384
//   checkpoint.overhead = 26
//   watchdog.max_events = 20000000
//   watchdog.no_progress_cycles = 500000
//   outage = 1000 1600 64
//   workload:
//   <CWF lines until end of file>
//
// The five metadata keys and the `outage = down up procs` lines (the
// scripted failure sequence; repeatable) belong to the scenario.  Every
// other key is a configuration-registry parameter (sched/engine_params.hpp)
// in its canonical spelling, including the `pool.<name>.*` family, and is
// parsed, range-checked and cross-validated by the registry.  The writer
// emits the machine shape plus every parameter that differs from its
// built-in default; the reader applies the lines over a base
// configuration, so `simrun --scenario` is one more configuration layer.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/factory.hpp"
#include "sched/engine_config.hpp"
#include "workload/job.hpp"

namespace es::fuzz {

/// Thrown by the load/parse paths on malformed scenario text.  Carries a
/// line-located message; I/O failures (unreadable file) are reported
/// separately so CLI front-ends can keep their exit-code conventions
/// (2 validation, 3 I/O).
class ScenarioError : public std::runtime_error {
 public:
  explicit ScenarioError(const std::string& message)
      : std::runtime_error(message) {}
};

/// One replayable hostile scenario.
struct Scenario {
  std::string name;    ///< unique-ish label, e.g. "ecc_storm-7"
  std::string family;  ///< generating family, or "repro" for minimized cases
  std::uint64_t seed = 0;  ///< family seed (provenance; replay never re-rolls)
  /// When set (the default), the oracle treats any watchdog abort as a
  /// stuck-queue / livelock violation.  Families that deliberately run into
  /// their budgets clear it.
  bool expect_completion = true;

  workload::Workload workload;  ///< materialized jobs + ECCs
  /// Engine knobs: requeue, failure (script or stochastic), checkpoint,
  /// watchdog, fair share.  Its machine_procs/granularity are not read: the
  /// machine shape lives in `workload`, and options() copies it in.
  sched::EngineConfig engine;

  /// Algorithm options carrying this scenario's engine config, ready for
  /// exp::run_workload (which overrides machine shape from the workload and
  /// the ECC flags from the algorithm name).
  core::AlgorithmOptions options() const;

  std::size_t event_weight() const {
    return workload.jobs.size() + workload.eccs.size() +
           engine.failure.script.size();
  }
};

/// Renders the scenario in the file format above.
std::string format_scenario(const Scenario& scenario);

/// Parses scenario text, applying its engine lines over `base` and then
/// finalizing the registry.  Throws ScenarioError on malformed content
/// (unknown keys, bad or out-of-range values, broken cross-field rules, an
/// unsupported version, CWF lines that fail to parse); registry failures
/// name the field and, when the file set it, the line.
Scenario parse_scenario(const std::string& text,
                        const sched::EngineConfig& base = {});

/// Load from disk.  Throws ScenarioError on malformed content and
/// std::runtime_error on I/O failure (missing/unreadable file).
Scenario load_scenario(const std::string& path,
                       const sched::EngineConfig& base = {});

/// Save to disk (atomic write).  Returns false on I/O failure.
bool save_scenario(const std::string& path, const Scenario& scenario);

/// All "*.scn" files under `dir`, sorted by filename for deterministic
/// replay order.  Throws std::runtime_error if the directory is unreadable.
std::vector<std::string> list_corpus(const std::string& dir);

}  // namespace es::fuzz
