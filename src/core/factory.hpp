// Algorithm factory: instantiates every algorithm of the paper's Table III
// (plus the FCFS / Conservative baselines and the Adaptive extension) from
// its canonical name.
//
//   name            workload        ECC processor
//   EASY            batch           no          EASY-E          yes
//   EASY-D          heterogeneous   no          EASY-DE         yes
//   LOS             batch           no          LOS-E           yes
//   LOS-D           heterogeneous   no          LOS-DE          yes
//   Delayed-LOS     batch           no          Delayed-LOS-E   yes
//   Hybrid-LOS      heterogeneous   no          Hybrid-LOS-E    yes
//
// The ECC processor is an engine attachment, so the factory returns the
// policy together with the `process_eccs` flag for sched::EngineConfig.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sched/engine_config.hpp"
#include "sched/scheduler.hpp"

namespace es::core {

/// Tunables shared by the LOS family, plus the engine configuration.
struct AlgorithmOptions {
  int max_skip_count = 7;  ///< C_s for Delayed-LOS / Hybrid-LOS
  int lookahead = 50;      ///< DP lookahead depth (Shmueli's 50-job limit)
  /// The one engine configuration, flowing unchanged factory ->
  /// experiment -> simrun/bench.  The run paths override the machine
  /// shape from the workload and process_eccs / allow_running_resize
  /// from the algorithm name (see exp::run_workload).
  sched::EngineConfig engine{};
};

/// A constructed algorithm: the policy plus its engine attachments.
/// `policy` is never null — make_algorithm throws on unknown names.
struct Algorithm {
  std::unique_ptr<sched::Scheduler> policy;
  bool process_eccs = false;
  bool allow_running_resize = false;
  std::string canonical_name;
};

/// Thrown by make_algorithm for names outside algorithm_names(); carries
/// the offending name and the known-name list in what().
class UnknownAlgorithmError : public std::invalid_argument {
 public:
  explicit UnknownAlgorithmError(const std::string& name);
  const std::string& name() const { return name_; }

 private:
  std::string name_;
};

/// Builds an algorithm by name (case-insensitive; both "Delayed-LOS" and
/// "delayed-los" work).  Throws UnknownAlgorithmError for unknown names,
/// so a returned Algorithm always has a non-null policy.
Algorithm make_algorithm(const std::string& name,
                         const AlgorithmOptions& options = {});

/// True when `name` would construct (the non-throwing validity probe for
/// CLI front-ends that want exit codes instead of exceptions).
bool is_algorithm_name(const std::string& name);

/// All Table-III names in the paper's order, plus the extras.
std::vector<std::string> algorithm_names();

}  // namespace es::core
