// Fault injection: a deterministic source of node-outage events.
//
// The paper's evaluation assumes a perfectly reliable BlueGene/P; on real
// machines node failures are the dominant disturbance a scheduling policy
// must survive.  A FailureModel turns a (seed, MTBF, MTTR) triple — or an
// explicit scripted outage list — into a sequence of `Outage` records the
// engine replays as NodeDown/NodeUp events.  Everything is drawn from an
// explicitly seeded es::util::Rng, so the same seed and configuration
// produce a bit-identical simulation, matching the repo's determinism
// convention.
//
// Outage sizes are aligned to the machine's allocation granularity (whole
// node cards fail, as on BG/P-class hardware where the node card is the
// service unit).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "util/rng.hpp"

namespace es::fault {

/// What the engine does with running jobs preempted by a node failure.
enum class RequeuePolicy {
  kRequeueHead,  ///< back to the batch-queue head (restart as soon as it fits)
  kRequeueTail,  ///< back to the batch-queue tail (re-earns its turn)
  kAbandon,      ///< drop the job; its work so far is lost and counted
};

const char* to_string(RequeuePolicy policy);

/// Parses "head" / "tail" / "abandon" (case-insensitive).
bool parse_requeue_policy(const std::string& text, RequeuePolicy& out);

/// One capacity outage: `procs` processors leave service at `down` and
/// return at `up`.
struct Outage {
  sim::Time down = 0;
  sim::Time up = 0;
  int procs = 0;
};

/// Configuration of the failure process.
struct FailureModelConfig {
  bool enabled = false;
  std::uint64_t seed = 1;
  /// Mean gap between consecutive outage onsets (exponential), seconds.
  double mtbf = 4 * 3600.0;
  /// Mean outage duration (exponential), seconds.
  double mttr = 30 * 60.0;
  /// Outage size range in granularity units (node cards), inclusive.  Drawn
  /// uniformly; clamped to the machine size.
  int min_nodes = 1;
  int max_nodes = 1;
  /// Retry budget under the requeue policies: a job preempted this many
  /// times is abandoned instead of requeued again.  0 = retry forever.
  /// Restart-from-scratch needs ~e^(runtime/MTBF) attempts once the MTBF
  /// drops below the job length, so an unbounded retry loop can make a
  /// harsh-MTBF simulation effectively non-terminating.
  int max_interruptions = 0;
  /// Scripted mode: when non-empty these outages are replayed in order and
  /// the stochastic parameters above are ignored.
  std::vector<Outage> script;
};

/// Deterministic outage sequence generator.  The N-th outage drawn depends
/// only on (config, machine shape) — never on wall clock or call timing.
class FailureModel {
 public:
  FailureModel(const FailureModelConfig& config, int machine_procs,
               int granularity);

  bool enabled() const { return config_.enabled; }

  /// Produces the next outage, shifted to begin no earlier than `from`
  /// (down/up are clamped so down >= from and up > down).  Returns false
  /// when the script is exhausted (scripted mode only; the stochastic
  /// process is unbounded).
  bool next(sim::Time from, Outage& out);

 private:
  FailureModelConfig config_;
  int machine_procs_;
  int granularity_;
  util::Rng rng_;
  std::size_t script_index_ = 0;
  sim::Time cursor_ = 0;  ///< end of the previous outage (stochastic mode)
};

}  // namespace es::fault
