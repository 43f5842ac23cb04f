// Simulation watchdog: bounded-termination guardrails for the event loop.
//
// A discrete-event run can be made effectively non-terminating by a
// pathological configuration — the canonical case is capless
// restart-from-scratch requeue under fault injection, which needs
// ~e^(runtime/MTBF) attempts once the MTBF drops below a job's runtime.
// The watchdog turns "it hangs and emits nothing" into a typed, graceful
// abort: the engine stops pumping events, keeps every metric accumulated so
// far, and tags the result with a TerminationReason.
//
// Everything is opt-in.  A default-constructed WatchdogConfig is disabled
// and the engine's event pump then checks no budget, so budget-free
// results stay byte-identical.
#pragma once

#include <chrono>
#include <cstdint>

#include "sim/time.hpp"

namespace es::sim {

class Simulation;

/// Why a simulation stopped pumping events.
enum class TerminationReason {
  kCompleted,   ///< the event queue drained; the run is complete
  kMaxEvents,   ///< processed-event budget exhausted
  kMaxSimTime,  ///< the next event lies beyond the simulated-time horizon
  kWallBudget,  ///< real (wall-clock) time budget exhausted
  kNoProgress,  ///< no job starts/completions for N consecutive scheduler
                ///< cycles with work still queued (engine-level detector)
};

const char* to_string(TerminationReason reason);

/// Termination budgets.  Every field 0 means "unlimited"; all-zero disables
/// the watchdog entirely.
struct WatchdogConfig {
  std::uint64_t max_events = 0;  ///< abort after this many processed events
  Time max_sim_time = 0;         ///< abort before crossing this sim time
  double wall_budget = 0;        ///< abort after this many real seconds
  /// Engine-level no-progress detector: abort after this many consecutive
  /// scheduler cycles with zero job starts/completions while jobs wait.
  int no_progress_cycles = 0;

  bool enabled() const {
    return max_events > 0 || max_sim_time > 0 || wall_budget > 0 ||
           no_progress_cycles > 0;
  }
};

/// Checks the event/sim-time/wall budgets against a simulation.  The wall
/// clock is only consulted when a wall budget is set (and then only every
/// few events), so budget-free runs stay deterministic and overhead-free;
/// event and sim-time budgets are themselves deterministic.
class Watchdog {
 public:
  explicit Watchdog(const WatchdogConfig& config);

  /// True when a budget is exhausted; `why` is set to the tripped budget.
  /// Intended to be called once before processing each event.
  bool exhausted(Simulation& sim, TerminationReason& why);

 private:
  WatchdogConfig config_;
  std::chrono::steady_clock::time_point start_;
  std::uint64_t checks_ = 0;
};

}  // namespace es::sim
