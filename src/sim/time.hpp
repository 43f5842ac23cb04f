// Simulation time representation.
//
// The simulator measures time in seconds as `double` (SWF traces use integer
// seconds; the Lublin model produces fractional inter-arrival gaps).  Events
// at the same instant are ordered by an explicit priority class and then by
// insertion order, so simulations are fully deterministic.
#pragma once

namespace es::sim {

using Time = double;

/// Ordering classes for events that share a timestamp.  Lower runs first.
/// Completions must precede arrivals so a scheduler invoked on the arrival
/// sees the freed capacity; ECCs precede arrivals and dedicated wake-ups
/// so the cycles those run see the adjusted residuals.  Repairs (NodeUp)
/// precede failures and everything else except completions so same-instant
/// down/up churn nets out before any scheduling decision; failures run
/// before arrivals so a job arriving at the failure instant sees the
/// degraded machine.  The schedule goldens pin this order; 6 is retired.
enum class EventClass : int {
  kJobFinish = 0,
  kNodeUp = 1,
  kNodeDown = 2,
  kEccArrival = 3,
  kDedicatedDue = 4,
  kJobArrival = 5,
  kOther = 7,
};

}  // namespace es::sim
