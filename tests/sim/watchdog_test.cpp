// Watchdog trigger paths: event budget, simulated-time horizon, wall-clock
// budget, and the disabled fast path.
#include <gtest/gtest.h>

#include <cstring>

#include "sim/simulation.hpp"
#include "sim/watchdog.hpp"

namespace es::sim {
namespace {

// Drives `sim` the way the engine's pump does: check, then pop.
TerminationReason pump(Simulation& sim, const WatchdogConfig& config) {
  Watchdog watchdog(config);
  TerminationReason reason = TerminationReason::kCompleted;
  while (!sim.idle()) {
    if (watchdog.exhausted(sim, reason)) break;
    sim.pop();
  }
  return reason;
}

void schedule_ticks(Simulation& sim, int count, double spacing) {
  for (int i = 1; i <= count; ++i)
    sim.at(i * spacing, EventClass::kJobArrival);
}

TEST(WatchdogConfig, AllZeroIsDisabled) {
  WatchdogConfig config;
  EXPECT_FALSE(config.enabled());
  config.max_events = 1;
  EXPECT_TRUE(config.enabled());
  config = {};
  config.max_sim_time = 1;
  EXPECT_TRUE(config.enabled());
  config = {};
  config.wall_budget = 1;
  EXPECT_TRUE(config.enabled());
  config = {};
  config.no_progress_cycles = 1;
  EXPECT_TRUE(config.enabled());
}

TEST(Watchdog, UnlimitedBudgetsDrainTheQueue) {
  Simulation sim;
  schedule_ticks(sim, 5, 1.0);
  WatchdogConfig config;
  config.max_events = 1000;  // enabled, but never reached
  EXPECT_EQ(pump(sim, config), TerminationReason::kCompleted);
  EXPECT_EQ(sim.events_processed(), 5u);
}

TEST(Watchdog, MaxEventsStopsAfterExactlyTheBudget) {
  Simulation sim;
  schedule_ticks(sim, 10, 1.0);
  WatchdogConfig config;
  config.max_events = 3;
  EXPECT_EQ(pump(sim, config), TerminationReason::kMaxEvents);
  EXPECT_EQ(sim.events_processed(), 3u);
  EXPECT_FALSE(sim.idle());  // the remaining events were never run
}

TEST(Watchdog, MaxSimTimeStopsBeforeCrossingTheHorizon) {
  Simulation sim;
  sim.at(1.0, EventClass::kJobArrival);
  sim.at(2.0, EventClass::kJobArrival);
  sim.at(10.0, EventClass::kJobArrival);
  WatchdogConfig config;
  config.max_sim_time = 5.0;
  EXPECT_EQ(pump(sim, config), TerminationReason::kMaxSimTime);
  // The events inside the horizon ran; the clock never crossed it.
  EXPECT_EQ(sim.events_processed(), 2u);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
}

TEST(Watchdog, ExhaustedWallBudgetTripsImmediately) {
  Simulation sim;
  schedule_ticks(sim, 100, 1.0);
  WatchdogConfig config;
  config.wall_budget = 1e-12;  // already spent by the time we check
  EXPECT_EQ(pump(sim, config), TerminationReason::kWallBudget);
  EXPECT_EQ(sim.events_processed(), 0u);
}

TEST(Watchdog, GenerousWallBudgetDoesNotTrip) {
  Simulation sim;
  schedule_ticks(sim, 100, 1.0);
  WatchdogConfig config;
  config.wall_budget = 3600.0;
  EXPECT_EQ(pump(sim, config), TerminationReason::kCompleted);
  EXPECT_EQ(sim.events_processed(), 100u);
}

TEST(TerminationReason, NamesAreStableForOutputTagging) {
  EXPECT_STREQ(to_string(TerminationReason::kCompleted), "completed");
  EXPECT_STREQ(to_string(TerminationReason::kMaxEvents), "max-events");
  EXPECT_STREQ(to_string(TerminationReason::kMaxSimTime), "max-sim-time");
  EXPECT_STREQ(to_string(TerminationReason::kWallBudget), "wall-budget");
  EXPECT_STREQ(to_string(TerminationReason::kNoProgress), "no-progress");
}

}  // namespace
}  // namespace es::sim
