#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace es::sim {
namespace {

TEST(Simulation, ClockStartsAtZero) {
  Simulation sim;
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_TRUE(sim.idle());
}

TEST(Simulation, ClockAdvancesToEventTimes) {
  Simulation sim;
  sim.at(5.0, EventClass::kOther);
  sim.at(2.0, EventClass::kOther);
  std::vector<double> times;
  while (!sim.idle()) {
    sim.pop();
    times.push_back(sim.now());
  }
  EXPECT_EQ(times, (std::vector<double>{2.0, 5.0}));
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Simulation, PopProcessesOneEvent) {
  Simulation sim;
  for (int i = 0; i < 7; ++i) sim.at(i, EventClass::kOther);
  sim.at(3.0, EventClass::kOther, 99);
  const Event event = sim.pop();
  EXPECT_DOUBLE_EQ(event.time, 0.0);
  EXPECT_EQ(sim.events_processed(), 1u);
  while (!sim.idle()) sim.pop();
  EXPECT_EQ(sim.events_processed(), 8u);
}

TEST(Simulation, CancelledEventsSkipped) {
  Simulation sim;
  const EventHandle handle = sim.at(1.0, EventClass::kOther, 1);
  sim.at(2.0, EventClass::kOther, 2);
  EXPECT_TRUE(sim.cancel(handle));
  EXPECT_EQ(sim.pop().tag, 2u);
  EXPECT_TRUE(sim.idle());
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  EXPECT_EQ(sim.events_processed(), 1u);
}

TEST(Simulation, SameTimeEventsKeepClassOrder) {
  Simulation sim;
  sim.at(1.0, EventClass::kJobArrival, 1);
  sim.at(1.0, EventClass::kJobFinish, 0);
  EXPECT_EQ(sim.pop().cls, EventClass::kJobFinish);
  EXPECT_EQ(sim.pop().cls, EventClass::kJobArrival);
}

}  // namespace
}  // namespace es::sim
