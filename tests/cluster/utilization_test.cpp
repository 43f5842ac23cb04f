#include "cluster/utilization.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace es::cluster {
namespace {

TEST(Utilization, ConstantLevel) {
  UtilizationTracker tracker(10);
  tracker.record(0, 5);
  tracker.record(100, 5);
  EXPECT_DOUBLE_EQ(tracker.busy_proc_seconds(0, 100), 500.0);
  EXPECT_DOUBLE_EQ(tracker.mean_utilization(0, 100), 0.5);
}

TEST(Utilization, StepFunctionIntegralExact) {
  UtilizationTracker tracker(10);
  tracker.record(0, 0);
  tracker.record(10, 10);   // busy 0 over [0,10)
  tracker.record(30, 4);    // busy 10 over [10,30)
  tracker.record(50, 0);    // busy 4 over [30,50)
  // total = 0*10 + 10*20 + 4*20 = 280
  EXPECT_DOUBLE_EQ(tracker.busy_proc_seconds(0, 50), 280.0);
  EXPECT_DOUBLE_EQ(tracker.mean_utilization(0, 50), 0.56);
}

TEST(Utilization, ExtrapolatesLastLevel) {
  UtilizationTracker tracker(4);
  tracker.record(0, 2);
  // No further records: level 2 persists.
  EXPECT_DOUBLE_EQ(tracker.busy_proc_seconds(0, 10), 20.0);
  EXPECT_DOUBLE_EQ(tracker.mean_utilization(0, 10), 0.5);
}

TEST(Utilization, SameInstantUpdateCoalesces) {
  UtilizationTracker tracker(10);
  tracker.record(0, 3);
  tracker.record(5, 7);
  tracker.record(5, 9);  // same instant: final value wins
  tracker.record(10, 0);
  EXPECT_DOUBLE_EQ(tracker.busy_proc_seconds(0, 10), 3 * 5 + 9 * 5);
}

TEST(Utilization, WindowBeforeFirstRecordIsZero) {
  UtilizationTracker tracker(10);
  tracker.record(100, 5);
  tracker.record(200, 0);
  EXPECT_DOUBLE_EQ(tracker.busy_proc_seconds(0, 100), 0.0);
}

TEST(Utilization, EmptyTrackerReturnsZero) {
  UtilizationTracker tracker(10);
  EXPECT_DOUBLE_EQ(tracker.busy_proc_seconds(0, 10), 0.0);
  EXPECT_DOUBLE_EQ(tracker.mean_utilization(0, 10), 0.0);
}

TEST(Utilization, DegenerateWindowIsZero) {
  UtilizationTracker tracker(10);
  tracker.record(0, 5);
  EXPECT_DOUBLE_EQ(tracker.mean_utilization(5, 5), 0.0);
}

TEST(Utilization, CurrentBusyTracksLastRecord) {
  UtilizationTracker tracker(10);
  tracker.record(0, 4);
  EXPECT_EQ(tracker.current_busy(), 4);
  tracker.record(1, 9);
  EXPECT_EQ(tracker.current_busy(), 9);
}

TEST(Utilization, CapacityTimelineDefaultsToFullMachine) {
  UtilizationTracker tracker(10);
  tracker.record(0, 5);
  // No capacity records: the full machine is available the whole window.
  EXPECT_DOUBLE_EQ(tracker.available_proc_seconds(0, 100), 1000.0);
  EXPECT_DOUBLE_EQ(tracker.mean_utilization(0, 100), 0.5);
}

TEST(Utilization, DegradedCapacityRaisesMeanUtilization) {
  UtilizationTracker tracker(10);
  tracker.record(0, 5);
  tracker.record_capacity(0, 10);
  tracker.record_capacity(40, 5);   // 5 procs out of service over [40,80)
  tracker.record_capacity(80, 10);
  // available = 10*40 + 5*40 + 10*20 = 800 over [0,100)
  EXPECT_DOUBLE_EQ(tracker.available_proc_seconds(0, 100), 800.0);
  // busy = 5*100 = 500 -> utilization against what was in service
  EXPECT_DOUBLE_EQ(tracker.mean_utilization(0, 100), 500.0 / 800.0);
}

TEST(Utilization, CapacityRecordsCoalesceAtSameInstant) {
  UtilizationTracker tracker(10);
  tracker.record_capacity(0, 10);
  tracker.record_capacity(50, 8);
  tracker.record_capacity(50, 6);  // same instant: final value wins
  EXPECT_DOUBLE_EQ(tracker.available_proc_seconds(0, 100), 10 * 50 + 6 * 50.0);
}

TEST(Utilization, MarkPinsTheIntegralThroughTheMarkedRecord) {
  UtilizationTracker tracker(10);
  tracker.record(0, 4);
  tracker.record(10, 6);
  tracker.mark();          // integral through t=10: 4*10 = 40
  tracker.record(10, 8);   // same instant as the mark: adds +0.0
  tracker.record(20, 2);
  tracker.record(30, 0);
  EXPECT_EQ(tracker.busy_proc_seconds(0, 10), 40.0);
  EXPECT_DOUBLE_EQ(tracker.mean_utilization(0, 10), 0.4);
  // The whole history still reads the running integral: 40 + 8*10 + 2*10.
  EXPECT_EQ(tracker.busy_proc_seconds(0, 30), 140.0);
  EXPECT_EQ(tracker.busy_proc_seconds(0, 40), 140.0);  // busy 0 after t=30
  tracker.mark();
  tracker.record(50, 0);
  EXPECT_EQ(tracker.busy_proc_seconds(0, 30), 140.0);
}

TEST(UtilizationDeath, QueryEndingBetweenMarkAndLastRecordAborts) {
  UtilizationTracker tracker(10);
  tracker.record(0, 5);
  tracker.record(10, 5);
  tracker.mark();
  tracker.record(20, 5);
  tracker.record(30, 5);
  EXPECT_DEATH(tracker.busy_proc_seconds(0, 15), "precondition");
  EXPECT_DEATH(tracker.busy_proc_seconds(0, 20), "precondition");
}

TEST(UtilizationDeath, QueryStartingAfterFirstRecordAborts) {
  UtilizationTracker tracker(10);
  tracker.record(0, 5);
  tracker.record(10, 5);
  EXPECT_DEATH(tracker.busy_proc_seconds(5, 10), "precondition");
}

TEST(UtilizationDeath, OverCapacityAborts) {
  UtilizationTracker tracker(10);
  EXPECT_DEATH(tracker.record(0, 11), "precondition");
}

TEST(UtilizationDeath, TimeRegressionAborts) {
  UtilizationTracker tracker(10);
  tracker.record(10, 5);
  EXPECT_DEATH(tracker.record(9, 5), "precondition");
}

TEST(Utilization, PropertyMatchesBruteForceAccumulation) {
  util::Rng rng(9);
  for (int round = 0; round < 10; ++round) {
    UtilizationTracker tracker(100);
    double t = 0;
    double brute = 0;
    int level = 0;
    std::vector<std::pair<double, int>> steps;
    for (int i = 0; i < 50; ++i) {
      tracker.record(t, level);
      steps.emplace_back(t, level);
      const double dt = rng.uniform(0.1, 10.0);
      brute += level * dt;
      t += dt;
      level = static_cast<int>(rng.uniform_int(0, 100));
    }
    tracker.record(t, 0);
    EXPECT_NEAR(tracker.busy_proc_seconds(0, t), brute, 1e-6 * (brute + 1));
  }
}

}  // namespace
}  // namespace es::cluster
