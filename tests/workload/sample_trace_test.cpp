// File-based tests against the checked-in archive-style sample trace
// (data/sample_sp2.swf): exercises the trace loader, header metadata, and
// an end-to-end replay including a killed (under-estimated) job.
#include <gtest/gtest.h>

#include <fstream>

#include "testing/helpers.hpp"
#include "workload/cwf.hpp"
#include "workload/swf.hpp"

namespace es::workload {
namespace {

// The build runs tests from the build tree; the data file is addressed
// relative to this source file via the configure-time definition.
#ifndef ES_SAMPLE_TRACE
#define ES_SAMPLE_TRACE "data/sample_sp2.swf"
#endif

TEST(SampleTrace, LoadsAllJobs) {
  const std::vector<Job> jobs = load_cwf_workload(ES_SAMPLE_TRACE).jobs;
  ASSERT_EQ(jobs.size(), 20u);
  EXPECT_EQ(jobs.front().id, 1);
  EXPECT_EQ(jobs.front().num, 8);
  EXPECT_DOUBLE_EQ(jobs.front().dur, 7200);    // requested
  EXPECT_DOUBLE_EQ(jobs.front().actual, 3600); // actual
}

TEST(SampleTrace, HeaderMetadata) {
  std::ifstream in(ES_SAMPLE_TRACE);
  ASSERT_TRUE(in.good());
  const CwfFile file = parse_cwf(in);
  const SwfMetadata metadata = parse_swf_metadata(file.header);
  EXPECT_EQ(metadata.max_procs, 64);
  EXPECT_EQ(metadata.max_nodes, 64);
  EXPECT_EQ(metadata.unix_start_time, 820454400);
  EXPECT_NE(metadata.computer.find("Toy SP2"), std::string::npos);
}

TEST(SampleTrace, LoadsAsCwfWithMachineFromHeader) {
  const Workload workload = load_cwf_workload(ES_SAMPLE_TRACE);
  EXPECT_EQ(workload.jobs.size(), 20u);
  EXPECT_EQ(workload.machine_procs, 64);  // from MaxProcs
  EXPECT_EQ(workload.granularity, 1);
  EXPECT_EQ(workload.dedicated_count(), 0u);
}

TEST(SampleTrace, ReplaysUnderEveryBatchAlgorithm) {
  const Workload workload = load_cwf_workload(ES_SAMPLE_TRACE);
  for (const char* algorithm : {"FCFS", "EASY", "CONS", "LOS", "Delayed-LOS"}) {
    const auto scenario = es::testing::run_scenario(workload, algorithm);
    EXPECT_EQ(scenario.result.completed + scenario.result.killed, 20u)
        << algorithm;
    // Job 10 under-estimates (actual 4500 > requested 3600): killed.
    EXPECT_TRUE(scenario.job(10).killed) << algorithm;
    EXPECT_DOUBLE_EQ(scenario.job(10).finished - scenario.job(10).started,
                     3600)
        << algorithm;
    // Job 5 over-estimates heavily (60 actual vs 600 requested): completes
    // at its actual runtime.
    EXPECT_FALSE(scenario.job(5).killed) << algorithm;
    EXPECT_DOUBLE_EQ(scenario.job(5).finished - scenario.job(5).started, 60)
        << algorithm;
    EXPECT_LE(es::testing::peak_allocation(scenario.result), 64)
        << algorithm;
  }
}

TEST(SampleTrace, FullMachineJobSerializesSchedule) {
  const Workload workload = load_cwf_workload(ES_SAMPLE_TRACE);
  const auto scenario = es::testing::run_scenario(workload, "EASY");
  // Jobs 7 and 20 need all 64 processors: nothing may overlap them.
  for (const auto& [id, job] : scenario.by_id) {
    if (id == 7 || id == 20) continue;
    const auto& full = scenario.job(7);
    const bool overlaps =
        job.started < full.finished && full.started < job.finished;
    EXPECT_FALSE(overlaps) << "job " << id << " overlaps the 64-proc job";
  }
}

}  // namespace
}  // namespace es::workload
