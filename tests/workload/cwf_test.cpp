#include "workload/cwf.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

namespace es::workload {
namespace {

const char* kSampleCwf =
    "; CWF sample\n"
    // batch submission
    "1 0 -1 100 -1 -1 -1 64 100 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 S -1\n"
    // dedicated submission: requested start 500
    "2 10 -1 200 -1 -1 -1 128 200 -1 -1 -1 -1 -1 -1 -1 -1 -1 500 S -1\n"
    // ET command for job 1 at t=50: +60 seconds
    "1 50 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 ET 60\n"
    // RT command for job 2 at t=60: -30 seconds
    "2 60 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 RT 30\n";

TEST(Cwf, ParsesSubmissionsAndEccs) {
  const CwfFile file = parse_cwf_string(kSampleCwf);
  ASSERT_EQ(file.records.size(), 4u);
  EXPECT_TRUE(file.records[0].is_submission());
  EXPECT_TRUE(file.records[1].is_submission());
  EXPECT_EQ(file.records[2].request_type, "ET");
  EXPECT_DOUBLE_EQ(file.records[2].amount, 60);
  EXPECT_DOUBLE_EQ(file.records[1].req_start_time, 500);
}

TEST(Cwf, PlainSwfLinesAreBatchSubmissions) {
  const CwfFile file = parse_cwf_string(
      "1 0 0 10 1 -1 -1 1 10 -1 1 1 1 -1 1 -1 -1 -1\n");
  ASSERT_EQ(file.records.size(), 1u);
  EXPECT_TRUE(file.records[0].is_submission());
  EXPECT_DOUBLE_EQ(file.records[0].req_start_time, -1);
}

TEST(Cwf, RejectsBadFieldCounts) {
  std::vector<SwfParseError> errors;
  parse_cwf_string("1 2 3\n", &errors);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].message.find("18"), std::string::npos);
}

TEST(Cwf, RejectsUnknownRequestType) {
  std::vector<SwfParseError> errors;
  const CwfFile file = parse_cwf_string(
      "1 0 -1 -1 -1 -1 -1 4 10 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 XX 5\n",
      &errors);
  EXPECT_TRUE(file.records.empty());
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].message.find("S/ET/EP/RT/RP"), std::string::npos);
}

TEST(Cwf, RejectsEccWithoutAmount) {
  std::vector<SwfParseError> errors;
  parse_cwf_string(
      "1 0 -1 -1 -1 -1 -1 4 10 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 ET -1\n",
      &errors);
  ASSERT_EQ(errors.size(), 1u);
}

TEST(Cwf, ToWorkloadLowersJobsAndEccs) {
  const Workload workload = to_workload(parse_cwf_string(kSampleCwf));
  ASSERT_EQ(workload.jobs.size(), 2u);
  ASSERT_EQ(workload.eccs.size(), 2u);
  EXPECT_FALSE(workload.jobs[0].dedicated());
  EXPECT_TRUE(workload.jobs[1].dedicated());
  EXPECT_DOUBLE_EQ(workload.jobs[1].start, 500);
  EXPECT_EQ(workload.eccs[0].type, EccType::kExtendTime);
  EXPECT_EQ(workload.eccs[0].job_id, 1);
  EXPECT_EQ(workload.eccs[1].type, EccType::kReduceTime);
}

TEST(Cwf, DropsEccForUnknownJob) {
  const Workload workload = to_workload(parse_cwf_string(
      "9 50 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 ET 60\n"));
  EXPECT_TRUE(workload.eccs.empty());
}

TEST(Cwf, ToWorkloadRejectsARepeatedJobNumber) {
  const std::string trace =
      "1 0 -1 100 4 -1 -1 4 100 -1 1 -1 -1 -1 -1 -1 -1 -1\n"
      "2 10 -1 100 4 -1 -1 4 100 -1 1 -1 -1 -1 -1 -1 -1 -1\n"
      "2 20 -1 100 4 -1 -1 4 100 -1 1 -1 -1 -1 -1 -1 -1 -1\n";
  try {
    to_workload(parse_cwf_string(trace));
    FAIL() << "a repeated job number must not lower";
  } catch (const TraceError& error) {
    EXPECT_NE(std::string(error.what()).find("job number 2"),
              std::string::npos)
        << error.what();
  }
  // A dropped record does not claim its number: the resubmission imports.
  const Workload workload = to_workload(parse_cwf_string(
      "2 0 -1 0 4 -1 -1 4 100 -1 5 -1 -1 -1 -1 -1 -1 -1\n"
      "2 10 -1 100 4 -1 -1 4 100 -1 1 -1 -1 -1 -1 -1 -1 -1\n"));
  ASSERT_EQ(workload.jobs.size(), 1u);
  EXPECT_DOUBLE_EQ(workload.jobs[0].arr, 10);
}

TEST(Cwf, WorkloadRoundTrip) {
  const Workload original = to_workload(parse_cwf_string(kSampleCwf));
  std::ostringstream out;
  write_cwf(out, from_workload(original));
  const Workload again = to_workload(parse_cwf_string(out.str()));
  ASSERT_EQ(again.jobs.size(), original.jobs.size());
  ASSERT_EQ(again.eccs.size(), original.eccs.size());
  for (std::size_t i = 0; i < original.jobs.size(); ++i) {
    EXPECT_EQ(again.jobs[i].id, original.jobs[i].id);
    EXPECT_EQ(again.jobs[i].num, original.jobs[i].num);
    EXPECT_DOUBLE_EQ(again.jobs[i].dur, original.jobs[i].dur);
    EXPECT_EQ(again.jobs[i].dedicated(), original.jobs[i].dedicated());
  }
  for (std::size_t i = 0; i < original.eccs.size(); ++i) {
    EXPECT_EQ(again.eccs[i].job_id, original.eccs[i].job_id);
    EXPECT_EQ(again.eccs[i].type, original.eccs[i].type);
    EXPECT_DOUBLE_EQ(again.eccs[i].amount, original.eccs[i].amount);
  }
}

TEST(Cwf, FromWorkloadOrdersRecordsByTime) {
  Workload workload;
  Job early;
  early.id = 1;
  early.arr = 100;
  early.num = 4;
  early.dur = 10;
  Job late = early;
  late.id = 2;
  late.arr = 50;
  workload.jobs = {early, late};
  Ecc ecc;
  ecc.issue = 75;
  ecc.job_id = 2;
  ecc.type = EccType::kExtendTime;
  ecc.amount = 5;
  workload.eccs = {ecc};
  const CwfFile file = from_workload(workload);
  ASSERT_EQ(file.records.size(), 3u);
  EXPECT_DOUBLE_EQ(file.records[0].swf.submit_time, 50);
  EXPECT_EQ(file.records[1].request_type, "ET");
  EXPECT_DOUBLE_EQ(file.records[2].swf.submit_time, 100);
}

TEST(EccType, MnemonicsRoundTrip) {
  for (EccType type : {EccType::kExtendTime, EccType::kReduceTime,
                       EccType::kExtendProcs, EccType::kReduceProcs}) {
    EccType back;
    ASSERT_TRUE(parse_ecc_type(to_string(type), back));
    EXPECT_EQ(back, type);
  }
  EccType out;
  EXPECT_FALSE(parse_ecc_type("ZZ", out));
  EXPECT_FALSE(parse_ecc_type("et", out));  // case-sensitive mnemonics
}

}  // namespace
}  // namespace es::workload
