// SWF records through the one trace reader/writer (every SWF line is a CWF
// line): parse_cwf_string() / write_cwf() over 18-field text, plus the
// record <-> Job conversions and header metadata.
#include "workload/swf.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "workload/cwf.hpp"

namespace es::workload {
namespace {

const char* kSampleSwf =
    "; Version: 2\n"
    "; Computer: Toy SP2\n"
    "1 0 10 100 8 -1 -1 8 120 -1 1 3 1 -1 1 -1 -1 -1\n"
    "2 50 0 200 16 -1 -1 16 300 -1 1 4 1 -1 1 -1 -1 -1\n";

TEST(Swf, ParsesRecordsAndHeader) {
  const CwfFile file = parse_cwf_string(kSampleSwf);
  ASSERT_EQ(file.records.size(), 2u);
  EXPECT_EQ(file.header.size(), 2u);
  EXPECT_EQ(file.header[0], "Version: 2");
  EXPECT_TRUE(file.records[0].is_submission());
  const SwfRecord& r = file.records[0].swf;
  EXPECT_EQ(r.job_number, 1);
  EXPECT_DOUBLE_EQ(r.submit_time, 0);
  EXPECT_DOUBLE_EQ(r.wait_time, 10);
  EXPECT_DOUBLE_EQ(r.run_time, 100);
  EXPECT_EQ(r.used_procs, 8);
  EXPECT_EQ(r.req_procs, 8);
  EXPECT_DOUBLE_EQ(r.req_time, 120);
  EXPECT_EQ(r.status, 1);
  EXPECT_EQ(r.user_id, 3);
}

TEST(Swf, SkipsBlankAndCommentLines) {
  const CwfFile file = parse_cwf_string(
      "\n; comment\n\n1 0 0 10 1 -1 -1 1 10 -1 1 1 1 -1 1 -1 -1 -1\n\n");
  EXPECT_EQ(file.records.size(), 1u);
}

TEST(Swf, HandlesCrlf) {
  const CwfFile file = parse_cwf_string(
      "1 0 0 10 1 -1 -1 1 10 -1 1 1 1 -1 1 -1 -1 -1\r\n");
  ASSERT_EQ(file.records.size(), 1u);
  EXPECT_DOUBLE_EQ(file.records[0].swf.think_time, -1);
}

TEST(Swf, ReportsMalformedLines) {
  std::vector<SwfParseError> errors;
  const CwfFile file = parse_cwf_string(
      "1 0 0 10 1 -1 -1 1 10 -1 1 1 1 -1 1 -1 -1 -1\n"
      "not a record\n"
      "2 0 0\n",
      &errors);
  EXPECT_EQ(file.records.size(), 1u);
  ASSERT_EQ(errors.size(), 2u);
  EXPECT_EQ(errors[0].line_number, 2u);
  EXPECT_EQ(errors[1].line_number, 3u);
}

TEST(Swf, AcceptsExtraTrailingFields) {
  // A 21-field CWF line carries the same SWF prefix.
  const CwfFile file = parse_cwf_string(
      "1 0 0 10 1 -1 -1 1 10 -1 1 1 1 -1 1 -1 -1 -1 -1 S -1\n");
  ASSERT_EQ(file.records.size(), 1u);
  EXPECT_EQ(file.records[0].swf.job_number, 1);
  // Trailing fields are CWF's three or none: a 19-field line is rejected.
  std::vector<SwfParseError> errors;
  const CwfFile odd = parse_cwf_string(
      "1 0 0 10 1 -1 -1 1 10 -1 1 1 1 -1 1 -1 -1 -1 7\n", &errors);
  EXPECT_TRUE(odd.records.empty());
  ASSERT_EQ(errors.size(), 1u);
}

TEST(Swf, RoundTripsThroughFormat) {
  const CwfFile file = parse_cwf_string(kSampleSwf);
  std::ostringstream out;
  write_cwf(out, file);
  const CwfFile again = parse_cwf_string(out.str());
  ASSERT_EQ(again.records.size(), file.records.size());
  for (std::size_t i = 0; i < file.records.size(); ++i) {
    const SwfRecord& a = again.records[i].swf;
    const SwfRecord& b = file.records[i].swf;
    EXPECT_EQ(a.job_number, b.job_number);
    EXPECT_DOUBLE_EQ(a.submit_time, b.submit_time);
    EXPECT_EQ(a.req_procs, b.req_procs);
    EXPECT_DOUBLE_EQ(a.req_time, b.req_time);
    EXPECT_TRUE(again.records[i].is_submission());
  }
  EXPECT_EQ(again.header, file.header);
  // The 18-field prefix of each written line is the canonical SWF line.
  const std::string text = out.str();
  EXPECT_NE(text.find(format_swf_record(file.records[1].swf) + " -1 S -1\n"),
            std::string::npos)
      << text;
}

TEST(Swf, ToJobUsesRequestedFields) {
  const CwfFile file = parse_cwf_string(kSampleSwf);
  Job job;
  ASSERT_TRUE(to_job(file.records[0].swf, job));
  EXPECT_EQ(job.id, 1);
  EXPECT_EQ(job.num, 8);
  EXPECT_DOUBLE_EQ(job.dur, 120);       // requested time
  EXPECT_DOUBLE_EQ(job.actual, 100);    // actual runtime
  EXPECT_FALSE(job.dedicated());
}

TEST(Swf, ToJobFallsBackToUsedValues) {
  SwfRecord record;
  record.job_number = 9;
  record.submit_time = 5;
  record.used_procs = 4;   // no req_procs
  record.run_time = 60;    // no req_time
  Job job;
  ASSERT_TRUE(to_job(record, job));
  EXPECT_EQ(job.num, 4);
  EXPECT_DOUBLE_EQ(job.dur, 60);
}

TEST(Swf, ToJobRejectsUnusableRecords) {
  SwfRecord record;
  record.job_number = 9;
  Job job;
  EXPECT_FALSE(to_job(record, job));  // no size, no time
  record.req_procs = 4;
  EXPECT_FALSE(to_job(record, job));  // still no time
  record.req_time = 10;
  EXPECT_TRUE(to_job(record, job));
}

TEST(Swf, FromJobRoundTrips) {
  Job job;
  job.id = 77;
  job.arr = 123;
  job.num = 64;
  job.dur = 500;
  job.actual = 400;
  const SwfRecord record = from_job(job);
  Job back;
  ASSERT_TRUE(to_job(record, back));
  EXPECT_EQ(back.id, 77);
  EXPECT_DOUBLE_EQ(back.arr, 123);
  EXPECT_EQ(back.num, 64);
  EXPECT_DOUBLE_EQ(back.dur, 500);
  EXPECT_DOUBLE_EQ(back.actual, 400);
}

TEST(Swf, AcceptsDecimalIntegers) {
  std::vector<SwfParseError> errors;
  const CwfFile file = parse_cwf_string(
      "1 0 0 10 4.0 -1 -1 4.0 10 -1 1 1 1 -1 1 -1 -1 -1\n", &errors);
  ASSERT_TRUE(errors.empty()) << errors[0].message;
  ASSERT_EQ(file.records.size(), 1u);
  EXPECT_EQ(file.records[0].swf.used_procs, 4);
}


TEST(SwfMetadata, ParsesStandardHeaderKeys) {
  const SwfMetadata metadata = parse_swf_metadata(
      {"Version: 2.2", "Computer: IBM SP2", "Installation: SDSC",
       "MaxProcs: 128", "MaxNodes: 64", "UnixStartTime: 893457586"});
  EXPECT_EQ(metadata.max_procs, 128);
  EXPECT_EQ(metadata.max_nodes, 64);
  EXPECT_EQ(metadata.unix_start_time, 893457586);
  EXPECT_EQ(metadata.computer, "IBM SP2");
  EXPECT_EQ(metadata.installation, "SDSC");
}

TEST(SwfMetadata, CaseInsensitiveAndTolerant) {
  const SwfMetadata metadata =
      parse_swf_metadata({"maxprocs:  320  ", "COMPUTER:BlueGene/P"});
  EXPECT_EQ(metadata.max_procs, 320);
  EXPECT_EQ(metadata.computer, "BlueGene/P");
}

TEST(SwfMetadata, MissingFieldsDefault) {
  const SwfMetadata metadata = parse_swf_metadata({"Note: nothing useful"});
  EXPECT_EQ(metadata.max_procs, -1);
  EXPECT_EQ(metadata.max_nodes, -1);
  EXPECT_TRUE(metadata.computer.empty());
}

TEST(SwfMetadata, NonNumericCountIsMinusOne) {
  const SwfMetadata metadata = parse_swf_metadata({"MaxProcs: unknown"});
  EXPECT_EQ(metadata.max_procs, -1);
}

}  // namespace
}  // namespace es::workload
