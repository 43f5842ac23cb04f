// Adversarial trace ingestion: truncated lines, non-finite and overflowing
// numbers, negative sizes, CRLF endings, and status-aware record lowering.
#include <gtest/gtest.h>

#include <string>

#include "workload/cwf.hpp"
#include "workload/swf.hpp"

namespace es::workload {
namespace {

std::string line18(const std::string& field_value, int field_index) {
  // A valid 18-field line with one field replaced (1-based index).
  std::string line;
  for (int i = 1; i <= 18; ++i) {
    if (i > 1) line += ' ';
    line += i == field_index ? field_value : "1";
  }
  return line;
}

/// Parses one line through the trace reader; returns the rejection message,
/// or an empty string when the line imported as a record.
std::string rejection(const std::string& line) {
  std::vector<SwfParseError> errors;
  const CwfFile file = parse_cwf_string(line + "\n", &errors);
  if (errors.empty()) {
    EXPECT_EQ(file.records.size(), 1u) << line;
    return "";
  }
  EXPECT_TRUE(file.records.empty()) << line;
  EXPECT_EQ(errors[0].line_number, 1u);
  return errors[0].message;
}

TEST(SwfAdversarial, TruncatedLineReportsFieldCount) {
  const std::string message = rejection("1 2 3 4 5 6 7 8 9 10");
  EXPECT_NE(message.find("expected 18 (SWF) or 21 (CWF) fields, got 10"),
            std::string::npos)
      << message;
}

TEST(SwfAdversarial, NonFiniteValuesAreRejectedWithFieldName) {
  std::string message = rejection(line18("nan", 4));
  EXPECT_NE(message.find("field 4 (run_time)"), std::string::npos) << message;
  EXPECT_NE(message.find("'nan'"), std::string::npos) << message;

  message = rejection(line18("inf", 9));
  EXPECT_NE(message.find("field 9 (req_time)"), std::string::npos) << message;

  message = rejection(line18("-inf", 2));
  EXPECT_NE(message.find("field 2 (submit_time)"), std::string::npos)
      << message;
}

TEST(SwfAdversarial, OverflowingNumberIsRejected) {
  // 1e400 overflows double to infinity — must be refused, not imported.
  const std::string message = rejection(line18("1e400", 2));
  EXPECT_NE(message.find("field 2 (submit_time)"), std::string::npos)
      << message;
}

TEST(SwfAdversarial, GarbageTokenNamesFieldAndToken) {
  const std::string message = rejection(line18("12x", 5));
  EXPECT_NE(message.find("field 5 (used_procs)"), std::string::npos)
      << message;
  EXPECT_NE(message.find("'12x'"), std::string::npos) << message;
}

TEST(SwfAdversarial, HugeButFiniteValuesParse) {
  const CwfFile file = parse_cwf_string(line18("1e300", 9) + "\n");
  ASSERT_EQ(file.records.size(), 1u);
  EXPECT_DOUBLE_EQ(file.records[0].swf.req_time, 1e300);
}

TEST(SwfAdversarial, MalformedLinesAreSkippedWithLineNumbers) {
  const std::string text =
      "; MaxProcs: 64\n"
      "1 0 0 10 4 -1 -1 4 10 -1 1 1 1 1 1 1 -1 -1\n"
      "2 0 0 nan 4 -1 -1 4 10 -1 1 1 1 1 1 1 -1 -1\n"
      "3 0 0 10 4 -1 -1 4 10 -1 1 1 1 1 1 1 -1 -1\n";
  std::vector<SwfParseError> errors;
  const CwfFile file = parse_cwf_string(text, &errors);
  EXPECT_EQ(file.records.size(), 2u);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].line_number, 3u);
  EXPECT_NE(errors[0].message.find("run_time"), std::string::npos);
}

TEST(SwfAdversarial, CrlfEndingsParseCleanly) {
  const std::string text =
      "; Computer: test\r\n"
      "1 0 0 10 4 -1 -1 4 10 -1 1 1 1 1 1 1 -1 -1\r\n"
      "2 5 0 10 4 -1 -1 4 10 -1 1 1 1 1 1 1 -1 -1\r\n";
  std::vector<SwfParseError> errors;
  const CwfFile file = parse_cwf_string(text, &errors);
  EXPECT_TRUE(errors.empty());
  ASSERT_EQ(file.records.size(), 2u);
  EXPECT_EQ(file.records[1].swf.job_number, 2);
}

SwfRecord record_with_status(long long status, double run_time) {
  SwfRecord record;
  record.job_number = 1;
  record.submit_time = 0;
  record.run_time = run_time;
  record.req_procs = 4;
  record.req_time = 100;
  record.status = status;
  return record;
}

TEST(SwfStatus, CancelledRecordThatNeverRanIsDropped) {
  Job job;
  SwfDropReason reason = SwfDropReason::kNone;
  EXPECT_FALSE(to_job(record_with_status(5, -1), job, &reason));
  EXPECT_EQ(reason, SwfDropReason::kNeverRan);
  EXPECT_FALSE(to_job(record_with_status(0, 0), job, &reason));
  EXPECT_EQ(reason, SwfDropReason::kNeverRan);
}

TEST(SwfStatus, FailedRecordThatRanImportsItsPartialRuntimeByDefault) {
  Job job;
  SwfDropReason reason = SwfDropReason::kNone;
  ASSERT_TRUE(to_job(record_with_status(0, 40), job, &reason));
  EXPECT_EQ(reason, SwfDropReason::kNone);
  EXPECT_DOUBLE_EQ(job.dur, 100);     // the user's estimate
  EXPECT_DOUBLE_EQ(job.actual, 40);   // the partial execution
}

TEST(SwfStatus, UnusableRecordReportsReason) {
  SwfRecord record = record_with_status(1, -1);
  record.req_procs = -1;
  record.used_procs = -1;
  Job job;
  SwfDropReason reason = SwfDropReason::kNone;
  EXPECT_FALSE(to_job(record, job, &reason));
  EXPECT_EQ(reason, SwfDropReason::kUnusable);
}

TEST(CwfAdversarial, NonFiniteExtensionFieldsAreRejected) {
  std::vector<SwfParseError> errors;
  const std::string base = "1 0 0 10 4 -1 -1 4 10 -1 1 1 1 1 1 1 -1 -1";
  parse_cwf_string(base + " nan S -1\n", &errors);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].message.find("field 19"), std::string::npos)
      << errors[0].message;
  errors.clear();
  parse_cwf_string(base + " -1 ET inf\n", &errors);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].message.find("field 21"), std::string::npos)
      << errors[0].message;
}

TEST(CwfAdversarial, NonFinitePrefixFieldNamesTheColumn) {
  std::vector<SwfParseError> errors;
  parse_cwf_string("1 inf 0 10 4 -1 -1 4 10 -1 1 1 1 1 1 1 -1 -1 -1 S -1\n",
                   &errors);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].message.find("field 2 (submit_time)"),
            std::string::npos)
      << errors[0].message;
}

}  // namespace
}  // namespace es::workload
