#include "workload/swf.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>


namespace es::workload {
namespace {

/// Splits a line into whitespace-separated tokens.
std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream stream(line);
  std::string token;
  while (stream >> token) tokens.push_back(token);
  return tokens;
}

bool to_double(const std::string& text, double& out) {
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') return false;
  // Reject nan/inf: every SWF field is a finite quantity, and a NaN would
  // silently poison every downstream comparison.
  return std::isfinite(out);
}

}  // namespace

/// Archive names of the 18 SWF fields, 1-based order; used to point parse
/// diagnostics at the offending column.
constexpr const char* kSwfFieldNames[18] = {
    "job_number", "submit_time",   "wait_time",  "run_time",
    "used_procs", "avg_cpu_time",  "used_memory", "req_procs",
    "req_time",   "req_memory",    "status",      "user_id",
    "group_id",   "app_number",    "queue_number", "partition",
    "preceding_job", "think_time"};

bool parse_swf_record(const std::string& line, SwfRecord& out,
                      std::string& message) {
  const auto tokens = tokenize(line);
  if (tokens.size() < 18) {
    message = "expected 18 fields, got " + std::to_string(tokens.size());
    return false;
  }
  // Every field is numeric (integer fields may appear as "12.0" in archive
  // traces and are truncated); parse all 18 uniformly so a failure can name
  // the exact field and token instead of a bare "non-numeric field".
  double values[18];
  for (std::size_t i = 0; i < 18; ++i) {
    if (!to_double(tokens[i], values[i])) {
      message = "field " + std::to_string(i + 1) + " (" + kSwfFieldNames[i] +
                "): non-numeric token '" + tokens[i] + "'";
      return false;
    }
  }
  auto as_ll = [](double value) { return static_cast<long long>(value); };
  SwfRecord r;
  r.job_number = as_ll(values[0]);
  r.submit_time = values[1];
  r.wait_time = values[2];
  r.run_time = values[3];
  r.used_procs = as_ll(values[4]);
  r.avg_cpu_time = values[5];
  r.used_memory = values[6];
  r.req_procs = as_ll(values[7]);
  r.req_time = values[8];
  r.req_memory = values[9];
  r.status = as_ll(values[10]);
  r.user_id = as_ll(values[11]);
  r.group_id = as_ll(values[12]);
  r.app_number = as_ll(values[13]);
  r.queue_number = as_ll(values[14]);
  r.partition = as_ll(values[15]);
  r.preceding_job = as_ll(values[16]);
  r.think_time = values[17];
  out = r;
  return true;
}

SwfMetadata parse_swf_metadata(const std::vector<std::string>& header) {
  SwfMetadata metadata;
  auto matches = [](const std::string& line, const char* key,
                    std::string& value) {
    const std::size_t key_length = std::strlen(key);
    if (line.size() <= key_length) return false;
    for (std::size_t i = 0; i < key_length; ++i) {
      if (std::tolower(static_cast<unsigned char>(line[i])) !=
          std::tolower(static_cast<unsigned char>(key[i])))
        return false;
    }
    if (line[key_length] != ':') return false;
    value = line.substr(key_length + 1);
    while (!value.empty() && value.front() == ' ') value.erase(0, 1);
    while (!value.empty() &&
           (value.back() == ' ' || value.back() == '\t'))
      value.pop_back();
    return true;
  };
  auto to_count = [](const std::string& text) -> long long {
    char* end = nullptr;
    const long long value = std::strtoll(text.c_str(), &end, 10);
    return end == text.c_str() ? -1 : value;
  };
  for (const std::string& line : header) {
    std::string value;
    if (matches(line, "MaxProcs", value)) {
      metadata.max_procs = to_count(value);
    } else if (matches(line, "MaxNodes", value)) {
      metadata.max_nodes = to_count(value);
    } else if (matches(line, "UnixStartTime", value)) {
      metadata.unix_start_time = to_count(value);
    } else if (matches(line, "Computer", value)) {
      metadata.computer = value;
    } else if (matches(line, "Installation", value)) {
      metadata.installation = value;
    }
  }
  return metadata;
}

SwfFile parse_swf(std::istream& in, std::vector<SwfParseError>* errors) {
  SwfFile file;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    // Strip trailing CR from CRLF traces.
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (line.front() == ';') {
      std::string comment = line.substr(1);
      if (!comment.empty() && comment.front() == ' ') comment.erase(0, 1);
      file.header.push_back(std::move(comment));
      continue;
    }
    SwfRecord record;
    std::string message;
    if (parse_swf_record(line, record, message)) {
      file.records.push_back(record);
    } else if (errors) {
      errors->push_back({line_number, message});
    }
  }
  return file;
}

SwfFile parse_swf_string(const std::string& text,
                         std::vector<SwfParseError>* errors) {
  std::istringstream stream(text);
  return parse_swf(stream, errors);
}

std::string format_swf_record(const SwfRecord& r) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "%lld %.0f %.0f %.0f %lld %.0f %.0f %lld %.0f %.0f %lld %lld "
                "%lld %lld %lld %lld %lld %.0f",
                r.job_number, r.submit_time, r.wait_time, r.run_time,
                r.used_procs, r.avg_cpu_time, r.used_memory, r.req_procs,
                r.req_time, r.req_memory, r.status, r.user_id, r.group_id,
                r.app_number, r.queue_number, r.partition, r.preceding_job,
                r.think_time);
  return buf;
}

void write_swf(std::ostream& out, const SwfFile& file) {
  for (const auto& line : file.header) out << "; " << line << '\n';
  for (const auto& record : file.records)
    out << format_swf_record(record) << '\n';
}

bool to_job(const SwfRecord& record, Job& out, SwfDropReason* reason) {
  auto drop = [reason](SwfDropReason why) {
    if (reason) *reason = why;
    return false;
  };
  if (reason) *reason = SwfDropReason::kNone;
  // Status field (11): 0 = failed, 5 = cancelled.  A record that terminated
  // early but ran (run_time > 0) still occupied processors and is replayed
  // with its partial runtime — dropping it would understate the offered
  // load; one that never ran consumed nothing and would only distort it.
  const bool terminated_early = record.status == 0 || record.status == 5;
  if (terminated_early && record.run_time <= 0)
    return drop(SwfDropReason::kNeverRan);
  Job job;
  job.id = record.job_number;
  job.arr = record.submit_time < 0 ? 0 : record.submit_time;
  const long long procs =
      record.req_procs > 0 ? record.req_procs : record.used_procs;
  const double requested =
      record.req_time > 0 ? record.req_time : record.run_time;
  const double actual =
      record.run_time > 0 ? record.run_time : requested;
  if (procs <= 0 || requested <= 0) return drop(SwfDropReason::kUnusable);
  job.num = static_cast<int>(procs);
  job.dur = requested;
  job.actual = actual;
  job.type = JobType::kBatch;
  job.start = -1;
  out = job;
  return true;
}

SwfRecord from_job(const Job& job) {
  SwfRecord record;
  record.job_number = job.id;
  record.submit_time = job.arr;
  record.run_time = job.actual_runtime();
  record.req_procs = job.num;
  record.used_procs = job.num;
  record.req_time = job.dur;
  record.status = 1;
  return record;
}

}  // namespace es::workload
