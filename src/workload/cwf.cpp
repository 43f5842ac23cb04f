#include "workload/cwf.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <unordered_set>

#include "util/log.hpp"

namespace es::workload {
namespace {

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
  // Reject nan/inf — matches the SWF prefix parser; a non-finite start time
  // or amount would corrupt the event queue ordering.
  return std::isfinite(out);
}

bool parse_cwf_line(const std::string& line, CwfRecord& out,
                    std::string& message) {
  const auto tokens = tokenize(line);
  if (tokens.size() != 18 && tokens.size() != 21) {
    message = "expected 18 (SWF) or 21 (CWF) fields, got " +
              std::to_string(tokens.size());
    return false;
  }
  // Reuse the SWF field parser for the common prefix.
  std::ostringstream prefix;
  for (std::size_t i = 0; i < 18; ++i) {
    if (i) prefix << ' ';
    prefix << tokens[i];
  }
  CwfRecord record;
  if (!parse_swf_record(prefix.str(), record.swf, message)) return false;
  if (tokens.size() == 21) {
    if (!to_double(tokens[18], record.req_start_time)) {
      message = "field 19 (requested start time) not numeric";
      return false;
    }
    record.request_type = tokens[19];
    if (record.request_type != "S") {
      EccType type;
      if (!parse_ecc_type(record.request_type, type)) {
        message = "field 20 must be one of S/ET/EP/RT/RP, got '" +
                  record.request_type + "'";
        return false;
      }
    }
    if (!to_double(tokens[20], record.amount)) {
      message = "field 21 (amount) not numeric";
      return false;
    }
    if (!record.is_submission() && record.amount < 0) {
      message = "ECC line requires a non-negative amount in field 21";
      return false;
    }
  }
  out = record;
  return true;
}

}  // namespace

CwfFile parse_cwf(std::istream& in, std::vector<SwfParseError>* errors) {
  CwfFile file;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (line.front() == ';') {
      std::string comment = line.substr(1);
      if (!comment.empty() && comment.front() == ' ') comment.erase(0, 1);
      file.header.push_back(std::move(comment));
      continue;
    }
    CwfRecord record;
    std::string message;
    if (parse_cwf_line(line, record, message)) {
      file.records.push_back(std::move(record));
    } else if (errors) {
      errors->push_back({line_number, message});
    }
  }
  return file;
}

CwfFile parse_cwf_string(const std::string& text,
                         std::vector<SwfParseError>* errors) {
  std::istringstream stream(text);
  return parse_cwf(stream, errors);
}

std::string format_cwf_record(const CwfRecord& record) {
  char suffix[96];
  std::snprintf(suffix, sizeof suffix, " %.0f %s %.0f", record.req_start_time,
                record.request_type.c_str(), record.amount);
  return format_swf_record(record.swf) + suffix;
}

void write_cwf(std::ostream& out, const CwfFile& file) {
  for (const auto& line : file.header) out << "; " << line << '\n';
  for (const auto& record : file.records)
    out << format_cwf_record(record) << '\n';
}

Workload to_workload(const CwfFile& file) {
  Workload workload;
  // Adopt the machine size from standard archive header metadata when
  // present; callers can still override.
  const SwfMetadata metadata = parse_swf_metadata(file.header);
  if (metadata.max_procs > 0) {
    workload.machine_procs = static_cast<int>(metadata.max_procs);
    workload.granularity = 1;
  }
  std::unordered_set<std::int64_t> known_ids;
  std::size_t submissions = 0, unusable = 0, never_ran = 0, dropped_eccs = 0;
  for (const auto& record : file.records) {
    if (record.is_submission()) {
      ++submissions;
      Job job;
      SwfDropReason reason = SwfDropReason::kNone;
      if (!to_job(record.swf, job, &reason)) {
        if (reason == SwfDropReason::kNeverRan) {
          ++never_ran;
        } else {
          ++unusable;
        }
        continue;
      }
      if (record.req_start_time >= 0) {
        job.type = JobType::kDedicated;
        job.start = record.req_start_time;
      }
      // Job numbers key ECC dispatch and every per-job result, so a
      // repeated one is a malformed trace, not a second job.
      if (!known_ids.insert(job.id).second)
        throw TraceError("duplicate job number " + std::to_string(job.id));
      workload.jobs.push_back(job);
    } else {
      EccType type;
      if (!parse_ecc_type(record.request_type, type)) continue;
      if (!known_ids.contains(record.swf.job_number)) {
        ++dropped_eccs;
        continue;
      }
      Ecc ecc;
      ecc.issue = record.swf.submit_time;
      ecc.job_id = record.swf.job_number;
      ecc.type = type;
      ecc.amount = record.amount;
      workload.eccs.push_back(ecc);
    }
  }
  // One summary per file, not one warning per record: a large archive trace
  // can legitimately carry thousands of cancelled submissions.
  if (unusable + never_ran + dropped_eccs > 0) {
    ES_LOG_WARN(
        "trace lowering dropped %zu of %zu submissions (%zu unusable, %zu "
        "failed/cancelled before running) and %zu ECC(s) referencing "
        "unknown jobs",
        unusable + never_ran, submissions, unusable, never_ran, dropped_eccs);
  }
  workload.normalize();
  return workload;
}

CwfFile from_workload(const Workload& workload) {
  CwfFile file;
  file.records.reserve(workload.jobs.size() + workload.eccs.size());
  for (const Job& job : workload.jobs) {
    CwfRecord record;
    record.swf = from_job(job);
    record.req_start_time = job.dedicated() ? job.start : -1;
    // request_type "S" and amount -1 are the record's defaults.
    file.records.push_back(std::move(record));
  }
  for (const Ecc& ecc : workload.eccs) {
    CwfRecord record;
    record.swf.job_number = ecc.job_id;
    record.swf.submit_time = ecc.issue;
    record.request_type = to_string(ecc.type);
    record.amount = ecc.amount;
    file.records.push_back(std::move(record));
  }
  // Deterministic replay order: by time, submissions before ECCs at a tie.
  std::stable_sort(file.records.begin(), file.records.end(),
                   [](const CwfRecord& a, const CwfRecord& b) {
                     if (a.swf.submit_time != b.swf.submit_time)
                       return a.swf.submit_time < b.swf.submit_time;
                     if (a.is_submission() != b.is_submission())
                       return a.is_submission();
                     return a.swf.job_number < b.swf.job_number;
                   });
  return file;
}

Workload load_cwf_workload(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    ES_LOG_ERROR("cannot open CWF trace '%s'", path.c_str());
    return {};
  }
  std::vector<SwfParseError> errors;
  const CwfFile file = parse_cwf(in, &errors);
  for (const auto& error : errors)
    ES_LOG_WARN("%s:%zu: %s", path.c_str(), error.line_number,
                error.message.c_str());
  return to_workload(file);
}

bool save_cwf_workload(const std::string& path, const Workload& workload,
                       const std::vector<std::string>& header) {
  std::ofstream out(path);
  if (!out) return false;
  CwfFile file = from_workload(workload);
  file.header = header;
  write_cwf(out, file);
  return static_cast<bool>(out);
}

}  // namespace es::workload
