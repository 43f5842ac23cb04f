#include "workload/swf.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace es::workload {

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
