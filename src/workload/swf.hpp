// Standard Workload Format (SWF) records.
//
// SWF (Feitelson et al., the Parallel Workloads Archive interchange format)
// describes one job per line with 18 whitespace-separated numeric fields;
// `;`-prefixed lines are header comments.  Every SWF line is also a line of
// CWF, the paper's elastic extension (cwf.hpp), so there is one trace
// reader and writer: parse_cwf()/write_cwf() carry all 18 fields, and
// load_cwf_workload() loads SWF and CWF files alike.  This header holds the
// record, its header metadata, its canonical rendering and the conversions
// to and from the simulator's Job model.
#pragma once

#include <string>
#include <vector>

#include "workload/job.hpp"

namespace es::workload {

/// One SWF line, fields 1-18 in archive order.  Missing/unknown values are
/// -1 per the SWF convention.
struct SwfRecord {
  long long job_number = -1;       ///< 1
  double submit_time = -1;         ///< 2 (seconds)
  double wait_time = -1;           ///< 3
  double run_time = -1;            ///< 4 actual runtime
  long long used_procs = -1;       ///< 5
  double avg_cpu_time = -1;        ///< 6
  double used_memory = -1;         ///< 7
  long long req_procs = -1;        ///< 8
  double req_time = -1;            ///< 9 user estimate
  double req_memory = -1;          ///< 10
  long long status = -1;           ///< 11 (1 = completed)
  long long user_id = -1;          ///< 12
  long long group_id = -1;         ///< 13
  long long app_number = -1;       ///< 14
  long long queue_number = -1;     ///< 15
  long long partition = -1;        ///< 16
  long long preceding_job = -1;    ///< 17
  double think_time = -1;          ///< 18
};

/// Structured view of the standard SWF header comments the archive defines
/// ("; MaxProcs: 128", "; Computer: IBM SP2", ...).  Missing fields are -1
/// or empty.
struct SwfMetadata {
  long long max_procs = -1;
  long long max_nodes = -1;
  long long unix_start_time = -1;
  std::string computer;
  std::string installation;
};

/// Extracts metadata from header comment lines (case-insensitive keys).
SwfMetadata parse_swf_metadata(const std::vector<std::string>& header);

/// Parse failure details (parse_cwf reports one per skipped line).
struct SwfParseError {
  std::size_t line_number = 0;
  std::string message;
};

/// Serializes one record as a canonical SWF line.
std::string format_swf_record(const SwfRecord& record);

/// Why to_job rejected a record.
enum class SwfDropReason {
  kNone,      ///< record imported
  kUnusable,  ///< no processor count or runtime at all
  kNeverRan,  ///< failed/cancelled before consuming any machine time
};

/// Converts an SWF record to the simulator Job model.  Requested fields fall
/// back to used/actual ones when absent (-1), matching common archive usage.
/// Job status (field 11: 0 = failed, 1 = completed, 5 = cancelled) decides
/// early terminations: one that ran replays its partial runtime, one that
/// never ran is dropped.  Returns false for records that cannot run;
/// `reason` (if given) says why.
bool to_job(const SwfRecord& record, Job& out,
            SwfDropReason* reason = nullptr);

/// Converts a Job back to an SWF record (submission view; wait/run unknown).
SwfRecord from_job(const Job& job);

}  // namespace es::workload
