// Cloud Workload Format (CWF) — the paper's SWF extension (section IV-C).
//
// A CWF line carries SWF fields 1-18 plus:
//   19  requested start time   (dedicated/interactive jobs; -1 for batch)
//   20  request type           S | ET | EP | RT | RP
//   21  extension/reduction amount (-1 for plain submissions)
//
// An 'S' line is a submission (field 2 = submit time).  An ET/RT/EP/RP line
// is an Elastic Control Command referring to a previously submitted job with
// the same ID; field 2 is the command's issue time and field 21 the amount.
#pragma once

#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "workload/job.hpp"
#include "workload/swf.hpp"

namespace es::workload {

/// One CWF line: the SWF record plus the three extension fields.
struct CwfRecord {
  SwfRecord swf;
  double req_start_time = -1;   ///< field 19
  std::string request_type = "S";  ///< field 20
  double amount = -1;           ///< field 21

  bool is_submission() const { return request_type == "S"; }
};

struct CwfFile {
  std::vector<std::string> header;
  std::vector<CwfRecord> records;
};

/// Parses CWF text; malformed lines go to `errors` and are skipped.  Plain
/// 18-field SWF lines are accepted and treated as batch submissions, so any
/// archive trace is valid CWF.
CwfFile parse_cwf(std::istream& in, std::vector<SwfParseError>* errors = nullptr);
CwfFile parse_cwf_string(const std::string& text,
                         std::vector<SwfParseError>* errors = nullptr);

std::string format_cwf_record(const CwfRecord& record);
void write_cwf(std::ostream& out, const CwfFile& file);

/// A trace that parses but cannot be replayed: to_workload() names the
/// offending job number.
class TraceError : public std::runtime_error {
 public:
  explicit TraceError(const std::string& message)
      : std::runtime_error(message) {}
};

/// Lowers a parsed CWF file to the simulator Workload (submissions become
/// Jobs through to_job(), ET/RT/EP/RP lines become Eccs).  Unusable and
/// never-ran submissions and ECCs referencing unknown job IDs are dropped
/// with one summary warning (mirrors what a real submission filter does).
/// Throws TraceError when two imported submissions share a job number.
Workload to_workload(const CwfFile& file);

/// Renders a Workload as a CWF file (one S line per job, one line per ECC),
/// ordered by time so the file replays deterministically.
CwfFile from_workload(const Workload& workload);

/// Loads a workload from a CWF or SWF file on disk: the one trace reader.
/// Parse errors are logged with their line and skipped; an unreadable file
/// yields an empty workload.  Throws TraceError like to_workload().
Workload load_cwf_workload(const std::string& path);

/// Saves a workload to disk: the `header` comment lines, then a
/// "MaxProcs:" line when the workload knows its machine size, then the
/// records.  Returns false on I/O failure.
bool save_cwf_workload(const std::string& path, const Workload& workload,
                       const std::vector<std::string>& header = {});

}  // namespace es::workload
