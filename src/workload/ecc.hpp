// Elastic Control Commands (paper section III-C / IV-C).
//
// An ECC is a user-issued, on-the-fly change to a previously submitted job's
// requirements: extension/reduction of execution *time* (ET/RT — the paper's
// focus) or of *processors* (EP/RP — CWF defines them; the paper defers them
// to future work, we implement them for queued jobs as an extension).
#pragma once

#include <cstdint>
#include <string>

#include "sim/time.hpp"

namespace es::workload {

/// CWF field 20 request types other than plain submission.
enum class EccType {
  kExtendTime,      ///< ET: extend user-estimated execution time
  kReduceTime,      ///< RT: reduce user-estimated execution time
  kExtendProcs,     ///< EP: extend requested processors (queued jobs only)
  kReduceProcs,     ///< RP: reduce requested processors (queued jobs only)
};

/// One elastic control command.
struct Ecc {
  sim::Time issue = 0;        ///< when the user issues the command
  std::int64_t job_id = 0;    ///< target job (same ID as its submission)
  EccType type = EccType::kExtendTime;
  double amount = 0;          ///< seconds for ET/RT, processors for EP/RP

  bool time_dimension() const {
    return type == EccType::kExtendTime || type == EccType::kReduceTime;
  }
  bool extension() const {
    return type == EccType::kExtendTime || type == EccType::kExtendProcs;
  }
};

/// The workload order of commands: by issue time, then target job id.
/// Workload::normalize() sorts by it stably, so commands tied on both keep
/// their file or generation order.  A function object, so the sorts that
/// take it inline the comparison.
inline constexpr auto ecc_before = [](const Ecc& a, const Ecc& b) {
  if (a.issue != b.issue) return a.issue < b.issue;
  return a.job_id < b.job_id;
};

/// CWF mnemonics: "ET", "RT", "EP", "RP".
std::string to_string(EccType type);

/// Parses a CWF mnemonic; returns false on unknown text.
bool parse_ecc_type(const std::string& text, EccType& out);

}  // namespace es::workload
