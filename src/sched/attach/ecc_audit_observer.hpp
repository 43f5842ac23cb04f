// Attachment: ECC skip auditing.
//
// Counts (and warns about) elastic control commands naming job ids that
// are not in the workload — the hardened-ingestion skip counter — and, in
// paranoid mode, cross-checks the EccProcessor's command ledger against an
// independent tally of the outcomes the engine dispatched.
#pragma once

#include <cstdint>

#include "sched/attach/observer.hpp"

namespace es::sched {

class EccAuditObserver final : public EngineObserver {
 public:
  /// Hooks this observer overrides; keep in sync with the override list.
  static constexpr HookMask kHookMask =
      hook_bit(Hook::kEccApplied) | hook_bit(Hook::kEccUnknownJob) |
      hook_bit(Hook::kCollect) | hook_bit(Hook::kParanoidCheck);

  void on_ecc_applied(sim::Time now, const JobRun& job,
                      const workload::Ecc& ecc, EccOutcome outcome) override;
  void on_ecc_unknown_job(sim::Time now, const workload::Ecc& ecc) override;
  void on_collect(SimulationResult& result) const override;
  void on_paranoid_check(const ParanoidSnapshot& snapshot) const override;

 private:
  std::uint64_t unknown_ = 0;     ///< commands skipped: job id not found
  std::uint64_t dispatched_ = 0;  ///< commands the processor applied
  std::uint64_t rejected_ = 0;    ///< dispatches with a kRejected* outcome
  std::uint64_t conflicts_ = 0;   ///< same-instant contradictory/duplicate
                                  ///< commands the conflict shield skipped
};

}  // namespace es::sched
