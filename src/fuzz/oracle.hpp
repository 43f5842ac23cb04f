// Cross-algorithm invariant oracle.
//
// The oracle watches one run from the engine's attachment bus and checks a
// second, independent set of invariants on the finished result — the
// properties every scheduling policy must satisfy on every workload,
// however hostile.  Unlike the engine's ES_EXPECTS/paranoid checks (which
// abort the process), oracle violations are *collected as data*, so the
// atlas can keep fuzzing, shrink the scenario, and write a repro file.
//
// Per-run invariants (see docs/architecture.md "Engine invariants"):
//   * capacity: at every hook instant, allocated processors never exceed
//     the in-service capacity (machine minus offline), and never go
//     negative; offline capacity is fully restored by the end of a
//     completed run;
//   * accounting: every workload job appears in the outcomes exactly once
//     (finished, killed or abandoned); completed+killed+abandoned matches;
//     no job is left unfinished by a completed run;
//   * per-job sanity: finish >= start >= 0, non-negative waits, allocation
//     within [1, machine], every field finite;
//   * conservation: goodput + wasted + saved proc-seconds equal the
//     delivered proc-seconds the oracle integrates independently from the
//     start/preempt/finish hook stream;
//   * ECC audit: with an ECC-processing algorithm every command in the
//     workload is dispatched exactly once (applied, rejected or
//     unknown-job); without one, none are;
//   * liveness: a scenario expected to complete must terminate without
//     tripping a watchdog budget, and the machine must not sit idle with
//     runnable batch work across many consecutive scheduling cycles;
//   * streamed parity: the scenario fed through a JobSource in chunks of 1
//     and 7 jobs reproduces the observed run's result bit for bit.
//
// Cross-algorithm sanity (check_cross): every algorithm saw the same job
// set with the same arrival horizon and offered load; algorithms that
// neither process ECCs nor face failures deliver identical killed counts
// and goodput (the workload alone determines them).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "fuzz/scenario.hpp"
#include "sched/attach/observer.hpp"
#include "sched/metrics.hpp"

namespace es::fuzz {

/// One invariant violation: the check's stable identifier plus a
/// human-readable detail line (also what the shrinker matches on).
struct Violation {
  std::string check;   ///< e.g. "capacity-overflow", "conservation"
  std::string detail;
};

/// Engine-bus half of the oracle: integrates delivered work and tracks
/// live allocation against in-service capacity while the run executes.
/// One instance observes exactly one run.
class OracleObserver final : public sched::EngineObserver {
 public:
  static constexpr sched::HookMask kHookMask =
      sched::hook_bit(sched::Hook::kCycleEnd) |
      sched::hook_bit(sched::Hook::kStart) |
      sched::hook_bit(sched::Hook::kFinish) |
      sched::hook_bit(sched::Hook::kEccApplied) |
      sched::hook_bit(sched::Hook::kEccUnknownJob) |
      sched::hook_bit(sched::Hook::kNodeDown) |
      sched::hook_bit(sched::Hook::kNodeUp) |
      sched::hook_bit(sched::Hook::kPreempt);

  OracleObserver(int machine_procs, int granularity);

  void on_cycle_end(const sched::CycleInfo& info) override;
  void on_start(sim::Time now, const sched::JobRun& job,
                bool backfilled) override;
  void on_finish(sim::Time now, const sched::JobRun& job) override;
  void on_ecc_applied(sim::Time now, const sched::JobRun& job,
                      const workload::Ecc& ecc,
                      sched::EccOutcome outcome) override;
  void on_ecc_unknown_job(sim::Time now, const workload::Ecc& ecc) override;
  void on_node_down(sim::Time now, int procs) override;
  void on_node_up(sim::Time now, int procs) override;
  void on_preempt(sim::Time now, sched::PreemptInfo& info) override;

  const std::vector<Violation>& violations() const { return violations_; }

  // Final-state accessors for the post-run checks.
  int busy() const { return busy_; }
  int offline() const { return offline_; }
  double delivered_preempt() const { return delivered_preempt_; }
  std::uint64_t ecc_events() const { return ecc_events_; }
  std::uint64_t starts() const { return starts_; }
  std::uint64_t max_consecutive_idle_cycles() const {
    return max_idle_streak_;
  }

 private:
  void violation(const char* check, std::string detail);
  void check_capacity(sim::Time now);

  int machine_procs_;
  int granularity_;
  int busy_ = 0;
  int offline_ = 0;
  double delivered_preempt_ = 0;  ///< alloc x elapsed of requeued attempts
  std::uint64_t ecc_events_ = 0;
  std::uint64_t starts_ = 0;
  std::uint64_t idle_streak_ = 0;
  std::uint64_t max_idle_streak_ = 0;
  std::unordered_map<workload::JobId, int> running_alloc_;
  std::vector<Violation> violations_;
};

/// One algorithm's verdict on a scenario.
struct RunReport {
  std::string algorithm;
  bool ran = false;  ///< false when the policy cannot run this workload
                     ///< (dedicated jobs without supports_dedicated)
  sched::SimulationResult result;
  std::vector<Violation> violations;

  bool ok() const { return violations.empty(); }
};

/// Runs `scenario` under `algorithm` with the oracle attached and applies
/// every per-run check.  Returns ran=false (no violations) when the policy
/// does not support the workload's job mix.  The engine's own contracts
/// still abort the process on corruption — callers that need crash triage
/// must persist the scenario to disk first.
RunReport check_run(const Scenario& scenario, const std::string& algorithm);

/// Cross-algorithm sanity over the reports of one scenario (reports with
/// ran=false are skipped).
std::vector<Violation> check_cross(const Scenario& scenario,
                                   const std::vector<RunReport>& reports);

/// True when the named algorithm can run this scenario's job mix.
bool algorithm_supports(const Scenario& scenario, const std::string& algorithm);

}  // namespace es::fuzz
