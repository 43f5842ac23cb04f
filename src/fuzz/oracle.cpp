#include "fuzz/oracle.hpp"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <set>

#include "core/factory.hpp"
#include "exp/experiment.hpp"
#include "workload/source.hpp"

namespace es::fuzz {

namespace {

constexpr std::size_t kMaxViolations = 64;

/// Consecutive cycle-ends with an empty machine, full capacity and waiting
/// batch work before the oracle calls the queue stuck.  A single idle
/// cycle-end can only mean the policy declined to start the head job on an
/// empty machine — already wrong — but the generous threshold keeps the
/// check robust against future policies with deliberate one-cycle delays.
constexpr std::uint64_t kIdleStreakLimit = 10;

std::string fmt(const char* format, ...) {
  char buffer[256];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buffer, sizeof(buffer), format, args);
  va_end(args);
  return buffer;
}

/// Exact equivalence of every deterministic result field.  Returns an
/// empty string when the results match, else a description of the first
/// difference.  Doubles are compared bit-for-bit (==): a streamed run is
/// supposed to replay the identical floating-point operation sequence.
std::string diff_results(const sched::SimulationResult& a,
                         const sched::SimulationResult& b) {
  if (a.completed != b.completed || a.killed != b.killed ||
      a.abandoned != b.abandoned || a.unfinished != b.unfinished)
    return fmt("outcome counts differ (completed %llu/%llu killed %llu/%llu)",
               static_cast<unsigned long long>(a.completed),
               static_cast<unsigned long long>(b.completed),
               static_cast<unsigned long long>(a.killed),
               static_cast<unsigned long long>(b.killed));
  if (a.cycles != b.cycles || a.events != b.events)
    return fmt("cycles/events differ (%llu/%llu vs %llu/%llu)",
               static_cast<unsigned long long>(a.cycles),
               static_cast<unsigned long long>(a.events),
               static_cast<unsigned long long>(b.cycles),
               static_cast<unsigned long long>(b.events));
  if (a.utilization != b.utilization || a.mean_wait != b.mean_wait ||
      a.slowdown != b.slowdown || a.makespan != b.makespan ||
      a.first_arrival != b.first_arrival || a.last_finish != b.last_finish)
    return fmt("headline metrics differ (util %.17g vs %.17g, wait %.17g "
               "vs %.17g)",
               a.utilization, b.utilization, a.mean_wait, b.mean_wait);
  if (a.ecc.processed != b.ecc.processed ||
      a.ecc.conflicts != b.ecc.conflicts)
    return fmt("ECC ledger differs (processed %llu vs %llu)",
               static_cast<unsigned long long>(a.ecc.processed),
               static_cast<unsigned long long>(b.ecc.processed));
  if (a.failure.outages != b.failure.outages ||
      a.failure.interruptions != b.failure.interruptions ||
      a.failure.requeues != b.failure.requeues ||
      a.failure.abandoned != b.failure.abandoned ||
      a.failure.checkpoints != b.failure.checkpoints ||
      a.failure.lost_proc_seconds != b.failure.lost_proc_seconds ||
      a.failure.wasted_proc_seconds != b.failure.wasted_proc_seconds ||
      a.failure.saved_proc_seconds != b.failure.saved_proc_seconds ||
      a.failure.goodput_proc_seconds != b.failure.goodput_proc_seconds)
    return fmt("failure ledger differs (outages %llu vs %llu, requeues "
               "%llu vs %llu)",
               static_cast<unsigned long long>(a.failure.outages),
               static_cast<unsigned long long>(b.failure.outages),
               static_cast<unsigned long long>(a.failure.requeues),
               static_cast<unsigned long long>(b.failure.requeues));
  if (a.jobs.size() != b.jobs.size())
    return fmt("outcome rows differ (%zu vs %zu)", a.jobs.size(),
               b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    const sched::JobOutcome& x = a.jobs[i];
    const sched::JobOutcome& y = b.jobs[i];
    if (x.id != y.id || x.killed != y.killed || x.abandoned != y.abandoned ||
        x.interruptions != y.interruptions || x.procs != y.procs ||
        x.arrival != y.arrival || x.started != y.started ||
        x.finished != y.finished || x.wait != y.wait || x.run != y.run)
      return fmt("job %lld outcome differs (started %.17g vs %.17g, "
                 "finished %.17g vs %.17g)",
                 static_cast<long long>(x.id), x.started, y.started,
                 x.finished, y.finished);
  }
  return std::string();
}

}  // namespace

OracleObserver::OracleObserver(int machine_procs, int granularity)
    : machine_procs_(machine_procs), granularity_(granularity) {}

void OracleObserver::violation(const char* check, std::string detail) {
  if (violations_.size() < kMaxViolations) {
    violations_.push_back({check, std::move(detail)});
  } else if (violations_.size() == kMaxViolations) {
    violations_.push_back({"too-many-violations", "further checks elided"});
  }
}

void OracleObserver::check_capacity(sim::Time now) {
  const int in_service = machine_procs_ - offline_;
  if (busy_ > in_service)
    violation("capacity-overflow",
              fmt("t=%.3f busy=%d exceeds in-service capacity %d "
                  "(machine=%d offline=%d)",
                  now, busy_, in_service, machine_procs_, offline_));
  if (busy_ < 0)
    violation("capacity-negative", fmt("t=%.3f busy=%d", now, busy_));
}

void OracleObserver::on_cycle_end(const sched::CycleInfo& info) {
  if (info.batch_depth > 0 && info.active_jobs == 0 && offline_ == 0) {
    ++idle_streak_;
    max_idle_streak_ = std::max(max_idle_streak_, idle_streak_);
  } else {
    idle_streak_ = 0;
  }
}

void OracleObserver::on_start(sim::Time now, const sched::JobRun& job,
                              bool backfilled) {
  (void)backfilled;
  ++starts_;
  const auto [it, inserted] = running_alloc_.emplace(job.id, job.alloc);
  (void)it;
  if (!inserted) {
    violation("double-start",
              fmt("t=%.3f job %lld started while already running", now,
                  static_cast<long long>(job.id)));
    return;
  }
  if (job.alloc < job.num || job.alloc % granularity_ != 0)
    violation("bad-allocation",
              fmt("t=%.3f job %lld alloc=%d for num=%d granularity=%d", now,
                  static_cast<long long>(job.id), job.alloc, job.num,
                  granularity_));
  busy_ += job.alloc;
  check_capacity(now);
  idle_streak_ = 0;
}

void OracleObserver::on_finish(sim::Time now, const sched::JobRun& job) {
  const auto it = running_alloc_.find(job.id);
  if (it == running_alloc_.end()) {
    violation("finish-without-start",
              fmt("t=%.3f job %lld", now,
                  static_cast<long long>(job.id)));
    return;
  }
  busy_ -= it->second;
  running_alloc_.erase(it);
  check_capacity(now);
  idle_streak_ = 0;
}

void OracleObserver::on_ecc_applied(sim::Time now, const sched::JobRun& job,
                                    const workload::Ecc& ecc,
                                    sched::EccOutcome outcome) {
  (void)ecc;
  ++ecc_events_;
  if (outcome != sched::EccOutcome::kResizedRunning) return;
  const auto it = running_alloc_.find(job.id);
  if (it == running_alloc_.end()) {
    violation("resize-not-running",
              fmt("t=%.3f job %lld resized while not tracked running", now,
                  static_cast<long long>(job.id)));
    return;
  }
  busy_ += job.alloc - it->second;
  it->second = job.alloc;
  check_capacity(now);
}

void OracleObserver::on_ecc_unknown_job(sim::Time now,
                                        const workload::Ecc& ecc) {
  (void)now;
  (void)ecc;
  ++ecc_events_;
}

void OracleObserver::on_node_down(sim::Time now, int procs) {
  offline_ += procs;
  check_capacity(now);
  idle_streak_ = 0;
}

void OracleObserver::on_node_up(sim::Time now, int procs) {
  offline_ -= procs;
  if (offline_ < 0)
    violation("offline-negative",
              fmt("t=%.3f offline=%d after +%d", now, offline_, procs));
  idle_streak_ = 0;
}

void OracleObserver::on_preempt(sim::Time now, sched::PreemptInfo& info) {
  const workload::JobId id = info.job->id;
  const auto it = running_alloc_.find(id);
  if (it == running_alloc_.end()) {
    violation("preempt-without-start",
              fmt("t=%.3f job %lld", now, static_cast<long long>(id)));
    return;
  }
  if (it->second != info.job->alloc)
    violation("alloc-mismatch",
              fmt("t=%.3f job %lld tracked alloc=%d engine alloc=%d", now,
                  static_cast<long long>(id), it->second, info.job->alloc));
  if (info.elapsed < 0)
    violation("negative-elapsed",
              fmt("t=%.3f job %lld elapsed=%.3f", now,
                  static_cast<long long>(id), info.elapsed));
  busy_ -= it->second;
  running_alloc_.erase(it);
  check_capacity(now);
  // A requeued attempt's work is delivered here and never shows up in the
  // job's final outcome row; an abandoned attempt IS the final outcome row
  // (collect() keeps its start/end), so count it there only.
  if (info.policy != fault::RequeuePolicy::kAbandon)
    delivered_preempt_ +=
        static_cast<double>(info.job->alloc) * info.elapsed;
  idle_streak_ = 0;
}

bool algorithm_supports(const Scenario& scenario,
                        const std::string& algorithm) {
  if (scenario.workload.dedicated_count() == 0) return true;
  const core::Algorithm algo = core::make_algorithm(algorithm);
  return algo.policy->supports_dedicated();
}

RunReport check_run(const Scenario& scenario, const std::string& algorithm) {
  RunReport report;
  report.algorithm = algorithm;
  if (!algorithm_supports(scenario, algorithm)) return report;

  OracleObserver oracle(scenario.workload.machine_procs,
                        scenario.workload.granularity);
  report.result = exp::run_workload(scenario.workload, algorithm,
                                    scenario.options(), &oracle,
                                    OracleObserver::kHookMask);
  report.ran = true;
  report.violations = oracle.violations();
  const sched::SimulationResult& result = report.result;
  auto violation = [&report](const char* check, std::string detail) {
    report.violations.push_back({check, std::move(detail)});
  };

  const bool completed =
      result.termination == sim::TerminationReason::kCompleted;
  if (scenario.expect_completion && !completed)
    violation("watchdog-abort",
              std::string("run aborted: ") + sim::to_string(result.termination));
  if (oracle.max_consecutive_idle_cycles() > kIdleStreakLimit)
    violation("stuck-queue",
              fmt("machine idle with waiting batch work across %llu "
                  "consecutive cycles",
                  static_cast<unsigned long long>(
                      oracle.max_consecutive_idle_cycles())));

  // Metric sanity holds even for partial (aborted) runs.
  if (!std::isfinite(result.utilization) || result.utilization < 0 ||
      result.utilization > 1.0 + 1e-9)
    violation("utilization-range",
              fmt("utilization=%.9f", result.utilization));
  for (const double metric :
       {result.mean_wait, result.slowdown, result.mean_run, result.max_wait,
        result.makespan, result.mean_dedicated_delay})
    if (!std::isfinite(metric))
      violation("metric-not-finite", fmt("value=%f", metric));
  if (result.last_finish < result.first_arrival)
    violation("time-order", fmt("last_finish=%.3f < first_arrival=%.3f",
                                result.last_finish, result.first_arrival));

  if (!completed) return report;  // the structural checks need a full run

  if (result.unfinished != 0)
    violation("unfinished-jobs",
              fmt("%llu jobs unfinished in a completed run",
                  static_cast<unsigned long long>(result.unfinished)));
  if (oracle.busy() != 0)
    violation("capacity-leak",
              fmt("%d processors still allocated at end of run",
                  oracle.busy()));
  if (oracle.offline() != 0)
    violation("outage-leak",
              fmt("%d processors still offline at end of run",
                  oracle.offline()));

  // Every workload job finished/abandoned exactly once.
  std::set<workload::JobId> expected;
  for (const workload::Job& job : scenario.workload.jobs)
    expected.insert(job.id);
  std::set<workload::JobId> seen;
  for (const sched::JobOutcome& outcome : result.jobs) {
    if (!seen.insert(outcome.id).second)
      violation("duplicate-outcome",
                fmt("job %lld appears twice in the outcomes",
                    static_cast<long long>(outcome.id)));
    if (expected.count(outcome.id) == 0)
      violation("phantom-outcome",
                fmt("job %lld finished but was never submitted",
                    static_cast<long long>(outcome.id)));
  }
  for (const workload::JobId id : expected)
    if (seen.count(id) == 0)
      violation("lost-job", fmt("job %lld never finished nor abandoned",
                                static_cast<long long>(id)));
  if (result.completed + result.killed + result.abandoned !=
      scenario.workload.jobs.size())
    violation("outcome-count",
              fmt("completed=%llu killed=%llu abandoned=%llu != %zu jobs",
                  static_cast<unsigned long long>(result.completed),
                  static_cast<unsigned long long>(result.killed),
                  static_cast<unsigned long long>(result.abandoned),
                  scenario.workload.jobs.size()));

  double outcome_work = 0;
  for (const sched::JobOutcome& outcome : result.jobs) {
    const long long id = outcome.id;
    if (!std::isfinite(outcome.started) || !std::isfinite(outcome.finished) ||
        !std::isfinite(outcome.wait) || !std::isfinite(outcome.run))
      violation("outcome-not-finite", fmt("job %lld", id));
    if (outcome.finished < outcome.started)
      violation("negative-run", fmt("job %lld finished=%.3f < started=%.3f",
                                    id, outcome.finished, outcome.started));
    if (outcome.wait < 0)
      violation("negative-wait",
                fmt("job %lld wait=%.3f", id, outcome.wait));
    if (outcome.procs < 1 || outcome.procs > scenario.workload.machine_procs)
      violation("outcome-procs",
                fmt("job %lld procs=%d outside [1, %d]", id, outcome.procs,
                    scenario.workload.machine_procs));
    if (outcome.killed && outcome.abandoned)
      violation("conflicting-status",
                fmt("job %lld both killed and abandoned", id));
    outcome_work += static_cast<double>(outcome.procs) * outcome.run;
  }

  // Conservation of work: what the machine delivered (requeued attempts +
  // final attempts) must equal what the ledgers account for (goodput +
  // wasted + checkpoint-saved).
  const double delivered = oracle.delivered_preempt() + outcome_work;
  const double accounted = result.failure.goodput_proc_seconds +
                           result.failure.wasted_proc_seconds +
                           result.failure.saved_proc_seconds;
  if (std::abs(delivered - accounted) > 1e-6 * std::max(1.0, delivered))
    violation("conservation",
              fmt("delivered=%.6f but goodput+wasted+saved=%.6f "
                  "(goodput=%.6f wasted=%.6f saved=%.6f preempt=%.6f)",
                  delivered, accounted, result.failure.goodput_proc_seconds,
                  result.failure.wasted_proc_seconds,
                  result.failure.saved_proc_seconds,
                  oracle.delivered_preempt()));

  // ECC audit: with a processing algorithm every workload command is
  // dispatched exactly once; without one, none are.
  const core::Algorithm algo = core::make_algorithm(algorithm);
  const std::uint64_t expected_eccs =
      algo.process_eccs ? scenario.workload.eccs.size() : 0;
  if (oracle.ecc_events() != expected_eccs)
    violation("ecc-dispatch",
              fmt("%llu ECC events dispatched, expected %llu",
                  static_cast<unsigned long long>(oracle.ecc_events()),
                  static_cast<unsigned long long>(expected_eccs)));
  if (!algo.process_eccs && result.ecc.processed != 0)
    violation("ecc-dispatch",
              fmt("non-ECC algorithm processed %llu commands",
                  static_cast<unsigned long long>(result.ecc.processed)));

  // Streamed parity: the same scenario fed through a JobSource in chunks
  // of 1 and 7 jobs (run() feeds 4096) must reproduce every deterministic
  // result field bit for bit; a chunk boundary must never change a schedule.
  for (const std::size_t chunk_jobs : {std::size_t{1}, std::size_t{7}}) {
    workload::MaterializedSource source(scenario.workload, chunk_jobs);
    const std::string diff = diff_results(
        result, exp::run_source(source, algorithm, scenario.options()));
    if (!diff.empty())
      violation("streamed-divergence",
                fmt("chunks of %zu jobs: %s", chunk_jobs, diff.c_str()));
  }
  return report;
}

std::vector<Violation> check_cross(const Scenario& scenario,
                                   const std::vector<RunReport>& reports) {
  std::vector<Violation> violations;
  std::vector<const RunReport*> ran;
  for (const RunReport& report : reports)
    if (report.ran &&
        report.result.termination == sim::TerminationReason::kCompleted)
      ran.push_back(&report);
  if (ran.size() < 2) return violations;

  const RunReport& base = *ran.front();
  auto ids_of = [](const RunReport& report) {
    std::vector<workload::JobId> ids;
    ids.reserve(report.result.jobs.size());
    for (const sched::JobOutcome& outcome : report.result.jobs)
      ids.push_back(outcome.id);
    std::sort(ids.begin(), ids.end());
    return ids;
  };
  const std::vector<workload::JobId> base_ids = ids_of(base);
  for (std::size_t i = 1; i < ran.size(); ++i) {
    const RunReport& other = *ran[i];
    if (ids_of(other) != base_ids)
      violations.push_back(
          {"cross-job-set",
           base.algorithm + " and " + other.algorithm +
               " finished different job sets"});
    if (other.result.first_arrival != base.result.first_arrival)
      violations.push_back(
          {"cross-horizon",
           base.algorithm + " and " + other.algorithm +
               " disagree on the arrival horizon"});
    if (other.result.offered_load != base.result.offered_load)
      violations.push_back(
          {"cross-offered-load",
           base.algorithm + " and " + other.algorithm +
               " disagree on the offered load"});
  }

  // Without ECC processing and without failures, which jobs are killed and
  // how much work each delivers is a property of the workload alone: every
  // job runs min(actual, estimate) on the same grain-rounded allocation
  // under every policy.  Only the summation order may differ.
  if (!scenario.engine.failure.enabled) {
    const RunReport* plain_base = nullptr;
    for (const RunReport* report : ran) {
      if (core::make_algorithm(report->algorithm).process_eccs) continue;
      if (plain_base == nullptr) {
        plain_base = report;
        continue;
      }
      if (report->result.killed != plain_base->result.killed)
        violations.push_back(
            {"cross-killed",
             plain_base->algorithm + " killed " +
                 std::to_string(plain_base->result.killed) + " jobs but " +
                 report->algorithm + " killed " +
                 std::to_string(report->result.killed)});
      const double a = plain_base->result.failure.goodput_proc_seconds;
      const double b = report->result.failure.goodput_proc_seconds;
      if (std::abs(a - b) > 1e-9 * std::max(1.0, std::max(a, b)))
        violations.push_back(
            {"cross-goodput", plain_base->algorithm + " delivered " +
                                  std::to_string(a) + " proc-seconds but " +
                                  report->algorithm + " delivered " +
                                  std::to_string(b)});
    }
  }
  return violations;
}

}  // namespace es::fuzz
