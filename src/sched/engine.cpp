#include "sched/engine.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <limits>
#include <optional>

#include "sched/engine_params.hpp"
#include "snap/ring.hpp"
#include "snap/snapshot.hpp"
#include "util/check.hpp"
#include "util/log.hpp"
#include "util/rss.hpp"
#include "workload/load.hpp"

namespace es::sched {

Engine::Engine(const EngineConfig& config, Scheduler& policy)
    : config_(config),
      policy_(&policy),
      machine_(config.machine_procs, config.granularity),
      utilization_(config.machine_procs),
      ecc_processor_(config.machine_procs, config.granularity),
      failure_model_(config.failure, config.machine_procs,
                     config.granularity),
      checkpoint_attach_(config.checkpoint),
      trace_attach_(config.record_trace),
      progress_attach_(config.watchdog, &abort_),
      cycle_stats_attach_(policy),
      fairness_attach_(config.fairshare, config.machine_procs) {
  ecc_processor_.set_running_resize(config.allow_running_resize);
  // Register the enabled attachments in the canonical chain order (see
  // attach/observer.hpp): CheckpointObserver must precede
  // FailureStatsObserver (preempt `saved` feeds `lost`), which must
  // precede TraceObserver (the preempt record carries `lost`).  With the
  // default config nothing registers and every dispatch site loops over
  // an empty chain.  Each built-in registers with its kHookMask so hooks
  // it does not override never virtual-dispatch to it.
  if (config.checkpoint.enabled)
    attachments_.add(&checkpoint_attach_, CheckpointObserver::kHookMask);
  // The failure-stats ledger also accounts policy-initiated preemptions
  // (FairShare starvation relief), so it attaches whenever preemption can
  // occur — with or without fault injection.
  if (config.failure.enabled || policy.initiates_preemption())
    attachments_.add(&failure_attach_, FailureStatsObserver::kHookMask);
  if (config.process_eccs)
    attachments_.add(&ecc_audit_attach_, EccAuditObserver::kHookMask);
  if (config.record_trace)
    attachments_.add(&trace_attach_, TraceObserver::kHookMask);
  if (config.watchdog.no_progress_cycles > 0)
    attachments_.add(&progress_attach_, WatchdogProgressObserver::kHookMask);
  if (config.collect_cycle_stats)
    attachments_.add(&cycle_stats_attach_, CycleStatsObserver::kHookMask);
  if (config.fairshare.collect_stats)
    attachments_.add(&fairness_attach_, FairnessObserver::kHookMask);
}

// Out of line so the unique_ptr<snap::SnapshotRing> member can destroy its
// (header-incomplete) pointee.
Engine::~Engine() = default;

namespace {

/// Active-array order: ascending (planned end, job id) — the estimated
/// residual order the paper's freeze computations walk.
bool active_before(const JobRun* a, const JobRun* b) {
  const double ea = a->start_time + a->estimated_duration();
  const double eb = b->start_time + b->estimated_duration();
  if (ea != eb) return ea < eb;
  return a->id < b->id;
}

/// FNV-1a accumulator for the run fingerprint a restore validates against.
struct Fingerprint {
  std::uint64_t hash = 0xcbf29ce484222325ULL;

  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash ^= p[i];
      hash *= 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void i32(std::int32_t v) { i64(v); }
  void f64(double v) {
    std::uint64_t b = 0;
    std::memcpy(&b, &v, sizeof(b));
    u64(b);
  }
  void boolean(bool v) { u64(v ? 1 : 0); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
};

/// Hash over everything that must agree between the snapshotting run and
/// the resuming run for divergence-free resume: machine shape, the
/// behaviour-steering config knobs, the policy, and the full workload.
/// Watchdog budgets and the snapshot policy itself are deliberately
/// excluded — the resumed process may run with different guardrails.
std::uint64_t run_fingerprint(const EngineConfig& config,
                              const Scheduler& policy,
                              const workload::Workload& workload) {
  Fingerprint fp;
  // Registry-driven config portion: every fingerprint-participating
  // parameter (see sched/engine_params.cpp — watchdog budgets and snapshot
  // cadence are excluded by their no_fingerprint() marks) renders into a
  // stable name=value blob, so a knob added to the registry can never be
  // silently missing from the restore validation.  Registration needs
  // mutable storage, hence the local copy.
  EngineConfig bound = config;
  util::ParamRegistry registry;
  register_engine_params(registry, bound);
  std::string blob;
  registry.fingerprint_into(blob);
  fp.str(blob);
  fp.u64(config.failure.script.size());
  for (const fault::Outage& outage : config.failure.script) {
    fp.f64(outage.down);
    fp.f64(outage.up);
    fp.i32(outage.procs);
  }
  fp.str(policy.name());
  fp.u64(workload.jobs.size());
  for (const workload::Job& job : workload.jobs) {
    fp.i64(job.id);
    fp.f64(job.arr);
    fp.i32(job.num);
    fp.f64(job.dur);
    fp.f64(job.actual);
    fp.i32(static_cast<std::int32_t>(job.type));
    fp.f64(job.start);
    fp.i32(job.user);
    fp.i32(job.pool);
  }
  fp.u64(workload.eccs.size());
  for (const workload::Ecc& ecc : workload.eccs) {
    fp.f64(ecc.issue);
    fp.i64(ecc.job_id);
    fp.i32(static_cast<std::int32_t>(ecc.type));
    fp.f64(ecc.amount);
  }
  return fp.hash;
}

[[noreturn]] void snapshot_corrupt(const std::string& what) {
  throw snap::SnapshotError(snap::SnapshotErrorKind::kCorrupt,
                            "corrupt snapshot: " + what);
}

/// Job events (finish, arrival, dedicated-due) carry their job's arena
/// handle as the tag: generation in the high word, slot in the low one.
bool is_job_event(sim::EventClass cls) {
  return cls == sim::EventClass::kJobFinish ||
         cls == sim::EventClass::kJobArrival ||
         cls == sim::EventClass::kDedicatedDue;
}

JobRunArena::Handle tag_handle(std::uint64_t tag) {
  return JobRunArena::Handle{static_cast<std::uint32_t>(tag),
                             static_cast<std::uint32_t>(tag >> 32)};
}

}  // namespace

void Engine::insert_active(JobRun* job) {
  ES_ASSERT(job->active_index < 0);
  const auto it =
      std::lower_bound(active_.begin(), active_.end(), job, active_before);
  const auto pos = it - active_.begin();
  active_.insert(it, job);
  for (auto i = pos; i < static_cast<std::ptrdiff_t>(active_.size()); ++i)
    active_[static_cast<std::size_t>(i)]->active_index =
        static_cast<std::int32_t>(i);
}

void Engine::remove_active(JobRun* job) {
  const std::ptrdiff_t pos = job->active_index;
  ES_ASSERT(pos >= 0 && pos < static_cast<std::ptrdiff_t>(active_.size()) &&
            active_[static_cast<std::size_t>(pos)] == job);
  active_.erase(active_.begin() + pos);
  job->active_index = -1;
  for (auto i = pos; i < static_cast<std::ptrdiff_t>(active_.size()); ++i)
    active_[static_cast<std::size_t>(i)]->active_index =
        static_cast<std::int32_t>(i);
}

void Engine::reposition_active(JobRun* job) {
  // The job's sort key (planned end, or its alloc visible to profile
  // consumers) changed: re-seat it.  Erase+insert keeps every neighbour's
  // back-reference exact.
  remove_active(job);
  insert_active(job);
}

CycleInfo Engine::cycle_info() const {
  CycleInfo info;
  info.now = sim_.now();
  info.cycle = cycles_;
  info.batch_depth = batch_queue_.size();
  info.dedicated_depth = dedicated_queue_.size();
  info.active_jobs = active_.size();
  return info;
}

ParanoidSnapshot Engine::paranoid_snapshot() const {
  ParanoidSnapshot snapshot;
  snapshot.now = sim_.now();
  snapshot.cycle = cycles_;
  // Retired jobs through the fold counters, the rest from their records
  // (a retired record may stay live while commands still name it).
  snapshot.interruptions = retired_interruptions_;
  arena_.for_each_live([&](const JobRun& job) {
    if (job.status == JobStatus::kWaiting || job.status == JobStatus::kRunning)
      snapshot.interruptions +=
          static_cast<std::uint64_t>(arena_.cold(job).interruptions);
  });
  snapshot.abandoned = folded_.abandoned;
  snapshot.finishes = folded_.completed + folded_.killed;
  snapshot.active_jobs = active_.size();
  snapshot.cycles = cycles_;
  snapshot.dp_delta = policy_->dp_counters() - dp_baseline_;
  snapshot.ecc = &ecc_processor_.stats();
  return snapshot;
}

void Engine::run_cycle() {
  ES_ASSERT(!in_cycle_);
  in_cycle_ = true;
  ++cycles_;
  if (attachments_.has(Hook::kCycleBegin))
    attachments_.on_cycle_begin(cycle_info());

  SchedulerContext ctx;
  ctx.now = sim_.now();
  ctx.machine = &machine_;
  ctx.batch = &batch_queue_;
  ctx.dedicated = &dedicated_queue_;
  // The active array is maintained sorted by (planned end, id) across all
  // mutations — start, finish, preemption, ECC resize — so the cycle hands
  // policies a live view instead of copying and re-sorting a snapshot.
  // start_job inserts new runners in order, which keeps the freeze math
  // within the cycle coherent with the same (end, id) key.
  ctx.active = &active_;
  ctx.start = [this](JobRun* job) { start_job(job); };
  ctx.move_dedicated_head_to_batch_head = [this] {
    move_dedicated_head_to_batch_head();
  };
  ctx.preempt = [this](JobRun* job) { preempt_running(job); };

  {
    // Sampled with the event that runs the cycle (pump_events), so a timed
    // cycle always lies inside a timed event.
    const util::SampledScope timed(cycle_timed_, sampled_cycle_ticks_);
    policy_->cycle(ctx);
  }
  in_cycle_ = false;
  if (attachments_.has(Hook::kCycleEnd))
    attachments_.on_cycle_end(cycle_info());
  if (config_.paranoid) {
    check_invariants();
    attachments_.on_paranoid_check(paranoid_snapshot());
  }
}

void Engine::check_invariants() const {
  const double now = sim_.now();
  const unsigned long long cycle = cycles_;

  // Ledger: free + sum of active allocations == in-service capacity, and
  // the machine agrees job-by-job.  The array must also be exactly what a
  // from-scratch sort would produce — ascending (planned end, id) — with
  // every back-reference pointing at the job's own slot.
  int active_sum = 0;
  const JobRun* prev_active = nullptr;
  for (std::size_t i = 0; i < active_.size(); ++i) {
    const JobRun* job = active_[i];
    const long long id = job->id;
    ES_ASSERT_MSG(job->status == JobStatus::kRunning,
                  "t=%.3f cycle=%llu job=%lld", now, cycle, id);
    ES_ASSERT_MSG(job->alloc == machine_.allocated(job->id),
                  "t=%.3f cycle=%llu job=%lld alloc=%d ledger=%d", now, cycle,
                  id, job->alloc, machine_.allocated(job->id));
    ES_ASSERT_MSG(job->start_time >= job->arr,
                  "t=%.3f cycle=%llu job=%lld start=%.3f arr=%.3f", now,
                  cycle, id, job->start_time, job->arr);
    ES_ASSERT_MSG(job->active_index == static_cast<std::int32_t>(i),
                  "t=%.3f cycle=%llu job=%lld index=%d slot=%zu", now, cycle,
                  id, job->active_index, i);
    ES_ASSERT_MSG(!job->in_batch_queue, "t=%.3f cycle=%llu job=%lld", now,
                  cycle, id);
    if (prev_active != nullptr) {
      const double prev_end =
          prev_active->start_time + prev_active->estimated_duration();
      const double end = job->start_time + job->estimated_duration();
      ES_ASSERT_MSG(prev_end < end ||
                        (prev_end == end && prev_active->id < id),
                    "t=%.3f cycle=%llu job=%lld end=%.3f prev=%lld "
                    "prev_end=%.3f",
                    now, cycle, id, end,
                    static_cast<long long>(prev_active->id), prev_end);
    }
    prev_active = job;
    active_sum += job->alloc;
  }
  ES_ASSERT_MSG(machine_.free() + active_sum == machine_.available(),
                "t=%.3f cycle=%llu free=%d active=%d available=%d offline=%d",
                now, cycle, machine_.free(), active_sum, machine_.available(),
                machine_.offline());
  ES_ASSERT_MSG(machine_.offline() >= 0 &&
                    machine_.offline() <= machine_.total(),
                "t=%.3f cycle=%llu offline=%d", now, cycle,
                machine_.offline());
  ES_ASSERT_MSG(active_.size() == machine_.active_jobs(),
                "t=%.3f cycle=%llu active=%zu ledger=%zu", now, cycle,
                active_.size(), machine_.active_jobs());

  // Batch queue: waiting status; FIFO by arrival once past any
  // forced-priority (moved dedicated) prefix.  Jobs requeued after a
  // node-failure preemption sit wherever the requeue policy put them, so
  // they are exempt from the arrival ordering.
  bool in_prefix = true;
  double last_arr = -1;
  std::size_t batch_count = 0;
  for (const JobRun* job : batch_queue_) {
    const long long id = job->id;
    ++batch_count;
    ES_ASSERT_MSG(job->in_batch_queue && job->active_index < 0,
                  "t=%.3f cycle=%llu job=%lld", now, cycle, id);
    ES_ASSERT_MSG(job->status == JobStatus::kWaiting,
                  "t=%.3f cycle=%llu job=%lld", now, cycle, id);
    if (in_prefix && job->forced_priority) continue;
    in_prefix = false;
    if (arena_.cold(*job).interruptions > 0) continue;
    ES_ASSERT_MSG(job->arr >= last_arr,
                  "t=%.3f cycle=%llu job=%lld arr=%.3f last=%.3f", now, cycle,
                  id, job->arr, last_arr);
    last_arr = job->arr;
  }
  ES_ASSERT_MSG(batch_count == batch_queue_.size(),
                "t=%.3f cycle=%llu walked=%zu size=%zu", now, cycle,
                batch_count, batch_queue_.size());

  // Dedicated list: waiting, sorted by requested start.
  double last_start = -1;
  for (const JobRun* job : dedicated_queue_) {
    const long long id = job->id;
    ES_ASSERT_MSG(job->status == JobStatus::kWaiting,
                  "t=%.3f cycle=%llu job=%lld", now, cycle, id);
    ES_ASSERT_MSG(job->dedicated(), "t=%.3f cycle=%llu job=%lld", now, cycle,
                  id);
    ES_ASSERT_MSG(job->req_start >= last_start,
                  "t=%.3f cycle=%llu job=%lld req_start=%.3f last=%.3f", now,
                  cycle, id, job->req_start, last_start);
    last_start = job->req_start;
  }
}

void Engine::move_dedicated_head_to_batch_head() {
  ES_EXPECTS(!dedicated_queue_.empty());
  JobRun* job = dedicated_queue_.front();
  dedicated_queue_.erase(dedicated_queue_.begin());
  // Algorithm 3: the job keeps its arrival time and enters the batch queue
  // head with a saturated skip count so it is started as soon as it fits.
  job->forced_priority = true;
  job->scount = std::numeric_limits<int>::max() / 2;
  batch_queue_.push_front(job);
  attachments_.on_dedicated_move(sim_.now(), *job);
}

void Engine::on_arrival(JobRun* job) {
  // Refill when the last scheduled arrival fires: every event the next
  // window schedules is then strictly in the future, so the heap order is
  // identical to an up-front schedule (see source.hpp for the window
  // contracts that make this safe at equal timestamps).
  ES_ASSERT(arrivals_pending_ > 0);
  if (--arrivals_pending_ == 0) refill();
  ES_ASSERT(job->status == JobStatus::kWaiting);
  if (job->dedicated()) {
    // Keep W^d sorted by (requested start, arrival).
    auto it = std::lower_bound(
        dedicated_queue_.begin(), dedicated_queue_.end(), job,
        [](const JobRun* a, const JobRun* b) {
          if (a->req_start != b->req_start) return a->req_start < b->req_start;
          return a->arr < b->arr;
        });
    dedicated_queue_.insert(it, job);
  } else {
    batch_queue_.push_back(job);
  }
  attachments_.on_arrival(sim_.now(), *job);
  run_cycle();
}

void Engine::on_ecc(const workload::Ecc& ecc) {
  const auto it = by_id_.find(ecc.job_id);
  if (it == by_id_.end()) {
    attachments_.on_ecc_unknown_job(sim_.now(), ecc);
    return;
  }
  JobRun* job = it->second;
  JobRunCold& cold = arena_.cold(*job);
  ES_ASSERT(cold.ecc_pending > 0);
  --cold.ecc_pending;
  const EccOutcome outcome =
      ecc_processor_.apply(ecc, *job, sim_.now(), machine_.free());
  attachments_.on_ecc_applied(sim_.now(), *job, ecc, outcome);
  switch (outcome) {
    case EccOutcome::kResizedRunning: {
      // The processor already scaled the remaining time work-conservingly
      // and set the new allocation; mirror it in the machine ledger and
      // move the completion event.
      machine_.resize(job->id, job->num);
      ES_ASSERT(machine_.allocated(job->id) == job->alloc);
      utilization_.record(sim_.now(), machine_.used());
      const bool cancelled = sim_.cancel(job->finish_event);
      ES_ASSERT(cancelled);
      attachments_.on_checkpoint_replan(*job);
      // Both the planned end (rescaled remaining time) and the allocation
      // changed: re-seat the job in the active order.
      reposition_active(job);
      const sim::Time finish =
          std::max(sim_.now(), job->start_time + job->run_duration());
      job->finish_event =
          sim_.at(finish, sim::EventClass::kJobFinish, job_tag(job));
      break;
    }
    case EccOutcome::kAppliedRunning: {
      // Kill-by (and possibly true runtime) moved: reschedule completion
      // and re-seat the job under its new planned end.
      const bool cancelled = sim_.cancel(job->finish_event);
      ES_ASSERT(cancelled);
      attachments_.on_checkpoint_replan(*job);
      reposition_active(job);
      const sim::Time finish =
          std::max(sim_.now(), job->start_time + job->run_duration());
      job->finish_event =
          sim_.at(finish, sim::EventClass::kJobFinish, job_tag(job));
      break;
    }
    case EccOutcome::kCompletedJob: {
      const bool cancelled = sim_.cancel(job->finish_event);
      ES_ASSERT(cancelled);
      attachments_.on_checkpoint_replan(*job);  // the run was cut short
      finish_job(job);
      break;
    }
    case EccOutcome::kAppliedQueued:
    case EccOutcome::kRejectedFinished:
    case EccOutcome::kRejectedShape:
    case EccOutcome::kRejectedBounds:
    case EccOutcome::kSkippedConflict:
      break;
  }
  // A finished job whose last pending command just dispatched is released
  // now (kCompletedJob released it inside finish_job).
  if (outcome != EccOutcome::kCompletedJob) maybe_release(job);
  run_cycle();
}

void Engine::schedule_next_outage(sim::Time from) {
  fault::Outage outage;
  if (!failure_model_.next(from, outage)) return;
  // The NodeDown event's payload: the outage chain keeps at most one
  // NodeDown pending, so a single slot suffices.
  has_pending_outage_ = true;
  pending_outage_ = outage;
  sim_.at(std::max(outage.down, sim_.now()), sim::EventClass::kNodeDown);
}

void Engine::preempt_victim() {
  // Deterministic victim rule: the most recently started running job loses
  // the least sunk work; ties (same start instant) break toward the higher
  // job id so replays are bit-identical.
  ES_EXPECTS(!active_.empty());
  auto it = std::max_element(active_.begin(), active_.end(),
                             [](const JobRun* a, const JobRun* b) {
                               if (a->start_time != b->start_time)
                                 return a->start_time < b->start_time;
                               return a->id < b->id;
                             });
  preempt_job(*it, config_.requeue);
}

void Engine::preempt_running(JobRun* job) {
  // Policy-initiated (fair-share starvation relief): the policy picked the
  // victim; the displaced job always re-enters at the batch *tail* — it
  // lost its turn to a starving pool, so jumping the queue head would undo
  // the relief.  The shared path still applies the retry cap, so a
  // thrash-prone job is eventually abandoned rather than looping forever.
  ES_EXPECTS(in_cycle_);
  ES_EXPECTS(job != nullptr);
  ES_EXPECTS(job->status == JobStatus::kRunning);
  preempt_job(job, fault::RequeuePolicy::kRequeueTail);
}

void Engine::preempt_job(JobRun* job, fault::RequeuePolicy requeue_policy) {
  remove_active(job);
  const bool cancelled = sim_.cancel(job->finish_event);
  ES_ASSERT(cancelled);
  machine_.release(job->id);
  JobRunCold& cold = arena_.cold(*job);
  ++cold.interruptions;
  // Retry budget: past the cap a job is abandoned even under a requeue
  // policy (see FailureModelConfig::max_interruptions).
  fault::RequeuePolicy policy = requeue_policy;
  if (config_.failure.max_interruptions > 0 &&
      cold.interruptions >= config_.failure.max_interruptions)
    policy = fault::RequeuePolicy::kAbandon;
  // The attachments do the preemption ledger work: CheckpointObserver
  // banks the saved work into the job, FailureStatsObserver turns the
  // unsaved remainder into lost/wasted work, TraceObserver records the
  // final figure (chain order guarantees that sequence).
  PreemptInfo info;
  info.job = job;
  info.elapsed = sim_.now() - job->start_time;
  info.policy = policy;
  attachments_.on_preempt(sim_.now(), info);
  utilization_.record(sim_.now(), machine_.used());

  const int alloc = job->alloc;
  job->finish_event = {};
  switch (policy) {
    case fault::RequeuePolicy::kRequeueHead:
      // Front of the batch queue with saturated priority, like a moved
      // dedicated job: it restarts as soon as it fits again.
      job->status = JobStatus::kWaiting;
      job->alloc = 0;
      job->start_time = -1;
      job->forced_priority = true;
      job->scount = std::numeric_limits<int>::max() / 2;
      batch_queue_.push_front(job);
      attachments_.on_requeue(sim_.now(), *job, alloc);
      break;
    case fault::RequeuePolicy::kRequeueTail:
      job->status = JobStatus::kWaiting;
      job->alloc = 0;
      job->start_time = -1;
      batch_queue_.push_back(job);
      attachments_.on_requeue(sim_.now(), *job, alloc);
      break;
    case fault::RequeuePolicy::kAbandon:
      // Keeps its alloc/start_time so the fold sees the partial run.
      job->status = JobStatus::kAbandoned;
      cold.end_time = sim_.now();
      last_finish_ = std::max(last_finish_, cold.end_time);
      utilization_.mark();
      retire(job);
      attachments_.on_abandon(sim_.now(), *job, alloc);
      maybe_release(job);
      break;
  }
}

void Engine::on_node_down() {
  // A copy: the outage chain may schedule the next outage into the slot.
  const fault::Outage outage = pending_outage_;
  has_pending_outage_ = false;  // this event is no longer pending
  if (all_jobs_finished()) return;  // run is over; let the queue drain
  // Never take more than what is still in service (a scripted storm may
  // overlap outages).
  const int procs = std::min(outage.procs, machine_.available());
  if (procs > 0) {
    // Cover the lost capacity: first from the free pool, then by preempting
    // running jobs until the failed processors are idle.
    while (machine_.free() < procs) preempt_victim();
    machine_.take_offline(procs);
    utilization_.record_capacity(sim_.now(), machine_.available());
    attachments_.on_node_down(sim_.now(), procs);
    sim_.at(std::max(outage.up, sim_.now()), sim::EventClass::kNodeUp,
            static_cast<std::uint64_t>(procs));
  } else {
    // Nothing left to fail right now; keep the outage chain alive.
    schedule_next_outage(outage.up);
  }
  run_cycle();
}

void Engine::on_node_up(int procs) {
  machine_.bring_online(procs);
  utilization_.record_capacity(sim_.now(), machine_.available());
  attachments_.on_node_up(sim_.now(), procs);
  if (!all_jobs_finished()) schedule_next_outage(sim_.now());
  run_cycle();
}

void Engine::start_job(JobRun* job) {
  ES_EXPECTS(job->status == JobStatus::kWaiting);
  // Unlink from the batch queue (policies start batch-queue members only;
  // dedicated jobs are moved to the batch queue first) — O(1) through the
  // intrusive links instead of a linear scan.
  ES_EXPECTS(job->in_batch_queue);
  const bool backfilled = batch_queue_.front() != job;
  batch_queue_.erase(job);

  job->alloc = machine_.allocate(job->id, job->num);
  job->status = JobStatus::kRunning;
  job->start_time = sim_.now();
  // Plan checkpoint overhead before seating the job: it is part of the
  // (planned end, id) sort key insert_active files the job under.
  attachments_.on_checkpoint_replan(*job);
  insert_active(job);
  utilization_.record(sim_.now(), machine_.used());
  attachments_.on_start(sim_.now(), *job, backfilled);

  const sim::Time finish = sim_.now() + job->run_duration();
  job->finish_event =
      sim_.at(finish, sim::EventClass::kJobFinish, job_tag(job));
}

void Engine::finish_job(JobRun* job) {
  ES_EXPECTS(job->status == JobStatus::kRunning);
  machine_.release(job->id);
  remove_active(job);

  job->status = job->actual_time > job->req_time ? JobStatus::kKilled
                                                 : JobStatus::kCompleted;
  JobRunCold& cold = arena_.cold(*job);
  cold.end_time = sim_.now();
  last_finish_ = std::max(last_finish_, cold.end_time);
  retire(job);
  attachments_.on_finish(sim_.now(), *job);
  utilization_.record(sim_.now(), machine_.used());
  utilization_.mark();
  // Release only after the attachments read the record; `job` dangles past
  // this point once no scheduled command still targets it.
  maybe_release(job);
}

JobRun* Engine::build_job(const workload::Job& spec, int ecc_count) {
  ES_EXPECTS(spec.num >= 1);
  ES_EXPECTS(machine_.allocation_for(spec.num) <= machine_.total());
  ES_EXPECTS(spec.dur > 0);
  if (spec.dedicated()) {
    ES_EXPECTS(policy_->supports_dedicated());
    ES_EXPECTS(spec.start >= 0);
  }
  JobRun* run = arena_.claim();
  run->id = spec.id;
  run->arr = spec.arr;
  run->req_time = spec.dur;
  run->actual_time = spec.actual_runtime();
  run->num = spec.num;
  run->req_start = spec.start;
  // Pool tags are 8-bit in the hot record; out-of-range tags saturate (the
  // registry caps configured pools at 255, so this only trims hand-built
  // workloads).
  run->pool = static_cast<std::uint8_t>(std::clamp(spec.pool, 0, 255));
  if (config_.process_eccs) {
    index_job(run);
    arena_.cold(*run).ecc_pending = ecc_count;
  }
  ++jobs_built_;
  return run;
}

void Engine::index_job(JobRun* job) {
  const auto [pos, inserted] = by_id_.emplace(job->id, job);
  (void)pos;
  ES_EXPECTS(inserted);  // duplicate live job IDs: malformed workload
}

SimulationResult Engine::finish_run(util::TimerTicks run_start) {
  if (termination_ == sim::TerminationReason::kCompleted) {
    // Every job must have completed: the scheduler invariant tests rely on
    // it.  A watchdog abort leaves the run mid-flight by design, so the
    // postconditions only hold for completed runs.
    ES_ENSURES(batch_queue_.empty());
    ES_ENSURES(dedicated_queue_.empty());
    ES_ENSURES(active_.empty());
    ES_ENSURES(source_exhausted_ && jobs_retired_ == jobs_built_);
    ES_ENSURES(!total_jobs_ || *total_jobs_ == jobs_built_);
    ES_ENSURES(arena_.live() == 0 && by_id_.empty() && ahead_.empty());
    ES_ENSURES(eccs_in_flight_.size() == 0);
    ES_ENSURES(machine_.offline() == 0);  // every outage was repaired
  }

  SimulationResult result = collect();
  result.perf.dp = policy_->dp_counters() - dp_baseline_;
  result.perf.events = sim_.queue().counters();
  // The cycles' share of the sampled events' time, applied to the whole
  // event loop.  Each timed cycle lies inside its timed event, and the loop
  // inside the run, so cycle_seconds <= wall_seconds holds exactly.
  if (sampled_event_ticks_ > 0)
    result.perf.cycle_seconds =
        util::timer_seconds(loop_ticks_) *
        (static_cast<double>(sampled_cycle_ticks_) /
         static_cast<double>(sampled_event_ticks_));
  result.perf.wall_seconds =
      util::timer_seconds(util::timer_now() - run_start);
  result.perf.peak_rss_bytes = util::peak_rss_bytes();
  result.perf.peak_live_jobs = arena_.slots();
  return result;
}

SimulationResult Engine::run(const workload::Workload& workload) {
  ES_EXPECTS(!restored_);  // a restored engine continues via resume()
  const util::TimerTicks run_start = util::timer_now();
  materialized_.emplace(workload);
  // Hashing the workload and building a registry is pure overhead on the
  // (vast majority of) runs that never snapshot.
  if (config_.snapshot.every_cycles > 0)
    workload_fingerprint_ = run_fingerprint(config_, *policy_, workload);
  return drive(*materialized_, run_start);
}

SimulationResult Engine::run_streamed(workload::JobSource& source) {
  ES_EXPECTS(!restored_);  // a restored engine continues via resume()
  const util::TimerTicks run_start = util::timer_now();
  // A snapshot records the materialized workload's cursor; other sources
  // have none to seek.
  ES_EXPECTS(config_.snapshot.every_cycles == 0 && !snapshot_sink_);
  ES_EXPECTS(source.machine_procs() == config_.machine_procs);
  return drive(source, run_start);
}

SimulationResult Engine::drive(workload::JobSource& source,
                              util::TimerTicks run_start) {
  ES_EXPECTS(source_ == nullptr);  // one run per engine
  dp_baseline_ = policy_->dp_counters();
  source_ = &source;
  source_exhausted_ = false;
  total_jobs_ = source.total_jobs();
  refill();
  // The utilization baseline lands at the first arrival even though later
  // chunks are scheduled after it (records are time-ordered because
  // refills fire at the last scheduled arrival).
  utilization_.record(first_arrival_, 0);
  if (failure_model_.enabled() && jobs_fed_ > 0) {
    utilization_.record_capacity(first_arrival_, machine_.available());
    schedule_next_outage(first_arrival_);
  }
  pump_events();
  return finish_run(run_start);
}

void Engine::schedule_arrival(JobRun* job) {
  // Feeds run at the last scheduled arrival, so every new event is at or
  // after now; the chunks' tie-group contract guarantees strictly later
  // arrivals, keeping heap order identical to an up-front schedule.
  ES_EXPECTS(job->arr >= sim_.now());
  ++arrivals_pending_;
  const std::uint64_t tag = job_tag(job);
  sim_.at(job->arr, sim::EventClass::kJobArrival, tag);
  if (job->dedicated() && job->req_start > job->arr)
    sim_.at(job->req_start, sim::EventClass::kDedicatedDue, tag);
}

void Engine::schedule_ecc(const workload::Ecc& ecc, std::uint64_t tag) {
  ES_ASSERT(ecc.issue >= sim_.now());
  eccs_in_flight_.put(tag, ecc);
  sim_.at(ecc.issue, sim::EventClass::kEccArrival, tag);
}

void Engine::refill() {
  // A chunk without jobs (a workload of commands only) schedules no
  // arrival to trigger the next refill, so keep pulling.
  while (arrivals_pending_ == 0 && !source_exhausted_) load_next_chunk();
}

void Engine::load_next_chunk() {
  if (!source_->next_chunk(chunk_)) {
    source_exhausted_ = true;
    return;
  }
  ES_EXPECTS(chunk_.ecc_counts.size() == chunk_.jobs.size());
  ES_EXPECTS(chunk_.ahead_ecc_counts.size() == chunk_.ahead.size());
  if (jobs_fed_ == 0) {
    warn_if_unbounded_retry(chunk_.jobs);
  } else if (config_.keep_job_outcomes && total_jobs_ &&
             outcomes_.capacity() < *total_jobs_) {
    // A trace longer than one chunk reserves its outcome ledger exactly
    // (doubling growth would hold up to twice the ledger); a one-chunk
    // run's ledger is small, and reserving it up front only fragments the
    // per-run heap.
    outcomes_.reserve(static_cast<std::size_t>(*total_jobs_));
  }
  // Sized once per chunk: the index never rehashes while the chunk feeds.
  if (config_.process_eccs)
    by_id_.reserve(by_id_.size() + chunk_.jobs.size() + chunk_.ahead.size());
  // Jobs a command of this chunk names before their own chunk: records
  // now, arrivals with their chunk.  Without ECC processing no command is
  // scheduled, so nothing needs them early.
  if (config_.process_eccs) {
    for (std::size_t i = 0; i < chunk_.ahead.size(); ++i) {
      JobRun* job = build_job(chunk_.ahead[i], chunk_.ahead_ecc_counts[i]);
      ahead_.emplace(job->id, job);
    }
  }
  for (std::size_t i = 0; i < chunk_.jobs.size(); ++i) {
    const workload::Job& spec = chunk_.jobs[i];
    note_offered(spec);
    JobRun* job = nullptr;
    if (!ahead_.empty()) {
      const auto it = ahead_.find(spec.id);
      if (it != ahead_.end()) {
        job = it->second;
        ahead_.erase(it);
      }
    }
    if (job == nullptr) job = build_job(spec, chunk_.ecc_counts[i]);
    schedule_arrival(job);
  }
  if (config_.process_eccs) {
    // Chunks concatenate to the trace's command order, so the running
    // counter is each command's index in the trace: its event tag.
    for (const workload::Ecc& ecc : chunk_.eccs)
      schedule_ecc(ecc, eccs_scheduled_++);
  }
}

void Engine::note_offered(const workload::Job& spec) {
  if (jobs_fed_++ == 0) {
    first_arrival_ = spec.arr;
    offered_origin_ = spec.arr;
    offered_last_ = spec.arr;
  }
  offered_proc_seconds_ +=
      static_cast<double>(spec.num) * spec.actual_runtime();
  const sim::Time begin = spec.dedicated() && spec.start >= 0
                              ? std::max(spec.arr, spec.start)
                              : spec.arr;
  offered_last_ = std::max(offered_last_, begin + spec.actual_runtime());
}

double Engine::offered_load() const {
  if (jobs_fed_ == 0) return 0.0;
  const double span = offered_last_ - offered_origin_;
  if (span <= 0) return 0.0;
  return offered_proc_seconds_ / (span * machine_.total());
}

void Engine::retire(JobRun* job) {
  const JobOutcome outcome = outcome_of(job);
  ++sums_.count;
  if (outcome.dedicated) {
    sums_.dedicated_delay_sum += outcome.wait;
    if (outcome.wait == 0) ++folded_.dedicated_on_time;
    ++sums_.dedicated_count;
  }
  sums_.wait_sum += outcome.wait;
  sums_.run_sum += outcome.run;
  const double run_floor = std::max(outcome.run, 1e-9);
  sums_.sd_sum += (outcome.wait + outcome.run) / run_floor;
  sums_.bsd_sum += (outcome.wait + outcome.run) / std::max(outcome.run, 10.0);
  folded_.max_wait = std::max(folded_.max_wait, outcome.wait);
  const double work = static_cast<double>(outcome.procs) * outcome.run;
  if (outcome.abandoned) {
    ++folded_.abandoned;
    wasted_deferred_.push_back(work);
  } else if (outcome.killed) {
    ++folded_.killed;
    wasted_deferred_.push_back(work);
  } else {
    ++folded_.completed;
    folded_.failure.goodput_proc_seconds += work;
  }
  if (config_.keep_job_outcomes) outcomes_.push_back(outcome);
  retired_interruptions_ += static_cast<std::uint64_t>(outcome.interruptions);
  ++jobs_retired_;
}

void Engine::maybe_release(JobRun* job) {
  if (job->status == JobStatus::kWaiting || job->status == JobStatus::kRunning)
    return;
  // Late commands must still find the record, so the EccProcessor audits
  // them as rejected-after-finish.
  if (arena_.cold(*job).ecc_pending > 0) return;
  if (config_.process_eccs) {
    const std::size_t erased = by_id_.erase(job->id);
    ES_ASSERT(erased == 1);
    (void)erased;
  }
  arena_.release(job);
}

SimulationResult Engine::collect() {
  // An aborted run's offered load still covers the whole trace: run the
  // rest of the source through the accumulators.
  while (!source_exhausted_) {
    if (!source_->next_chunk(chunk_)) {
      source_exhausted_ = true;
      break;
    }
    for (const workload::Job& spec : chunk_.jobs) note_offered(spec);
  }
  SimulationResult result;
  result.completed = 0;
  result.killed = 0;
  result.first_arrival = first_arrival_;
  result.last_finish = last_finish_;
  result.makespan = last_finish_ - first_arrival_;
  result.cycles = cycles_;
  result.events = sim_.events_processed();
  result.termination = termination_;
  result.unfinished = jobs_fed_ - jobs_retired_;
  result.offered_load = offered_load();
  result.ecc = ecc_processor_.stats();
  // Attachments deposit their ledgers (failure stats, checkpoint stats,
  // the audit trace, cycle histograms, ECC skip counts) before the folded
  // per-job counters and the deferred wasted-work terms are added.
  attachments_.on_collect(result);
  result.completed = folded_.completed;
  result.killed = folded_.killed;
  result.abandoned = folded_.abandoned;
  result.dedicated_on_time = folded_.dedicated_on_time;
  result.max_wait = folded_.max_wait;
  for (const double work : wasted_deferred_)
    result.failure.wasted_proc_seconds += work;
  result.failure.goodput_proc_seconds = folded_.failure.goodput_proc_seconds;
  if (config_.keep_job_outcomes) result.jobs = std::move(outcomes_);
  finalize_aggregate(result);
  return result;
}

std::uint64_t Engine::job_tag(const JobRun* job) const {
  const JobRunArena::Handle handle = arena_.handle_of(*job);
  return (static_cast<std::uint64_t>(handle.gen) << 32) | handle.slot;
}

JobRun* Engine::live_job(std::uint64_t tag) {
  JobRun* job = arena_.get(tag_handle(tag));
  ES_ASSERT(job != nullptr);  // a job's events never outlive its record
  return job;
}

void Engine::dispatch(const sim::Event& event) {
  switch (event.cls) {
    case sim::EventClass::kJobFinish:
      finish_job(live_job(event.tag));
      run_cycle();
      return;
    case sim::EventClass::kNodeUp:
      on_node_up(static_cast<int>(event.tag));
      return;
    case sim::EventClass::kNodeDown:
      on_node_down();
      return;
    case sim::EventClass::kEccArrival:
      on_ecc(eccs_in_flight_.take(event.tag));
      return;
    case sim::EventClass::kDedicatedDue:
      // Only a trigger for a cycle at the requested start instant; the job
      // may already have been moved or started.
      (void)live_job(event.tag);
      run_cycle();
      return;
    case sim::EventClass::kJobArrival:
      on_arrival(live_job(event.tag));
      return;
    case sim::EventClass::kOther:
      break;
  }
  ES_ASSERT(false);  // the engine never schedules kOther
}

void Engine::pump_events() {
  // One loop for every run: the watchdog, an attachment's abort request
  // and the snapshot cadence each cost one untaken branch per event when
  // unset.
  const bool snapshotting = config_.snapshot.every_cycles > 0;
  std::optional<sim::Watchdog> watchdog;
  if (config_.watchdog.enabled()) watchdog.emplace(config_.watchdog);
  sim::TerminationReason reason = sim::TerminationReason::kCompleted;
  const util::TimerTicks loop_start = util::timer_now();
  while (!sim_.idle()) {
    // 1 event in util::kTimerSamplePeriod, by its ordinal, is timed whole
    // (pop, dispatch, snapshot) together with any cycle it runs.
    cycle_timed_ = util::timer_sampled(sim_.events_processed());
    const util::SampledScope timed(cycle_timed_, sampled_event_ticks_);
    if (watchdog && watchdog->exhausted(sim_, reason)) break;
    dispatch(sim_.pop());
    if (abort_.requested) {
      // An attachment (the watchdog-progress observer) asked for a typed
      // abort from inside the event loop.
      reason = abort_.reason;
      break;
    }
    // Snapshots land only here, *between* events: the engine is never
    // mid-cycle, so the serialized state is a consistent event boundary.
    if (snapshotting) maybe_snapshot();
  }
  cycle_timed_ = false;
  loop_ticks_ += util::timer_now() - loop_start;
  termination_ = reason;
  if (termination_ != sim::TerminationReason::kCompleted) {
    // A source of unknown length counts the jobs fed so far.
    const std::uint64_t done = jobs_retired_;
    const std::uint64_t total = total_jobs_.value_or(jobs_fed_);
    ES_LOG_WARN(
        "watchdog abort (%s) at t=%.3f after %llu events: %llu/%llu jobs "
        "finished; reporting partial metrics",
        sim::to_string(termination_), sim_.now(),
        static_cast<unsigned long long>(sim_.events_processed()),
        static_cast<unsigned long long>(done),
        static_cast<unsigned long long>(total));
  }
}

void Engine::maybe_snapshot() {
  if (cycles_ - last_snapshot_cycle_ < config_.snapshot.every_cycles) return;
  last_snapshot_cycle_ = cycles_;
  snap::SnapshotWriter writer;
  snapshot(writer);
  const std::string image = writer.finish();
  ++snapshots_taken_;
  if (snapshot_sink_) snapshot_sink_(image);
  if (!config_.snapshot.dir.empty()) {
    if (!ring_)
      ring_ = std::make_unique<snap::SnapshotRing>(config_.snapshot.dir,
                                                   config_.snapshot.keep);
    ring_->commit(image);
  }
}

JobRun* Engine::job_by_id(workload::JobId id) const {
  const auto it = by_id_.find(id);
  if (it == by_id_.end())
    snapshot_corrupt("unknown job id " + std::to_string(id));
  return it->second;
}

void Engine::snapshot(snap::SnapshotWriter& writer) const {
  ES_EXPECTS(!in_cycle_);  // only valid at an event boundary
  ES_EXPECTS(workload_fingerprint_.has_value() && materialized_);

  writer.begin_section("META");
  writer.u64(*workload_fingerprint_);
  writer.u64(*total_jobs_);
  writer.end_section();

  // Clock + event-queue allocator/counters.  next_seq must round-trip so
  // post-restore schedule() calls draw the sequence numbers the original
  // run would have drawn — same-instant tie-breaking depends on them.
  writer.begin_section("CLCK");
  writer.f64(sim_.now());
  writer.u64(sim_.events_processed());
  writer.u64(sim_.queue().next_seq());
  const sim::EventQueueCounters& counters = sim_.queue().counters();
  writer.u64(counters.scheduled);
  writer.u64(counters.cancelled);
  writer.u64(counters.fired);
  writer.u64(counters.peak_pending);
  writer.end_section();

  // Pending events as (time, class, original seq, tag).  Job events store
  // the job id in place of the arena handle they carry, which a restored
  // engine's arena need not reproduce.
  writer.begin_section("EVTS");
  const std::vector<sim::Event> pending = sim_.queue().pending_events();
  writer.u64(pending.size());
  for (const sim::Event& event : pending) {
    std::uint64_t tag = event.tag;
    if (is_job_event(event.cls)) {
      const JobRun* job = arena_.get(tag_handle(event.tag));
      ES_ASSERT(job != nullptr);
      tag = static_cast<std::uint64_t>(job->id);
    }
    writer.f64(event.time);
    writer.i32(static_cast<std::int32_t>(event.cls));
    writer.u64(event.seq);
    writer.u64(tag);
  }
  writer.end_section();

  // The live records' runtime state, in id order (independent of arena
  // layout).  Immutable specs are rebuilt from the workload; container
  // membership is restored from the ORDR section; finish events from EVTS.
  std::vector<const JobRun*> live;
  live.reserve(arena_.live());
  arena_.for_each_live([&live](const JobRun& job) { live.push_back(&job); });
  std::sort(live.begin(), live.end(),
            [](const JobRun* a, const JobRun* b) { return a->id < b->id; });
  writer.begin_section("JOBS");
  writer.u64(live.size());
  for (const JobRun* job : live) {
    const JobRunCold& cold = arena_.cold(*job);
    writer.i64(job->id);
    writer.boolean(ahead_.count(job->id) > 0);
    writer.i32(cold.ecc_pending);
    writer.f64(job->req_time);
    writer.f64(job->actual_time);
    writer.i32(job->num);
    writer.i32(job->alloc);
    writer.f64(job->req_start);
    writer.i32(job->scount);
    writer.boolean(job->forced_priority);
    writer.i32(cold.interruptions);
    writer.f64(job->ckpt_progress);
    writer.f64(job->ckpt_overhead_planned);
    writer.u8(static_cast<std::uint8_t>(job->status));
    writer.f64(job->start_time);
    writer.f64(cold.end_time);
    writer.i32(job->frenum);
  }
  writer.end_section();

  // Container order: batch FIFO (intrusive links), dedicated list and
  // active array (sorted by planned end).
  writer.begin_section("ORDR");
  writer.u64(batch_queue_.size());
  for (const JobRun* job : batch_queue_) writer.i64(job->id);
  writer.u64(dedicated_queue_.size());
  for (const JobRun* job : dedicated_queue_) writer.i64(job->id);
  writer.u64(active_.size());
  for (const JobRun* job : active_) writer.i64(job->id);
  writer.end_section();

  writer.begin_section("MACH");
  const cluster::MachineState machine_state = machine_.save_state();
  writer.i32(machine_state.free);
  writer.i32(machine_state.offline);
  writer.u64(machine_state.allocations.size());
  for (const auto& [job, procs] : machine_state.allocations) {
    writer.i64(job);
    writer.i32(procs);
  }
  writer.end_section();

  // The tracker keeps no busy steps: its integral scalars and the capacity
  // steps (one pair per outage edge) are the whole ledger.
  writer.begin_section("UTIL");
  const cluster::UtilizationState util_state = utilization_.save_state();
  writer.i32(util_state.busy);
  writer.f64(util_state.first);
  writer.f64(util_state.last);
  writer.boolean(util_state.started);
  writer.f64(util_state.integral);
  writer.f64(util_state.mark_time);
  writer.f64(util_state.mark_integral);
  writer.u64(util_state.capacity_steps.size());
  for (const auto& [time, available] : util_state.capacity_steps) {
    writer.f64(time);
    writer.i32(available);
  }
  writer.end_section();

  writer.begin_section("ECCP");
  const EccProcessor::State ecc_state = ecc_processor_.save_state();
  writer.u64(ecc_state.stats.processed);
  writer.u64(ecc_state.stats.extensions);
  writer.u64(ecc_state.stats.reductions);
  writer.u64(ecc_state.stats.rejected);
  writer.u64(ecc_state.stats.unknown_job);
  writer.u64(ecc_state.stats.after_finish);
  writer.u64(ecc_state.stats.running_resizes);
  writer.u64(ecc_state.stats.conflicts);
  writer.f64(ecc_state.stats.time_added);
  writer.f64(ecc_state.stats.time_removed);
  writer.f64(ecc_state.stats.procs_added);
  writer.f64(ecc_state.stats.procs_removed);
  writer.i64(ecc_state.group_job);
  writer.f64(ecc_state.group_time);
  writer.boolean(ecc_state.group_time_dim);
  writer.boolean(ecc_state.group_proc_dim);
  writer.end_section();

  // Failure model draw position + the payload of the (at most one) pending
  // outage-chain event.
  writer.begin_section("FAIL");
  writer.boolean(has_pending_outage_);
  writer.f64(pending_outage_.down);
  writer.f64(pending_outage_.up);
  writer.i32(pending_outage_.procs);
  const fault::FailureModel::State fail_state = failure_model_.save_state();
  for (const std::uint64_t word : fail_state.rng.s) writer.u64(word);
  writer.f64(fail_state.rng.cached_normal);
  writer.boolean(fail_state.rng.has_cached_normal);
  writer.u64(fail_state.script_index);
  writer.f64(fail_state.cursor);
  writer.end_section();

  // Engine scalars.  DP counters are policy-cumulative (the policy object
  // outlives engines), so the snapshot stores the *delta* accumulated by
  // this run; restore re-anchors the baseline below the resuming policy's
  // own counter.
  writer.begin_section("ENGN");
  writer.u64(cycles_);
  writer.f64(first_arrival_);
  writer.f64(last_finish_);
  const DpCounters dp_delta = policy_->dp_counters() - dp_baseline_;
  writer.u64(dp_delta.calls);
  writer.u64(dp_delta.fast_path);
  writer.u64(0);  // format-3 slot of the retired DP result cache
  writer.u64(dp_delta.table_runs);
  writer.u64(dp_delta.table_cells);
  // Source cursor: the next window's start, the current window's unfired
  // arrivals (its pending events travel in EVTS) and whether the source
  // has run dry.
  writer.u64(materialized_->next_job());
  writer.u64(materialized_->next_ecc());
  writer.u64(arrivals_pending_);
  writer.boolean(source_exhausted_);
  writer.end_section();

  // The retired jobs, folded: feed and retire counters, the metric sums,
  // the deferred wasted-work terms, the kept outcomes and the offered-load
  // accumulators.
  writer.begin_section("FOLD");
  writer.u64(jobs_built_);
  writer.u64(jobs_retired_);
  writer.u64(jobs_fed_);
  writer.u64(eccs_scheduled_);
  writer.u64(retired_interruptions_);
  writer.f64(sums_.wait_sum);
  writer.f64(sums_.run_sum);
  writer.f64(sums_.sd_sum);
  writer.f64(sums_.bsd_sum);
  writer.f64(sums_.dedicated_delay_sum);
  writer.u64(sums_.dedicated_count);
  writer.u64(sums_.count);
  writer.u64(folded_.completed);
  writer.u64(folded_.killed);
  writer.u64(folded_.abandoned);
  writer.u64(folded_.dedicated_on_time);
  writer.f64(folded_.max_wait);
  writer.f64(folded_.failure.goodput_proc_seconds);
  writer.u64(wasted_deferred_.size());
  for (const double work : wasted_deferred_) writer.f64(work);
  writer.u64(outcomes_.size());
  for (const JobOutcome& outcome : outcomes_) {
    writer.i64(outcome.id);
    writer.boolean(outcome.dedicated);
    writer.boolean(outcome.killed);
    writer.boolean(outcome.abandoned);
    writer.i32(outcome.interruptions);
    writer.i32(outcome.procs);
    writer.f64(outcome.arrival);
    writer.f64(outcome.started);
    writer.f64(outcome.finished);
    writer.f64(outcome.wait);
    writer.f64(outcome.run);
  }
  writer.f64(offered_proc_seconds_);
  writer.f64(offered_origin_);
  writer.f64(offered_last_);
  writer.end_section();

  // Every built-in attachment is a plain member that exists whether or not
  // it is registered, so all seven ledgers serialize unconditionally — the
  // layout never depends on which observers the config enabled.
  writer.begin_section("ATCH");
  checkpoint_attach_.save_state(writer);
  failure_attach_.save_state(writer);
  ecc_audit_attach_.save_state(writer);
  trace_attach_.save_state(writer);
  progress_attach_.save_state(writer);
  cycle_stats_attach_.save_state(writer);
  fairness_attach_.save_state(writer);
  writer.end_section();

  // Policy cross-cycle state (empty for every memoryless factory policy;
  // the AdaptiveSelector writes its sliding window).
  writer.begin_section("POLI");
  policy_->save_state(writer);
  writer.end_section();
}

void Engine::restore(const workload::Workload& workload,
                     snap::SnapshotReader& reader) {
  ES_EXPECTS(!restored_ && source_ == nullptr);  // first call, fresh engine

  materialized_.emplace(workload);
  source_ = &*materialized_;
  total_jobs_ = materialized_->total_jobs();
  workload_fingerprint_ = run_fingerprint(config_, *policy_, workload);

  reader.open_section("META");
  const std::uint64_t fingerprint = reader.u64();
  const std::uint64_t job_count = reader.u64();
  if (fingerprint != *workload_fingerprint_)
    throw snap::SnapshotError(
        snap::SnapshotErrorKind::kMismatch,
        "snapshot belongs to a different run (workload/config/policy "
        "fingerprint disagrees)");
  if (job_count != *total_jobs_)
    snapshot_corrupt("job count disagrees with the workload");

  reader.open_section("ENGN");
  cycles_ = reader.u64();
  first_arrival_ = reader.f64();
  last_finish_ = reader.f64();
  DpCounters dp_delta;
  dp_delta.calls = reader.u64();
  dp_delta.fast_path = reader.u64();
  reader.u64();  // format-3 slot of the retired DP result cache
  dp_delta.table_runs = reader.u64();
  dp_delta.table_cells = reader.u64();
  const std::uint64_t next_job = reader.u64();
  const std::uint64_t next_ecc = reader.u64();
  const std::uint64_t arrivals_pending = reader.u64();
  source_exhausted_ = reader.boolean();
  if (next_job > workload.jobs.size() || next_ecc > workload.eccs.size() ||
      arrivals_pending > next_job)
    snapshot_corrupt("window cursor out of range");
  // The feed refills until an arrival is pending or the source runs dry.
  if (source_exhausted_ != (arrivals_pending == 0))
    snapshot_corrupt("source exhaustion disagrees with pending arrivals");
  materialized_->seek(next_job, next_ecc);
  arrivals_pending_ = arrivals_pending;
  // Re-anchor mod 2^64: baseline = current − delta, so the final
  // (counters − baseline) report equals delta + whatever the resumed run
  // adds — exactly the uninterrupted run's figure.
  dp_baseline_ = policy_->dp_counters() - dp_delta;

  reader.open_section("JOBS");
  const std::uint64_t live_count = reader.u64();
  if (live_count > workload.jobs.size())
    snapshot_corrupt("more live records than jobs");
  std::uint64_t in_flight = 0;
  for (std::uint64_t i = 0; i < live_count; ++i) {
    const workload::JobId id = reader.i64();
    const bool ahead = reader.boolean();
    const std::int32_t ecc_pending = reader.i32();
    const std::size_t index = materialized_->index_of(id);
    if (index == workload::MaterializedSource::kNoJob)
      snapshot_corrupt("unknown job id " + std::to_string(id));
    if (by_id_.count(id) > 0) snapshot_corrupt("job record saved twice");
    if (ecc_pending < 0 || (!config_.process_eccs && ecc_pending != 0))
      snapshot_corrupt("pending command count out of range");
    if (ahead != (index >= next_job))
      snapshot_corrupt("handed-ahead record disagrees with the cursor");
    JobRun* job = build_job(workload.jobs[index], ecc_pending);
    if (!config_.process_eccs) index_job(job);  // for the lookups below
    JobRunCold& cold = arena_.cold(*job);
    if (ahead) {
      ahead_.emplace(id, job);
      materialized_->mark_handed_ahead(index);
    }
    job->req_time = reader.f64();
    job->actual_time = reader.f64();
    job->num = reader.i32();
    job->alloc = reader.i32();
    job->req_start = reader.f64();
    job->scount = reader.i32();
    job->forced_priority = reader.boolean();
    cold.interruptions = reader.i32();
    job->ckpt_progress = reader.f64();
    job->ckpt_overhead_planned = reader.f64();
    const std::uint8_t status = reader.u8();
    if (status > static_cast<std::uint8_t>(JobStatus::kAbandoned))
      snapshot_corrupt("job status out of range");
    job->status = static_cast<JobStatus>(status);
    job->start_time = reader.f64();
    cold.end_time = reader.f64();
    job->frenum = reader.i32();
    if (job->status == JobStatus::kWaiting ||
        job->status == JobStatus::kRunning)
      ++in_flight;
    else if (ecc_pending == 0)
      snapshot_corrupt("retired record without pending commands");
  }

  reader.open_section("ORDR");
  const std::uint64_t batch_count = reader.u64();
  for (std::uint64_t i = 0; i < batch_count; ++i) {
    JobRun* job = job_by_id(reader.i64());
    if (job->in_batch_queue) snapshot_corrupt("job enqueued twice");
    batch_queue_.push_back(job);
  }
  const std::uint64_t dedicated_count = reader.u64();
  for (std::uint64_t i = 0; i < dedicated_count; ++i)
    dedicated_queue_.push_back(job_by_id(reader.i64()));
  const std::uint64_t active_count = reader.u64();
  for (std::uint64_t i = 0; i < active_count; ++i) {
    JobRun* job = job_by_id(reader.i64());
    if (job->active_index >= 0) snapshot_corrupt("job active twice");
    job->active_index = static_cast<std::int32_t>(active_.size());
    active_.push_back(job);
  }

  reader.open_section("FOLD");
  jobs_built_ = reader.u64();
  jobs_retired_ = reader.u64();
  jobs_fed_ = reader.u64();
  eccs_scheduled_ = reader.u64();
  retired_interruptions_ = reader.u64();
  if (jobs_fed_ != next_job || jobs_built_ < jobs_retired_ ||
      jobs_built_ - jobs_retired_ != in_flight ||
      eccs_scheduled_ > workload.eccs.size())
    snapshot_corrupt("feed counters disagree with the live records");
  sums_.wait_sum = reader.f64();
  sums_.run_sum = reader.f64();
  sums_.sd_sum = reader.f64();
  sums_.bsd_sum = reader.f64();
  sums_.dedicated_delay_sum = reader.f64();
  sums_.dedicated_count = reader.u64();
  sums_.count = reader.u64();
  folded_.completed = reader.u64();
  folded_.killed = reader.u64();
  folded_.abandoned = reader.u64();
  folded_.dedicated_on_time = reader.u64();
  folded_.max_wait = reader.f64();
  folded_.failure.goodput_proc_seconds = reader.f64();
  if (sums_.count != jobs_retired_ ||
      folded_.completed + folded_.killed + folded_.abandoned != jobs_retired_)
    snapshot_corrupt("fold counters disagree with the retired jobs");
  const std::uint64_t wasted_count = reader.u64();
  if (wasted_count != folded_.killed + folded_.abandoned)
    snapshot_corrupt("deferred wasted work disagrees with the fold");
  wasted_deferred_.reserve(wasted_count);
  for (std::uint64_t i = 0; i < wasted_count; ++i)
    wasted_deferred_.push_back(reader.f64());
  const std::uint64_t outcome_count = reader.u64();
  if (outcome_count != (config_.keep_job_outcomes ? jobs_retired_ : 0))
    snapshot_corrupt("kept outcomes disagree with the retired jobs");
  if (config_.keep_job_outcomes) outcomes_.reserve(*total_jobs_);
  for (std::uint64_t i = 0; i < outcome_count; ++i) {
    JobOutcome outcome;
    outcome.id = reader.i64();
    outcome.dedicated = reader.boolean();
    outcome.killed = reader.boolean();
    outcome.abandoned = reader.boolean();
    outcome.interruptions = reader.i32();
    outcome.procs = reader.i32();
    outcome.arrival = reader.f64();
    outcome.started = reader.f64();
    outcome.finished = reader.f64();
    outcome.wait = reader.f64();
    outcome.run = reader.f64();
    outcomes_.push_back(outcome);
  }
  offered_proc_seconds_ = reader.f64();
  offered_origin_ = reader.f64();
  offered_last_ = reader.f64();

  reader.open_section("MACH");
  cluster::MachineState machine_state;
  machine_state.free = reader.i32();
  machine_state.offline = reader.i32();
  const std::uint64_t allocation_count = reader.u64();
  machine_state.allocations.reserve(allocation_count);
  for (std::uint64_t i = 0; i < allocation_count; ++i) {
    const cluster::JobId job = reader.i64();
    const int procs = reader.i32();
    machine_state.allocations.emplace_back(job, procs);
  }
  machine_.restore_state(machine_state);

  reader.open_section("UTIL");
  cluster::UtilizationState util_state;
  util_state.busy = reader.i32();
  util_state.first = reader.f64();
  util_state.last = reader.f64();
  util_state.started = reader.boolean();
  util_state.integral = reader.f64();
  util_state.mark_time = reader.f64();
  util_state.mark_integral = reader.f64();
  const std::uint64_t capacity_count = reader.u64();
  util_state.capacity_steps.reserve(capacity_count);
  for (std::uint64_t i = 0; i < capacity_count; ++i) {
    const sim::Time time = reader.f64();
    util_state.capacity_steps.emplace_back(time, reader.i32());
  }
  utilization_.restore_state(util_state);

  reader.open_section("ECCP");
  EccProcessor::State ecc_state;
  ecc_state.stats.processed = reader.u64();
  ecc_state.stats.extensions = reader.u64();
  ecc_state.stats.reductions = reader.u64();
  ecc_state.stats.rejected = reader.u64();
  ecc_state.stats.unknown_job = reader.u64();
  ecc_state.stats.after_finish = reader.u64();
  ecc_state.stats.running_resizes = reader.u64();
  ecc_state.stats.conflicts = reader.u64();
  ecc_state.stats.time_added = reader.f64();
  ecc_state.stats.time_removed = reader.f64();
  ecc_state.stats.procs_added = reader.f64();
  ecc_state.stats.procs_removed = reader.f64();
  ecc_state.group_job = reader.i64();
  ecc_state.group_time = reader.f64();
  ecc_state.group_time_dim = reader.boolean();
  ecc_state.group_proc_dim = reader.boolean();
  ecc_processor_.restore_state(ecc_state);

  reader.open_section("FAIL");
  has_pending_outage_ = reader.boolean();
  pending_outage_.down = reader.f64();
  pending_outage_.up = reader.f64();
  pending_outage_.procs = reader.i32();
  fault::FailureModel::State fail_state;
  for (std::uint64_t& word : fail_state.rng.s) word = reader.u64();
  fail_state.rng.cached_normal = reader.f64();
  fail_state.rng.has_cached_normal = reader.boolean();
  fail_state.script_index = reader.u64();
  fail_state.cursor = reader.f64();
  failure_model_.restore_state(fail_state);

  // Re-insert the pending event set in saved (seq) order, translating each
  // job id back to its record's handle and refilling the in-flight ECC
  // store; restore_meta afterwards overwrites the counters the replay
  // inflated and re-seats the sequence allocator.
  reader.open_section("CLCK");
  const sim::Time now = reader.f64();
  const std::uint64_t processed = reader.u64();
  const std::uint64_t next_seq = reader.u64();
  sim::EventQueueCounters counters;
  counters.scheduled = reader.u64();
  counters.cancelled = reader.u64();
  counters.fired = reader.u64();
  counters.peak_pending = reader.u64();

  reader.open_section("EVTS");
  const std::uint64_t event_count = reader.u64();
  bool saw_outage_event = false;
  std::uint64_t arrival_events = 0;
  std::uint64_t next_ecc_tag = 0;  // ECCs were scheduled in tag order
  for (std::uint64_t i = 0; i < event_count; ++i) {
    const sim::Time time = reader.f64();
    const std::int32_t cls_raw = reader.i32();
    const std::uint64_t seq = reader.u64();
    std::uint64_t tag = reader.u64();
    if (seq >= next_seq) snapshot_corrupt("event seq beyond allocator");
    const auto cls = static_cast<sim::EventClass>(cls_raw);
    switch (cls) {
      case sim::EventClass::kJobFinish: {
        JobRun* job = job_by_id(static_cast<workload::JobId>(tag));
        if (job->status != JobStatus::kRunning)
          snapshot_corrupt("finish event for a job that is not running");
        if (job->finish_event.valid())
          snapshot_corrupt("duplicate finish event");
        job->finish_event = sim_.restore_event(time, cls, job_tag(job), seq);
        continue;  // the one class whose handle the engine keeps
      }
      case sim::EventClass::kJobArrival:
        ++arrival_events;
        tag = job_tag(job_by_id(static_cast<workload::JobId>(tag)));
        break;
      case sim::EventClass::kDedicatedDue:
        tag = job_tag(job_by_id(static_cast<workload::JobId>(tag)));
        break;
      case sim::EventClass::kEccArrival:
        if (tag >= eccs_scheduled_)
          snapshot_corrupt("ECC event index out of range");
        if (tag < next_ecc_tag)
          snapshot_corrupt("ECC events out of scheduling order");
        next_ecc_tag = tag + 1;
        eccs_in_flight_.put(tag, workload.eccs[tag]);
        break;
      case sim::EventClass::kNodeDown:
        if (!has_pending_outage_ || saw_outage_event)
          snapshot_corrupt("NodeDown event without a pending outage");
        saw_outage_event = true;
        break;
      case sim::EventClass::kNodeUp:
        if (tag == 0 || tag > static_cast<std::uint64_t>(machine_.total()))
          snapshot_corrupt("NodeUp processor count out of range");
        break;
      default:
        snapshot_corrupt("unknown event class");
    }
    sim_.restore_event(time, cls, tag, seq);
  }
  if (has_pending_outage_ && !saw_outage_event)
    snapshot_corrupt("pending outage without its NodeDown event");
  if (arrival_events != arrivals_pending_)
    snapshot_corrupt("pending arrivals disagree with the window cursor");
  sim_.restore_clock(now, processed);
  sim_.restore_queue_meta(next_seq, counters);

  reader.open_section("ATCH");
  checkpoint_attach_.restore_state(reader);
  failure_attach_.restore_state(reader);
  ecc_audit_attach_.restore_state(reader);
  trace_attach_.restore_state(reader);
  progress_attach_.restore_state(reader);
  cycle_stats_attach_.restore_state(reader);
  fairness_attach_.restore_state(reader);

  reader.open_section("POLI");
  policy_->restore_state(reader);

  // Without ECC processing the index served only the lookups above.
  if (!config_.process_eccs) by_id_.clear();
  last_snapshot_cycle_ = cycles_;
  restored_ = true;
}

SimulationResult Engine::resume(const workload::Workload& workload,
                                snap::SnapshotReader& reader) {
  const util::TimerTicks run_start = util::timer_now();
  restore(workload, reader);
  // The check a fresh run makes on its first chunk, on the same window.
  workload::WorkloadCursor cursor(workload);
  workload::WorkloadCursor::Window first;
  if (cursor.next(first))
    warn_if_unbounded_retry(std::span<const workload::Job>(workload.jobs)
                                .subspan(first.job_begin,
                                         first.job_end - first.job_begin));
  pump_events();
  return finish_run(run_start);
}

void Engine::warn_if_unbounded_retry(
    std::span<const workload::Job> jobs) const {
  // Footgun detector: stochastic failures, capless restart-from-scratch
  // requeue, no checkpointing, and an MTBF below the mean job runtime mean
  // the expected number of attempts per job grows like e^(runtime/MTBF) —
  // the run may effectively never terminate.  Warn once per process.
  if (!config_.failure.enabled || !config_.failure.script.empty()) return;
  if (config_.failure.max_interruptions > 0) return;
  if (config_.requeue == fault::RequeuePolicy::kAbandon) return;
  if (config_.checkpoint.enabled) return;
  if (jobs.empty()) return;
  double runtime_sum = 0;
  for (const workload::Job& job : jobs) runtime_sum += job.actual_runtime();
  const double mean_runtime =
      runtime_sum / static_cast<double>(jobs.size());
  if (config_.failure.mtbf >= mean_runtime) return;
  static std::atomic<bool> warned{false};
  if (warned.exchange(true)) return;
  ES_LOG_WARN(
      "failure MTBF (%.0f s) is below the mean job runtime (%.0f s) with an "
      "uncapped restart-from-scratch requeue policy: expected attempts grow "
      "like e^(runtime/MTBF), so the run may not terminate.  Consider "
      "--fail-retry-cap, checkpointing (--ckpt-interval), or a watchdog "
      "budget (--max-events / --wall-budget).",
      config_.failure.mtbf, mean_runtime);
}

JobOutcome Engine::outcome_of(const JobRun* job) const {
  const JobRunCold& cold = arena_.cold(*job);
  JobOutcome outcome;
  outcome.id = job->id;
  outcome.dedicated = job->dedicated();
  outcome.killed = job->status == JobStatus::kKilled;
  outcome.abandoned = job->status == JobStatus::kAbandoned;
  outcome.interruptions = cold.interruptions;
  outcome.procs = job->alloc;
  outcome.arrival = job->arr;
  outcome.started = job->start_time;
  outcome.finished = cold.end_time;
  outcome.run = cold.end_time - job->start_time;
  outcome.wait = job->dedicated()
                     ? std::max(0.0, job->start_time - job->req_start)
                     : job->start_time - job->arr;
  return outcome;
}

void Engine::finalize_aggregate(SimulationResult& result) const {
  const double n = static_cast<double>(sums_.count);
  if (n > 0) {
    result.mean_wait = sums_.wait_sum / n;
    result.mean_run = sums_.run_sum / n;
    result.mean_per_job_slowdown = sums_.sd_sum / n;
    result.mean_bounded_slowdown = sums_.bsd_sum / n;
    // Paper definition: ratio of averages.
    result.slowdown =
        result.mean_run > 0
            ? (result.mean_wait + result.mean_run) / result.mean_run
            : 0.0;
  }
  if (sums_.dedicated_count > 0)
    result.mean_dedicated_delay =
        sums_.dedicated_delay_sum / static_cast<double>(sums_.dedicated_count);
  result.utilization =
      utilization_.mean_utilization(first_arrival_, last_finish_);
  if (failure_model_.enabled() && last_finish_ > first_arrival_) {
    result.failure.down_proc_seconds =
        static_cast<double>(machine_.total()) *
            (last_finish_ - first_arrival_) -
        utilization_.available_proc_seconds(first_arrival_, last_finish_);
  }
}

SimulationResult simulate(const EngineConfig& config, Scheduler& policy,
                          const workload::Workload& workload) {
  Engine engine(config, policy);
  return engine.run(workload);
}

}  // namespace es::sched
