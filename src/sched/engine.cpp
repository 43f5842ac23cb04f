#include "sched/engine.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <optional>

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

namespace {

/// Active-array order: ascending (planned end, job id) — the estimated
/// residual order the paper's freeze computations walk.
bool active_before(const JobRun* a, const JobRun* b) {
  const double ea = a->start_time + a->estimated_duration();
  const double eb = b->start_time + b->estimated_duration();
  if (ea != eb) return ea < eb;
  return a->id < b->id;
}

/// Job events (finish, arrival, dedicated-due) carry their job's arena
/// handle as the tag: generation in the high word, slot in the low one.
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
  ctx.queued_resizes = queued_resizes_;
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
      // Only the request changed.  Policies that cache waiting jobs'
      // allocations see the count move on an EP/RP and refresh them.
      if (ecc.type == workload::EccType::kExtendProcs ||
          ecc.type == workload::EccType::kReduceProcs)
        ++queued_resizes_;
      break;
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
  const util::TimerTicks run_start = util::timer_now();
  workload::MaterializedSource source(workload);
  return drive(source, run_start);
}

SimulationResult Engine::run_streamed(workload::JobSource& source) {
  const util::TimerTicks run_start = util::timer_now();
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
  // One loop for every run: the watchdog and an attachment's abort request
  // each cost one untaken branch per event when unset.
  std::optional<sim::Watchdog> watchdog;
  if (config_.watchdog.enabled()) watchdog.emplace(config_.watchdog);
  sim::TerminationReason reason = sim::TerminationReason::kCompleted;
  const util::TimerTicks loop_start = util::timer_now();
  while (!sim_.idle()) {
    // 1 event in util::kTimerSamplePeriod, by its ordinal, is timed whole
    // (pop, dispatch) together with any cycle it runs.
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
