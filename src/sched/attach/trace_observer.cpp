#include "sched/attach/trace_observer.hpp"

#include "sched/metrics.hpp"

namespace es::sched {

void TraceObserver::on_arrival(sim::Time now, const JobRun& job) {
  trace_->record(now, TraceEventKind::kArrival, job.id, job.num);
}

void TraceObserver::on_start(sim::Time now, const JobRun& job,
                             bool backfilled) {
  (void)backfilled;
  trace_->record(now, TraceEventKind::kStart, job.id, job.alloc);
}

void TraceObserver::on_finish(sim::Time now, const JobRun& job) {
  trace_->record(now,
                 job.status == JobStatus::kKilled ? TraceEventKind::kKill
                                                  : TraceEventKind::kFinish,
                 job.id, job.alloc);
}

void TraceObserver::on_ecc_applied(sim::Time now, const JobRun& job,
                                   const workload::Ecc& ecc,
                                   EccOutcome outcome) {
  TraceEventKind kind;
  switch (outcome) {
    case EccOutcome::kResizedRunning:
      kind = TraceEventKind::kResize;
      break;
    case EccOutcome::kRejectedFinished:
    case EccOutcome::kRejectedShape:
    case EccOutcome::kRejectedBounds:
    case EccOutcome::kSkippedConflict:
      kind = TraceEventKind::kEccRejected;
      break;
    default:
      kind = TraceEventKind::kEccApplied;
      break;
  }
  trace_->record(now, kind, job.id, job.num, ecc.amount);
}

void TraceObserver::on_node_down(sim::Time now, int procs) {
  trace_->record(now, TraceEventKind::kNodeDown, 0, procs);
}

void TraceObserver::on_node_up(sim::Time now, int procs) {
  trace_->record(now, TraceEventKind::kNodeUp, 0, procs);
}

void TraceObserver::on_preempt(sim::Time now, PreemptInfo& info) {
  // Fires after CheckpointObserver/FailureStatsObserver filled saved/lost
  // (chain order), so the record carries the final lost-work figure.
  trace_->record(now, TraceEventKind::kPreempt, info.job->id,
                 info.job->alloc, info.lost);
}

void TraceObserver::on_requeue(sim::Time now, const JobRun& job, int alloc) {
  trace_->record(now, TraceEventKind::kRequeue, job.id, alloc);
}

void TraceObserver::on_abandon(sim::Time now, const JobRun& job, int alloc) {
  trace_->record(now, TraceEventKind::kAbandon, job.id, alloc);
}

void TraceObserver::on_dedicated_move(sim::Time now, const JobRun& job) {
  trace_->record(now, TraceEventKind::kDedicatedMove, job.id);
}

void TraceObserver::on_collect(SimulationResult& result) const {
  result.trace = trace_;
}

}  // namespace es::sched
