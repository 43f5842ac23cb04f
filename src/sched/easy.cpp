#include "sched/easy.hpp"

namespace es::sched {

int move_due_dedicated(SchedulerContext& ctx) {
  int moved = 0;
  while (JobRun* head = ctx.dedicated_head()) {
    if (head->req_start > ctx.now) break;
    ctx.move_dedicated_head_to_batch_head();
    ++moved;
  }
  return moved;
}

void Easy::cycle(SchedulerContext& ctx) {
  if (dedicated_aware_) move_due_dedicated(ctx);

  // Freeze from the first future dedicated group (EASY-D only).
  Freeze ded;
  if (dedicated_aware_ && ctx.dedicated_head()) ded = dedicated_freeze(ctx);

  // Phase 1: start head jobs while they fit and respect the dedicated
  // reservation.
  while (JobRun* head = ctx.batch_head()) {
    const int alloc = ctx.alloc_of(*head);
    if (alloc > ctx.free()) break;
    // A due dedicated job moved to the head (forced_priority) is itself a
    // rigid commitment: it overrides the future dedicated freeze, exactly as
    // Hybrid-LOS starts C_s-saturated heads unconditionally (Alg. 2 l.35-37).
    if (!head->forced_priority && !respects(ded, ctx.now, *head, alloc))
      break;
    consume(ded, ctx.now, *head, alloc);
    ctx.start(head);
  }
  JobRun* head = ctx.batch_head();
  if (head == nullptr) return;

  // Phase 2: the head is blocked.  If it is blocked by capacity, it gets the
  // classic shadow reservation; if it is blocked only by the dedicated
  // freeze, that freeze is already the binding constraint and the head waits
  // for the dedicated placement.  If it needs more than the in-service
  // capacity (nodes down), no completion chain can seat it — backfill
  // freely and reserve once the machine is repaired.
  const int head_alloc = ctx.alloc_of(*head);
  Freeze shadow;
  if (head_alloc > ctx.free() && head_alloc <= ctx.machine->available())
    shadow = shadow_for_blocked(ctx, head_alloc);

  // Phase 3: aggressive backfill — any later job that fits now and delays
  // neither the head reservation nor the dedicated freeze.  Every job
  // occupies at least one allocation grain, so the scan ends once less than
  // a grain is free.  Iterate over a snapshot: ctx.start() mutates the queue.
  const int grain = ctx.machine->granularity();
  if (ctx.free() < grain) return;
  candidates_.assign(std::next(ctx.batch->begin()), ctx.batch->end());
  for (JobRun* job : candidates_) {
    if (ctx.free() < grain) break;
    const int alloc = ctx.alloc_of(*job);
    if (alloc > ctx.free()) continue;
    if (!respects(shadow, ctx.now, *job, alloc)) continue;
    if (!respects(ded, ctx.now, *job, alloc)) continue;
    consume(shadow, ctx.now, *job, alloc);
    consume(ded, ctx.now, *job, alloc);
    ctx.start(job);
  }
}

}  // namespace es::sched
