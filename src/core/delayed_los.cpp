#include "core/delayed_los.hpp"

#include <vector>

#include "sched/reservation.hpp"
#include "util/check.hpp"

namespace es::core {

bool DelayedLos::step(sched::SchedulerContext& ctx, int max_skip_count,
                      int lookahead, DpWorkspace& ws,
                      bool allow_skip_increment) {
  const int m = ctx.free();
  sched::JobRun* head = ctx.batch_head();
  if (m <= 0 || head == nullptr) return false;  // Alg. 1 line 2

  const int grain = ctx.machine->granularity();
  const int head_alloc = ctx.alloc_of(*head);

  if (head_alloc <= m && head->scount >= max_skip_count) {
    // Lines 3-5: patience exhausted — start the head right away.
    ctx.start(head);
    return true;
  }

  if (head_alloc <= m) {
    // Lines 6-11: Basic_DP over the first `lookahead` waiting jobs.
    // Workspace scratch: this scan runs every cycle and must not allocate.
    std::vector<sched::JobRun*>& eligible = ws.eligible_scratch;
    std::vector<int>& weights = ws.weights_scratch;
    eligible.clear();
    weights.clear();
    int scanned = 0;
    for (sched::JobRun* job : *ctx.batch) {
      if (scanned++ >= lookahead) break;
      const int alloc = ctx.alloc_of(*job);
      if (alloc > m) continue;
      eligible.push_back(job);
      weights.push_back(alloc / grain);
    }
    const auto selected = basic_dp(weights, m / grain, ws);
    ES_ASSERT(!selected.empty());  // the head alone always fits
    bool head_selected = false;
    int started = 0;
    for (int index : selected) {
      sched::JobRun* job = eligible[static_cast<std::size_t>(index)];
      if (job == head) head_selected = true;
      ctx.start(job);
      ++started;
    }
    if (!head_selected && allow_skip_increment) ++head->scount;  // line 9
    return started > 0;
  }

  // Lines 12-20: the head does not fit — give it the shadow reservation and
  // pack the queue around it with Reservation_DP.  When node failures have
  // pushed the head's need beyond the in-service capacity, no reservation
  // is computable (no completion frees offline processors): pack without
  // one until the machine is repaired.
  sched::Freeze freeze;
  if (head_alloc <= ctx.machine->available())
    freeze = sched::shadow_for_blocked(ctx, head_alloc);
  const auto outcome = run_reservation_dp(ctx, freeze, lookahead, ws);
  return outcome.started > 0;
}

void DelayedLos::cycle(sched::SchedulerContext& ctx) {
  // Algorithm 1 describes a single pass per scheduling event; iterating to a
  // fixpoint is equivalent to re-invoking it while it makes progress and
  // avoids leaving startable capacity idle until the next event.  Skip
  // counting stays per-event (first pass only).
  bool first = true;
  while (step(ctx, max_skip_count_, lookahead_, ws_, first)) {
    first = false;
  }
}

}  // namespace es::core
