#include "sched/conservative.hpp"

#include <algorithm>

#include "sched/reservation.hpp"
#include "util/check.hpp"

namespace es::sched {

CapacityProfile::CapacityProfile(sim::Time now, int total,
                                 const std::vector<JobRun*>& active) {
  rebuild(now, total, active);
}

void CapacityProfile::rebuild(sim::Time now, int total,
                              const std::vector<JobRun*>& active) {
  now_ = now;
  total_ = total;
  segments_.clear();
  segments_.push_back({now, total});
  for (const JobRun* job : active) {
    const sim::Time end = planned_end(*job);
    // A job whose planned end is <= now is still *occupying* its processors
    // until its completion event fires (possibly later in this same
    // timestamp's event batch), so give it an epsilon residual rather than
    // treating its capacity as free — otherwise the profile over-commits.
    const double residual = std::max(end - now, 1e-9);
    reserve(now, residual, job->alloc);
  }
}

std::size_t CapacityProfile::split_at(sim::Time t) {
  ES_EXPECTS(t >= now_);
  // Find the segment covering t.
  std::size_t i = 0;
  while (i + 1 < segments_.size() && segments_[i + 1].begin <= t) ++i;
  if (segments_[i].begin == t) return i;
  segments_.insert(segments_.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                   {t, segments_[i].free});
  return i + 1;
}

int CapacityProfile::free_at(sim::Time t) const {
  ES_EXPECTS(t >= now_);
  int free = segments_.front().free;
  for (const Segment& seg : segments_) {
    if (seg.begin > t) break;
    free = seg.free;
  }
  return free;
}

void CapacityProfile::reserve(sim::Time start, double duration, int procs) {
  ES_EXPECTS(duration > 0);
  const std::size_t first = split_at(start);
  split_at(start + duration);
  for (std::size_t i = first;
       i < segments_.size() && segments_[i].begin < start + duration; ++i) {
    segments_[i].free -= procs;
    ES_ENSURES(segments_[i].free >= 0);
  }
}

sim::Time CapacityProfile::earliest_start(int procs, double duration) const {
  ES_EXPECTS(procs <= total_);
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    if (segments_[i].free < procs) continue;
    // Check the window [begin, begin + duration) stays feasible.
    const sim::Time start = segments_[i].begin;
    bool feasible = true;
    for (std::size_t j = i;
         j < segments_.size() && segments_[j].begin < start + duration; ++j) {
      if (segments_[j].free < procs) {
        feasible = false;
        break;
      }
    }
    if (feasible) return start;
  }
  ES_ASSERT(false);  // the final all-free segment always admits the job
  return 0;
}

void Conservative::cycle(SchedulerContext& ctx) {
  // No queued jobs: nothing to reserve or start, and building a profile has
  // no observable effect — skip the work entirely.
  if (ctx.batch->empty()) return;
  // Profile over the in-service capacity: offline processors cannot be
  // promised to anyone, and their repair time is unknown to the policy.
  const int available = ctx.machine->available();
  profile_.rebuild(ctx.now, available, *ctx.active);
  // Give every queued job (FIFO order) its earliest reservation; start the
  // ones whose reservation is "now".  Iterate a snapshot since start()
  // mutates the queue.
  std::vector<JobRun*> snapshot(ctx.batch->begin(), ctx.batch->end());
  for (JobRun* job : snapshot) {
    const int alloc = ctx.alloc_of(*job);
    // A job larger than today's degraded machine gets its reservation once
    // capacity returns; skipping it keeps the profile feasible.
    if (alloc > available) continue;
    const double duration = std::max(job->estimated_duration(), 1e-9);
    const sim::Time start = profile_.earliest_start(alloc, duration);
    profile_.reserve(start, duration, alloc);
    if (start <= ctx.now) ctx.start(job);
  }
}

}  // namespace es::sched
