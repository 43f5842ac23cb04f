#include "core/selector.hpp"

#include <algorithm>


namespace es::core {

AdaptiveSelector::AdaptiveSelector(Options options)
    : options_(options),
      delayed_(options.max_skip_count, options.lookahead),
      easy_(false) {}

void AdaptiveSelector::observe_arrivals(const sched::SchedulerContext& ctx) {
  // New arrivals appear at the back of the batch queue; job IDs are
  // arrival-ordered in generated and archive workloads, so a high-water
  // mark identifies the unseen ones.
  for (const sched::JobRun* job : *ctx.batch) {
    if (job->id <= last_seen_id_) continue;
    last_seen_id_ = std::max(last_seen_id_, job->id);
    window_.push_back(job->num <= options_.small_threshold);
    if (window_.size() > options_.window) window_.pop_front();
  }
}

double AdaptiveSelector::small_fraction() const {
  if (window_.empty()) return 0.0;
  const auto small =
      std::count(window_.begin(), window_.end(), true);
  return static_cast<double>(small) / static_cast<double>(window_.size());
}

void AdaptiveSelector::cycle(sched::SchedulerContext& ctx) {
  observe_arrivals(ctx);
  using_easy_ = small_fraction() >= options_.easy_fraction;
  if (using_easy_) {
    easy_.cycle(ctx);
  } else {
    delayed_.cycle(ctx);
  }
}

}  // namespace es::core
