// Dynamic algorithm-selection policy — the extension sketched in the
// paper's section V-A: "This observation can lead to design of a dynamic,
// algorithm selection policy that selects the best performing algorithm
// among Delayed-LOS and EASY, for different proportions of small and large
// sized jobs."
//
// The selector tracks the small-job fraction over a sliding window of
// arrivals and delegates each cycle to EASY when small jobs dominate
// (where Fig. 8 shows EASY ~ Delayed-LOS but both beat LOS) and to
// Delayed-LOS otherwise (where Fig. 7 shows Delayed-LOS winning outright).
#pragma once

#include <deque>
#include <memory>

#include "core/delayed_los.hpp"
#include "sched/easy.hpp"
#include "sched/scheduler.hpp"

namespace es::core {

class AdaptiveSelector : public sched::Scheduler {
 public:
  struct Options {
    /// Jobs at or below this size (processors) count as "small"; defaults to
    /// the paper's small-job range {32, 64, 96}.
    int small_threshold = 96;
    /// Delegate to EASY when the windowed small-job fraction reaches this.
    double easy_fraction = 0.7;
    /// Sliding window length, in observed arrivals.
    std::size_t window = 64;
    int max_skip_count = 7;
    int lookahead = 50;
  };

  AdaptiveSelector() : AdaptiveSelector(Options{}) {}
  explicit AdaptiveSelector(Options options);

  std::string name() const override { return "Adaptive"; }
  void cycle(sched::SchedulerContext& ctx) override;

  /// Current windowed small-job fraction (for tests/diagnostics).
  double small_fraction() const;
  /// Which delegate the last cycle used (for tests): true = EASY.
  bool using_easy() const { return using_easy_; }

  sched::DpCounters dp_counters() const override {
    return delayed_.dp_counters();
  }

 private:
  void observe_arrivals(const sched::SchedulerContext& ctx);

  Options options_;
  DelayedLos delayed_;
  sched::Easy easy_;
  std::deque<bool> window_;             ///< arrival history: small?
  workload::JobId last_seen_id_ = 0;    ///< high-water mark of observed jobs
  bool using_easy_ = false;
};

}  // namespace es::core
