#include "exp/sweep.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace es::exp {

const Aggregate* Sweep::find(const SweepPoint& point,
                             const std::string& algorithm) const {
  const auto own = point.by_algorithm.find(algorithm);
  if (own != point.by_algorithm.end()) return &own->second;
  const auto shared = references.find(algorithm);
  if (shared != references.end()) return &shared->second;
  return nullptr;
}

std::map<std::string, const Aggregate*> Sweep::merged(
    const SweepPoint& point) const {
  std::map<std::string, const Aggregate*> view;
  for (const auto& [name, aggregate] : references) view[name] = &aggregate;
  for (const auto& [name, aggregate] : point.by_algorithm)
    view[name] = &aggregate;  // a per-point series shadows a reference
  return view;
}

Sweep load_sweep(const workload::GeneratorConfig& base,
                 const std::vector<double>& loads,
                 const std::vector<std::string>& algorithms,
                 const core::AlgorithmOptions& options, int replications) {
  Sweep sweep;
  sweep.x_label = "load";

  // Every (load, algorithm) cell is an independent simulation batch; fan
  // them all across the pool at once and assemble the points serially in
  // index order afterwards, so the result is identical to the nested serial
  // loops no matter how many workers run.
  const std::size_t n_algorithms = algorithms.size();
  std::vector<std::vector<Aggregate>> cells(
      loads.size(), std::vector<Aggregate>(n_algorithms));
  util::parallel_for_each(
      loads.size() * n_algorithms, [&](std::size_t task) {
        const std::size_t li = task / n_algorithms;
        const std::size_t ai = task % n_algorithms;
        RunSpec spec;
        spec.workload = base;
        spec.workload.target_load = loads[li];
        spec.algorithm = algorithms[ai];
        spec.options = options;
        cells[li][ai] = run_replicated(spec, replications);
      });

  for (std::size_t li = 0; li < loads.size(); ++li) {
    SweepPoint point;
    point.x = loads[li];
    for (std::size_t ai = 0; ai < n_algorithms; ++ai)
      point.by_algorithm[algorithms[ai]] = std::move(cells[li][ai]);
    sweep.points.push_back(std::move(point));
  }
  return sweep;
}

Sweep skip_count_sweep(const workload::GeneratorConfig& base, int cs_min,
                       int cs_max,
                       const std::vector<std::string>& reference_algorithms,
                       const core::AlgorithmOptions& options,
                       int replications) {
  ES_EXPECTS(cs_min >= 1 && cs_min <= cs_max);
  Sweep sweep;
  sweep.x_label = "C_s";

  // Reference algorithms do not depend on C_s, so they run once and land in
  // Sweep::references — the flat lines of the paper's figures 5-6 — instead
  // of being copied into every point.  The references and the C_s points
  // are all independent, so one flat task list covers both.
  const std::size_t n_references = reference_algorithms.size();
  const std::size_t n_points = static_cast<std::size_t>(cs_max - cs_min + 1);
  std::vector<Aggregate> reference_results(n_references);
  std::vector<Aggregate> delayed_results(n_points);
  util::parallel_for_each(n_references + n_points, [&](std::size_t task) {
    RunSpec spec;
    spec.workload = base;
    spec.options = options;
    if (task < n_references) {
      spec.algorithm = reference_algorithms[task];
      reference_results[task] = run_replicated(spec, replications);
    } else {
      spec.algorithm = "Delayed-LOS";
      spec.options.max_skip_count =
          cs_min + static_cast<int>(task - n_references);
      delayed_results[task - n_references] = run_replicated(spec, replications);
    }
  });

  for (std::size_t i = 0; i < n_references; ++i)
    sweep.references[reference_algorithms[i]] =
        std::move(reference_results[i]);
  for (std::size_t i = 0; i < n_points; ++i) {
    SweepPoint point;
    point.x = cs_min + static_cast<int>(i);
    point.by_algorithm["Delayed-LOS"] = std::move(delayed_results[i]);
    sweep.points.push_back(std::move(point));
  }
  return sweep;
}

Improvement max_improvement(const Sweep& sweep, const std::string& candidate,
                            const std::string& baseline) {
  Improvement improvement;
  bool any = false;
  for (const SweepPoint& point : sweep.points) {
    const Aggregate* c = sweep.find(point, candidate);
    const Aggregate* b = sweep.find(point, baseline);
    ES_EXPECTS(c != nullptr);
    ES_EXPECTS(b != nullptr);
    improvement.utilization =
        std::max(improvement.utilization,
                 util::improvement_higher_better(b->utilization, c->utilization));
    improvement.wait = std::max(
        improvement.wait,
        util::improvement_lower_better(b->mean_wait, c->mean_wait));
    improvement.slowdown =
        std::max(improvement.slowdown,
                 util::improvement_lower_better(b->slowdown, c->slowdown));
    any = true;
  }
  ES_EXPECTS(any);
  return improvement;
}

}  // namespace es::exp
