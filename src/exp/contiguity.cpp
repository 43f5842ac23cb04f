#include "exp/contiguity.hpp"

#include <algorithm>
#include <deque>
#include <vector>

#include "cluster/utilization.hpp"
#include "sim/simulation.hpp"
#include "util/check.hpp"

namespace es::exp {
namespace {

struct Task {
  workload::Job spec;
  int units = 0;
  sim::Time start = -1;
  sim::Time end = -1;
  bool running = false;
  bool done = false;
};

/// The study simulator.  One instance per run.
class Study {
 public:
  Study(const workload::Workload& workload, const ContiguityPolicy& policy)
      : policy_(policy),
        grain_(std::max(1, workload.granularity)),
        machine_(std::max(1, workload.machine_procs / std::max(1, workload.granularity)),
                 policy.placement),
        utilization_(machine_.total_units()) {
    // Never grows again: the queues hold pointers into it.
    tasks_.reserve(workload.jobs.size());
    for (const workload::Job& job : workload.jobs) {
      ES_EXPECTS(!job.dedicated());  // batch-only study
      Task& task = tasks_.emplace_back();
      task.spec = job;
      task.units = (job.num + grain_ - 1) / grain_;
      ES_EXPECTS(task.units <= machine_.total_units());
    }
  }

  ContiguityResult run() {
    // Every event's tag is its task's index in tasks_.
    for (std::size_t i = 0; i < tasks_.size(); ++i)
      sim_.at(tasks_[i].spec.arr, sim::EventClass::kJobArrival, i);
    if (!tasks_.empty()) {
      first_arrival_ = tasks_.front().spec.arr;
      utilization_.record(first_arrival_, 0);
      frag_last_time_ = first_arrival_;
    }
    while (!sim_.idle()) {
      const sim::Event event = sim_.pop();
      Task* task = &tasks_[event.tag];
      switch (event.cls) {
        case sim::EventClass::kJobArrival:
          queue_.push_back(task);
          break;
        case sim::EventClass::kJobFinish:
          finish(task);
          break;
        default:
          ES_ASSERT(false);  // the study schedules no other class
      }
      cycle();
    }
    ES_ENSURES(queue_.empty());

    ContiguityResult result;
    result.migrations = migrations_;
    result.jobs_moved = jobs_moved_;
    double wait_sum = 0;
    for (const Task& task : tasks_) {
      ES_ASSERT(task.done);
      wait_sum += task.start - task.spec.arr;
      ++result.completed;
    }
    if (!tasks_.empty()) {
      result.mean_wait = wait_sum / static_cast<double>(tasks_.size());
      result.utilization =
          utilization_.mean_utilization(first_arrival_, last_end_);
      result.mean_fragmentation =
          last_end_ > first_arrival_
              ? frag_integral_ / (last_end_ - first_arrival_)
              : 0.0;
    }
    return result;
  }

 private:
  bool fits(int units) const {
    return policy_.contiguous ? machine_.fits(units)
                              : units <= machine_.free_units();
  }

  void integrate_fragmentation() {
    const sim::Time now = sim_.now();
    frag_integral_ += machine_.fragmentation() * (now - frag_last_time_);
    frag_last_time_ = now;
  }

  void start(Task* task) {
    const auto it = std::find(queue_.begin(), queue_.end(), task);
    ES_ASSERT(it != queue_.end());
    queue_.erase(it);
    // Scalar mode ignores placement: compact silently (free migration) so
    // the underlying allocator always has a hole for anything that fits by
    // total capacity.  This is the idealized reference bound.
    if (!policy_.contiguous && !machine_.fits(task->units))
      machine_.compact();
    machine_.allocate(task->spec.id, task->units);
    task->running = true;
    task->start = sim_.now();
    running_.push_back(task);
    utilization_.record(
        sim_.now(), machine_.total_units() - machine_.free_units());
    sim_.at(sim_.now() + task->spec.actual_runtime(),
            sim::EventClass::kJobFinish,
            static_cast<std::uint64_t>(task - tasks_.data()));
  }

  void finish(Task* task) {
    machine_.release(task->spec.id);
    task->running = false;
    task->done = true;
    task->end = sim_.now();
    last_end_ = std::max(last_end_, task->end);
    const auto rit = std::find(running_.begin(), running_.end(), task);
    ES_ASSERT(rit != running_.end());
    running_.erase(rit);
    utilization_.record(sim_.now(),
                        machine_.total_units() - machine_.free_units());
  }

  /// Earliest time the head's unit count frees up, ignoring contiguity —
  /// the conservative shadow bound used to gate backfilling.
  sim::Time head_shadow(const Task& head) const {
    std::vector<std::pair<sim::Time, int>> ends;
    ends.reserve(running_.size());
    for (const Task* task : running_)
      ends.emplace_back(task->start + task->spec.actual_runtime(),
                        task->units);
    std::sort(ends.begin(), ends.end());
    int available = machine_.free_units();
    for (const auto& [end, units] : ends) {
      available += units;
      if (available >= head.units) return end;
    }
    return sim_.now();  // already enough in total
  }

  void cycle() {
    integrate_fragmentation();
    bool progress = true;
    while (progress) {
      progress = false;
      // Head rule (FCFS order).
      while (!queue_.empty()) {
        Task* head = queue_.front();
        if (fits(head->units)) {
          start(head);
          progress = true;
          continue;
        }
        // Blocked.  Fragmentation-only blockage can be migrated away.
        if (policy_.contiguous && policy_.migrate &&
            head->units <= machine_.free_units()) {
          const auto moved = machine_.compact();
          ++migrations_;
          jobs_moved_ += moved.size();
          ES_ASSERT(machine_.fits(head->units));
          continue;  // head now fits
        }
        break;
      }
      if (queue_.empty() || !policy_.backfill) return;

      // EASY-style backfill behind the blocked head: a candidate may start
      // if it fits and finishes before the head's shadow bound.
      Task* head = queue_.front();
      const sim::Time shadow = head_shadow(*head);
      std::vector<Task*> candidates(queue_.begin() + 1, queue_.end());
      for (Task* task : candidates) {
        if (!fits(task->units)) continue;
        if (sim_.now() + task->spec.actual_runtime() > shadow) continue;
        start(task);
        progress = true;
      }
    }
  }

  ContiguityPolicy policy_;
  int grain_;
  cluster::ContiguousMachine machine_;
  cluster::UtilizationTracker utilization_;
  sim::Simulation sim_;
  std::vector<Task> tasks_;
  std::deque<Task*> queue_;
  std::vector<Task*> running_;
  std::uint64_t migrations_ = 0;
  std::uint64_t jobs_moved_ = 0;
  sim::Time first_arrival_ = 0;
  sim::Time last_end_ = 0;
  double frag_integral_ = 0;
  sim::Time frag_last_time_ = 0;
};

}  // namespace

ContiguityResult run_contiguity_study(const workload::Workload& workload,
                                      const ContiguityPolicy& policy) {
  Study study(workload, policy);
  return study.run();
}

}  // namespace es::exp
