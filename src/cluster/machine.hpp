// Parallel machine model.
//
// Models the processor pool of a space-shared machine like IBM BlueGene/P:
// `total` processors, allocated in integer multiples of an allocation
// granularity (32 processors — one node card — in the paper's configuration;
// 1 for SP2-class machines in the Fig-1 validation).  The machine is a pure
// capacity ledger: placement/topology is out of scope, exactly as in the
// paper's GridSim configuration.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/time.hpp"
#include "util/check.hpp"

namespace es::cluster {

using JobId = std::int64_t;

/// Capacity ledger with per-job allocations and degraded-capacity
/// accounting: processors taken offline by a node failure leave the free
/// pool until repaired, so `available()` (total - offline) is the capacity
/// the scheduler can actually plan against.
class Machine {
 public:
  /// `total` must be a positive multiple of `granularity`.
  Machine(int total, int granularity = 1);

  /// Processors a request for `procs` actually occupies: the request rounded
  /// up to the allocation granularity.  Inline: the scheduler's eligibility
  /// scans call this once per scanned job per cycle.
  int allocation_for(int procs) const {
    ES_EXPECTS(procs > 0);
    return ((procs + granularity_ - 1) / granularity_) * granularity_;
  }

  /// True if a job of `procs` processors fits in the free pool right now.
  bool fits(int procs) const { return allocation_for(procs) <= free_; }

  /// Allocates for `job`; aborts if it does not fit or the id is active.
  /// Returns the processors actually occupied.
  int allocate(JobId job, int procs);

  /// Releases the allocation of `job`; aborts if the id is not active.
  /// Returns the processors freed.
  int release(JobId job);

  /// Shrinks or grows an existing allocation to `procs` (resource-dimension
  /// elasticity, paper section VI).  Growth must fit in the free pool.
  /// Returns the delta in occupied processors (positive = grew).
  int resize(JobId job, int procs);

  /// Removes `procs` processors from service (node failure).  They must be
  /// idle: callers preempt running jobs first so `procs <= free()`.
  void take_offline(int procs);

  /// Returns `procs` previously offline processors to service (repair).
  void bring_online(int procs);

  int total() const { return total_; }
  int granularity() const { return granularity_; }
  int free() const { return free_; }
  int used() const { return total_ - free_ - offline_; }
  int offline() const { return offline_; }
  /// Capacity currently in service: total() minus offline processors.
  int available() const { return total_ - offline_; }
  std::size_t active_jobs() const { return allocations_.size(); }
  bool is_active(JobId job) const { return allocations_.contains(job); }
  /// Processors occupied by `job` (0 if not active).
  int allocated(JobId job) const;

 private:
  int total_;
  int granularity_;
  int free_;
  int offline_ = 0;  ///< processors out of service (node failures)
  std::unordered_map<JobId, int> allocations_;
};

}  // namespace es::cluster
