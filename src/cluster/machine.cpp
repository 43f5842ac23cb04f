#include "cluster/machine.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace es::cluster {

Machine::Machine(int total, int granularity)
    : total_(total), granularity_(granularity), free_(total) {
  ES_EXPECTS(total > 0);
  ES_EXPECTS(granularity > 0);
  ES_EXPECTS(total % granularity == 0);
}

int Machine::allocate(JobId job, int procs) {
  const int occupied = allocation_for(procs);
  ES_EXPECTS(occupied <= free_);
  const auto [it, inserted] = allocations_.emplace(job, occupied);
  (void)it;
  ES_EXPECTS(inserted);
  free_ -= occupied;
  ES_ENSURES(free_ >= 0);
  return occupied;
}

int Machine::release(JobId job) {
  const auto it = allocations_.find(job);
  ES_EXPECTS(it != allocations_.end());
  const int occupied = it->second;
  allocations_.erase(it);
  free_ += occupied;
  ES_ENSURES(free_ <= total_);
  return occupied;
}

int Machine::resize(JobId job, int procs) {
  const auto it = allocations_.find(job);
  ES_EXPECTS(it != allocations_.end());
  const int target = allocation_for(procs);
  const int delta = target - it->second;
  ES_EXPECTS(delta <= free_);
  it->second = target;
  free_ -= delta;
  ES_ENSURES(free_ >= 0 && free_ <= total_);
  return delta;
}

void Machine::take_offline(int procs) {
  ES_EXPECTS(procs > 0);
  ES_EXPECTS(procs <= free_);
  free_ -= procs;
  offline_ += procs;
  ES_ENSURES(offline_ <= total_);
}

void Machine::bring_online(int procs) {
  ES_EXPECTS(procs > 0);
  ES_EXPECTS(procs <= offline_);
  offline_ -= procs;
  free_ += procs;
  ES_ENSURES(free_ <= total_);
}

int Machine::allocated(JobId job) const {
  const auto it = allocations_.find(job);
  return it == allocations_.end() ? 0 : it->second;
}

}  // namespace es::cluster
