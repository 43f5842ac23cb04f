#include "sim/simulation.hpp"

#include "util/check.hpp"

namespace es::sim {

EventHandle Simulation::at(Time when, EventClass cls, std::uint64_t tag) {
  ES_EXPECTS(when >= now_);
  return queue_.schedule(when, cls, tag);
}

Event Simulation::pop() {
  const Event event = queue_.pop();
  ES_ASSERT(event.time >= now_);
  now_ = event.time;
  ++processed_;
  return event;
}

}  // namespace es::sim
