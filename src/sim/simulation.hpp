// Simulation driver: a monotonically advancing clock over an EventQueue.
#pragma once

#include <cstdint>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace es::sim {

/// Owns the clock and the event queue and exposes the scheduling primitives
/// the engine layers use.  The clock never moves backwards; scheduling an
/// event in the past is a contract violation.  The caller drives the loop:
/// pop() the next event and dispatch it on its class and tag.
class Simulation {
 public:
  Time now() const { return now_; }

  /// Schedules an event at absolute time `when` (>= now()); see
  /// EventQueue::schedule.
  EventHandle at(Time when, EventClass cls, std::uint64_t tag = 0);

  /// Cancels a pending event; see EventQueue::cancel.
  bool cancel(EventHandle handle) { return queue_.cancel(handle); }

  /// Removes the next event, advances the clock to it and counts it as
  /// processed.  Precondition: !idle().
  Event pop();

  bool idle() const { return queue_.empty(); }
  /// Time of the next live event.  Precondition: !idle().  Non-const: the
  /// queue may skim lazily cancelled entries off its top.
  Time next_event_time() { return queue_.next_time(); }
  std::uint64_t events_processed() const { return processed_; }
  const EventQueue& queue() const { return queue_; }

  // --- snapshot/restore support -------------------------------------------

  /// Sets the clock and processed-event count from a snapshot.  Only valid
  /// while re-establishing state on a fresh simulation.
  void restore_clock(Time now, std::uint64_t processed) {
    now_ = now;
    processed_ = processed;
  }

  /// Re-inserts a pending event with its original sequence number; see
  /// EventQueue::restore_event.
  EventHandle restore_event(Time at, EventClass cls, std::uint64_t tag,
                            std::uint64_t seq) {
    return queue_.restore_event(at, cls, tag, seq);
  }

  /// Restores the queue's sequence allocator and counters; see
  /// EventQueue::restore_meta.
  void restore_queue_meta(std::uint64_t next_seq,
                          const EventQueueCounters& counters) {
    queue_.restore_meta(next_seq, counters);
  }

 private:
  EventQueue queue_;
  Time now_ = 0.0;
  std::uint64_t processed_ = 0;
};

}  // namespace es::sim
