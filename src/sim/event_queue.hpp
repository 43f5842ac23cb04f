// Stable, cancellable priority queue of typed events.
//
// This is the core of the discrete-event kernel that replaces GridSim/ALEA in
// the original study.  An event is a POD (time, class, seq, tag): the class
// and the caller-defined tag say what happened and to whom, so the queue
// holds no callbacks — pop() hands the event back and the caller dispatches
// it.  Events are ordered by (time, class, insertion sequence);
// cancellation is O(1) (lazy removal on pop), which is what the elastic
// workload needs — an ET/RT command reschedules a job's completion by
// cancelling the pending finish event and inserting a new one.
//
// Storage is a slab of (tag, generation) records recycled through a free
// list, and the heap orders plain (time, class, seq, slot, generation)
// items, so the steady-state schedule/pop cycle performs no heap
// allocation.  Handles encode (slot, generation): retiring a record bumps
// its generation, so a stale handle — popped, cancelled, or pointing at a
// recycled slot — fails the generation match and cancel() returns false in
// O(1), with no side table of cancelled ids.
//
// Ordering is one binary min-heap under the strict (time, class, seq)
// total order, so the pop sequence is fully determined by the
// schedule/cancel calls — independent of slab slot reuse.  Cancelled items
// stay in the heap as residue until they surface at the top (skim) or
// outnumber the live ones (sweep, an in-place filter and re-heapify).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace es::sim {

/// Opaque handle identifying a scheduled event; used for cancellation.
struct EventHandle {
  std::uint64_t id = 0;
  bool valid() const { return id != 0; }
};

/// One event: when it fires, its class (which also breaks same-instant
/// ties), its insertion sequence (the final tie-break) and the caller's
/// tag, which together with the class says what the event is about.
struct Event {
  Time time{};
  EventClass cls{};
  std::uint64_t seq = 0;
  std::uint64_t tag = 0;
};

/// Monotonic traffic counters for one queue's lifetime.  `fired` counts
/// events popped (cancelled events never fire); `peak_pending` is the
/// high-water mark of live events.  Always: scheduled = fired + cancelled +
/// still-pending.
struct EventQueueCounters {
  std::uint64_t scheduled = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t fired = 0;
  std::uint64_t peak_pending = 0;

  /// Aggregation across runs: traffic sums, the high-water mark maxes.
  EventQueueCounters& operator+=(const EventQueueCounters& other) {
    scheduled += other.scheduled;
    cancelled += other.cancelled;
    fired += other.fired;
    peak_pending = std::max(peak_pending, other.peak_pending);
    return *this;
  }
};

/// Slab-backed binary-heap event queue with deterministic tie-breaking and
/// lazy cancellation.
class EventQueue {
 public:
  /// Schedules an event of class `cls` carrying `tag` at absolute time
  /// `at`.  Returns a handle for cancel().
  EventHandle schedule(Time at, EventClass cls, std::uint64_t tag = 0);

  /// Cancels a pending event.  Returns false if the event already fired,
  /// was already cancelled, or the handle is invalid.
  bool cancel(EventHandle handle);

  /// True when no live (non-cancelled) events remain.
  bool empty() const { return live_ == 0; }

  /// Number of live pending events.
  std::size_t size() const { return live_; }

  /// Time of the next live event.  Precondition: !empty().
  Time next_time();

  /// Removes and returns the next live event; its handle no longer
  /// cancels.  Precondition: !empty().
  Event pop();

  /// Lifetime traffic counters (see EventQueueCounters).
  const EventQueueCounters& counters() const { return counters_; }

  // --- snapshot/restore support -------------------------------------------

  /// All live events sorted by insertion sequence (a stable, deterministic
  /// serialization order).  Cancelled residue is excluded.
  std::vector<Event> pending_events() const;

  /// Re-inserts an event with its *original* sequence number during restore.
  /// Preserving seq (and restoring next_seq via restore_meta) is what makes
  /// post-restore tie-breaking — and every later schedule() — byte-identical
  /// to the uninterrupted run.  Precondition: only valid on a queue that has
  /// never allocated a sequence >= `seq` organically.
  EventHandle restore_event(Time at, EventClass cls, std::uint64_t tag,
                            std::uint64_t seq);

  /// Restores the sequence allocator and lifetime counters after the
  /// pending set has been re-established with restore_event().
  void restore_meta(std::uint64_t next_seq, const EventQueueCounters& counters);

  /// Next insertion sequence number (serialized into snapshots).
  std::uint64_t next_seq() const { return next_seq_; }

 private:
  // One slab slot.  `generation` starts at 1 (so a default EventHandle or a
  // forged id with generation 0 never matches) and is bumped every time the
  // record retires — pop and cancel both invalidate outstanding handles.
  struct Record {
    std::uint64_t tag = 0;  ///< the caller's tag, valid while armed
    std::uint32_t generation = 1;
  };

  // What the heap orders.  POD — pushing/popping never allocates beyond the
  // amortized vector growth, which reaches steady state.
  struct HeapItem {
    Time time;
    std::int32_t cls;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t generation;
  };
  struct Later {
    bool operator()(const HeapItem& a, const HeapItem& b) const {
      if (a.time != b.time) return a.time > b.time;
      if (a.cls != b.cls) return a.cls > b.cls;
      return a.seq > b.seq;
    }
  };

  static constexpr std::uint64_t make_id(std::uint32_t slot,
                                         std::uint32_t generation) {
    return (static_cast<std::uint64_t>(generation) << 32) |
           (static_cast<std::uint64_t>(slot) + 1);
  }

  /// True when `item`'s record is still armed (not cancelled/retired).
  bool armed(const HeapItem& item) const {
    return records_[item.slot].generation == item.generation;
  }

  /// Drops cancelled entries from the heap top.
  void skim();
  /// In-place removal of all cancelled residue from the heap.
  void sweep();

  /// Invalidates the slot's handles and recycles it.
  void retire(std::uint32_t slot);

  std::vector<HeapItem> heap_;       // std::push_heap with Later
  std::vector<Record> records_;      // slab, indexed by slot
  std::vector<std::uint32_t> free_;  // recycled slots
  std::size_t live_ = 0;
  std::uint64_t next_seq_ = 0;
  EventQueueCounters counters_;
};

}  // namespace es::sim
