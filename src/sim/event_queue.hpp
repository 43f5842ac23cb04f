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
// list, and the heap and lanes (below) order plain (time, class, seq, slot,
// generation) items, so the steady-state schedule/pop cycle performs no
// heap allocation.  Handles encode (slot, generation): retiring a record bumps
// its generation, so a stale handle — popped, cancelled, or pointing at a
// recycled slot — fails the generation match and cancel() returns false in
// O(1), with no side table of cancelled ids.
//
// Ordering is the strict (time, class, seq) total order, kept by a binary
// min-heap plus two FIFO lanes, one each for the source-fed classes
// kJobArrival and kEccArrival.  An event of a lane class is appended to its
// lane when the lane is empty or the event sorts after the lane's back;
// anything else goes to the heap.  Each lane therefore stays sorted, so its
// front is its least entry, and pop() takes the least of the heap top and
// the two lane fronts.  Because the order is strict and total, that least
// entry is the same one a single heap would hold at its top: the pop
// sequence is fully determined by the schedule/cancel calls, independent of
// which structure holds an event and of slab slot reuse.  The split is
// purely a cost one: a feed window's few thousand in-order arrivals and
// commands (the source contracts in workload/source.hpp keep them in
// order) wait in O(1) appends instead of deepening every heap sift.
// Cancelled entries stay where they are as residue until they surface at a
// front (skim) or outnumber the live ones (sweep, an in-place filter of the
// heap and the lanes, then a re-heapify).
#pragma once

#include <algorithm>
#include <array>
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
/// high-water mark of live events, whether they wait in the heap or in a
/// lane.  Always: scheduled = fired + cancelled + still-pending.
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

/// Slab-backed event queue (binary heap plus FIFO lanes) with deterministic
/// tie-breaking and lazy cancellation.
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

  /// All live events sorted by insertion sequence (a stable, deterministic
  /// order).  Cancelled residue is excluded.
  std::vector<Event> pending_events() const;

 private:
  /// schedule() with the sequence number already drawn.
  EventHandle insert(Time at, EventClass cls, std::uint64_t tag,
                     std::uint64_t seq);

  // One slab slot.  `generation` starts at 1 (so a default EventHandle or a
  // forged id with generation 0 never matches) and is bumped every time the
  // record retires — pop and cancel both invalidate outstanding handles.
  struct Record {
    std::uint64_t tag = 0;  ///< the caller's tag, valid while armed
    std::uint32_t generation = 1;
  };

  // What the heap and the lanes order.  POD — pushing/popping never
  // allocates beyond the amortized vector growth, which reaches steady
  // state.
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

  // A FIFO of one class's entries, sorted under Later.  [head, end) is
  // pending; the consumed prefix is dropped when the lane drains (clear) or
  // when an append finds the vector full and at least half consumed
  // (in-place compaction), so a lane that never drains reuses its capacity
  // instead of growing.  Invariant: empty() implies items.empty().
  struct Lane {
    std::vector<HeapItem> items;
    std::size_t head = 0;

    bool empty() const { return head == items.size(); }
    const HeapItem& front() const { return items[head]; }
    std::size_t stored() const { return items.size() - head; }
    /// True when `item` can be appended without breaking the lane's order.
    bool accepts(const HeapItem& item) const {
      return items.empty() || Later{}(item, items.back());
    }
    // Inline so that insert's heap path, which shares `item` with
    // this one, can build it in place rather than through a stack copy.
    void push(const HeapItem& item) {
      if (items.size() == items.capacity() && 2 * head >= items.size()) {
        items.erase(items.begin(),
                    items.begin() + static_cast<std::ptrdiff_t>(head));
        head = 0;
      }
      items.push_back(item);
    }
    HeapItem pop_front();
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

  /// Removes and returns the heap top, live or not.
  HeapItem pop_heap_top();

  /// The lane `cls` goes to, or nullptr for a heap-only class.
  Lane* lane_of(EventClass cls);

  /// Drops cancelled entries from the heap top and the lane fronts, then
  /// returns the lane whose front is the next live event, or nullptr when
  /// it is the heap top.  Precondition: live_ > 0.
  Lane* skim();
  /// In-place removal of all cancelled residue from the heap and lanes.
  void sweep();

  /// Invalidates the slot's handles and recycles it.
  void retire(std::uint32_t slot);

  std::vector<HeapItem> heap_;       // std::push_heap with Later
  std::array<Lane, 2> lanes_;        // kEccArrival, kJobArrival
  std::vector<Record> records_;      // slab, indexed by slot
  std::vector<std::uint32_t> free_;  // recycled slots
  std::size_t live_ = 0;
  std::uint64_t next_seq_ = 0;
  EventQueueCounters counters_;
};

}  // namespace es::sim
