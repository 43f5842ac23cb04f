#include "sim/event_queue.hpp"

#include <algorithm>
#include <limits>

#include "util/check.hpp"

namespace es::sim {

EventHandle EventQueue::schedule(Time at, EventClass cls, std::uint64_t tag) {
  return restore_event(at, cls, tag, next_seq_++);
}

EventHandle EventQueue::restore_event(Time at, EventClass cls,
                                      std::uint64_t tag, std::uint64_t seq) {
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    ES_EXPECTS(records_.size() <
               std::numeric_limits<std::uint32_t>::max() - 1);
    slot = static_cast<std::uint32_t>(records_.size());
    records_.emplace_back();
  }
  Record& record = records_[slot];
  record.tag = tag;
  heap_.push_back(HeapItem{at, static_cast<std::int32_t>(cls), seq, slot,
                           record.generation});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++live_;
  ++counters_.scheduled;
  counters_.peak_pending = std::max<std::uint64_t>(counters_.peak_pending,
                                                   live_);
  return EventHandle{make_id(slot, record.generation)};
}

std::vector<Event> EventQueue::pending_events() const {
  std::vector<Event> pending;
  pending.reserve(live_);
  for (const HeapItem& item : heap_) {
    if (!armed(item)) continue;  // cancelled residue awaiting skim/sweep
    pending.push_back(Event{item.time, static_cast<EventClass>(item.cls),
                            item.seq, records_[item.slot].tag});
  }
  std::sort(pending.begin(), pending.end(),
            [](const Event& a, const Event& b) { return a.seq < b.seq; });
  return pending;
}

void EventQueue::restore_meta(std::uint64_t next_seq,
                              const EventQueueCounters& counters) {
  next_seq_ = next_seq;
  counters_ = counters;
}

void EventQueue::retire(std::uint32_t slot) {
  Record& record = records_[slot];
  ++record.generation;
  if (record.generation == 0) ++record.generation;  // skip never-valid 0
  free_.push_back(slot);
}

bool EventQueue::cancel(EventHandle handle) {
  if (!handle.valid()) return false;
  const std::uint64_t slot_part = handle.id & 0xffffffffULL;
  if (slot_part == 0 || slot_part > records_.size()) return false;
  const auto slot = static_cast<std::uint32_t>(slot_part - 1);
  const auto generation = static_cast<std::uint32_t>(handle.id >> 32);
  // A fired, cancelled, or recycled record carries a newer generation, so a
  // stale handle fails here — cancel-after-fire is a truthful false.
  if (records_[slot].generation != generation) return false;
  retire(slot);  // pending items are skimmed lazily on pop
  --live_;
  ++counters_.cancelled;
  // Lazy deletion keeps cancel O(1), but a cancel-heavy stretch with no
  // intervening pop would let dead entries pile up and force vector
  // regrowth.  Once the dead outnumber the live, sweep the heap in place —
  // amortized O(1) per cancel, and since (time, class, seq) is a strict
  // total order the rebuilt heap pops in exactly the same order.
  if (heap_.size() >= 64 && heap_.size() > 2 * live_) sweep();
  return true;
}

void EventQueue::skim() {
  while (!heap_.empty() && !armed(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
}

void EventQueue::sweep() {
  const auto dead = [this](const HeapItem& item) { return !armed(item); };
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(), dead), heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), Later{});
}

Time EventQueue::next_time() {
  ES_EXPECTS(live_ > 0);
  skim();
  return heap_.front().time;
}

Event EventQueue::pop() {
  ES_EXPECTS(live_ > 0);
  skim();
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const HeapItem item = heap_.back();
  heap_.pop_back();
  // Retired on the way out: the caller's handler may schedule new events
  // (possibly reusing this very slot) or try to cancel this event's handle,
  // which must report "already fired".
  const Event event{item.time, static_cast<EventClass>(item.cls), item.seq,
                    records_[item.slot].tag};
  retire(item.slot);
  --live_;
  ++counters_.fired;
  return event;
}

}  // namespace es::sim
