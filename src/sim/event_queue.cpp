#include "sim/event_queue.hpp"

#include <algorithm>
#include <limits>
#include <span>

#include "util/check.hpp"

namespace es::sim {

EventHandle EventQueue::schedule(Time at, EventClass cls, std::uint64_t tag) {
  return insert(at, cls, tag, next_seq_++);
}

EventHandle EventQueue::insert(Time at, EventClass cls, std::uint64_t tag,
                               std::uint64_t seq) {
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
  const HeapItem item{at, static_cast<std::int32_t>(cls), seq, slot,
                      record.generation};
  Lane* lane = lane_of(cls);
  if (lane != nullptr && lane->accepts(item)) {
    lane->push(item);
  } else {
    heap_.push_back(item);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }
  ++live_;
  ++counters_.scheduled;
  counters_.peak_pending = std::max<std::uint64_t>(counters_.peak_pending,
                                                   live_);
  return EventHandle{make_id(slot, record.generation)};
}

std::vector<Event> EventQueue::pending_events() const {
  std::vector<Event> pending;
  pending.reserve(live_);
  const auto collect = [&](std::span<const HeapItem> items) {
    for (const HeapItem& item : items) {
      if (!armed(item)) continue;  // cancelled residue awaiting skim/sweep
      pending.push_back(Event{item.time, static_cast<EventClass>(item.cls),
                              item.seq, records_[item.slot].tag});
    }
  };
  collect(heap_);
  for (const Lane& lane : lanes_)
    collect(std::span<const HeapItem>(lane.items).subspan(lane.head));
  std::sort(pending.begin(), pending.end(),
            [](const Event& a, const Event& b) { return a.seq < b.seq; });
  return pending;
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
  // regrowth.  Once the dead outnumber the live, sweep in place —
  // amortized O(1) per cancel, and since (time, class, seq) is a strict
  // total order the filtered lanes stay sorted and the rebuilt heap pops in
  // exactly the same order.
  const std::size_t stored =
      heap_.size() + lanes_[0].stored() + lanes_[1].stored();
  if (stored >= 64 && stored > 2 * live_) sweep();
  return true;
}

EventQueue::HeapItem EventQueue::Lane::pop_front() {
  const HeapItem item = items[head];
  if (++head == items.size()) {
    items.clear();
    head = 0;
  }
  return item;
}

EventQueue::Lane* EventQueue::lane_of(EventClass cls) {
  switch (cls) {
    case EventClass::kEccArrival:
      return &lanes_[0];
    case EventClass::kJobArrival:
      return &lanes_[1];
    default:
      return nullptr;
  }
}

EventQueue::HeapItem EventQueue::pop_heap_top() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const HeapItem item = heap_.back();
  heap_.pop_back();
  return item;
}

EventQueue::Lane* EventQueue::skim() {
  while (!heap_.empty() && !armed(heap_.front())) pop_heap_top();
  const HeapItem* next = heap_.empty() ? nullptr : &heap_.front();
  Lane* from = nullptr;
  for (Lane& lane : lanes_) {
    while (!lane.empty() && !armed(lane.front())) lane.pop_front();
    if (!lane.empty() && (next == nullptr || Later{}(*next, lane.front()))) {
      next = &lane.front();
      from = &lane;
    }
  }
  return from;
}

void EventQueue::sweep() {
  const auto dead = [this](const HeapItem& item) { return !armed(item); };
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(), dead), heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  for (Lane& lane : lanes_) {
    // Keep the live pending entries, in order, at the front.
    std::size_t kept = 0;
    for (std::size_t i = lane.head; i < lane.items.size(); ++i)
      if (armed(lane.items[i])) lane.items[kept++] = lane.items[i];
    lane.items.resize(kept);
    lane.head = 0;
  }
}

Time EventQueue::next_time() {
  ES_EXPECTS(live_ > 0);
  const Lane* lane = skim();
  return lane != nullptr ? lane->front().time : heap_.front().time;
}

Event EventQueue::pop() {
  ES_EXPECTS(live_ > 0);
  Lane* lane = skim();
  const HeapItem item = lane != nullptr ? lane->pop_front() : pop_heap_top();
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
