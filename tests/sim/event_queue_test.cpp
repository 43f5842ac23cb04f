#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace es::sim {
namespace {

/// Pops every remaining event and returns their tags in pop order.
std::vector<std::uint64_t> drain(EventQueue& queue) {
  std::vector<std::uint64_t> tags;
  while (!queue.empty()) tags.push_back(queue.pop().tag);
  return tags;
}

using Tags = std::vector<std::uint64_t>;

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue queue;
  queue.schedule(3.0, EventClass::kOther, 3);
  queue.schedule(1.0, EventClass::kOther, 1);
  queue.schedule(2.0, EventClass::kOther, 2);
  EXPECT_EQ(drain(queue), (Tags{1, 2, 3}));
}

TEST(EventQueue, ClassOrderingAtSameInstant) {
  EventQueue queue;
  queue.schedule(5.0, EventClass::kJobArrival, 2);
  queue.schedule(5.0, EventClass::kJobFinish, 0);
  queue.schedule(5.0, EventClass::kEccArrival, 1);
  queue.schedule(5.0, EventClass::kOther, 3);
  EXPECT_EQ(drain(queue), (Tags{0, 1, 2, 3}));
}

TEST(EventQueue, FifoWithinSameTimeAndClass) {
  EventQueue queue;
  for (std::uint64_t i = 0; i < 10; ++i)
    queue.schedule(1.0, EventClass::kOther, i);
  EXPECT_EQ(drain(queue), (Tags{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(EventQueue, PopReturnsTheScheduledEvent) {
  EventQueue queue;
  queue.schedule(1.0, EventClass::kOther, 11);
  queue.schedule(7.5, EventClass::kNodeUp, 42);
  queue.pop();
  const Event event = queue.pop();
  EXPECT_DOUBLE_EQ(event.time, 7.5);
  EXPECT_EQ(event.cls, EventClass::kNodeUp);
  EXPECT_EQ(event.seq, 1u);
  EXPECT_EQ(event.tag, 42u);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue queue;
  const EventHandle handle = queue.schedule(1.0, EventClass::kOther, 1);
  queue.schedule(2.0, EventClass::kOther, 2);
  EXPECT_TRUE(queue.cancel(handle));
  EXPECT_EQ(drain(queue), (Tags{2}));
}

TEST(EventQueue, CancelUpdatesSizeAndEmpty) {
  EventQueue queue;
  const EventHandle handle = queue.schedule(1.0, EventClass::kOther);
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_TRUE(queue.cancel(handle));
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, DoubleCancelFails) {
  EventQueue queue;
  const EventHandle handle = queue.schedule(1.0, EventClass::kOther);
  queue.schedule(2.0, EventClass::kOther);
  EXPECT_TRUE(queue.cancel(handle));
  EXPECT_FALSE(queue.cancel(handle));
}

TEST(EventQueue, InvalidHandleCancelFails) {
  EventQueue queue;
  queue.schedule(1.0, EventClass::kOther);
  EXPECT_FALSE(queue.cancel(EventHandle{}));
  EXPECT_FALSE(queue.cancel(EventHandle{9999}));
}

TEST(EventQueue, CancelledHeadSkippedByNextTime) {
  EventQueue queue;
  const EventHandle first = queue.schedule(1.0, EventClass::kOther);
  queue.schedule(2.0, EventClass::kOther);
  queue.cancel(first);
  EXPECT_DOUBLE_EQ(queue.next_time(), 2.0);
}

TEST(EventQueue, RescheduleViaCancelAndInsert) {
  // The elastic pattern: cancel a pending finish, insert the adjusted one.
  EventQueue queue;
  const EventHandle finish = queue.schedule(10.0, EventClass::kJobFinish);
  EXPECT_TRUE(queue.cancel(finish));
  queue.schedule(15.0, EventClass::kJobFinish);
  EXPECT_DOUBLE_EQ(queue.pop().time, 15.0);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, EventsScheduledDuringExecutionRun) {
  // A handler schedules follow-up events between pops.
  EventQueue queue;
  queue.schedule(1.0, EventClass::kOther, 1);
  std::vector<std::uint64_t> order;
  while (!queue.empty()) {
    const Event event = queue.pop();
    order.push_back(event.tag);
    if (event.tag == 1) queue.schedule(2.0, EventClass::kOther, 2);
  }
  EXPECT_EQ(order, (Tags{1, 2}));
}

TEST(EventQueue, PropertyRandomInsertionPopsSorted) {
  // Property sweep: random times/classes always pop in (time, class, seq)
  // order.
  util::Rng rng(2024);
  for (int round = 0; round < 20; ++round) {
    EventQueue queue;
    const int n = 200;
    for (int i = 0; i < n; ++i) {
      const double t = rng.uniform(0, 50);
      const auto cls = static_cast<EventClass>(rng.uniform_int(0, 5));
      queue.schedule(t, cls);
    }
    std::vector<Event> popped;
    while (!queue.empty()) popped.push_back(queue.pop());
    ASSERT_EQ(popped.size(), static_cast<std::size_t>(n));
    for (std::size_t i = 1; i < popped.size(); ++i) {
      ASSERT_LE(popped[i - 1].time, popped[i].time);
      if (popped[i - 1].time == popped[i].time) {
        ASSERT_LE(popped[i - 1].cls, popped[i].cls);
      }
    }
  }
}

TEST(EventQueue, CancelAfterFireFails) {
  // Regression: cancelling a handle whose event already fired must return
  // false and must not disturb the live count or any other pending event.
  // (The pre-slab queue corrupted its live counter here: the fired id went
  // into the cancelled set and live_ was decremented for a second time.)
  EventQueue queue;
  const EventHandle first = queue.schedule(1.0, EventClass::kOther, 1);
  queue.schedule(2.0, EventClass::kOther, 2);
  EXPECT_EQ(queue.pop().tag, 1u);  // fires `first`
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_FALSE(queue.cancel(first));
  EXPECT_EQ(queue.size(), 1u);  // the stale cancel must not eat the size
  EXPECT_FALSE(queue.empty());
  EXPECT_EQ(queue.pop().tag, 2u);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, CancelWhileHandlingPoppedEventFails) {
  // A handler that cancels its own event's handle — before or after
  // scheduling into the slot the pop just freed — gets a truthful false.
  EventQueue queue;
  const EventHandle self = queue.schedule(1.0, EventClass::kOther, 1);
  queue.pop();
  EXPECT_FALSE(queue.cancel(self));  // by then the event counts as fired
  const EventHandle next = queue.schedule(2.0, EventClass::kOther, 2);
  EXPECT_FALSE(queue.cancel(self));
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_TRUE(queue.cancel(next));
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, StaleHandleToReusedSlotFails) {
  // Slot recycling must not let an old handle cancel the new tenant: the
  // generation in the handle no longer matches the record's.
  EventQueue queue;
  const EventHandle old_handle = queue.schedule(1.0, EventClass::kOther, 1);
  EXPECT_TRUE(queue.cancel(old_handle));
  // The next schedule reuses the freed slot (single-slot slab).
  const EventHandle new_handle = queue.schedule(2.0, EventClass::kOther, 2);
  EXPECT_NE(old_handle.id, new_handle.id);
  EXPECT_FALSE(queue.cancel(old_handle));  // stale generation
  EXPECT_EQ(drain(queue), (Tags{2}));
  EXPECT_FALSE(queue.cancel(new_handle));  // already fired
}

TEST(EventQueue, HandleReuseAcrossManyGenerations) {
  // Hammer one slot through many schedule/fire and schedule/cancel rounds;
  // every stale handle from an earlier generation must stay dead.
  EventQueue queue;
  std::vector<EventHandle> history;
  int fired = 0;
  for (int round = 0; round < 100; ++round) {
    const EventHandle handle =
        queue.schedule(static_cast<double>(round), EventClass::kOther);
    for (const EventHandle& stale : history) EXPECT_FALSE(queue.cancel(stale));
    history.push_back(handle);
    if (round % 2 == 0) {
      queue.pop();
      ++fired;
    } else {
      EXPECT_TRUE(queue.cancel(handle));
    }
  }
  EXPECT_EQ(fired, 50);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, CountersTrackTraffic) {
  EventQueue queue;
  const EventHandle a = queue.schedule(1.0, EventClass::kOther);
  queue.schedule(2.0, EventClass::kOther);
  queue.schedule(3.0, EventClass::kOther);
  EXPECT_EQ(queue.counters().scheduled, 3u);
  EXPECT_EQ(queue.counters().peak_pending, 3u);
  EXPECT_TRUE(queue.cancel(a));
  queue.pop();
  queue.pop();
  const EventQueueCounters& counters = queue.counters();
  EXPECT_EQ(counters.scheduled, 3u);
  EXPECT_EQ(counters.cancelled, 1u);
  EXPECT_EQ(counters.fired, 2u);
  EXPECT_EQ(counters.peak_pending, 3u);  // high-water mark survives draining
  EXPECT_EQ(counters.scheduled, counters.fired + counters.cancelled);
}

TEST(EventQueue, CountersAggregateSumsTrafficAndMaxesPeak) {
  EventQueueCounters total;
  EventQueueCounters a{10, 2, 8, 5};
  EventQueueCounters b{7, 0, 7, 9};
  total += a;
  total += b;
  EXPECT_EQ(total.scheduled, 17u);
  EXPECT_EQ(total.cancelled, 2u);
  EXPECT_EQ(total.fired, 15u);
  EXPECT_EQ(total.peak_pending, 9u);
}

// Every event class, for drawing random ones.
constexpr EventClass kClasses[] = {
    EventClass::kJobFinish,    EventClass::kNodeUp,
    EventClass::kNodeDown,     EventClass::kEccArrival,
    EventClass::kDedicatedDue, EventClass::kJobArrival,
    EventClass::kOther};

// Naive reference queue for the model-based stress test: a flat vector
// scanned for the (time, class, seq) minimum, with eager cancellation.
class ReferenceQueue {
 public:
  std::uint64_t schedule(Time at, EventClass cls) {
    entries_.push_back({at, static_cast<int>(cls), next_seq_++, next_id_});
    return next_id_++;
  }
  bool cancel(std::uint64_t id) {
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].id == id) {
        entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
        return true;
      }
    }
    return false;
  }
  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }
  /// Removes and returns the id of the earliest entry.
  std::uint64_t pop() {
    std::size_t best = 0;
    for (std::size_t i = 1; i < entries_.size(); ++i) {
      const Entry& a = entries_[i];
      const Entry& b = entries_[best];
      if (a.time != b.time ? a.time < b.time
                           : (a.cls != b.cls ? a.cls < b.cls : a.seq < b.seq))
        best = i;
    }
    const std::uint64_t id = entries_[best].id;
    entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(best));
    return id;
  }

 private:
  struct Entry {
    Time time;
    int cls;
    std::uint64_t seq;
    std::uint64_t id;
  };
  std::vector<Entry> entries_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_id_ = 1;
};

TEST(EventQueue, ModelBasedRandomInterleavings) {
  // Random schedule/cancel/pop interleavings checked op-by-op against the
  // naive reference: identical pop order, identical cancel verdicts,
  // identical sizes.  Cancels deliberately include stale handles (already
  // fired or already cancelled) so the generation check is exercised too.
  util::Rng rng(4242);
  for (int round = 0; round < 25; ++round) {
    EventQueue queue;
    ReferenceQueue reference;
    // Model id -> live slab handle; erased when fired or cancelled.
    std::vector<std::pair<std::uint64_t, EventHandle>> live;
    std::vector<std::pair<std::uint64_t, EventHandle>> retired;
    const int ops = 400;
    for (int op = 0; op < ops; ++op) {
      const double coin = rng.uniform(0, 1);
      if (coin < 0.5 || queue.empty()) {
        // Schedule, with coarse times so ties across classes happen often.
        const double t = std::floor(rng.uniform(0, 20));
        const EventClass cls = kClasses[rng.uniform_int(0, 6)];
        const std::uint64_t model_id = reference.schedule(t, cls);
        const EventHandle handle = queue.schedule(t, cls, model_id);
        ASSERT_TRUE(handle.valid());
        live.emplace_back(model_id, handle);
      } else if (coin < 0.75 && !(live.empty() && retired.empty())) {
        // Cancel: half the time a live handle, half a stale one.
        const bool pick_live =
            !live.empty() && (retired.empty() || rng.bernoulli(0.5));
        auto& pool = pick_live ? live : retired;
        const std::size_t index = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(pool.size()) - 1));
        const auto [model_id, handle] = pool[index];
        const bool model_ok = reference.cancel(model_id);
        ASSERT_EQ(queue.cancel(handle), model_ok)
            << "round " << round << " op " << op << " id " << model_id;
        if (model_ok) {
          pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(index));
          retired.emplace_back(model_id, handle);
        }
      } else {
        const std::uint64_t model_id = reference.pop();
        ASSERT_EQ(queue.pop().tag, model_id)
            << "round " << round << " op " << op;
        for (std::size_t i = 0; i < live.size(); ++i) {
          if (live[i].first == model_id) {
            retired.push_back(live[i]);
            live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
            break;
          }
        }
      }
      ASSERT_EQ(queue.size(), reference.size());
      ASSERT_EQ(queue.empty(), reference.empty());
    }
    // Drain: remaining pops must match the reference exactly.
    while (!reference.empty()) {
      const std::uint64_t model_id = reference.pop();
      ASSERT_EQ(queue.pop().tag, model_id);
    }
    EXPECT_TRUE(queue.empty());
  }
}

TEST(EventQueue, PropertyRandomCancellationsNeverFire) {
  util::Rng rng(77);
  for (int round = 0; round < 10; ++round) {
    EventQueue queue;
    std::vector<EventHandle> handles;
    const int n = 100;
    for (int i = 0; i < n; ++i)
      handles.push_back(queue.schedule(rng.uniform(0, 10), EventClass::kOther,
                                       static_cast<std::uint64_t>(i)));
    std::vector<bool> cancelled(n, false);
    int cancels = 0;
    for (int i = 0; i < n; ++i)
      if (rng.bernoulli(0.5) && queue.cancel(handles[i])) {
        cancelled[i] = true;
        ++cancels;
      }
    int fired = 0;
    while (!queue.empty()) {
      EXPECT_FALSE(cancelled[queue.pop().tag]);
      ++fired;
    }
    EXPECT_EQ(fired, n - cancels);
  }
}

}  // namespace
}  // namespace es::sim
