// Allocation audit of the event-kernel hot path.
//
// The slab/free-list queue promises zero per-event heap allocation once it
// reaches steady state: events are PODs, heap items are PODs, and popped
// or cancelled slots are recycled through the free list.  The engine's
// in-flight ECC store makes the same promise for the command payloads its
// EccArrival events name, and the FIFO lanes that hold in-order arrivals
// and commands reuse their vectors whether or not they ever drain.  This
// binary instruments global operator new/delete with a counter and asserts
// the schedule/pop, schedule/cancel and ECC put/take cycles stop allocating
// after warm-up.  It is its own test binary because the instrumented
// operators are process-global.
#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sched/inflight_eccs.hpp"
#include "testing/counting_new.hpp"

namespace es::sim {
namespace {

using es::testing::allocations;

TEST(EventQueueAlloc, SteadyStateScheduleAndPopIsAllocationFree) {
  EventQueue queue;
  std::uint64_t tags = 0;
  // Warm-up: grow the slab, the heap vector and the free list to the peak
  // pending population this test will ever hold.
  constexpr int kPending = 256;
  for (int i = 0; i < kPending; ++i)
    queue.schedule(static_cast<Time>(i), EventClass::kJobFinish, i);
  for (int i = 0; i < kPending; ++i) {
    tags += queue.pop().tag;
    queue.schedule(static_cast<Time>(kPending + i), EventClass::kJobFinish,
                   i);
  }

  const std::uint64_t before = allocations();
  std::uint64_t fires = 0;
  for (int i = 0; i < 20000; ++i) {
    tags += queue.pop().tag;
    ++fires;
    queue.schedule(static_cast<Time>(2 * kPending + i),
                   EventClass::kJobFinish, i);
  }
  EXPECT_EQ(allocations(), before)
      << "schedule/pop steady state must not touch the heap";
  EXPECT_EQ(fires, 20000u);
  EXPECT_GT(tags, 0u);
}

TEST(EventQueueAlloc, SteadyStateCancelRescheduleIsAllocationFree) {
  // The elastic pattern: cancel the pending finish, insert the moved one.
  EventQueue queue;
  EventHandle pending = queue.schedule(1.0, EventClass::kJobFinish, 7);
  // Warm-up round so the slab/free-list reach steady state.
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(queue.cancel(pending));
    pending = queue.schedule(static_cast<Time>(2 + i), EventClass::kJobFinish,
                             7);
  }

  const std::uint64_t before = allocations();
  for (int i = 0; i < 20000; ++i) {
    ASSERT_TRUE(queue.cancel(pending));
    pending = queue.schedule(static_cast<Time>(100 + i),
                             EventClass::kJobFinish, 7);
  }
  EXPECT_EQ(allocations(), before)
      << "cancel/reschedule steady state must not touch the heap";
  EXPECT_EQ(queue.pop().tag, 7u);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueAlloc, PopMayLazilyCompactButNeverAllocates) {
  // Heavily cancelled queues skim dead heap entries on pop; skimming only
  // shrinks vectors, so it must stay allocation-free too.
  EventQueue queue;
  std::vector<EventHandle> handles;
  handles.reserve(512);
  for (int round = 0; round < 4; ++round) {
    handles.clear();
    for (int i = 0; i < 512; ++i)
      handles.push_back(
          queue.schedule(static_cast<Time>(i), EventClass::kJobFinish));
    const std::uint64_t before = round == 0 ? 0 : allocations();
    for (std::size_t i = 0; i < handles.size(); i += 2)
      ASSERT_TRUE(queue.cancel(handles[i]));
    while (!queue.empty()) queue.pop();
    if (round > 0) {
      EXPECT_EQ(allocations(), before) << "round " << round;
    }
  }
}

TEST(EventQueueAlloc, SteadyStateEngineTrafficWithEccStoreIsAllocationFree) {
  // The engine's event mix in miniature: each window schedules arrivals
  // and tagged ECCs (their commands parked in the in-flight store), a
  // popped arrival starts a job whose finish an ECC later moves
  // (cancel + reschedule), and popped ECCs take their commands back out
  // in pop order — not always tag order, since an ECC issued earlier
  // than a previous window's may carry the larger tag.
  EventQueue queue;
  sched::InflightEccs eccs;
  std::vector<EventHandle> finishes(64);
  std::uint64_t next_tag = 0;
  Time clock = 0;
  double checksum = 0;
  const auto window = [&](int w) {
    const Time origin = clock;
    for (int i = 0; i < 32; ++i)
      queue.schedule(origin + 1 + i, EventClass::kJobArrival,
                     static_cast<std::uint64_t>(i));
    for (int i = 0; i < 24; ++i) {
      workload::Ecc ecc;
      ecc.job_id = i;
      ecc.amount = w + i;
      // Every third command lands out of tag order.
      ecc.issue = origin + (i % 3 == 0 ? 40.5 - i : 0.5 + i);
      eccs.put(next_tag, ecc);
      queue.schedule(ecc.issue, EventClass::kEccArrival, next_tag++);
    }
    // Stop short of the latest commands, so some stay in flight into the
    // next window and the store's front is trimmed while it is in use.
    while (!queue.empty() && queue.next_time() < origin + 30) {
      const Event event = queue.pop();
      clock = event.time;
      switch (event.cls) {
        case EventClass::kJobArrival:
          finishes[event.tag] =
              queue.schedule(clock + 30, EventClass::kJobFinish, event.tag);
          break;
        case EventClass::kEccArrival: {
          const workload::Ecc ecc = eccs.take(event.tag);
          checksum += ecc.amount;
          const auto job = static_cast<std::size_t>(ecc.job_id);
          if (queue.cancel(finishes[job]))
            finishes[job] = queue.schedule(clock + 5, EventClass::kJobFinish,
                                           job);
          break;
        }
        default:
          break;
      }
    }
  };
  for (int w = 0; w < 64; ++w) window(w);  // warm-up

  const std::uint64_t before = allocations();
  for (int w = 64; w < 2064; ++w) window(w);
  EXPECT_EQ(allocations(), before)
      << "engine-shaped traffic must not touch the heap once warm";
  EXPECT_GT(checksum, 0);
  EXPECT_LT(eccs.size(), 48u);  // only the in-flight commands are held
}

TEST(EventQueueAlloc, ArrivalLaneThatNeverDrainsIsAllocationFree) {
  // A feed that leaves each window's last arrivals pending into the next
  // one: the arrival lane never drains, so only the in-place compaction of
  // its consumed prefix keeps its vector from growing window after window.
  EventQueue queue;
  Time feed = 0;
  std::uint64_t finished = 0;
  const auto window = [&] {
    for (std::uint64_t i = 0; i < 32; ++i) {
      feed += 1;
      queue.schedule(feed, EventClass::kJobArrival, i);
    }
    while (queue.next_time() <= feed - 8) {
      const Event event = queue.pop();
      if (event.cls == EventClass::kJobArrival)
        queue.schedule(event.time + 20, EventClass::kJobFinish, event.tag);
      else
        ++finished;
    }
  };
  for (int w = 0; w < 64; ++w) window();  // warm-up

  const std::uint64_t before = allocations();
  for (int w = 0; w < 2000; ++w) window();
  EXPECT_EQ(allocations(), before)
      << "a never-draining arrival lane must reuse its capacity";
  EXPECT_GE(queue.size(), 8u);  // the lane's tail is still pending
  EXPECT_GT(finished, 2000u * 8);
}

}  // namespace
}  // namespace es::sim
