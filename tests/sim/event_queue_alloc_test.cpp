// Allocation audit of the event-kernel hot path.
//
// The slab/free-list queue promises zero per-event heap allocation once it
// reaches steady state: heap items are POD, callbacks land in recycled slab
// records, and engine-style lambdas (two captured pointers) fit
// std::function's small-object buffer.  This binary instruments global
// operator new/delete with a counter and asserts the schedule/pop and
// schedule/cancel cycles stop allocating after warm-up.  It is its own test
// binary because the instrumented operators are process-global.
#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include "testing/counting_new.hpp"

namespace es::sim {
namespace {

using es::testing::allocations;

// The engine's hot-path callback shape: two captured pointers, 16 bytes —
// inside libstdc++'s std::function small-object buffer.
struct FakeEngine {
  std::uint64_t fires = 0;
};

EventQueue::Callback make_callback(FakeEngine* engine, std::uint64_t* slot) {
  return [engine, slot](Time) {
    ++engine->fires;
    ++*slot;
  };
}

TEST(EventQueueAlloc, SteadyStateScheduleAndPopIsAllocationFree) {
  EventQueue queue;
  FakeEngine engine;
  std::uint64_t slot = 0;
  // Warm-up: grow the slab, the heap vector and the free list to the peak
  // pending population this test will ever hold.
  constexpr int kPending = 256;
  for (int i = 0; i < kPending; ++i)
    queue.schedule(static_cast<Time>(i), EventClass::kJobFinish,
                   make_callback(&engine, &slot));
  for (int i = 0; i < kPending; ++i) {
    queue.pop_and_run();
    queue.schedule(static_cast<Time>(kPending + i), EventClass::kJobFinish,
                   make_callback(&engine, &slot));
  }

  const std::uint64_t before = allocations();
  for (int i = 0; i < 20000; ++i) {
    queue.pop_and_run();
    queue.schedule(static_cast<Time>(2 * kPending + i),
                   EventClass::kJobFinish, make_callback(&engine, &slot));
  }
  EXPECT_EQ(allocations(), before)
      << "schedule/pop steady state must not touch the heap";
  EXPECT_GE(engine.fires, 20000u);
}

TEST(EventQueueAlloc, SteadyStateCancelRescheduleIsAllocationFree) {
  // The elastic pattern: cancel the pending finish, insert the moved one.
  EventQueue queue;
  FakeEngine engine;
  std::uint64_t slot = 0;
  EventHandle pending =
      queue.schedule(1.0, EventClass::kJobFinish, make_callback(&engine, &slot));
  // Warm-up round so the slab/free-list reach steady state.
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(queue.cancel(pending));
    pending = queue.schedule(static_cast<Time>(2 + i), EventClass::kJobFinish,
                             make_callback(&engine, &slot));
  }

  const std::uint64_t before = allocations();
  for (int i = 0; i < 20000; ++i) {
    ASSERT_TRUE(queue.cancel(pending));
    pending = queue.schedule(static_cast<Time>(100 + i),
                             EventClass::kJobFinish,
                             make_callback(&engine, &slot));
  }
  EXPECT_EQ(allocations(), before)
      << "cancel/reschedule steady state must not touch the heap";
  queue.pop_and_run();
  EXPECT_EQ(engine.fires, 1u);
}

TEST(EventQueueAlloc, PopMayLazilyCompactButNeverAllocates) {
  // Heavily cancelled queues skim dead heap entries on pop; skimming only
  // shrinks vectors, so it must stay allocation-free too.
  EventQueue queue;
  FakeEngine engine;
  std::uint64_t slot = 0;
  for (int round = 0; round < 4; ++round) {
    std::vector<EventHandle> handles;
    for (int i = 0; i < 512; ++i)
      handles.push_back(queue.schedule(static_cast<Time>(i),
                                       EventClass::kJobFinish,
                                       make_callback(&engine, &slot)));
    const std::uint64_t before = round == 0 ? 0 : allocations();
    for (std::size_t i = 0; i < handles.size(); i += 2)
      ASSERT_TRUE(queue.cancel(handles[i]));
    while (!queue.empty()) queue.pop_and_run();
    if (round > 0)
      EXPECT_EQ(allocations(), before) << "round " << round;
  }
}

}  // namespace
}  // namespace es::sim
