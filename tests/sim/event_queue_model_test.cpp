// Model-check of the slab event queue against the pre-overhaul reference
// kernel: sim::EventQueue and testing::ReferenceEventQueue are driven
// through identical randomized schedule/cancel/pop traces and must agree on
// every fire, in order.  The traces deliberately exercise the cases where a slab
// kernel could diverge from the plain one:
//  * equal-time events across classes and sequence numbers (tie-breaks),
//  * cancellation of already-fired / already-cancelled handles after the
//    slab has recycled their slots (generation checks under handle reuse),
//  * far-future events mixed with near ones, and traces of far-future
//    events only.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/reference_event_queue.hpp"
#include "util/rng.hpp"

namespace es::sim {
namespace {

/// One scheduled event's identity across the two queues under test.
struct Tracked {
  std::uint64_t model_id = 0;
  EventHandle queue;
  testing::ReferenceEventHandle reference;
};

class ModelCheck {
 public:
  void schedule(Time at, EventClass cls) {
    Tracked tracked;
    tracked.model_id = next_model_id_++;
    const std::uint64_t id = tracked.model_id;
    tracked.queue = queue_.schedule(at, cls, id);
    tracked.reference = reference_.schedule(
        at, cls, [this, id](Time) { reference_fired_.push_back(id); });
    live_.push_back(tracked);
  }

  /// Cancels a live event in both queues; both must agree it was live.
  void cancel_live(std::size_t index) {
    Tracked tracked = live_[index];
    live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(index));
    ASSERT_TRUE(queue_.cancel(tracked.queue));
    ASSERT_TRUE(reference_.cancel(tracked.reference));
    retired_.push_back(tracked);
  }

  /// Cancelling a fired or already-cancelled handle must fail on the slab
  /// queue — even after its slot was recycled by later schedules.
  /// (The reference's lazy hash-set cancellation predates that guarantee,
  /// so stale cancels are not mirrored into it.)
  void cancel_stale(std::size_t index) {
    const Tracked& tracked = retired_[index];
    ASSERT_FALSE(queue_.cancel(tracked.queue));
  }

  /// Pops one event from each queue; both must fire the same event.
  void pop() {
    reference_fired_.clear();
    const Event event = queue_.pop();
    const Time t_reference = reference_.pop_and_run();
    ASSERT_EQ(reference_fired_, std::vector<std::uint64_t>{event.tag});
    ASSERT_EQ(event.time, t_reference);
    now_ = event.time;
    const std::uint64_t id = event.tag;
    for (std::size_t i = 0; i < live_.size(); ++i) {
      if (live_[i].model_id == id) {
        retired_.push_back(live_[i]);
        live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
    }
  }

  void check_sizes() const {
    ASSERT_EQ(queue_.size(), live_.size());
    ASSERT_EQ(reference_.size(), live_.size());
    ASSERT_EQ(queue_.empty(), live_.empty());
  }

  Time now() const { return now_; }
  std::size_t live_count() const { return live_.size(); }
  std::size_t retired_count() const { return retired_.size(); }
  bool drained() const { return queue_.empty(); }

 private:
  EventQueue queue_;
  testing::ReferenceEventQueue reference_;
  std::vector<Tracked> live_;
  std::vector<Tracked> retired_;
  std::vector<std::uint64_t> reference_fired_;
  std::uint64_t next_model_id_ = 1;
  Time now_ = 0;
};

// Every event class, for drawing random ones.
constexpr EventClass kClasses[] = {
    EventClass::kJobFinish,    EventClass::kNodeUp,
    EventClass::kNodeDown,     EventClass::kEccArrival,
    EventClass::kDedicatedDue, EventClass::kJobArrival,
    EventClass::kOther};

TEST(EventQueueModel, RandomTracesAgreeWithReference) {
  util::Rng rng(9191);
  for (int round = 0; round < 8; ++round) {
    ModelCheck model;
    const int ops = 600;
    for (int op = 0; op < ops; ++op) {
      const double coin = rng.uniform(0, 1);
      if (coin < 0.45 || model.drained()) {
        // Coarse-grained times force equal-time ties across classes; a
        // slice lands far in the future, behind many nearer events.
        const bool far = rng.bernoulli(0.1);
        const Time at =
            model.now() + (far ? std::floor(rng.uniform(5e3, 5e4))
                               : std::floor(rng.uniform(0, 40)));
        model.schedule(at, kClasses[rng.uniform_int(0, 6)]);
      } else if (coin < 0.6 && model.live_count() > 0) {
        model.cancel_live(static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<int>(model.live_count()) - 1)));
      } else if (coin < 0.7 && model.retired_count() > 0) {
        model.cancel_stale(static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<int>(model.retired_count()) - 1)));
      } else {
        model.pop();
      }
      model.check_sizes();
      if (::testing::Test::HasFatalFailure())
        FAIL() << "round " << round << " op " << op;
    }
    // Drain completely: the tail — including every far-future event —
    // must still agree event for event.
    while (!model.drained()) {
      model.pop();
      if (::testing::Test::HasFatalFailure()) FAIL() << "round " << round;
    }
  }
}

TEST(EventQueueModel, BurstsOfIdenticalTimesPreserveInsertionOrder) {
  // All events at the same instant and class: pure seq tie-breaking.
  ModelCheck model;
  for (int burst = 0; burst < 5; ++burst) {
    for (int i = 0; i < 40; ++i)
      model.schedule(static_cast<Time>(burst), EventClass::kOther);
    for (int i = 0; i < 40; ++i) {
      model.pop();
      if (::testing::Test::HasFatalFailure()) FAIL() << "burst " << burst;
    }
  }
}

TEST(EventQueueModel, FarFutureOnlyTracesAgreeWithReference) {
  // Every event lies 1e4-1e5 time units after the previous one.
  util::Rng rng(555);
  ModelCheck model;
  Time t = 0;
  for (int i = 0; i < 200; ++i) {
    t += std::floor(rng.uniform(1e4, 1e5));
    model.schedule(t, EventClass::kJobFinish);
  }
  while (!model.drained()) {
    model.pop();
    if (::testing::Test::HasFatalFailure()) FAIL();
  }
}

}  // namespace
}  // namespace es::sim
