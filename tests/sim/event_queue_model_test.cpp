// Model-check of the slab event queue against the pre-overhaul reference
// kernel: sim::EventQueue and testing::ReferenceEventQueue are driven
// through identical randomized schedule/cancel/pop traces and must agree on
// every fire, in order.  The traces deliberately exercise the cases where a slab
// kernel could diverge from the plain one:
//  * equal-time events across classes and sequence numbers (tie-breaks),
//  * cancellation of already-fired / already-cancelled handles after the
//    slab has recycled their slots (generation checks under handle reuse),
//  * far-future events mixed with near ones, and traces of far-future
//    events only,
//  * lane-heavy traces: long in-order kJobArrival/kEccArrival runs (which
//    the queue keeps in FIFO lanes beside its heap) with out-of-order
//    inserts of the same classes mixed in, cancels of lane entries, lanes
//    that drain and refill or never drain, and sweeps that meet lane
//    residue — with pending_events() checked against the model's live set.
#include <gtest/gtest.h>

#include <algorithm>
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
  Time time = 0;
  EventClass cls{};
  EventHandle queue;
  testing::ReferenceEventHandle reference;
};

class ModelCheck {
 public:
  void schedule(Time at, EventClass cls) {
    Tracked tracked;
    tracked.model_id = next_model_id_++;
    tracked.time = at;
    tracked.cls = cls;
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

  /// pending_events() must list exactly the model's live events, sorted by
  /// insertion sequence.  live_ stays in schedule order (entries are only
  /// appended or erased), and model ids are handed out in that order from
  /// 1, so an event's sequence number is its model id minus one.
  void check_pending() const {
    const std::vector<Event> pending = queue_.pending_events();
    ASSERT_EQ(pending.size(), live_.size());
    for (std::size_t i = 0; i < live_.size(); ++i) {
      ASSERT_EQ(pending[i].tag, live_[i].model_id) << "entry " << i;
      ASSERT_EQ(pending[i].seq, live_[i].model_id - 1) << "entry " << i;
      ASSERT_EQ(pending[i].time, live_[i].time) << "entry " << i;
      ASSERT_EQ(pending[i].cls, live_[i].cls) << "entry " << i;
    }
  }

  /// Index into the live set of a random live event of class `cls`, or
  /// live_count() when there is none.
  std::size_t find_live(EventClass cls, util::Rng& rng) const {
    const auto start = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<int>(live_.size()) - 1));
    for (std::size_t k = 0; k < live_.size(); ++k) {
      const std::size_t i = (start + k) % live_.size();
      if (live_[i].cls == cls) return i;
    }
    return live_.size();
  }

  Time now() const { return now_; }
  Time next_time() { return queue_.next_time(); }
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

/// Drains `model` completely, failing on the first disagreement.
void drain(ModelCheck& model) {
  while (!model.drained()) {
    model.pop();
    if (::testing::Test::HasFatalFailure()) return;
  }
  model.check_sizes();
}

TEST(EventQueueModel, LaneHeavyTracesAgreeWithReference) {
  // The engine's feed shape: each window appends a run of in-order
  // arrivals and commands behind everything already pending in their
  // classes, then the clock advances part way through it.  Out-of-order
  // arrivals and commands (near the clock, so mostly before their lane's
  // back) are mixed in, lane entries are cancelled, and events of every
  // class keep the heap busy beside the lanes.
  util::Rng rng(2424);
  for (int round = 0; round < 6; ++round) {
    ModelCheck model;
    Time arrival_feed = 0;
    Time ecc_feed = 0;
    for (int window = 0; window < 40; ++window) {
      arrival_feed = std::max(arrival_feed, model.now());
      const int arrivals = static_cast<int>(rng.uniform_int(20, 120));
      for (int i = 0; i < arrivals; ++i) {
        // Coarse steps give equal-time runs, ordered by seq alone.
        arrival_feed += std::floor(rng.uniform(0, 3));
        model.schedule(arrival_feed, EventClass::kJobArrival);
        if (rng.bernoulli(0.4)) {
          ecc_feed = std::max(ecc_feed, arrival_feed) +
                     std::floor(rng.uniform(0, 4));
          model.schedule(ecc_feed, EventClass::kEccArrival);
        }
        if (rng.bernoulli(0.1)) {
          const EventClass cls = rng.bernoulli(0.5) ? EventClass::kJobArrival
                                                    : EventClass::kEccArrival;
          model.schedule(model.now() + std::floor(rng.uniform(0, 10)), cls);
        }
      }
      if (::testing::Test::HasFatalFailure()) FAIL() << "round " << round;
      const Time horizon = model.now() + std::floor(rng.uniform(20, 200));
      while (!model.drained() && model.next_time() < horizon) {
        const double coin = rng.uniform(0, 1);
        if (coin < 0.15 && model.live_count() > 0) {
          const EventClass cls = rng.bernoulli(0.5) ? EventClass::kJobArrival
                                                    : EventClass::kEccArrival;
          const std::size_t index = model.find_live(cls, rng);
          if (index < model.live_count()) model.cancel_live(index);
        } else if (coin < 0.3) {
          model.schedule(model.now() + std::floor(rng.uniform(1, 60)),
                         kClasses[rng.uniform_int(0, 6)]);
        } else if (coin < 0.35 && model.retired_count() > 0) {
          model.cancel_stale(static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<int>(model.retired_count()) - 1)));
        } else {
          model.pop();
        }
        model.check_sizes();
        if (::testing::Test::HasFatalFailure())
          FAIL() << "round " << round << " window " << window;
      }
      model.check_pending();
      if (::testing::Test::HasFatalFailure())
        FAIL() << "round " << round << " window " << window;
    }
    drain(model);
    if (::testing::Test::HasFatalFailure()) FAIL() << "round " << round;
  }
}

TEST(EventQueueModel, LanesThatDrainAndRefillAgreeWithReference) {
  // Each window's arrivals drain completely before the next window is
  // fed (the engine refills when the last scheduled arrival fires), while
  // the command lane keeps entries across windows and never drains.
  ModelCheck model;
  Time feed = 0;
  for (int window = 0; window < 30; ++window) {
    for (int i = 0; i < 50; ++i) {
      feed += (i % 4 == 0) ? 0 : 1;  // runs of equal arrival times
      model.schedule(feed, EventClass::kJobArrival);
      if (i % 2 == 0) model.schedule(feed + 30, EventClass::kEccArrival);
    }
    const Time last_arrival = feed;
    feed += 1;  // the next window starts strictly later
    while (!model.drained() && model.next_time() <= last_arrival) {
      model.pop();
      if (::testing::Test::HasFatalFailure()) FAIL() << "window " << window;
    }
    model.check_sizes();
    model.check_pending();
    if (::testing::Test::HasFatalFailure()) FAIL() << "window " << window;
  }
  drain(model);
}

TEST(EventQueueModel, SweepsWithLaneResidueAgreeWithReference) {
  // Cancelling most entries makes the dead outnumber the live, which
  // sweeps the heap and both lanes in place; the lanes here hold dead
  // entries at their fronts, in their middles and at their backs when that
  // happens, and appends continue behind a cancelled back.
  util::Rng rng(77);
  ModelCheck model;
  Time feed = 0;
  for (int round = 0; round < 12; ++round) {
    for (int i = 0; i < 150; ++i) {
      feed += std::floor(rng.uniform(0, 2));
      model.schedule(feed, i % 3 == 0 ? EventClass::kEccArrival
                                      : EventClass::kJobArrival);
      if (i % 10 == 0)
        model.schedule(feed + std::floor(rng.uniform(0, 50)),
                       EventClass::kJobFinish);
    }
    // Cancel ~80% of the live set, lane entries and finishes alike.
    const std::size_t keep = model.live_count() / 5;
    while (model.live_count() > keep) {
      model.cancel_live(static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<int>(model.live_count()) - 1)));
      if (::testing::Test::HasFatalFailure()) FAIL() << "round " << round;
    }
    model.check_sizes();
    model.check_pending();
    for (int i = 0; i < 20 && !model.drained(); ++i) model.pop();
    model.check_pending();
    if (::testing::Test::HasFatalFailure()) FAIL() << "round " << round;
  }
  drain(model);
}

}  // namespace
}  // namespace es::sim
