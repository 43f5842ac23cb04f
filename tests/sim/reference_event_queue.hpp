// Pre-overhaul event queue, kept as the model oracle for
// event_queue_model_test.
//
// This is the kernel the slab sim::EventQueue replaced: every schedule()
// allocates a shared_ptr<Callback> control block, cancellation funnels
// through an unordered_set of ids, and the heap entries carry two words of
// id bookkeeping.  It shares no code with sim::EventQueue, so agreement on
// every pop of a randomized trace checks the slab heap's (time, class,
// seq) order against an independent implementation.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sim/time.hpp"
#include "util/check.hpp"

namespace es::testing {

struct ReferenceEventHandle {
  std::uint64_t id = 0;
  bool valid() const { return id != 0; }
};

/// Min-heap of (time, class, seq) with shared_ptr callbacks and lazy
/// hash-set cancellation — the allocation profile the slab queue removed.
class ReferenceEventQueue {
 public:
  using Callback = std::function<void(sim::Time)>;

  ReferenceEventHandle schedule(sim::Time at, sim::EventClass cls,
                                Callback fn) {
    ES_EXPECTS(fn != nullptr);
    Entry entry;
    entry.time = at;
    entry.cls = static_cast<int>(cls);
    entry.seq = next_seq_++;
    entry.id = next_id_++;
    const std::uint64_t id = entry.id;
    entry.fn = std::make_shared<Callback>(std::move(fn));
    heap_.push(std::move(entry));
    ++live_;
    return ReferenceEventHandle{id};
  }

  bool cancel(ReferenceEventHandle handle) {
    if (!handle.valid()) return false;
    if (handle.id >= next_id_) return false;
    if (live_ == 0) return false;
    const auto [it, inserted] = cancelled_.insert(handle.id);
    (void)it;
    if (!inserted) return false;
    --live_;
    return true;
  }

  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }

  sim::Time pop_and_run() {
    skim();
    ES_EXPECTS(!heap_.empty());
    Entry entry = heap_.top();
    heap_.pop();
    --live_;
    (*entry.fn)(entry.time);
    return entry.time;
  }

 private:
  struct Entry {
    sim::Time time;
    int cls;
    std::uint64_t seq;
    std::uint64_t id;
    std::shared_ptr<Callback> fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      if (a.cls != b.cls) return a.cls > b.cls;
      return a.seq > b.seq;
    }
  };

  void skim() {
    while (!heap_.empty()) {
      const auto it = cancelled_.find(heap_.top().id);
      if (it == cancelled_.end()) return;
      cancelled_.erase(it);
      heap_.pop();
    }
  }

  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::unordered_set<std::uint64_t> cancelled_;
  std::size_t live_ = 0;
  std::uint64_t next_id_ = 1;
  std::uint64_t next_seq_ = 0;
};

}  // namespace es::testing
