// Fixed-size worker pool for embarrassingly-parallel experiment campaigns.
//
// The simulator itself is strictly single-threaded per run; what scales is
// the *campaign* around it — load points × algorithms × replications, each
// an independent (workload, policy, engine) triple.  The pool fans such
// index spaces out with `for_each`, and the experiment layer derives every
// replication's RNG seed up front, so results land in pre-sized slots and
// serial aggregation over those slots is byte-identical to a serial run.
//
// Concurrency contract:
//  * `for_each(count, body)` blocks the caller until body(0..count-1) has
//    run exactly once each; completion establishes happens-before, so the
//    caller may read everything the bodies wrote without further locking.
//  * Exceptions propagate: the exception thrown by the *lowest* index is
//    rethrown in the caller (deterministic regardless of interleaving);
//    remaining indices still run, leaving the pool reusable.
//  * Re-entrant calls from a worker thread execute inline and serially —
//    nested parallelism cannot deadlock the fixed pool.
//
// A process-wide pool, sized by `set_global_parallelism` (the tools' and
// benches' --jobs flag), backs the `parallel_for_each` free function.  The
// default is 1, which bypasses every thread primitive and runs the exact
// serial loop — the seed behaviour.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace es::util {

class ThreadPool {
 public:
  /// Spawns `workers` threads (clamped to >= 1).
  explicit ThreadPool(int workers);

  /// Joins all workers.  Must not race with an in-flight for_each from
  /// another thread.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int workers() const { return static_cast<int>(threads_.size()); }

  /// Runs body(i) for i in [0, count) across the pool and blocks until all
  /// complete.  See the concurrency contract above.
  void for_each(std::size_t count,
                const std::function<void(std::size_t)>& body);

 private:
  void worker_loop();

  std::vector<std::thread> threads_;
  std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<std::function<void()>> tasks_;
  bool stop_ = false;
};

/// std::thread::hardware_concurrency with a floor of 1.
int hardware_parallelism();

/// Sizes the process-wide pool used by parallel_for_each.  jobs <= 1 tears
/// the pool down (serial mode, the default).  Not thread-safe against
/// concurrent parallel_for_each calls; call it from main/test setup only.
void set_global_parallelism(int jobs);

/// Current global parallelism degree (>= 1).
int global_parallelism();

/// for_each on the global pool; a plain serial loop when the pool is down
/// (jobs <= 1) or when called from one of its own workers.
void parallel_for_each(std::size_t count,
                       const std::function<void(std::size_t)>& body);

}  // namespace es::util
