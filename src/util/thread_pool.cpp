#include "util/thread_pool.hpp"

#include <atomic>
#include <exception>
#include <limits>
#include <memory>

#include "util/check.hpp"

namespace es::util {
namespace {

/// True on threads owned by *any* ThreadPool; re-entrant for_each calls on
/// such threads run inline so a fixed pool can never wait on itself.
thread_local bool t_pool_worker = false;

void run_serial(std::size_t count,
                const std::function<void(std::size_t)>& body) {
  for (std::size_t i = 0; i < count; ++i) body(i);
}

}  // namespace

ThreadPool::ThreadPool(int workers) {
  const int n = workers < 1 ? 1 : workers;
  threads_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    threads_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

void ThreadPool::worker_loop() {
  t_pool_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

void ThreadPool::for_each(std::size_t count,
                          const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  if (t_pool_worker || threads_.size() <= 1 || count == 1) {
    // Inline: nested call from a worker (deadlock-free by construction) or
    // no parallelism to gain.  Exceptions propagate directly.
    run_serial(count, body);
    return;
  }

  // One batch: workers claim indices via fetch_add; the first exception *by
  // index* wins so propagation is deterministic under any interleaving.
  struct Batch {
    const std::function<void(std::size_t)>* body = nullptr;
    std::size_t count = 0;
    std::atomic<std::size_t> next{0};
    std::mutex mutex;
    std::condition_variable done;
    std::size_t drivers_active = 0;
    std::exception_ptr error;
    std::size_t error_index = std::numeric_limits<std::size_t>::max();
  };
  auto batch = std::make_shared<Batch>();
  batch->body = &body;
  batch->count = count;

  auto drive = [batch] {
    for (;;) {
      const std::size_t i =
          batch->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= batch->count) break;
      try {
        (*batch->body)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(batch->mutex);
        if (i < batch->error_index) {
          batch->error_index = i;
          batch->error = std::current_exception();
        }
      }
    }
    std::lock_guard<std::mutex> lock(batch->mutex);
    if (--batch->drivers_active == 0) batch->done.notify_all();
  };

  const std::size_t drivers =
      count < threads_.size() ? count : threads_.size();
  {
    std::lock_guard<std::mutex> lock(batch->mutex);
    batch->drivers_active = drivers;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ES_ASSERT(!stop_);
    for (std::size_t i = 0; i < drivers; ++i) tasks_.emplace_back(drive);
  }
  if (drivers == 1)
    wake_.notify_one();
  else
    wake_.notify_all();

  std::unique_lock<std::mutex> lock(batch->mutex);
  batch->done.wait(lock, [&batch] { return batch->drivers_active == 0; });
  if (batch->error) std::rethrow_exception(batch->error);
}

namespace {

int g_jobs = 1;
std::unique_ptr<ThreadPool> g_pool;

}  // namespace

int hardware_parallelism() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

void set_global_parallelism(int jobs) {
  const int n = jobs < 1 ? 1 : jobs;
  g_pool.reset();  // join the old pool before resizing
  g_jobs = n;
  if (n > 1) g_pool = std::make_unique<ThreadPool>(n);
}

int global_parallelism() { return g_jobs; }

void parallel_for_each(std::size_t count,
                       const std::function<void(std::size_t)>& body) {
  if (g_pool == nullptr || t_pool_worker) {
    run_serial(count, body);
    return;
  }
  g_pool->for_each(count, body);
}

}  // namespace es::util
