// Microbenchmarks for the simulation substrate: event-queue throughput,
// machine ledger operations and workload-generator speed.
#include <algorithm>

#include <benchmark/benchmark.h>

#include "cluster/contiguous.hpp"
#include "cluster/machine.hpp"
#include "sim/event_queue.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace {

void BM_EventQueueScheduleAndRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  es::util::Rng rng(1);
  std::vector<double> times;
  times.reserve(n);
  for (std::size_t i = 0; i < n; ++i) times.push_back(rng.uniform(0, 1e6));
  for (auto _ : state) {
    es::sim::EventQueue queue;
    std::uint64_t sum = 0;
    for (double t : times) queue.schedule(t, es::sim::EventClass::kOther, 1);
    while (!queue.empty()) sum += queue.pop().tag;
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueueScheduleAndRun)->Arg(1000)->Arg(10000)->Arg(100000);

// The engine's real access pattern is a sliding window — events are
// scheduled near the clock as it advances, not all up-front.
void BM_EventQueueSlidingWindow(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  es::util::Rng rng(3);
  std::vector<double> delays;
  delays.reserve(n);
  for (std::size_t i = 0; i < n; ++i) delays.push_back(rng.uniform(0, 100));
  for (auto _ : state) {
    es::sim::EventQueue queue;
    std::uint64_t sum = 0;
    constexpr std::size_t kWindow = 1024;
    std::size_t next = 0;
    double now = 0;
    while (next < kWindow && next < n)
      queue.schedule(delays[next++], es::sim::EventClass::kOther, 1);
    while (!queue.empty()) {
      const es::sim::Event event = queue.pop();
      now = event.time;
      sum += event.tag;
      if (next < n)
        queue.schedule(now + delays[next++], es::sim::EventClass::kOther, 1);
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueueSlidingWindow)->Arg(10000)->Arg(100000);

void BM_EventQueueCancellationHeavy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  es::util::Rng rng(2);
  for (auto _ : state) {
    es::sim::EventQueue queue;
    std::vector<es::sim::EventHandle> handles;
    handles.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      handles.push_back(
          queue.schedule(rng.uniform(0, 1e6), es::sim::EventClass::kOther));
    // Cancel half — the elastic-workload pattern.
    for (std::size_t i = 0; i < n; i += 2) queue.cancel(handles[i]);
    while (!queue.empty()) benchmark::DoNotOptimize(queue.pop());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueueCancellationHeavy)->Arg(1000)->Arg(10000);

// The engine's loop shape: pop, switch on the class, and let the handler
// schedule what that class schedules — an arrival its job's finish, an ECC
// a moved finish (cancel + reschedule), a finish nothing.
void BM_EventQueueDispatch(benchmark::State& state) {
  using es::sim::EventClass;
  const auto n = static_cast<std::size_t>(state.range(0));
  es::util::Rng rng(4);
  std::vector<double> gaps;
  std::vector<double> runtimes;
  gaps.reserve(n);
  runtimes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    gaps.push_back(rng.uniform(0, 20));
    runtimes.push_back(rng.uniform(100, 2000));
  }
  std::vector<es::sim::EventHandle> finishes(n);
  std::uint64_t events = 0;
  for (auto _ : state) {
    es::sim::EventQueue queue;
    double arrival = 0;
    for (std::size_t i = 0; i < n; ++i) {
      arrival += gaps[i];
      queue.schedule(arrival, EventClass::kJobArrival, i);
      // Every fourth job gets an elastic command shortly after it arrives.
      if (i % 4 == 0)
        queue.schedule(arrival + gaps[i] + 1, EventClass::kEccArrival, i);
    }
    std::uint64_t finished = 0;
    while (!queue.empty()) {
      const es::sim::Event event = queue.pop();
      ++events;
      switch (event.cls) {
        case EventClass::kJobArrival:
          finishes[event.tag] = queue.schedule(
              event.time + runtimes[event.tag], EventClass::kJobFinish,
              event.tag);
          break;
        case EventClass::kEccArrival:
          if (queue.cancel(finishes[event.tag]))
            finishes[event.tag] = queue.schedule(
                event.time + runtimes[event.tag] / 2, EventClass::kJobFinish,
                event.tag);
          break;
        case EventClass::kJobFinish:
          ++finished;
          break;
        default:
          break;
      }
    }
    benchmark::DoNotOptimize(finished);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_EventQueueDispatch)->Arg(10000)->Arg(100000);

// The engine's feed: a window of 4096 in-order arrivals is scheduled at
// once and refilled when its last arrival fires, while only the few
// running jobs' finishes (about ten at a time) sit beside them.  In-order
// arrivals wait in the queue's FIFO lane, so pops do not sift through the
// window.
void BM_EventQueueChunkedFeed(benchmark::State& state) {
  using es::sim::EventClass;
  constexpr std::size_t kWindow = 4096;
  const auto n = static_cast<std::size_t>(state.range(0));
  es::util::Rng rng(5);
  std::vector<double> gaps;
  std::vector<double> runtimes;
  gaps.reserve(n);
  runtimes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    gaps.push_back(rng.uniform(0, 20));
    runtimes.push_back(rng.uniform(50, 150));
  }
  std::uint64_t events = 0;
  for (auto _ : state) {
    es::sim::EventQueue queue;
    std::size_t next = 0;
    std::size_t arrivals_pending = 0;
    double arrival = 0;
    const auto refill = [&] {
      for (std::size_t end = std::min(n, next + kWindow); next < end; ++next) {
        arrival += gaps[next];
        queue.schedule(arrival, EventClass::kJobArrival, next);
        ++arrivals_pending;
      }
    };
    refill();
    std::uint64_t finished = 0;
    while (!queue.empty()) {
      const es::sim::Event event = queue.pop();
      ++events;
      if (event.cls == EventClass::kJobArrival) {
        queue.schedule(event.time + runtimes[event.tag],
                       EventClass::kJobFinish, event.tag);
        if (--arrivals_pending == 0) refill();
      } else {
        ++finished;
      }
    }
    benchmark::DoNotOptimize(finished);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_EventQueueChunkedFeed)->Arg(1 << 17)->Arg(1 << 20);

void BM_MachineAllocateRelease(benchmark::State& state) {
  es::cluster::Machine machine(320, 32);
  std::int64_t id = 0;
  for (auto _ : state) {
    machine.allocate(++id, 128);
    machine.allocate(++id, 160);
    machine.release(id - 1);
    machine.release(id);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 4);
}
BENCHMARK(BM_MachineAllocateRelease);

void BM_WorkloadGeneration(benchmark::State& state) {
  const auto jobs = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    es::workload::GeneratorConfig config;
    config.num_jobs = jobs;
    config.seed = ++seed;
    config.p_dedicated = 0.3;
    config.p_extend = 0.2;
    config.p_reduce = 0.1;
    benchmark::DoNotOptimize(es::workload::generate(config));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(jobs));
}
BENCHMARK(BM_WorkloadGeneration)->Arg(500)->Arg(5000);

void BM_WorkloadCalibration(benchmark::State& state) {
  std::uint64_t seed = 0;
  for (auto _ : state) {
    es::workload::GeneratorConfig config;
    config.num_jobs = 500;
    config.seed = ++seed;
    config.target_load = 0.9;
    benchmark::DoNotOptimize(es::workload::generate(config));
  }
}
BENCHMARK(BM_WorkloadCalibration);


void BM_ContiguousAllocateReleaseCompact(benchmark::State& state) {
  es::util::Rng rng(7);
  for (auto _ : state) {
    es::cluster::ContiguousMachine machine(128);
    std::vector<std::int64_t> active;
    std::int64_t id = 0;
    for (int step = 0; step < 200; ++step) {
      const int units = static_cast<int>(rng.uniform_int(1, 32));
      if (machine.fits(units)) {
        machine.allocate(++id, units);
        active.push_back(id);
      } else if (!active.empty()) {
        machine.release(active.back());
        active.pop_back();
        machine.compact();
      }
    }
    benchmark::DoNotOptimize(machine.fragmentation());
  }
}
BENCHMARK(BM_ContiguousAllocateReleaseCompact);

}  // namespace

BENCHMARK_MAIN();
