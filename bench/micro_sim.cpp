// Microbenchmarks for the simulation substrate: event-queue throughput,
// the engine's fixed cost per event, one FairShare policy cycle, machine
// ledger operations, workload-generator speed and load calibration
// (materialized and streamed).
#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include <benchmark/benchmark.h>

#include "cluster/machine.hpp"
#include "core/factory.hpp"
#include "sched/engine.hpp"
#include "sched/fairshare.hpp"
#include "sim/event_queue.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"
#include "workload/source.hpp"

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

// The engine's fixed cost per event: whole Engine runs of a short-queue
// EASY workload (load 0.5, no DP), reported as wall time per fired event.
// A cost paid on every event or cycle — a clock read, say — shows here
// first, where the DP and the queue scans do not hide it.
void BM_EngineEventOverhead(benchmark::State& state) {
  es::workload::GeneratorConfig generator;
  generator.num_jobs = static_cast<std::size_t>(state.range(0));
  generator.seed = 7;
  generator.target_load = 0.5;
  const es::workload::Workload workload = es::workload::generate(generator);
  es::core::Algorithm algorithm = es::core::make_algorithm("EASY");
  es::sched::EngineConfig config;
  config.machine_procs = workload.machine_procs;
  config.granularity = workload.granularity;
  std::uint64_t events = 0;
  for (auto _ : state) {
    const es::sched::SimulationResult result =
        es::sched::simulate(config, *algorithm.policy, workload);
    events += result.perf.events.fired;
    benchmark::DoNotOptimize(result.mean_wait);
  }
  state.counters["per_event"] =
      benchmark::Counter(static_cast<double>(events),
                         benchmark::Counter::kIsRate |
                             benchmark::Counter::kInvert);
}
BENCHMARK(BM_EngineEventOverhead)->Arg(5000)->Unit(benchmark::kMillisecond);

// One FairShare cycle on a hand-built context: 4 weighted pools, a
// 200-deep backlog over them behind a head that needs the whole machine.
// Two grains are free, so every cycle ranks the pools and visits each
// pool's list past the pivot, while the head's shadow keeps every backlog
// job out and the state never changes.  Reported as wall time per cycle.
void BM_FairShareCycle(benchmark::State& state) {
  constexpr int kProcs = 320;
  constexpr int kGrain = 32;
  constexpr int kPools = 4;
  constexpr int kQueueDepth = 200;
  es::cluster::Machine machine(kProcs, kGrain);
  std::deque<es::sched::JobRun> jobs;  // stable addresses
  es::sched::JobQueue batch;
  std::vector<es::sched::JobRun*> dedicated;
  std::vector<es::sched::JobRun*> active;
  const auto make = [&](int procs, double estimate, int pool)
      -> es::sched::JobRun& {
    es::sched::JobRun& job = jobs.emplace_back();
    job.id = static_cast<es::workload::JobId>(jobs.size());
    job.num = procs;
    job.req_time = estimate;
    job.actual_time = estimate;
    job.pool = static_cast<std::uint8_t>(pool);
    return job;
  };
  es::sched::JobRun& runner = make(kProcs - 2 * kGrain, 100, 0);
  runner.status = es::sched::JobStatus::kRunning;
  runner.start_time = 0;
  runner.alloc = machine.allocate(runner.id, runner.num);
  active.push_back(&runner);
  batch.push_back(&make(kProcs, 500, 1));
  for (int i = 0; i < kQueueDepth; ++i)
    batch.push_back(&make(kGrain * (1 + i % 2), 5000, i % kPools));

  es::sched::SchedulerContext ctx;
  ctx.now = 10;
  ctx.machine = &machine;
  ctx.batch = &batch;
  ctx.dedicated = &dedicated;
  ctx.active = &active;
  std::int64_t starts = 0;
  ctx.start = [&](es::sched::JobRun*) { ++starts; };
  ctx.preempt = [&](es::sched::JobRun*) { ++starts; };
  es::sched::FairShareConfig config;
  config.pools = {{"prod", 4.0, 0.25},
                  {"batch", 2.0, 0.0},
                  {"dev", 1.0, 0.0},
                  {"scavenger", 1.0, 0.0}};
  es::sched::FairShare policy(config);
  for (auto _ : state) policy.cycle(ctx);
  if (starts != 0) state.SkipWithError("the cycle must not start anything");
  state.counters["per_cycle"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate |
                             benchmark::Counter::kInvert);
}
BENCHMARK(BM_FairShareCycle);

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

// A materialized Hybrid-LOS-E run's set-up: the hetero_elastic benchmark's
// generator config (dedicated jobs, time ECCs, load 0.8) at a tenth of its
// jobs, sampled, calibrated and rescaled by generate().
void BM_HeteroGeneration(benchmark::State& state) {
  constexpr std::size_t kJobs = 30000;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    es::workload::GeneratorConfig config;
    config.machine_procs = 320;
    config.num_jobs = kJobs;
    config.seed = ++seed;
    config.p_small = 0.5;
    config.p_dedicated = 0.5;
    config.p_extend = 0.3;
    config.p_reduce = 0.3;
    config.target_load = 0.8;
    benchmark::DoNotOptimize(es::workload::generate(config));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kJobs));
}
BENCHMARK(BM_HeteroGeneration)->Unit(benchmark::kMillisecond);

// A streamed run's set-up: GeneratorSource's constructor draws the trace
// once for load calibration before the first chunk (the bgp_1m benchmark's
// machine and mix at a tenth of its jobs).
void BM_StreamedCalibration(benchmark::State& state) {
  std::uint64_t seed = 0;
  for (auto _ : state) {
    es::workload::GeneratorConfig config;
    config.machine_procs = 320;
    config.num_jobs = 100000;
    config.seed = ++seed;
    config.p_small = 0.5;
    config.target_load = 0.7;
    es::workload::GeneratorSource source(config);
    benchmark::DoNotOptimize(source.scale_factors().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          100000);
}
BENCHMARK(BM_StreamedCalibration)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
