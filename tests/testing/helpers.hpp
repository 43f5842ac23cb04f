// Shared test utilities: terse workload builders and a scenario harness that
// runs a hand-crafted workload under a named algorithm and exposes per-job
// outcomes for assertions.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <utility>
#include <string>
#include <vector>

#include "exp/experiment.hpp"
#include "sched/metrics.hpp"
#include "workload/job.hpp"

namespace es::testing {

inline workload::Job batch_job(workload::JobId id, double arr, int num,
                               double dur, double actual = -1) {
  workload::Job job;
  job.id = id;
  job.arr = arr;
  job.num = num;
  job.dur = dur;
  job.actual = actual;
  return job;
}

inline workload::Job dedicated_job(workload::JobId id, double arr, int num,
                                   double dur, double start) {
  workload::Job job = batch_job(id, arr, num, dur);
  job.type = workload::JobType::kDedicated;
  job.start = start;
  return job;
}

inline workload::Workload make_workload(int procs, int granularity,
                                        std::vector<workload::Job> jobs,
                                        std::vector<workload::Ecc> eccs = {}) {
  workload::Workload workload;
  workload.machine_procs = procs;
  workload.granularity = granularity;
  workload.jobs = std::move(jobs);
  workload.eccs = std::move(eccs);
  workload.normalize();
  return workload;
}

/// Result of a scenario run with per-job lookup.
struct Scenario {
  sched::SimulationResult result;
  std::map<workload::JobId, sched::JobOutcome> by_id;

  const sched::JobOutcome& job(workload::JobId id) const {
    return by_id.at(id);
  }
  double start_of(workload::JobId id) const { return job(id).started; }
  double end_of(workload::JobId id) const { return job(id).finished; }
};

inline Scenario run_scenario(const workload::Workload& workload,
                             const std::string& algorithm,
                             core::AlgorithmOptions options = {}) {
  Scenario scenario;
  scenario.result = exp::run_workload(workload, algorithm, options);
  for (const sched::JobOutcome& outcome : scenario.result.jobs)
    scenario.by_id[outcome.id] = outcome;
  return scenario;
}

/// FNV-1a over every job's (id, start, finish, interruptions), doubles
/// hashed by their bit pattern: a golden fingerprint of a run's decisions.
inline std::uint64_t outcome_hash(const sched::SimulationResult& result) {
  std::uint64_t hash = 14695981039346656037ull;
  const auto mix = [&hash](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ull;
    }
  };
  const auto bits = [](double value) {
    std::uint64_t word = 0;
    std::memcpy(&word, &value, sizeof word);
    return word;
  };
  for (const sched::JobOutcome& job : result.jobs) {
    mix(static_cast<std::uint64_t>(job.id));
    mix(bits(job.started));
    mix(bits(job.finished));
    mix(static_cast<std::uint64_t>(job.interruptions));
  }
  return hash;
}

/// `options` plus node failures (MTBF 40000 s, MTTR 4000 s, up to 2 node
/// cards) and periodic checkpoints (every 2000 s, 30 s overhead), so a
/// parity check over a generated trace also covers the failure RNG,
/// requeues and checkpoint banks.
inline core::AlgorithmOptions with_faults_and_checkpoints(
    core::AlgorithmOptions options = {}) {
  options.engine.failure.enabled = true;
  options.engine.failure.seed = 11;
  options.engine.failure.mtbf = 40000;
  options.engine.failure.mttr = 4000;
  options.engine.failure.max_nodes = 2;
  options.engine.checkpoint.enabled = true;
  options.engine.checkpoint.interval = 2000;
  options.engine.checkpoint.overhead = 30;
  return options;
}

/// Verifies the fundamental resource invariant from the per-job outcomes:
/// at no instant does the sum of allocated processors exceed the machine.
/// Returns the peak concurrent allocation.
inline int peak_allocation(const sched::SimulationResult& result) {
  // Sweep events: +procs at start, -procs at finish (finish before start at
  // the same instant, matching the engine's event ordering).
  std::vector<std::pair<double, int>> deltas;
  deltas.reserve(result.jobs.size() * 2);
  for (const auto& job : result.jobs) {
    deltas.emplace_back(job.started, job.procs);
    deltas.emplace_back(job.finished, -job.procs);
  }
  std::sort(deltas.begin(), deltas.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first < b.first;
              return a.second < b.second;  // releases first
            });
  int current = 0;
  int peak = 0;
  for (const auto& [time, delta] : deltas) {
    current += delta;
    peak = std::max(peak, current);
  }
  return peak;
}

}  // namespace es::testing
