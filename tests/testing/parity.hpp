// Run-parity assertions shared by the streamed and windowed engine suites:
// two runs of the same trace must agree on every deterministic result field
// (wall timings and peak RSS excluded), doubles compared bit for bit.
#pragma once

#include <gtest/gtest.h>

#include <cstring>

#include "sched/metrics.hpp"

namespace es::testing {

/// Bitwise equality for doubles: parity means the same bits, not just
/// values within an epsilon.
inline ::testing::AssertionResult same_bits(double a, double b) {
  if (std::memcmp(&a, &b, sizeof(double)) == 0)
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << a << " vs " << b << " (bitwise mismatch)";
}

inline void expect_jobs_identical(const sched::SimulationResult& m,
                                  const sched::SimulationResult& s) {
  ASSERT_EQ(m.jobs.size(), s.jobs.size());
  for (std::size_t i = 0; i < m.jobs.size(); ++i) {
    const sched::JobOutcome& a = m.jobs[i];
    const sched::JobOutcome& b = s.jobs[i];
    EXPECT_EQ(a.id, b.id) << "job " << i;
    EXPECT_EQ(a.dedicated, b.dedicated) << "job " << i;
    EXPECT_EQ(a.killed, b.killed) << "job " << i;
    EXPECT_EQ(a.abandoned, b.abandoned) << "job " << i;
    EXPECT_EQ(a.interruptions, b.interruptions) << "job " << i;
    EXPECT_EQ(a.procs, b.procs) << "job " << i;
    EXPECT_TRUE(same_bits(a.arrival, b.arrival)) << "job " << i;
    EXPECT_TRUE(same_bits(a.started, b.started)) << "job " << i;
    EXPECT_TRUE(same_bits(a.finished, b.finished)) << "job " << i;
    EXPECT_TRUE(same_bits(a.wait, b.wait)) << "job " << i;
    EXPECT_TRUE(same_bits(a.run, b.run)) << "job " << i;
  }
}

/// Every deterministic field (wall timings and peak RSS excluded).
inline void expect_identical(const sched::SimulationResult& m,
                             const sched::SimulationResult& s) {
  EXPECT_TRUE(same_bits(m.utilization, s.utilization));
  EXPECT_TRUE(same_bits(m.mean_wait, s.mean_wait));
  EXPECT_TRUE(same_bits(m.slowdown, s.slowdown));
  EXPECT_TRUE(same_bits(m.mean_per_job_slowdown, s.mean_per_job_slowdown));
  EXPECT_TRUE(same_bits(m.mean_bounded_slowdown, s.mean_bounded_slowdown));
  EXPECT_TRUE(same_bits(m.mean_run, s.mean_run));
  EXPECT_TRUE(same_bits(m.max_wait, s.max_wait));
  EXPECT_TRUE(same_bits(m.mean_dedicated_delay, s.mean_dedicated_delay));
  EXPECT_EQ(m.dedicated_on_time, s.dedicated_on_time);
  EXPECT_EQ(m.completed, s.completed);
  EXPECT_EQ(m.killed, s.killed);
  EXPECT_EQ(m.abandoned, s.abandoned);
  EXPECT_TRUE(same_bits(m.first_arrival, s.first_arrival));
  EXPECT_TRUE(same_bits(m.last_finish, s.last_finish));
  EXPECT_TRUE(same_bits(m.makespan, s.makespan));
  EXPECT_EQ(m.cycles, s.cycles);
  EXPECT_EQ(m.events, s.events);
  EXPECT_EQ(m.termination, s.termination);
  EXPECT_EQ(m.unfinished, s.unfinished);
  EXPECT_TRUE(same_bits(m.offered_load, s.offered_load));

  EXPECT_EQ(m.ecc.processed, s.ecc.processed);
  EXPECT_EQ(m.ecc.extensions, s.ecc.extensions);
  EXPECT_EQ(m.ecc.reductions, s.ecc.reductions);
  EXPECT_EQ(m.ecc.rejected, s.ecc.rejected);
  EXPECT_EQ(m.ecc.unknown_job, s.ecc.unknown_job);
  EXPECT_EQ(m.ecc.after_finish, s.ecc.after_finish);
  EXPECT_EQ(m.ecc.running_resizes, s.ecc.running_resizes);
  EXPECT_EQ(m.ecc.conflicts, s.ecc.conflicts);

  EXPECT_EQ(m.failure.outages, s.failure.outages);
  EXPECT_EQ(m.failure.interruptions, s.failure.interruptions);
  EXPECT_EQ(m.failure.requeues, s.failure.requeues);
  EXPECT_EQ(m.failure.abandoned, s.failure.abandoned);
  EXPECT_TRUE(same_bits(m.failure.lost_proc_seconds,
                        s.failure.lost_proc_seconds));
  EXPECT_TRUE(same_bits(m.failure.wasted_proc_seconds,
                        s.failure.wasted_proc_seconds));
  EXPECT_TRUE(same_bits(m.failure.goodput_proc_seconds,
                        s.failure.goodput_proc_seconds));
  EXPECT_TRUE(same_bits(m.failure.down_proc_seconds,
                        s.failure.down_proc_seconds));
  EXPECT_EQ(m.failure.checkpoints, s.failure.checkpoints);
  EXPECT_TRUE(same_bits(m.failure.saved_proc_seconds,
                        s.failure.saved_proc_seconds));

  EXPECT_EQ(m.perf.dp.calls, s.perf.dp.calls);
  EXPECT_EQ(m.perf.dp.table_runs, s.perf.dp.table_runs);
  EXPECT_EQ(m.perf.events.scheduled, s.perf.events.scheduled);
  EXPECT_EQ(m.perf.events.cancelled, s.perf.events.cancelled);
  EXPECT_EQ(m.perf.events.fired, s.perf.events.fired);

  expect_jobs_identical(m, s);
}

}  // namespace es::testing
