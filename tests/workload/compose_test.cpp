#include "workload/compose.hpp"

#include <gtest/gtest.h>

#include <set>

namespace es::workload {
namespace {

Job simple_job(JobId id, double arr, int num, double dur) {
  Job job;
  job.id = id;
  job.arr = arr;
  job.num = num;
  job.dur = dur;
  return job;
}

Workload two_jobs(int procs = 10) {
  Workload workload;
  workload.machine_procs = procs;
  workload.granularity = 1;
  workload.jobs = {simple_job(1, 0, 4, 100), simple_job(2, 50, 6, 100)};
  workload.normalize();
  return workload;
}

TEST(Compose, ConcatenateShiftsAndRenumbers) {
  const Workload base = two_jobs();          // span: 0 .. 150
  const Workload combined = concatenate(base, two_jobs(), /*gap=*/10);
  ASSERT_EQ(combined.jobs.size(), 4u);
  // Tail's first arrival lands at 150 + 10.
  EXPECT_DOUBLE_EQ(combined.jobs[2].arr, 160);
  EXPECT_DOUBLE_EQ(combined.jobs[3].arr, 210);
  std::set<JobId> ids;
  for (const Job& job : combined.jobs) ids.insert(job.id);
  EXPECT_EQ(ids.size(), 4u);  // unique ids
}

TEST(Compose, ConcatenateMovesDedicatedStartsAndEccs) {
  Workload tail = two_jobs();
  tail.jobs[0].type = JobType::kDedicated;
  tail.jobs[0].start = 30;
  Ecc ecc;
  ecc.job_id = 2;
  ecc.issue = 60;
  ecc.type = EccType::kExtendTime;
  ecc.amount = 5;
  tail.eccs = {ecc};
  const Workload combined = concatenate(two_jobs(), tail, 0);
  bool found_dedicated = false;
  for (const Job& job : combined.jobs) {
    if (job.dedicated()) {
      EXPECT_DOUBLE_EQ(job.start, 150 + 30);
      found_dedicated = true;
    }
  }
  EXPECT_TRUE(found_dedicated);
  ASSERT_EQ(combined.eccs.size(), 1u);
  EXPECT_DOUBLE_EQ(combined.eccs[0].issue, 150 + 60);
  // The ECC follows its renumbered target.
  EXPECT_EQ(combined.eccs[0].job_id, 4);
}

TEST(Compose, ConcatenateEmptySides) {
  const Workload base = two_jobs();
  const Workload with_empty = concatenate(base, Workload{}, 5);
  EXPECT_EQ(with_empty.jobs.size(), 2u);
  Workload empty;
  empty.machine_procs = 10;
  const Workload from_empty = concatenate(empty, base, 0);
  EXPECT_EQ(from_empty.jobs.size(), 2u);
  EXPECT_DOUBLE_EQ(from_empty.jobs[0].arr, 0);
}

TEST(ComposeDeath, MismatchedMachinesRejected) {
  EXPECT_DEATH(concatenate(two_jobs(10), two_jobs(20)), "precondition");
}

}  // namespace
}  // namespace es::workload
