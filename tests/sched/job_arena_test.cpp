// JobRunArena contract tests: slot reuse, generation-tagged staleness, the
// hot/cold parallel arrays, and a randomized model check that drives the
// arena through thousands of claim/release cycles against a shadow model.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <unordered_map>
#include <vector>

#include "sched/job_arena.hpp"

namespace es {
namespace {

using sched::JobRun;
using sched::JobRunArena;

TEST(JobRunArena, ClaimInitializesAndTracksLive) {
  JobRunArena arena;
  EXPECT_EQ(arena.live(), 0u);
  JobRun* job = arena.claim();
  ASSERT_NE(job, nullptr);
  EXPECT_EQ(arena.live(), 1u);
  EXPECT_EQ(arena.claims(), 1u);
  // Value-initialized record: no state leaks from previous occupants.
  EXPECT_EQ(job->id, 0);
  EXPECT_EQ(job->status, sched::JobStatus::kWaiting);
  EXPECT_EQ(arena.cold(*job).end_time, -1);
  EXPECT_EQ(arena.cold(*job).interruptions, 0);
  EXPECT_EQ(arena.cold(*job).ecc_pending, 0);
  arena.release(job);
  EXPECT_EQ(arena.live(), 0u);
}

TEST(JobRunArena, NullHandleNeverResolves) {
  JobRunArena arena;
  EXPECT_EQ(arena.get(JobRunArena::Handle{}), nullptr);
  EXPECT_EQ(arena.get(JobRunArena::Handle{123, 0}), nullptr);
  // Out of range slot.
  EXPECT_EQ(arena.get(JobRunArena::Handle{1u << 30, 1}), nullptr);
}

TEST(JobRunArena, ReleaseInvalidatesHandlesBeforeReuse) {
  JobRunArena arena;
  JobRun* job = arena.claim();
  const JobRunArena::Handle handle = arena.handle_of(*job);
  EXPECT_EQ(arena.get(handle), job);
  arena.release(job);
  // Stale already — the slot has not even been reused yet.
  EXPECT_EQ(arena.get(handle), nullptr);
}

TEST(JobRunArena, LifoReuseBumpsGeneration) {
  JobRunArena arena;
  JobRun* first = arena.claim();
  const std::uint32_t slot = first->arena_slot;
  const JobRunArena::Handle old_handle = arena.handle_of(*first);
  first->id = 42;
  arena.cold(*first).interruptions = 9;
  arena.release(first);

  JobRun* second = arena.claim();
  // LIFO free list: the most recently released slot is reused first.
  EXPECT_EQ(second->arena_slot, slot);
  EXPECT_EQ(second, first);  // same storage...
  EXPECT_EQ(second->id, 0);  // ...fresh record
  EXPECT_EQ(arena.cold(*second).interruptions, 0);
  const JobRunArena::Handle new_handle = arena.handle_of(*second);
  EXPECT_NE(old_handle.gen, new_handle.gen);
  EXPECT_EQ(arena.get(old_handle), nullptr);  // stale despite live occupant
  EXPECT_EQ(arena.get(new_handle), second);
}

TEST(JobRunArena, GrowsAcrossChunksWithStableAddresses) {
  JobRunArena arena;
  constexpr std::size_t kJobs = JobRunArena::kChunkJobs * 3 + 17;
  std::vector<JobRun*> jobs;
  jobs.reserve(kJobs);
  for (std::size_t i = 0; i < kJobs; ++i) {
    JobRun* job = arena.claim();
    job->id = static_cast<workload::JobId>(i);
    jobs.push_back(job);
  }
  EXPECT_EQ(arena.live(), kJobs);
  EXPECT_GE(arena.slots(), kJobs);
  // Addresses stay stable across the chunk growth that happened above, and
  // every record still carries the value written at claim time.
  for (std::size_t i = 0; i < kJobs; ++i) {
    EXPECT_EQ(jobs[i]->id, static_cast<workload::JobId>(i));
    EXPECT_EQ(arena.get(arena.handle_of(*jobs[i])), jobs[i]);
  }
  for (JobRun* job : jobs) arena.release(job);
  EXPECT_EQ(arena.live(), 0u);
}

// Randomized model check: the arena against a shadow map of live records
// and a log of every handle ever issued.  Invariants after every step:
// live handles resolve to the right record with the right payload, every
// released handle misses, live() matches the model.
TEST(JobRunArena, RandomizedModelCheck) {
  JobRunArena arena;
  std::mt19937 rng(20260808);

  struct LiveRecord {
    JobRun* job;
    JobRunArena::Handle handle;
    std::int64_t payload;
  };
  std::vector<LiveRecord> live;
  std::vector<JobRunArena::Handle> stale;
  std::int64_t next_payload = 1;

  for (int step = 0; step < 20000; ++step) {
    const bool do_claim =
        live.empty() || std::uniform_int_distribution<int>(0, 99)(rng) < 55;
    if (do_claim) {
      JobRun* job = arena.claim();
      job->id = next_payload;
      arena.cold(*job).ecc_pending = static_cast<std::int32_t>(step);
      live.push_back({job, arena.handle_of(*job), next_payload});
      ++next_payload;
    } else {
      const std::size_t pick = std::uniform_int_distribution<std::size_t>(
          0, live.size() - 1)(rng);
      arena.release(live[pick].job);
      stale.push_back(live[pick].handle);
      live[pick] = live.back();
      live.pop_back();
    }

    ASSERT_EQ(arena.live(), live.size());
    if (step % 97 == 0) {  // full sweep occasionally; O(n) per check
      for (const LiveRecord& record : live) {
        JobRun* resolved = arena.get(record.handle);
        ASSERT_EQ(resolved, record.job);
        ASSERT_EQ(resolved->id, record.payload);
      }
      for (const JobRunArena::Handle handle : stale)
        ASSERT_EQ(arena.get(handle), nullptr);
    }
  }
  // Model says these are all distinct records: payloads must all differ.
  std::unordered_map<std::uint32_t, std::int64_t> by_slot;
  for (const LiveRecord& record : live) {
    const auto [it, inserted] =
        by_slot.emplace(record.job->arena_slot, record.payload);
    (void)it;
    ASSERT_TRUE(inserted) << "two live records share a slot";
  }
}

}  // namespace
}  // namespace es
