#include "sched/job_arena.hpp"

namespace es::sched {

void JobRunArena::grow() {
  const std::uint32_t base =
      static_cast<std::uint32_t>(chunks_.size()) * kChunkJobs;
  Chunk chunk;
  chunk.hot = std::make_unique<JobRun[]>(kChunkJobs);
  chunk.cold = std::make_unique<JobRunCold[]>(kChunkJobs);
  chunk.gen = std::make_unique<std::uint32_t[]>(kChunkJobs);
    chunks_.push_back(std::move(chunk));
  // Push in reverse so the LIFO free list hands out ascending slots — a
  // fresh arena claims 0, 1, 2, ... deterministically.
  free_.reserve(free_.size() + kChunkJobs);
  for (std::uint32_t i = 0; i < kChunkJobs; ++i)
    free_.push_back(base + (kChunkJobs - 1 - i));
}

}  // namespace es::sched
