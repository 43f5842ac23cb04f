#include "sched/job_arena.hpp"

namespace es::sched {
namespace {

/// Uninitialized storage for kChunkJobs records of T.
template <class T>
T* raw_records() {
  return static_cast<T*>(::operator new(
      sizeof(T) * JobRunArena::kChunkJobs, std::align_val_t{alignof(T)}));
}

}  // namespace

void JobRunArena::grow() {
  const std::uint32_t base =
      static_cast<std::uint32_t>(chunks_.size()) * kChunkJobs;
  Chunk chunk;
  chunk.hot.reset(raw_records<JobRun>());
  chunk.cold.reset(raw_records<JobRunCold>());
  chunk.gen = std::make_unique<std::uint32_t[]>(kChunkJobs);
  chunks_.push_back(std::move(chunk));
  // Push in reverse so the LIFO free list hands out ascending slots — a
  // fresh arena claims 0, 1, 2, ... deterministically.
  free_.reserve(free_.size() + kChunkJobs);
  for (std::uint32_t i = 0; i < kChunkJobs; ++i)
    free_.push_back(base + (kChunkJobs - 1 - i));
}

}  // namespace es::sched
