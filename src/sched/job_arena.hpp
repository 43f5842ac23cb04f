// Slab arena for JobRun records.
//
// The engine used to heap-allocate one JobRun per job (a unique_ptr each);
// at million-job scale that is a million scattered allocations dragged
// through every queue walk.  The arena extends the slab idiom the event
// queue proved out: fixed-size chunks of cache-line-aligned JobRun records
// (addresses stable forever — chunks are never reallocated), a LIFO free
// list so the engine recycles retired jobs' slots first, and
// generation-tagged handles so a released-and-reused slot can never be
// confused with the record a stale handle meant.  A slot's generation is
// odd while it holds a live record and even while it is free.
//
// The cold parallel array (JobRunCold: end time, interruption count) lives
// chunk-by-chunk next to the hot records; `cold(job)` is one index away
// via JobRun::arena_slot.  See job_state.hpp for the hot/cold split
// rationale.
//
// A chunk's hot and cold arrays are raw storage: claim() constructs each
// record when it hands the slot out, so a run touches only the slots it
// claims.  An unclaimed slot is never read, because every access to a
// slot goes through its generation first (zero-filled with the chunk):
// get() and for_each_live() skip a slot that is not live, and release(),
// handle_of() and cold() take records that claim() returned.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "sched/job_state.hpp"
#include "util/check.hpp"

namespace es::sched {

class JobRunArena {
 public:
  /// Records per chunk: 1024 hot records = 128 KiB, a good growth quantum
  /// for both a 200-job fig run and a million-job stream.
  static constexpr std::uint32_t kChunkJobs = 1024;

  /// Generation-tagged reference.  A default-constructed handle is null;
  /// a handle to a released slot stops resolving the moment the slot is
  /// released (the slot's generation is bumped), even before reuse.
  struct Handle {
    std::uint32_t slot = 0;
    std::uint32_t gen = 0;  ///< 0 = null (live generations are odd)

    bool valid() const { return gen != 0; }
    friend bool operator==(Handle a, Handle b) {
      return a.slot == b.slot && a.gen == b.gen;
    }
  };

  JobRunArena() = default;
  JobRunArena(const JobRunArena&) = delete;
  JobRunArena& operator=(const JobRunArena&) = delete;

  /// Claims a slot and returns a freshly value-initialized record with
  /// `arena_slot` set, its cold fields value-initialized too.  Amortized
  /// O(1); grows by one chunk when the free list is empty.  Pointers remain
  /// stable until release().
  JobRun* claim() {
    if (free_.empty()) grow();
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    ++gen_slot(slot);  // odd: live
    JobRun* job = std::construct_at(&hot_slot(slot));
    job->arena_slot = slot;
    std::construct_at(&cold_slot(slot));
    ++live_;
    ++claims_;
    return job;
  }

  /// Returns the slot to the free list and invalidates every outstanding
  /// handle to it.  The record must have come from this arena's claim().
  void release(JobRun* job) {
    ES_EXPECTS(job != nullptr);
    const std::uint32_t slot = job->arena_slot;
    ES_EXPECTS(slot < slots() && &hot_slot(slot) == job);
    std::uint32_t& gen = gen_slot(slot);
    ES_EXPECTS((gen & 1u) != 0);  // live
    ++gen;  // even: free (a wrap lands on 0, which stays free and null)
    free_.push_back(slot);
    ES_EXPECTS(live_ > 0);
    --live_;
  }

  /// Handle for a live record (claim it first).
  Handle handle_of(const JobRun& job) const {
    ES_EXPECTS(job.arena_slot < slots());
    return Handle{job.arena_slot, gen_slot(job.arena_slot)};
  }

  /// Resolves a handle; nullptr when null, out of range, or stale (the
  /// slot was released — and possibly reused — since the handle was made).
  JobRun* get(Handle h) {
    if (!h.valid() || h.slot >= slots() || gen_slot(h.slot) != h.gen)
      return nullptr;
    return &hot_slot(h.slot);
  }
  const JobRun* get(Handle h) const {
    return const_cast<JobRunArena*>(this)->get(h);
  }

  /// The cold parallel fields of a live record.
  JobRunCold& cold(const JobRun& job) {
    ES_ASSERT(job.arena_slot < slots());
    return cold_slot(job.arena_slot);
  }
  const JobRunCold& cold(const JobRun& job) const {
    return const_cast<JobRunArena*>(this)->cold(job);
  }

  /// Calls `fn(const JobRun&)` for every live record, in slot order.
  template <class Fn>
  void for_each_live(Fn&& fn) const {
    for (std::uint32_t slot = 0; slot < slots(); ++slot)
      if ((gen_slot(slot) & 1u) != 0)
        fn(static_cast<const JobRun&>(
            chunks_[slot / kChunkJobs].hot[slot % kChunkJobs]));
  }

  std::size_t live() const { return live_; }
  /// Slots ever created: the high-water mark of live records, rounded up
  /// to whole chunks (slots are never returned to the system).
  std::size_t slots() const { return chunks_.size() * kChunkJobs; }
  std::uint64_t claims() const { return claims_; }

 private:
  // Records are constructed over whatever a slot held and never
  // destroyed, which is only sound for trivially destructible types.
  static_assert(std::is_trivially_destructible_v<JobRun>);
  static_assert(std::is_trivially_destructible_v<JobRunCold>);

  /// Frees kChunkJobs records of raw storage.
  template <class T>
  struct RawDelete {
    void operator()(T* records) const {
      ::operator delete(records, std::align_val_t{alignof(T)});
    }
  };
  template <class T>
  using RawArray = std::unique_ptr<T[], RawDelete<T>>;

  struct Chunk {
    RawArray<JobRun> hot;
    RawArray<JobRunCold> cold;
    std::unique_ptr<std::uint32_t[]> gen;  ///< zero-filled: every slot free
  };

  void grow();

  JobRun& hot_slot(std::uint32_t slot) {
    return chunks_[slot / kChunkJobs].hot[slot % kChunkJobs];
  }
  JobRunCold& cold_slot(std::uint32_t slot) {
    return chunks_[slot / kChunkJobs].cold[slot % kChunkJobs];
  }
  std::uint32_t& gen_slot(std::uint32_t slot) {
    return chunks_[slot / kChunkJobs].gen[slot % kChunkJobs];
  }
  std::uint32_t gen_slot(std::uint32_t slot) const {
    return chunks_[slot / kChunkJobs].gen[slot % kChunkJobs];
  }

  std::vector<Chunk> chunks_;
  std::vector<std::uint32_t> free_;  ///< LIFO: retired slots are reused first
  std::size_t live_ = 0;
  std::uint64_t claims_ = 0;
};

}  // namespace es::sched
