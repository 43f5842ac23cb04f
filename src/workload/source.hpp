// Pull-based streaming workload ingestion.
//
// A JobSource feeds the engine the trace in bounded chunks, so a
// ten-million-job run holds only the jobs currently in flight; Engine::run()
// feeds a materialized workload the same way, through MaterializedSource.
// A chunked run is byte-identical to scheduling the whole trace up front
// because every chunk obeys three ordering contracts the event kernel's
// (time, class, seq) comparator relies on:
//
//   1. Jobs arrive sorted by (arr, id) and a chunk boundary never splits a
//      group of equal arrival times: the next chunk's first arrival is
//      strictly later than this chunk's last.  Refills happen when the last
//      scheduled arrival fires, so every event a refill schedules lies
//      strictly in the simulated future and per-class schedule order (the
//      same-instant tiebreak) matches the materialized run's.
//   2. ECCs are delivered in the chunk whose arrival window
//      [first arr, next chunk's first arr) contains their issue time,
//      sorted by (issue, job id) with generation/file order preserved for
//      ties — windows never split an equal-issue group, so the chunkwise
//      concatenation equals Workload::normalize()'s global stable order.
//      Every ECC must satisfy issue >= its job's arrival (true for the
//      generator by construction), or name a job handed ahead
//      (SourceChunk::ahead); either way the target job is built before the
//      command fires.
//
//   Contracts 1 and 2 also keep the event queue's FIFO lanes sorted: each
//   refill's arrivals and commands sort after every arrival and command
//   still pending, so they are appended to their lanes rather than pushed
//   through the heap (sim/event_queue.hpp).  The pop order does not depend
//   on it — an out-of-order entry goes to the heap — only the cost does.
//
//   3. ecc_counts[i] is the TOTAL number of commands the stream will ever
//      deliver for jobs[i], known at build time, so the engine can retire a
//      finished job's record the moment its last command has dispatched.
//
// Job ids are unique across the stream: MaterializedSource checks the
// whole trace, the generator numbers jobs 1..N, and the engine's id index
// (kept when it processes ECCs) rejects a live duplicate.
//
// MaterializedSource relaxes contracts 1 and 2 to accept everything
// Engine::run() does (see its comment).  CWF files allow commands to
// reference jobs arbitrarily far back with no per-job totals until EOF, so
// SWF and CWF traces load through load_cwf_workload() and stream through
// MaterializedSource (bounded engine state; the parsed workload itself stays
// resident).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "workload/generator.hpp"
#include "workload/job.hpp"

namespace es::workload {

/// One bounded slice of the trace.  `jobs` and `ecc_counts` are parallel,
/// and so are `ahead` and `ahead_ecc_counts`: jobs of a later chunk that a
/// command in this chunk names (only MaterializedSource hands any ahead).
/// The engine builds their records now, so the command finds them, and
/// schedules their arrivals when they come round in their own chunk's
/// `jobs`.
struct SourceChunk {
  std::vector<Job> jobs;
  std::vector<int> ecc_counts;
  std::vector<Ecc> eccs;
  std::vector<Job> ahead;
  std::vector<int> ahead_ecc_counts;

  void clear() {
    jobs.clear();
    ecc_counts.clear();
    eccs.clear();
    ahead.clear();
    ahead_ecc_counts.clear();
  }
};

/// Pull interface the streaming engine drains.  Implementations own the
/// ordering contracts documented at the top of this header.
class JobSource {
 public:
  virtual ~JobSource();

  /// Machine geometry of the stream (known before the first chunk).
  virtual int machine_procs() const = 0;
  virtual int granularity() const = 0;

  /// Fills `chunk` with the next slice (clearing it first) and returns
  /// true; returns false once the stream is exhausted.  A true return
  /// implies a non-empty `jobs`, except for a workload of commands only.
  virtual bool next_chunk(SourceChunk& chunk) = 0;

  /// The number of jobs the whole stream delivers, when known up front.
  virtual std::optional<std::uint64_t> total_jobs() const {
    return std::nullopt;
  }
};

/// The one window cut over a materialized workload: MaterializedSource's
/// chunks, and so Engine::run()'s event feed.  A window is
/// `chunk_jobs` consecutive jobs, extended so an equal-arrival group is
/// never split, plus the ECCs whose issue time falls in [first arr, next
/// window's first arr) — the first window also takes every earlier command
/// and the last every later one.  The cut needs jobs sorted by
/// non-decreasing arrival and ECCs by non-decreasing issue time
/// (Workload::normalize() guarantees both); on a workload that is not, it
/// returns one window covering everything.
class WorkloadCursor {
 public:
  static constexpr std::size_t kDefaultChunkJobs = 4096;

  /// Index ranges [begin, end) into the workload's jobs and eccs.
  struct Window {
    std::size_t job_begin = 0;
    std::size_t job_end = 0;
    std::size_t ecc_begin = 0;
    std::size_t ecc_end = 0;
  };

  /// The workload must outlive the cursor.
  explicit WorkloadCursor(const Workload& workload,
                          std::size_t chunk_jobs = kDefaultChunkJobs);

  /// Cuts the next window; false once every job and command was handed
  /// out.  A window holds at least one job unless the workload has none.
  bool next(Window& window);

  const Workload& workload() const { return *workload_; }

 private:
  const Workload* workload_;
  std::size_t chunk_jobs_;
  std::size_t job_ = 0;
  std::size_t ecc_ = 0;
};

/// Streams an already-materialized workload in WorkloadCursor windows: the
/// source Engine::run() drains, and the one CWF traces stream through
/// (their backward ECC references defeat true streaming; the engine-side
/// structures stay bounded even though the workload vector is resident).
/// It accepts everything run() does:
///   * an unsorted workload runs as one window (the cursor's rule);
///   * a command issued before its job's window hands that job's spec
///     ahead (SourceChunk::ahead) in the command's window;
///   * a command naming no job is delivered like any other — the engine
///     skips it and EccAuditObserver counts it;
///   * a job id repeated anywhere in the trace is a precondition failure
///     at construction.
class MaterializedSource : public JobSource {
 public:
  static constexpr std::size_t kNoJob = static_cast<std::size_t>(-1);

  /// The workload must outlive the source.
  explicit MaterializedSource(
      const Workload& workload,
      std::size_t chunk_jobs = WorkloadCursor::kDefaultChunkJobs);

  int machine_procs() const override {
    return cursor_.workload().machine_procs;
  }
  int granularity() const override { return cursor_.workload().granularity; }
  bool next_chunk(SourceChunk& chunk) override;
  std::optional<std::uint64_t> total_jobs() const override {
    return cursor_.workload().jobs.size();
  }

  /// Index of the job with `id` in the workload, or kNoJob.
  std::size_t index_of(JobId id) const;

 private:
  WorkloadCursor cursor_;
  /// Job ids strictly increase in workload order (generated and most
  /// archive traces): index_of() searches the jobs in place.
  bool ids_ascending_ = true;
  /// Otherwise (id, index) pairs sorted by id.
  std::vector<std::pair<JobId, std::size_t>> sorted_ids_;
  std::vector<int> ecc_totals_;  ///< per job index; empty without commands
  std::vector<bool> handed_ahead_;  ///< sized by the first early command
};

/// Streams the synthetic Lublin/CWF generator without materializing the
/// trace: bitwise-identical to generate(config) fed to the engine, chunk by
/// chunk.  It draws from the same JobSampler as generate(), taking each
/// job's commands and tenancy tags with it (the sampler's split RNG streams
/// make that equal to generate()'s order).  target_load calibration is
/// generate()'s: the same LoadCalibrator settles on the same factor chain,
/// which is then applied per emitted timestamp instead of by
/// scale_arrivals() over a resident trace.
class GeneratorSource : public JobSource {
 public:
  static constexpr std::size_t kDefaultChunkJobs = 4096;

  /// With target_load > 0, draws the trace's jobs once (without commands or
  /// tenancy tags) into a LoadCalibrator before the first chunk; however
  /// many rescalings calibration takes, no job is drawn again before
  /// streaming.  The calibrator holds a few dozen pairs, not the trace.
  explicit GeneratorSource(const GeneratorConfig& config,
                           std::size_t chunk_jobs = kDefaultChunkJobs);

  int machine_procs() const override { return config().machine_procs; }
  int granularity() const override { return config().size.unit; }
  bool next_chunk(SourceChunk& chunk) override;
  std::optional<std::uint64_t> total_jobs() const override {
    return config().num_jobs;
  }

  /// The sequential scale factors calibration settled on (empty when
  /// target_load <= 0 or the trace needed no scaling).
  const std::vector<double>& scale_factors() const { return factors_; }

 private:
  const GeneratorConfig& config() const { return sampler_.config(); }

  /// Applies the calibration factor chain around the trace origin
  /// (scale_time()), in the order calibrate_load() applies scale_arrivals().
  double scaled(double t) const;
  bool generate_lookahead();

  JobSampler sampler_;
  std::size_t chunk_jobs_;
  /// Submitting-user sampler when the config tags jobs (num_users > 0).
  std::optional<ZipfSampler> users_;
  std::vector<double> factors_;
  double origin_ = 0;

  // One-job lookahead so a chunk cut can honour the tie-group rule and the
  // ECC window end is known when the chunk is emitted.
  bool lookahead_valid_ = false;
  Job lookahead_job_{};
  int lookahead_ecc_count_ = 0;

  std::vector<Ecc> ecc_buffer_;  ///< scaled, generation order
  bool exhausted_ = false;
};

}  // namespace es::workload
