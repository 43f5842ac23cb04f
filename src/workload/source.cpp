#include "workload/source.hpp"

#include <algorithm>
#include <limits>

#include "util/check.hpp"
#include "workload/load.hpp"

namespace es::workload {
namespace {

bool ecc_before(const Ecc& a, const Ecc& b) {
  if (a.issue != b.issue) return a.issue < b.issue;
  return a.job_id < b.job_id;
}

}  // namespace

JobSource::~JobSource() = default;

// ---------------------------------------------------------------------------
// WorkloadCursor

WorkloadCursor::WorkloadCursor(const Workload& workload,
                               std::size_t chunk_jobs)
    : workload_(&workload), chunk_jobs_(std::max<std::size_t>(1, chunk_jobs)) {
  // An unsorted workload gets one window: the whole schedule up front.
  const auto job_inverted = [](const Job& a, const Job& b) {
    return !(a.arr <= b.arr);
  };
  const auto ecc_inverted = [](const Ecc& a, const Ecc& b) {
    return !(a.issue <= b.issue);
  };
  const bool sorted =
      std::adjacent_find(workload.jobs.begin(), workload.jobs.end(),
                         job_inverted) == workload.jobs.end() &&
      std::adjacent_find(workload.eccs.begin(), workload.eccs.end(),
                         ecc_inverted) == workload.eccs.end();
  if (!sorted) chunk_jobs_ = std::numeric_limits<std::size_t>::max();
}

bool WorkloadCursor::next(Window& window) {
  const std::vector<Job>& jobs = workload_->jobs;
  const std::vector<Ecc>& eccs = workload_->eccs;
  if (job_ >= jobs.size() && ecc_ >= eccs.size()) return false;
  window.job_begin = job_;
  std::size_t end = job_ + std::min(chunk_jobs_, jobs.size() - job_);
  // Never split an equal-arrival tie group across a window boundary.
  while (end < jobs.size() && jobs[end].arr == jobs[end - 1].arr) ++end;
  job_ = end;
  window.job_end = end;
  window.ecc_begin = ecc_;
  if (job_ < jobs.size()) {
    const double window_end = jobs[job_].arr;
    while (ecc_ < eccs.size() && eccs[ecc_].issue < window_end) ++ecc_;
  } else {
    ecc_ = eccs.size();
  }
  window.ecc_end = ecc_;
  return true;
}

// ---------------------------------------------------------------------------
// MaterializedSource

MaterializedSource::MaterializedSource(const Workload& workload,
                                       std::size_t chunk_jobs)
    : cursor_(workload, chunk_jobs) {
  const std::vector<Job>& jobs = workload.jobs;
  ids_ascending_ =
      std::adjacent_find(jobs.begin(), jobs.end(), [](const Job& a,
                                                      const Job& b) {
        return !(a.id < b.id);
      }) == jobs.end();
  if (!ids_ascending_) {
    sorted_ids_.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
      sorted_ids_.emplace_back(jobs[i].id, i);
    std::sort(sorted_ids_.begin(), sorted_ids_.end());
    const auto same_id = [](const auto& a, const auto& b) {
      return a.first == b.first;
    };
    // Duplicate job IDs are a malformed workload, wherever they sit.
    ES_EXPECTS(std::adjacent_find(sorted_ids_.begin(), sorted_ids_.end(),
                                  same_id) == sorted_ids_.end());
  }
  if (workload.eccs.empty()) return;
  ecc_totals_.assign(jobs.size(), 0);
  for (const Ecc& ecc : workload.eccs) {
    const std::size_t index = index_of(ecc.job_id);
    if (index != kNoJob) ++ecc_totals_[index];
  }
}

std::size_t MaterializedSource::index_of(JobId id) const {
  const std::vector<Job>& jobs = cursor_.workload().jobs;
  if (ids_ascending_) {
    if (jobs.empty() || id < jobs.front().id) return kNoJob;
    // Dense ids (the generator's 1..N) resolve without a search.
    const std::uint64_t offset = static_cast<std::uint64_t>(id) -
                                 static_cast<std::uint64_t>(jobs.front().id);
    if (offset < jobs.size() && jobs[offset].id == id) return offset;
    const auto it = std::lower_bound(
        jobs.begin(), jobs.end(), id,
        [](const Job& job, JobId value) { return job.id < value; });
    if (it == jobs.end() || it->id != id) return kNoJob;
    return static_cast<std::size_t>(it - jobs.begin());
  }
  const auto it = std::lower_bound(
      sorted_ids_.begin(), sorted_ids_.end(), id,
      [](const auto& entry, JobId value) { return entry.first < value; });
  if (it == sorted_ids_.end() || it->first != id) return kNoJob;
  return it->second;
}

bool MaterializedSource::next_chunk(SourceChunk& chunk) {
  chunk.clear();
  WorkloadCursor::Window window;
  if (!cursor_.next(window)) return false;
  const auto at = [](const auto& items, std::size_t i) {
    return items.begin() + static_cast<std::ptrdiff_t>(i);
  };
  const Workload& workload = cursor_.workload();
  chunk.jobs.assign(at(workload.jobs, window.job_begin),
                    at(workload.jobs, window.job_end));
  if (workload.eccs.empty()) {
    chunk.ecc_counts.assign(chunk.jobs.size(), 0);
    return true;
  }
  chunk.ecc_counts.assign(at(ecc_totals_, window.job_begin),
                          at(ecc_totals_, window.job_end));
  chunk.eccs.assign(at(workload.eccs, window.ecc_begin),
                    at(workload.eccs, window.ecc_end));
  // A command issued before its job's window hands the job ahead, once.
  for (const Ecc& ecc : chunk.eccs) {
    const std::size_t index = index_of(ecc.job_id);
    if (index == kNoJob || index < window.job_end) continue;
    if (handed_ahead_.empty())
      handed_ahead_.assign(workload.jobs.size(), false);
    if (handed_ahead_[index]) continue;
    handed_ahead_[index] = true;
    chunk.ahead.push_back(workload.jobs[index]);
    chunk.ahead_ecc_counts.push_back(ecc_totals_[index]);
  }
  return true;
}

// ---------------------------------------------------------------------------
// GeneratorSource

GeneratorSource::GeneratorSource(const GeneratorConfig& config,
                                 std::size_t chunk_jobs)
    : sampler_(config), chunk_jobs_(std::max<std::size_t>(1, chunk_jobs)) {
  if (config.num_users > 0)
    users_.emplace(config.num_users, config.zipf_exponent);

  // calibrate_load() in one jobs-only pass: the calibrator keeps the
  // proc-seconds and the few (begin, runtime) pairs that can end the span,
  // so every rescaling re-measures those instead of re-drawing the trace.
  // The ECC stream is untouched, so skipping it changes nothing downstream.
  if (config.target_load <= 0) return;
  LoadCalibrator calibrator(config.machine_procs);
  JobSampler pass(config);
  Job job;
  while (pass.next(job, nullptr, nullptr)) calibrator.add(job);
  origin_ = calibrator.origin();
  factors_ = calibrator.calibrate(config.target_load).factors;
}

double GeneratorSource::scaled(double t) const {
  return scale_time(t, origin_, factors_);
}

bool GeneratorSource::generate_lookahead() {
  if (exhausted_) return false;
  Job job;
  const std::size_t before = ecc_buffer_.size();
  if (!sampler_.next(job, &ecc_buffer_, users_ ? &*users_ : nullptr)) {
    exhausted_ = true;
    return false;
  }
  job.arr = scaled(job.arr);
  if (job.dedicated() && job.start >= 0) job.start = scaled(job.start);
  for (std::size_t i = before; i < ecc_buffer_.size(); ++i)
    ecc_buffer_[i].issue = scaled(ecc_buffer_[i].issue);
  lookahead_job_ = job;
  lookahead_ecc_count_ = static_cast<int>(ecc_buffer_.size() - before);
  lookahead_valid_ = true;
  return true;
}

bool GeneratorSource::next_chunk(SourceChunk& chunk) {
  chunk.clear();
  while (true) {
    if (!lookahead_valid_ && !generate_lookahead()) break;
    if (!chunk.jobs.empty() && chunk.jobs.size() >= chunk_jobs_ &&
        lookahead_job_.arr > chunk.jobs.back().arr)
      break;  // the lookahead starts the next chunk strictly later
    chunk.jobs.push_back(lookahead_job_);
    chunk.ecc_counts.push_back(lookahead_ecc_count_);
    lookahead_valid_ = false;
  }
  if (chunk.jobs.empty()) return false;
  // Emit buffered commands whose issue falls inside this chunk's arrival
  // window.  The lookahead job's own commands have issue >= its arrival ==
  // the window end, so they are never emitted early.  stable_partition
  // keeps generation order within the window; the stable (issue, job id)
  // sort then reproduces normalize()'s global order segment by segment.
  const bool bounded = lookahead_valid_;
  const double window_end = lookahead_job_.arr;
  const auto mid = std::stable_partition(
      ecc_buffer_.begin(), ecc_buffer_.end(),
      [&](const Ecc& e) { return !bounded || e.issue < window_end; });
  std::stable_sort(ecc_buffer_.begin(), mid, ecc_before);
  chunk.eccs.assign(ecc_buffer_.begin(), mid);
  ecc_buffer_.erase(ecc_buffer_.begin(), mid);
  return true;
}

}  // namespace es::workload
