#include "workload/source.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "util/check.hpp"
#include "util/log.hpp"

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

void WorkloadCursor::seek(std::size_t job, std::size_t ecc) {
  ES_EXPECTS(job <= workload_->jobs.size() && ecc <= workload_->eccs.size());
  job_ = job;
  ecc_ = ecc;
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

void MaterializedSource::mark_handed_ahead(std::size_t index) {
  const std::size_t jobs = cursor_.workload().jobs.size();
  ES_EXPECTS(index < jobs);
  if (handed_ahead_.empty()) handed_ahead_.assign(jobs, false);
  handed_ahead_[index] = true;
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
    if (!handed_ahead_.empty() && handed_ahead_[index]) continue;
    mark_handed_ahead(index);
    chunk.ahead.push_back(workload.jobs[index]);
    chunk.ahead_ecc_counts.push_back(ecc_totals_[index]);
  }
  return true;
}

// ---------------------------------------------------------------------------
// GeneratorSource

/// One generation pass.  Declaration order of the split streams must match
/// generate()'s split() call order exactly — that is what makes this
/// bitwise-identical to the materializing generator.
struct GeneratorSource::Stream {
  util::Rng master;
  util::Rng size_rng;
  util::Rng runtime_rng;
  util::Rng arrival_rng;
  util::Rng type_rng;
  util::Rng ecc_rng;
  util::Rng estimate_rng;
  util::Rng user_rng;
  ArrivalProcess arrivals;
  std::size_t index = 0;

  explicit Stream(const GeneratorConfig& config)
      : master(config.seed),
        size_rng(master.split()),
        runtime_rng(master.split()),
        arrival_rng(master.split()),
        type_rng(master.split()),
        ecc_rng(master.split()),
        estimate_rng(master.split()),
        user_rng(master.split()),
        arrivals(config.arrival, arrival_rng) {}

  /// Generates the next job; when `eccs` is non-null its commands are
  /// appended, and when `users` is non-null the job is tagged with its
  /// submitting user and pool (both streams are independent, so
  /// calibration pre-passes skip those draws entirely).  Mirrors
  /// generate()'s per-job draw order; interleaving the ECC and tagging
  /// passes per job is equivalent to the generator's separate passes
  /// because each attribute consumes its own stream and generate() tags
  /// in id order, which is generation order.
  bool next(const GeneratorConfig& config, Job& job, std::vector<Ecc>* eccs,
            const ZipfSampler* users) {
    if (index >= config.num_jobs) return false;
    job = Job{};
    job.id = static_cast<JobId>(index + 1);
    job.arr = arrivals.next();
    job.num = std::min(config.size.sample(size_rng, config.p_small),
                       config.machine_procs);
    const double actual = config.runtime.sample(runtime_rng, job.num);
    job.actual = actual;
    if (config.estimate_uniform_max > 1.0) {
      job.dur =
          actual * estimate_rng.uniform(1.0, config.estimate_uniform_max);
    } else {
      job.dur = actual * config.estimate_factor;
    }
    if (type_rng.bernoulli(config.p_dedicated)) {
      job.type = JobType::kDedicated;
      job.start =
          job.arr + type_rng.exponential(config.dedicated_start_mean);
    }
    if (eccs != nullptr) {
      for (int k = 0; k < config.max_eccs_per_job; ++k) {
        const double draw = ecc_rng.uniform01();
        EccType type;
        if (draw < config.p_extend) {
          type = EccType::kExtendTime;
        } else if (draw < config.p_extend + config.p_reduce) {
          type = EccType::kReduceTime;
        } else {
          continue;
        }
        Ecc ecc;
        ecc.job_id = job.id;
        ecc.type = type;
        double amount =
            ecc_rng.exponential(config.ecc_amount_frac_mean * job.dur);
        if (type == EccType::kReduceTime) {
          amount = std::min(amount, 0.9 * job.dur);
        }
        ecc.amount = std::max(1.0, amount);
        ecc.issue = job.arr +
                    ecc_rng.uniform(0.0, config.issue_window_frac * job.dur);
        eccs->push_back(ecc);
      }
      const double proc_draw = ecc_rng.uniform01();
      if (proc_draw < config.p_extend_procs + config.p_reduce_procs) {
        Ecc ecc;
        ecc.job_id = job.id;
        ecc.type = proc_draw < config.p_extend_procs ? EccType::kExtendProcs
                                                     : EccType::kReduceProcs;
        ecc.amount = std::max(
            1.0,
            std::round(ecc_rng.exponential(config.ecc_proc_amount_mean)));
        ecc.issue = job.arr +
                    ecc_rng.uniform(0.0, config.issue_window_frac * job.dur);
        eccs->push_back(ecc);
      }
    }
    if (users != nullptr) {
      job.user = users->sample(user_rng);
      job.pool =
          config.num_pools > 0 ? (job.user - 1) % config.num_pools : 0;
    }
    ++index;
    return true;
  }
};

GeneratorSource::GeneratorSource(const GeneratorConfig& config,
                                 std::size_t chunk_jobs)
    : config_(config), chunk_jobs_(std::max<std::size_t>(1, chunk_jobs)) {
  ES_EXPECTS(config.num_jobs > 0);
  ES_EXPECTS(config.machine_procs > 0);
  ES_EXPECTS(config.p_small >= 0 && config.p_small <= 1);
  ES_EXPECTS(config.p_dedicated >= 0 && config.p_dedicated <= 1);
  ES_EXPECTS(config.p_extend >= 0 && config.p_extend <= 1);
  ES_EXPECTS(config.p_reduce >= 0 && config.p_reduce <= 1);
  ES_EXPECTS(config.p_extend + config.p_reduce <= 1);
  ES_EXPECTS(config.p_extend_procs + config.p_reduce_procs <= 1);
  ES_EXPECTS(config.estimate_factor >= 1.0);
  if (config.num_users > 0) {
    ES_EXPECTS(config.zipf_exponent > 0);
    ES_EXPECTS(config.num_pools >= 0);
    users_.emplace(config.num_users, config.zipf_exponent);
  }

  // calibrate_load() replayed as generation passes: pass 0 measures the
  // scale-invariant proc-seconds and the unscaled load; each iteration
  // appends one factor and re-measures the span under the factor chain.
  // Jobs-only passes — the ECC stream is untouched, so skipping it changes
  // nothing downstream.
  if (config_.target_load > 0) {
    double proc_seconds = 0;
    const auto measure = [&](bool accumulate_work) {
      Stream pass(config_);
      Job job;
      double last = 0;
      bool first = true;
      while (pass.next(config_, job, nullptr, nullptr)) {
        if (accumulate_work)
          proc_seconds +=
              static_cast<double>(job.num) * job.actual_runtime();
        if (first) {
          // The first arrival has offset 0, so it is a scaling fixed point:
          // the origin is invariant across calibration iterations.
          origin_ = job.arr;
          last = origin_;
          first = false;
        }
        const double arr = scaled(job.arr);
        double begin = arr;
        if (job.dedicated() && job.start >= 0)
          begin = std::max(arr, scaled(job.start));
        last = std::max(last, begin + job.actual_runtime());
      }
      const double span = last - origin_;
      if (span <= 0) return 0.0;
      return proc_seconds / (span * config_.machine_procs);
    };
    double load = measure(true);
    if (load > 0) {
      for (int i = 0; i < 25; ++i) {
        const double error =
            std::abs(load - config_.target_load) / config_.target_load;
        if (error < 0.01) break;
        factors_.push_back(load / config_.target_load);
        load = measure(false);
      }
      ES_LOG_DEBUG("calibrated load %.4f (target %.4f, %zu factors)", load,
                   config_.target_load, factors_.size());
    }
  }
  stream_ = std::make_unique<Stream>(config_);
}

GeneratorSource::~GeneratorSource() = default;

double GeneratorSource::scaled(double t) const {
  // Sequential replay of scale_arrivals(f1), scale_arrivals(f2), ... —
  // folding the factors into a product would change the floating-point
  // operation order and break bitwise parity with the materialized path.
  for (const double factor : factors_) t = origin_ + (t - origin_) * factor;
  return t;
}

bool GeneratorSource::generate_lookahead() {
  if (exhausted_) return false;
  Job job;
  const std::size_t before = ecc_buffer_.size();
  if (!stream_->next(config_, job, &ecc_buffer_,
                     users_ ? &*users_ : nullptr)) {
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
  ++generated_;
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

// ---------------------------------------------------------------------------
// SwfJobSource

SwfJobSource::SwfJobSource(const std::string& path, const Options& options)
    : options_(options),
      path_(path),
      in_(std::make_unique<std::ifstream>(path)) {
  ES_EXPECTS(options.machine_procs > 0);
  ES_EXPECTS(options.granularity > 0);
  ES_EXPECTS(options.chunk_jobs > 0);
  if (!*in_) throw std::runtime_error("cannot open SWF trace: " + path);
}

SwfJobSource::~SwfJobSource() = default;

bool SwfJobSource::fill_window() {
  std::string line;
  while (!eof_ && window_.size() <= options_.reorder_window) {
    if (!std::getline(*in_, line)) {
      eof_ = true;
      break;
    }
    ++line_number_;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line.front() == ';') continue;
    SwfRecord record;
    std::string message;
    if (!parse_swf_record(line, record, message)) {
      ES_LOG_WARN("%s:%zu: %s", path_.c_str(), line_number_,
                  message.c_str());
      ++parse_errors_;
      continue;
    }
    Job job;
    SwfDropReason reason = SwfDropReason::kNone;
    if (!to_job(record, job, options_.import, &reason)) {
      switch (reason) {
        case SwfDropReason::kUnusable: ++drops_.unusable; break;
        case SwfDropReason::kNeverRan: ++drops_.never_ran; break;
        case SwfDropReason::kPartialDisabled:
          ++drops_.partial_disabled;
          break;
        case SwfDropReason::kNone: break;
      }
      continue;
    }
    window_.push(job);
  }
  if (eof_ && window_.empty() && !summary_logged_) {
    summary_logged_ = true;
    if (drops_.total() > 0) {
      // Same one-summary-per-file shape as load_swf_jobs().
      ES_LOG_WARN(
          "%s: dropped %llu records (%llu unusable, %llu failed/cancelled "
          "before running, %llu partial runs excluded)",
          path_.c_str(), static_cast<unsigned long long>(drops_.total()),
          static_cast<unsigned long long>(drops_.unusable),
          static_cast<unsigned long long>(drops_.never_ran),
          static_cast<unsigned long long>(drops_.partial_disabled));
    }
  }
  return !window_.empty();
}

bool SwfJobSource::pop_lookahead() {
  if (lookahead_valid_) return true;
  if (!fill_window()) return false;
  lookahead_ = window_.top();
  window_.pop();
  if (lookahead_.arr < last_emitted_arr_) {
    throw std::runtime_error(
        path_ + ": submit order inversion exceeds the reorder window (job " +
        std::to_string(lookahead_.id) +
        "); re-run with a larger window or the materializing loader");
  }
  lookahead_valid_ = true;
  return true;
}

bool SwfJobSource::next_chunk(SourceChunk& chunk) {
  chunk.clear();
  while (true) {
    if (!lookahead_valid_ && !pop_lookahead()) break;
    if (!chunk.jobs.empty() && chunk.jobs.size() >= options_.chunk_jobs &&
        lookahead_.arr > chunk.jobs.back().arr)
      break;
    chunk.jobs.push_back(lookahead_);
    chunk.ecc_counts.push_back(0);
    last_emitted_arr_ = lookahead_.arr;
    lookahead_valid_ = false;
  }
  return !chunk.jobs.empty();
}

}  // namespace es::workload
