#include "workloads.hpp"

#include <sys/resource.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <iterator>
#include <optional>

#include "core/factory.hpp"
#include "exp/experiment.hpp"
#include "sched/engine.hpp"
#include "util/thread_pool.hpp"
#include "workload/generator.hpp"
#include "workload/source.hpp"

namespace es::benchmark {
namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- fingerprints ------------------------------------------------------------

/// FNV-1a-style 64-bit hash over whole 64-bit words.
class Hash {
 public:
  void word(std::uint64_t value) {
    hash_ = (hash_ ^ value) * 0x100000001b3ULL;
  }
  void real(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    word(bits);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Hashes the deterministic result fields bench::result_fingerprint_csv
/// serializes (headline metrics, event and ECC counters, the failure
/// ledger, every per-job outcome) as raw bits: the same exactness as the
/// %.17g text, without formatting megabytes of CSV inside a timed campaign.
std::uint64_t fingerprint(const sched::SimulationResult& result) {
  Hash hash;
  for (double value :
       {result.utilization, result.mean_wait, result.slowdown,
        result.mean_per_job_slowdown, result.mean_bounded_slowdown,
        result.makespan, result.failure.lost_proc_seconds,
        result.failure.wasted_proc_seconds,
        result.failure.saved_proc_seconds})
    hash.real(value);
  for (std::uint64_t value :
       {result.completed, result.killed, result.cycles, result.events,
        result.perf.events.scheduled, result.perf.events.cancelled,
        result.perf.events.fired, result.ecc.processed, result.ecc.conflicts,
        result.failure.outages, result.failure.interruptions,
        result.failure.requeues, result.failure.abandoned,
        result.failure.checkpoints})
    hash.word(value);
  for (const sched::JobOutcome& job : result.jobs) {
    hash.word(static_cast<std::uint64_t>(job.id));
    hash.word((job.dedicated ? 1u : 0u) | (job.killed ? 2u : 0u));
    hash.word(static_cast<std::uint64_t>(job.interruptions));
    hash.word(static_cast<std::uint64_t>(job.procs));
    for (double value :
         {job.arrival, job.started, job.finished, job.wait, job.run})
      hash.real(value);
  }
  return hash.value();
}

// --- outside-in layer tracing -----------------------------------------------

/// Per-layer accumulators of one or more traced simulations.
struct Layers {
  std::uint64_t sims = 0;
  double input_s = 0;      ///< job source construction / generate()
  double refill_s = 0;     ///< JobSource::next_chunk during the run
  std::uint64_t refill_calls = 0;
  std::uint64_t jobs_pulled = 0;
  double build_run_s = 0;  ///< algorithm + engine construction + run
  double run_s = 0;        ///< Engine::run / run_streamed
  double cycle_s = 0;      ///< Scheduler::cycle
  std::uint64_t cycles = 0;
  double start_s = 0;      ///< SchedulerContext::start inside cycles
  std::uint64_t starts = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t finishes = 0;
  std::uint64_t preempts = 0;
  std::uint64_t requeues = 0;
  std::uint64_t ecc_applied = 0;
  std::uint64_t node_downs = 0;
  sched::DpCounters dp;
  sim::EventQueueCounters events;
  sched::CycleStats cycle;
  std::uint64_t outages = 0;
  std::uint64_t interruptions = 0;
  std::uint64_t checkpoints = 0;

  Layers& operator+=(const Layers& other) {
    sims += other.sims;
    input_s += other.input_s;
    refill_s += other.refill_s;
    refill_calls += other.refill_calls;
    jobs_pulled += other.jobs_pulled;
    build_run_s += other.build_run_s;
    run_s += other.run_s;
    cycle_s += other.cycle_s;
    cycles += other.cycles;
    start_s += other.start_s;
    starts += other.starts;
    arrivals += other.arrivals;
    finishes += other.finishes;
    preempts += other.preempts;
    requeues += other.requeues;
    ecc_applied += other.ecc_applied;
    node_downs += other.node_downs;
    dp += other.dp;
    events += other.events;
    cycle += other.cycle;
    outages += other.outages;
    interruptions += other.interruptions;
    checkpoints += other.checkpoints;
    return *this;
  }
};

/// Times JobSource::next_chunk: the streamed run's refill layer.
class TimedSource final : public workload::JobSource {
 public:
  TimedSource(workload::JobSource& inner, Layers& layers)
      : inner_(inner), layers_(layers) {}

  int machine_procs() const override { return inner_.machine_procs(); }
  int granularity() const override { return inner_.granularity(); }
  bool next_chunk(workload::SourceChunk& chunk) override {
    const auto start = Clock::now();
    const bool more = inner_.next_chunk(chunk);
    layers_.refill_s += since(start);
    ++layers_.refill_calls;
    if (more) layers_.jobs_pulled += chunk.jobs.size();
    return more;
  }

 private:
  workload::JobSource& inner_;
  Layers& layers_;
};

/// Forwards every Scheduler virtual to the real policy, timing cycle() and
/// the engine's start callback inside it.  Decisions are the policy's own:
/// the traced rep's fingerprint must equal the untraced reps'.
class TimedScheduler final : public sched::Scheduler {
 public:
  TimedScheduler(sched::Scheduler& inner, Layers& layers)
      : inner_(inner), layers_(layers) {}

  std::string name() const override { return inner_.name(); }

  void cycle(sched::SchedulerContext& ctx) override {
    // The engine builds a fresh context every cycle, so the timed start
    // callback is installed per cycle; it captures only `this`, which keeps
    // it in std::function's inline buffer (no allocation per cycle).
    engine_start_ = std::move(ctx.start);
    ctx.start = [this](sched::JobRun* job) {
      const auto start = Clock::now();
      engine_start_(job);
      layers_.start_s += since(start);
      ++layers_.starts;
    };
    const auto start = Clock::now();
    inner_.cycle(ctx);
    layers_.cycle_s += since(start);
    ++layers_.cycles;
    ctx.start = std::move(engine_start_);
  }

  bool supports_dedicated() const override {
    return inner_.supports_dedicated();
  }
  bool initiates_preemption() const override {
    return inner_.initiates_preemption();
  }
  sched::DpCounters dp_counters() const override {
    return inner_.dp_counters();
  }
  void set_dp_cache(bool enabled) override { inner_.set_dp_cache(enabled); }
  void set_dp_cache_slots(std::size_t slots) override {
    inner_.set_dp_cache_slots(slots);
  }
  void speculate(const sched::SchedulerContext& ctx) override {
    inner_.speculate(ctx);
  }
  void settle_speculation() override { inner_.settle_speculation(); }
  void finish_speculation() override { inner_.finish_speculation(); }
  void save_state(snap::SnapshotWriter& writer) const override {
    inner_.save_state(writer);
  }
  void restore_state(snap::SnapshotReader& reader) override {
    inner_.restore_state(reader);
  }

 private:
  sched::Scheduler& inner_;
  Layers& layers_;
  std::function<void(sched::JobRun*)> engine_start_;
};

/// Counts the engine's lifecycle events from the attachment bus.
class CountingObserver final : public sched::EngineObserver {
 public:
  static constexpr sched::HookMask kHookMask =
      sched::hook_bit(sched::Hook::kArrival) |
      sched::hook_bit(sched::Hook::kFinish) |
      sched::hook_bit(sched::Hook::kPreempt) |
      sched::hook_bit(sched::Hook::kRequeue) |
      sched::hook_bit(sched::Hook::kEccApplied) |
      sched::hook_bit(sched::Hook::kNodeDown);

  explicit CountingObserver(Layers& layers) : layers_(layers) {}

  void on_arrival(sim::Time, const sched::JobRun&) override {
    ++layers_.arrivals;
  }
  void on_finish(sim::Time, const sched::JobRun&) override {
    ++layers_.finishes;
  }
  void on_preempt(sim::Time, sched::PreemptInfo&) override {
    ++layers_.preempts;
  }
  void on_requeue(sim::Time, const sched::JobRun&, int) override {
    ++layers_.requeues;
  }
  void on_ecc_applied(sim::Time, const sched::JobRun&, const workload::Ecc&,
                      sched::EccOutcome) override {
    ++layers_.ecc_applied;
  }
  void on_node_down(sim::Time, int) override { ++layers_.node_downs; }

 private:
  Layers& layers_;
};

double ratio(double part, double whole) {
  return whole > 0 ? part / whole : 0.0;
}

double count(std::uint64_t value) { return static_cast<double>(value); }

/// Share of cycles that began with a batch queue at least 64 deep.
double deep_queue_share(const sched::CycleStats& stats) {
  std::uint64_t deep = 0;
  for (int b = 0; b < sched::CycleStats::kBuckets; ++b)
    if (sched::CycleStats::bucket_lo(b) >= 64) deep += stats.queue_depth[b];
  return ratio(count(deep), count(stats.cycles));
}

/// A per-layer metric with the accumulator field(s) it reads.
struct LayerColumn {
  LayerMetric metric;
  double (*value)(const Layers&);
};

// The engine's residual: event kernel, handlers, attachments and the
// metrics fold, which cannot be split from outside the engine.
double other_s(const Layers& l) { return l.run_s - l.refill_s - l.cycle_s; }

const std::vector<LayerColumn>& layer_columns() {
  static const std::vector<LayerColumn> columns = {
      {{"workload.setup_s", "s"}, [](const Layers& l) { return l.input_s; }},
      {{"workload.generate_s", "s"},
       [](const Layers& l) { return l.input_s + l.refill_s; }},
      {{"workload.refill_s", "s"}, [](const Layers& l) { return l.refill_s; }},
      {{"workload.refill_calls", "count"},
       [](const Layers& l) { return count(l.refill_calls); }},
      {{"workload.jobs_pulled", "count"},
       [](const Layers& l) { return count(l.jobs_pulled); }},
      {{"exp.run_workload_s", "s"},
       [](const Layers& l) { return l.build_run_s; }},
      {{"exp.sims", "count"}, [](const Layers& l) { return count(l.sims); }},
      {{"sched.policy.cycle_s", "s"},
       [](const Layers& l) { return l.cycle_s; }},
      {{"sched.policy.cycles", "count"},
       [](const Layers& l) { return count(l.cycles); }},
      {{"sched.policy.ns_per_cycle", "ns"},
       [](const Layers& l) { return 1e9 * ratio(l.cycle_s, count(l.cycles)); }},
      {{"sched.policy.scan_s", "s"},
       [](const Layers& l) {
         return l.cycle_s - l.dp.table_seconds - l.start_s;
       }},
      {{"sched.engine.start_s", "s"},
       [](const Layers& l) { return l.start_s; }},
      {{"sched.engine.starts", "count"},
       [](const Layers& l) { return count(l.starts); }},
      {{"sched.engine.other_s", "s"}, other_s},
      {{"sched.engine.ns_per_event", "ns"},
       [](const Layers& l) {
         return 1e9 * ratio(other_s(l), count(l.events.fired));
       }},
      {{"sched.engine.arrivals", "count"},
       [](const Layers& l) { return count(l.arrivals); }},
      {{"sched.engine.finishes", "count"},
       [](const Layers& l) { return count(l.finishes); }},
      {{"sched.engine.preempts", "count"},
       [](const Layers& l) { return count(l.preempts); }},
      {{"sched.engine.requeues", "count"},
       [](const Layers& l) { return count(l.requeues); }},
      {{"sched.engine.ecc_applied", "count"},
       [](const Layers& l) { return count(l.ecc_applied); }},
      {{"sched.engine.node_downs", "count"},
       [](const Layers& l) { return count(l.node_downs); }},
      {{"core.dp.table_s", "s"},
       [](const Layers& l) { return l.dp.table_seconds; }},
      {{"core.dp.calls", "count"},
       [](const Layers& l) { return count(l.dp.calls); }},
      {{"core.dp.fast_path", "count"},
       [](const Layers& l) { return count(l.dp.fast_path); }},
      {{"core.dp.cache_hits", "count"},
       [](const Layers& l) { return count(l.dp.cache_hits); }},
      {{"core.dp.table_runs", "count"},
       [](const Layers& l) { return count(l.dp.table_runs); }},
      {{"core.dp.table_cells", "count"},
       [](const Layers& l) { return count(l.dp.table_cells); }},
      {{"core.dp.cache_hit_ratio", "ratio"},
       [](const Layers& l) {
         return ratio(count(l.dp.cache_hits), count(l.dp.calls));
       }},
      {{"core.dp.ns_per_cell", "ns"},
       [](const Layers& l) {
         return 1e9 * ratio(l.dp.table_seconds, count(l.dp.table_cells));
       }},
      {{"core.dp.spec_launched", "count"},
       [](const Layers& l) { return count(l.dp.spec_launched); }},
      {{"core.dp.spec_hits", "count"},
       [](const Layers& l) { return count(l.dp.spec_hits); }},
      {{"core.dp.spec_hit_ratio", "ratio"},
       [](const Layers& l) {
         return ratio(count(l.dp.spec_hits), count(l.dp.spec_launched));
       }},
      {{"sim.events_scheduled", "count"},
       [](const Layers& l) { return count(l.events.scheduled); }},
      {{"sim.events_cancelled", "count"},
       [](const Layers& l) { return count(l.events.cancelled); }},
      {{"sim.events_fired", "count"},
       [](const Layers& l) { return count(l.events.fired); }},
      {{"sim.peak_pending", "count"},
       [](const Layers& l) { return count(l.events.peak_pending); }},
      {{"sched.cycle.max_queue_depth", "count"},
       [](const Layers& l) { return count(l.cycle.max_queue_depth); }},
      {{"sched.cycle.deep_queue_share", "ratio"},
       [](const Layers& l) { return deep_queue_share(l.cycle); }},
      {{"sched.cycle.backfill_ratio", "ratio"},
       [](const Layers& l) {
         return ratio(count(l.cycle.backfill_starts), count(l.cycle.starts));
       }},
      {{"fault.outages", "count"},
       [](const Layers& l) { return count(l.outages); }},
      {{"fault.interruptions", "count"},
       [](const Layers& l) { return count(l.interruptions); }},
      {{"fault.checkpoints", "count"},
       [](const Layers& l) { return count(l.checkpoints); }},
      {{"trace.overhead_ratio", "ratio"}, nullptr},
  };
  return columns;
}

// --- workload definitions ----------------------------------------------------

/// One simulation: generated inputs, the policy and its options.
struct Sim {
  workload::GeneratorConfig input;
  std::string algorithm;
  core::AlgorithmOptions options;
  bool streamed = false;  ///< GeneratorSource + run_streamed
};

/// The paper's LOS-family tunables (bench_common.hpp explains lookahead
/// 250): C_s = 7, lookahead 250.
core::AlgorithmOptions paper_options() {
  core::AlgorithmOptions options;
  options.max_skip_count = 7;
  options.lookahead = 250;
  return options;
}

Sim bgp_1m(std::uint64_t seed, std::size_t jobs) {
  Sim sim;
  sim.input.machine_procs = 320;
  sim.input.num_jobs = jobs;
  sim.input.seed = seed;
  sim.input.p_small = 0.5;
  sim.input.target_load = 0.7;
  sim.algorithm = "Delayed-LOS";
  sim.options = paper_options();
  sim.options.engine.keep_job_outcomes = false;
  sim.streamed = true;
  return sim;
}

Sim wide_g1(std::uint64_t seed, std::size_t jobs) {
  Sim sim;
  sim.input.machine_procs = 4096;
  sim.input.num_jobs = jobs;
  sim.input.seed = seed;
  sim.input.p_small = 0.2;
  // Offered load 1.0 sits exactly at this machine's saturation point, where
  // the seed decides whether the queue keeps growing: DP work then swings
  // 25-48% between seeds.  At 1.1 the queue reliably runs deep past the
  // 250-job lookahead and DP work varies ~2% between seeds.
  sim.input.target_load = 1.1;
  // Granularity 1: every processor is its own allocation grain, so DP
  // tables run to 4097 columns.  Sizes keep the BG/P mix in processors.
  sim.input.size.unit = 1;
  sim.input.size.lo1 = 32;
  sim.input.size.hi1 = 96;
  sim.input.size.lo2 = 128;
  sim.input.size.hi2 = 320;
  sim.algorithm = "Delayed-LOS";
  sim.options = paper_options();
  sim.options.engine.keep_job_outcomes = false;
  sim.streamed = true;
  return sim;
}

Sim hetero_elastic(std::uint64_t seed, std::size_t jobs) {
  Sim sim;
  sim.input.machine_procs = 320;
  sim.input.num_jobs = jobs;
  sim.input.seed = seed;
  sim.input.p_small = 0.5;
  sim.input.p_dedicated = 0.5;
  sim.input.p_extend = 0.3;
  sim.input.p_reduce = 0.3;
  sim.input.target_load = 0.8;
  sim.algorithm = "Hybrid-LOS-E";
  sim.options = paper_options();
  return sim;
}

Sim tenant_faults(std::uint64_t seed, std::size_t jobs) {
  Sim sim;
  sim.input.machine_procs = 320;
  sim.input.num_jobs = jobs;
  sim.input.seed = seed;
  sim.input.p_small = 0.5;
  sim.input.target_load = 0.9;
  sim.input.num_users = 64;
  sim.input.num_pools = 4;
  sim.algorithm = "FairShare";
  sim.options = paper_options();
  sched::EngineConfig& engine = sim.options.engine;
  engine.fairshare.pools = {{"prod", 4.0, 0.25},
                            {"batch", 2.0, 0.0},
                            {"dev", 1.0, 0.0},
                            {"scavenger", 1.0, 0.0}};
  engine.fairshare.collect_stats = true;
  engine.failure.enabled = true;
  engine.failure.seed = seed;
  engine.failure.mtbf = 6 * 3600.0;
  engine.failure.mttr = 30 * 60.0;
  engine.failure.min_nodes = 1;
  engine.failure.max_nodes = 2;
  engine.requeue = fault::RequeuePolicy::kRequeueTail;
  engine.checkpoint.enabled = true;
  engine.checkpoint.interval = 3600;
  engine.checkpoint.overhead = 30;
  engine.checkpoint.on_preempt = true;
  return sim;
}

constexpr double kCampaignSmall[] = {0.2, 0.5, 0.8};
constexpr double kCampaignLoads[] = {0.5, 0.6, 0.7, 0.8, 0.9, 1.0};
const char* const kCampaignAlgorithms[] = {"EASY", "LOS", "Delayed-LOS"};
constexpr std::size_t kCampaignCells = std::size(kCampaignSmall) *
                                       std::size(kCampaignLoads) *
                                       std::size(kCampaignAlgorithms);

/// Simulation `index` of the Figs 7-8 grid (500-job traces), ordered
/// (P_S, load, algorithm, replication).  The algorithms of one (P_S, load,
/// replication) share a trace, as in the paper.
Sim campaign_sim(std::uint64_t seed, std::size_t index,
                 std::size_t replications) {
  const std::size_t replication = index % replications;
  std::size_t cell = index / replications;
  const std::size_t algorithm = cell % std::size(kCampaignAlgorithms);
  cell /= std::size(kCampaignAlgorithms);
  const std::size_t load = cell % std::size(kCampaignLoads);
  const std::size_t small = cell / std::size(kCampaignLoads);
  Sim sim;
  sim.input.machine_procs = 320;
  sim.input.num_jobs = 500;
  sim.input.seed = seed * 1000 + replication;
  sim.input.p_small = kCampaignSmall[small];
  sim.input.target_load = kCampaignLoads[load];
  sim.algorithm = kCampaignAlgorithms[algorithm];
  sim.options = paper_options();
  return sim;
}

/// A workload and the size of one rep.  Reps are sized to about a second
/// or less on a 4-core x86 host so a 15-second measurement holds ten or
/// more.  tenant_faults runs near saturation, where one 30k-job trace's
/// cost swings ~20% with the seed; sixteen independent 5k-job traces per
/// rep average that down to ~5%.  --quick divides the trace length by ten
/// (for campaign_fig, the replications per cell).
struct Definition {
  WorkloadInfo info;
  std::size_t sims;  ///< simulations per rep
  std::size_t jobs;  ///< jobs per simulation (campaign_fig: fixed 500)
  /// Simulation `seed` of `jobs` jobs; null for the campaign grid.
  Sim (*shape)(std::uint64_t seed, std::size_t jobs);
};

const std::vector<Definition>& definitions() {
  static const std::vector<Definition> table = {
      {{"campaign_fig", 2}, kCampaignCells * 40, 500, nullptr},
      {{"bgp_1m", 1}, 1, 1000000, bgp_1m},
      {{"wide_g1", 2}, 1, 25000, wide_g1},
      {{"hetero_elastic", 1}, 1, 300000, hetero_elastic},
      {{"tenant_faults", 1}, 16, 5000, tenant_faults},
  };
  return table;
}

const Definition* find_definition(const std::string& name) {
  for (const Definition& definition : definitions())
    if (name == definition.info.name) return &definition;
  return nullptr;
}

std::size_t rep_sims(const Definition& definition, bool quick) {
  return definition.shape == nullptr && quick ? definition.sims / 10
                                              : definition.sims;
}

/// Simulation `index` of one rep.  Every simulation draws its inputs (and
/// failure stream) from seed * 1000 + its index.
Sim rep_sim(const Definition& definition, std::uint64_t seed, bool quick,
            std::size_t index) {
  if (definition.shape == nullptr)
    return campaign_sim(seed, index,
                        rep_sims(definition, quick) / kCampaignCells);
  return definition.shape(seed * 1000 + index,
                          quick ? definition.jobs / 10 : definition.jobs);
}

// --- running -----------------------------------------------------------------

struct SimRun {
  sched::SimulationResult result;
  double setup_s = 0;  ///< inputs + algorithm + engine construction
  double run_s = 0;    ///< Engine::run / run_streamed
};

/// Builds and runs one simulation the way exp::run_workload / run_source
/// do (machine shape from the inputs, ECC flags from the algorithm), with
/// the construction and the run timed apart.  With `layers`, the policy,
/// source and observer bus are wrapped and the per-layer totals added.
SimRun run_sim(const Sim& sim, Layers* layers) {
  SimRun out;
  const auto start = Clock::now();
  std::optional<workload::GeneratorSource> source;
  workload::Workload materialized;
  sched::EngineConfig config = sim.options.engine;
  if (sim.streamed) {
    source.emplace(sim.input);
    config.machine_procs = source->machine_procs();
    config.granularity = source->granularity();
  } else {
    materialized = workload::generate(sim.input);
    config.machine_procs = materialized.machine_procs;
    config.granularity = materialized.granularity;
  }
  const double input_s = since(start);

  if (layers != nullptr) config.collect_cycle_stats = true;
  core::Algorithm algo = core::make_algorithm(sim.algorithm, sim.options);
  config.process_eccs = algo.process_eccs;
  config.allow_running_resize = algo.allow_running_resize;
  std::optional<TimedScheduler> timed_policy;
  std::optional<CountingObserver> counter;
  std::optional<TimedSource> timed_source;
  if (layers != nullptr) {
    timed_policy.emplace(*algo.policy, *layers);
    counter.emplace(*layers);
    if (source) timed_source.emplace(*source, *layers);
  }
  sched::Scheduler& policy =
      timed_policy ? static_cast<sched::Scheduler&>(*timed_policy)
                   : *algo.policy;
  sched::Engine engine(config, policy);
  if (counter) engine.add_observer(&*counter, CountingObserver::kHookMask);
  out.setup_s = since(start);

  const auto run_start = Clock::now();
  if (timed_source)
    out.result = engine.run_streamed(*timed_source);
  else if (source)
    out.result = engine.run_streamed(*source);
  else
    out.result = engine.run(materialized);
  out.run_s = since(run_start);

  if (layers != nullptr) {
    const sched::SimulationResult& result = out.result;
    ++layers->sims;
    layers->input_s += input_s;
    layers->build_run_s += out.setup_s - input_s + out.run_s;
    layers->run_s += out.run_s;
    layers->dp += result.perf.dp;
    layers->events += result.perf.events;
    layers->cycle += result.perf.cycle;
    layers->outages += result.failure.outages;
    layers->interruptions += result.failure.interruptions;
    layers->checkpoints += result.failure.checkpoints;
  }
  return out;
}

/// What a rep keeps of one simulation.
struct SimRecord {
  bool failed = true;  ///< threw, aborted, or tripped a guard
  std::uint64_t print = 0;
  std::uint64_t events = 0;
  double setup_s = 0;
  double run_s = 0;
  double mean_wait = 0;
  double utilization = 0;
  double bounded_slowdown = 0;
};

/// A FairShare run must really be multi-tenant: if every start landed in
/// one pool it would measure single-pool FairShare, which is EASY.
bool tenancy_guard(const Sim& sim, const sched::SimulationResult& result) {
  if (sim.algorithm != "FairShare") return true;
  int pools_started = 0;
  for (const sched::PoolFairnessStats& pool : result.perf.fairness.pools)
    if (pool.started > 0) ++pools_started;
  return pools_started >= 2;
}

SimRecord record(const Sim& sim, const sched::SimulationResult& result) {
  SimRecord rec;
  rec.failed = result.termination != sim::TerminationReason::kCompleted ||
               !tenancy_guard(sim, result);
  rec.print = fingerprint(result);
  rec.events = result.perf.events.fired;
  rec.mean_wait = result.mean_wait;
  rec.utilization = result.utilization;
  rec.bounded_slowdown = result.mean_bounded_slowdown;
  return rec;
}

/// Peak RSS of this process image in KiB.  Linux carries ru_maxrss across
/// exec, so a child's getrusage would report its forking parent's peak
/// whenever that is larger; VmHWM belongs to the exec'd image alone.
long peak_rss_kib(const rusage& usage) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::atol(line.c_str() + 6);
  return usage.ru_maxrss;
}

void snapshot_usage(RepResult& rep) {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  rep.cpu_s = seconds(usage.ru_utime) + seconds(usage.ru_stime);
  rep.peak_rss_mib = static_cast<double>(peak_rss_kib(usage)) / 1024.0;
}

/// campaign_fig: the grid fanned over the worker pool, each simulation
/// generate() + exp::run_workload() as exp::run_once does (set-up is the
/// generation; the run is the whole campaign's wall time).  A traced rep
/// builds each engine itself to wrap it; its layer times are summed over
/// the worker threads, and the identity refill + cycle + other = run holds
/// in those thread-seconds.
std::vector<SimRecord> run_campaign(const Definition& definition,
                                    std::uint64_t seed, bool quick,
                                    std::vector<Layers>* layers) {
  std::vector<SimRecord> records(rep_sims(definition, quick));
  if (layers != nullptr) layers->resize(records.size());
  util::parallel_for_each(records.size(), [&](std::size_t i) {
    try {
      const Sim sim = rep_sim(definition, seed, quick, i);
      if (layers != nullptr) {
        const SimRun run = run_sim(sim, &(*layers)[i]);
        records[i] = record(sim, run.result);
        records[i].setup_s = (*layers)[i].input_s;
      } else {
        const auto start = Clock::now();
        const workload::Workload inputs = workload::generate(sim.input);
        const double setup_s = since(start);
        records[i] = record(
            sim, exp::run_workload(inputs, sim.algorithm, sim.options));
        records[i].setup_s = setup_s;
      }
    } catch (const std::exception&) {
      records[i] = SimRecord{};
    }
  });
  return records;
}

/// The other workloads: the rep's simulations one after another on this
/// thread (the worker pool, when sized, serves the engine's own helpers).
std::vector<SimRecord> run_series(const Definition& definition,
                                  std::uint64_t seed, bool quick,
                                  Layers* layers) {
  std::vector<SimRecord> records(rep_sims(definition, quick));
  for (std::size_t i = 0; i < records.size(); ++i) {
    try {
      const Sim sim = rep_sim(definition, seed, quick, i);
      const SimRun run = run_sim(sim, layers);
      records[i] = record(sim, run.result);
      records[i].setup_s = run.setup_s;
      records[i].run_s = run.run_s;
    } catch (const std::exception&) {
      records[i] = SimRecord{};
    }
  }
  return records;
}

std::vector<std::pair<std::string, double>> layer_values(
    const Layers& layers) {
  std::vector<std::pair<std::string, double>> values;
  for (const LayerColumn& column : layer_columns())
    if (column.value != nullptr)
      values.emplace_back(column.metric.name, column.value(layers));
  return values;
}

}  // namespace

const std::vector<WorkloadInfo>& workloads() {
  static const std::vector<WorkloadInfo> table = [] {
    std::vector<WorkloadInfo> out;
    for (const Definition& definition : definitions())
      out.push_back(definition.info);
    return out;
  }();
  return table;
}

const WorkloadInfo* find_workload(const std::string& name) {
  const Definition* definition = find_definition(name);
  return definition == nullptr ? nullptr : &definition->info;
}

const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> metrics = [] {
    std::vector<LayerMetric> out;
    for (const LayerColumn& column : layer_columns())
      out.push_back(column.metric);
    return out;
  }();
  return metrics;
}

std::uint64_t sims_per_rep(const std::string& name, bool quick) {
  const Definition* definition = find_definition(name);
  return definition == nullptr ? 0 : rep_sims(*definition, quick);
}

RepResult run_rep(const std::string& name, std::uint64_t seed, bool quick,
                  bool traced) {
  RepResult rep;
  const Definition* definition = find_definition(name);
  if (definition == nullptr) {
    rep.error = "unknown workload " + name;
    return rep;
  }
  util::set_global_parallelism(definition->info.threads);

  const bool campaign = definition->shape == nullptr;
  std::vector<Layers> layers(traced && !campaign ? 1 : 0);
  const auto start = Clock::now();
  const std::vector<SimRecord> records =
      campaign ? run_campaign(*definition, seed, quick,
                              traced ? &layers : nullptr)
               : run_series(*definition, seed, quick,
                            traced ? &layers.front() : nullptr);
  const double wall = since(start);
  snapshot_usage(rep);

  Hash hash;
  Layers total;
  const double n = static_cast<double>(records.size());
  for (const SimRecord& rec : records) {
    hash.word(rec.print);
    rep.setup_s += rec.setup_s;
    rep.run_s += rec.run_s;
    rep.events += rec.events;
    rep.failed_sims += rec.failed ? 1 : 0;
    rep.mean_wait_s += rec.mean_wait / n;
    rep.utilization += rec.utilization / n;
    rep.bounded_slowdown += rec.bounded_slowdown / n;
  }
  if (campaign) rep.run_s = wall;
  for (const Layers& sim_layers : layers) total += sim_layers;
  rep.sims = records.size();
  rep.fingerprint = hash.value();
  if (traced) rep.layers = layer_values(total);
  return rep;
}

}  // namespace es::benchmark

