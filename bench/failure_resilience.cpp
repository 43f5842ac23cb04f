// Failure resilience — how the Table-III batch policies degrade when node
// cards fail at runtime.  The paper's evaluation assumes a perfectly
// reliable machine; this bench injects seeded exponential outages (whole
// 32-proc node cards, MTTR 30 min) at several MTBF settings and reports,
// per (MTBF, algorithm): utilization over the *in-service* capacity, mean
// job waiting time, outage/interruption counts, lost and wasted work, and
// the goodput share (completed work over all processor-seconds consumed).
// A second table compares the requeue policies (head / tail / abandon) at
// the harshest MTBF.  Deterministic: point i uses workload seed base+i and
// failure seed base+1000+i.
//
// Every point runs with a retry budget of 10 preemptions per job: without
// it, restart-from-scratch at MTBF below the longest runtimes needs
// ~e^(runtime/MTBF) attempts and the harsh points effectively never finish.
//
// A third table drops that safety net to compare recovery modes directly:
// capless restart-from-scratch vs checkpointed recovery (interval 900 s,
// overhead 30 s per checkpoint) across an MTBF sweep down to a harsh 15
// minutes.  Both run under a watchdog event budget, so the restart mode —
// which at harsh MTBF may never finish — aborts gracefully and reports its
// termination reason and unfinished-job count instead of hanging the bench.
#include <cstdint>
#include <fstream>

#include "bench_common.hpp"
#include "sim/watchdog.hpp"
#include "util/atomic_file.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

struct Point {
  double mtbf_hours = 0;  ///< 0 = failure injection disabled
  std::string algorithm;
  std::string requeue;
  double utilization = 0;
  double mean_wait = 0;
  double outages = 0;
  double interrupted = 0;
  double requeues = 0;
  double abandoned = 0;
  double lost_kps = 0;     ///< kilo proc-seconds preempted mid-run
  double goodput_pct = 0;  ///< goodput / (goodput + wasted)
};

Point run_point(const es::bench::BenchOptions& options,
                const es::workload::GeneratorConfig& base, double mtbf_hours,
                const std::string& algorithm, es::fault::RequeuePolicy policy) {
  es::util::RunningStats util_stats, wait_stats, goodput_stats;
  double outages = 0, interrupted = 0, requeues = 0, abandoned = 0, lost = 0;
  for (int i = 0; i < options.replications; ++i) {
    es::workload::GeneratorConfig config = base;
    config.seed = options.seed + static_cast<std::uint64_t>(i);
    const es::workload::Workload workload = es::workload::generate(config);

    es::core::AlgorithmOptions algo = es::bench::algo_options(options);
    algo.engine.requeue = policy;
    if (mtbf_hours > 0) {
      algo.engine.failure.enabled = true;
      algo.engine.failure.seed = options.seed + 1000 + static_cast<std::uint64_t>(i);
      algo.engine.failure.mtbf = mtbf_hours * 3600.0;
      algo.engine.failure.mttr = 30 * 60.0;
      algo.engine.failure.min_nodes = 1;
      algo.engine.failure.max_nodes = 2;
      algo.engine.failure.max_interruptions = 10;
    }
    const es::sched::SimulationResult result =
        es::exp::run_workload(workload, algorithm, algo);

    util_stats.add(result.utilization);
    wait_stats.add(result.mean_wait);
    const double consumed = result.failure.goodput_proc_seconds +
                            result.failure.wasted_proc_seconds;
    goodput_stats.add(
        consumed > 0 ? result.failure.goodput_proc_seconds / consumed : 1.0);
    outages += static_cast<double>(result.failure.outages);
    interrupted += static_cast<double>(result.failure.interruptions);
    requeues += static_cast<double>(result.failure.requeues);
    abandoned += static_cast<double>(result.failure.abandoned);
    lost += result.failure.lost_proc_seconds;
  }
  const double n = options.replications;
  Point point;
  point.mtbf_hours = mtbf_hours;
  point.algorithm = algorithm;
  point.requeue = es::fault::to_string(policy);
  point.utilization = util_stats.mean();
  point.mean_wait = wait_stats.mean();
  point.outages = outages / n;
  point.interrupted = interrupted / n;
  point.requeues = requeues / n;
  point.abandoned = abandoned / n;
  point.lost_kps = lost / n / 1000.0;
  point.goodput_pct = 100.0 * goodput_stats.mean();
  return point;
}

struct RecoveryPoint {
  double mtbf_hours = 0;
  std::string mode;  ///< "restart" or "ckpt"
  double utilization = 0;
  double mean_wait = 0;
  double interrupted = 0;
  double lost_kps = 0;
  double saved_kps = 0;      ///< work recovered from checkpoints
  double overhead_kps = 0;   ///< capacity spent writing checkpoints
  double goodput_pct = 0;
  int aborted = 0;           ///< replications stopped by the watchdog
  double unfinished = 0;     ///< mean jobs unfinished at an abort
  std::string termination;   ///< reason of the last replication
};

RecoveryPoint run_recovery_point(const es::bench::BenchOptions& options,
                                 const es::workload::GeneratorConfig& base,
                                 double mtbf_hours, bool checkpointed) {
  es::util::RunningStats util_stats, wait_stats, goodput_stats;
  double interrupted = 0, lost = 0, saved = 0, overhead = 0, unfinished = 0;
  RecoveryPoint point;
  point.mtbf_hours = mtbf_hours;
  point.mode = checkpointed ? "ckpt" : "restart";
  point.termination = "completed";
  for (int i = 0; i < options.replications; ++i) {
    es::workload::GeneratorConfig config = base;
    config.seed = options.seed + static_cast<std::uint64_t>(i);
    const es::workload::Workload workload = es::workload::generate(config);

    es::core::AlgorithmOptions algo = es::bench::algo_options(options);
    algo.engine.requeue = es::fault::RequeuePolicy::kRequeueHead;
    algo.engine.failure.enabled = true;
    algo.engine.failure.seed = options.seed + 1000 + static_cast<std::uint64_t>(i);
    algo.engine.failure.mtbf = mtbf_hours * 3600.0;
    algo.engine.failure.mttr = 30 * 60.0;
    algo.engine.failure.min_nodes = 1;
    algo.engine.failure.max_nodes = 2;
    algo.engine.failure.max_interruptions = 0;  // capless: recovery mode decides
    if (checkpointed) {
      algo.engine.checkpoint.enabled = true;
      algo.engine.checkpoint.interval = 900.0;
      algo.engine.checkpoint.overhead = 30.0;
    }
    // Event budget so the capless restart mode cannot hang the bench.
    algo.engine.watchdog.max_events =
        options.quick ? 100'000ULL : 500'000ULL;
    const es::sched::SimulationResult result =
        es::exp::run_workload(workload, "EASY", algo);

    util_stats.add(result.utilization);
    wait_stats.add(result.mean_wait);
    const double consumed = result.failure.goodput_proc_seconds +
                            result.failure.wasted_proc_seconds;
    goodput_stats.add(
        consumed > 0 ? result.failure.goodput_proc_seconds / consumed : 1.0);
    interrupted += static_cast<double>(result.failure.interruptions);
    lost += result.failure.lost_proc_seconds;
    saved += result.failure.saved_proc_seconds;
    overhead += result.failure.checkpoint_overhead_proc_seconds;
    unfinished += static_cast<double>(result.unfinished);
    if (result.termination != es::sim::TerminationReason::kCompleted) {
      ++point.aborted;
      point.termination = es::sim::to_string(result.termination);
    }
  }
  const double n = options.replications;
  point.utilization = util_stats.mean();
  point.mean_wait = wait_stats.mean();
  point.interrupted = interrupted / n;
  point.lost_kps = lost / n / 1000.0;
  point.saved_kps = saved / n / 1000.0;
  point.overhead_kps = overhead / n / 1000.0;
  point.goodput_pct = 100.0 * goodput_stats.mean();
  point.unfinished = unfinished / n;
  return point;
}

void add_rows(es::util::AsciiTable& table, const std::vector<Point>& points) {
  for (const Point& p : points) {
    table.cell(p.mtbf_hours > 0 ? std::to_string(p.mtbf_hours).substr(0, 4) + " h"
                                : std::string("none"))
        .cell(p.algorithm)
        .cell(p.requeue)
        .cell(100.0 * p.utilization, 2)
        .cell(p.mean_wait, 1)
        .cell(p.outages, 1)
        .cell(p.interrupted, 1)
        .cell(p.requeues, 1)
        .cell(p.abandoned, 1)
        .cell(p.lost_kps, 1)
        .cell(p.goodput_pct, 2)
        .end_row();
  }
}

}  // namespace

int main(int argc, char** argv) {
  es::bench::BenchOptions options;
  if (!es::bench::parse_bench_options(
          argc, argv,
          "Failure resilience: metrics vs MTBF (Load=0.9, P_S=0.5, "
          "MTTR=30min)",
          options))
    return 0;

  es::workload::GeneratorConfig config = es::bench::base_workload(options);
  config.p_small = 0.5;
  config.target_load = 0.9;

  const std::vector<double> mtbf_hours =
      options.quick ? std::vector<double>{0.0, 1.0}
                    : std::vector<double>{0.0, 8.0, 4.0, 1.0};
  const std::vector<std::string> algorithms = {"EASY", "LOS", "Delayed-LOS"};

  std::vector<Point> sweep;
  for (const double mtbf : mtbf_hours)
    for (const std::string& algorithm : algorithms)
      sweep.push_back(run_point(options, config, mtbf, algorithm,
                                es::fault::RequeuePolicy::kRequeueHead));

  const std::vector<std::string> columns = {
      "MTBF",      "algorithm", "requeue",  "util %",   "wait (s)",
      "outages",   "interrupted", "requeued", "abandoned", "lost kPs",
      "goodput %"};

  es::util::AsciiTable table("Failure resilience — MTBF sweep (requeue=head)");
  table.set_columns(columns);
  add_rows(table, sweep);
  table.render(std::cout);

  // Requeue policies head / tail / abandon at the harshest MTBF.
  const double harsh = mtbf_hours.back();
  std::vector<Point> policy_points;
  for (const auto policy :
       {es::fault::RequeuePolicy::kRequeueHead,
        es::fault::RequeuePolicy::kRequeueTail,
        es::fault::RequeuePolicy::kAbandon})
    for (const std::string& algorithm : algorithms)
      policy_points.push_back(
          run_point(options, config, harsh, algorithm, policy));

  es::util::AsciiTable policy_table("Requeue policies at MTBF = " +
                                    std::to_string(harsh).substr(0, 4) + " h");
  policy_table.set_columns(columns);
  add_rows(policy_table, policy_points);
  policy_table.render(std::cout);

  // Recovery modes: capless restart-from-scratch vs checkpointed recovery,
  // down to an MTBF harsh enough that restart alone cannot finish.
  const std::vector<double> recovery_mtbf =
      options.quick ? std::vector<double>{1.0, 0.25}
                    : std::vector<double>{4.0, 1.0, 0.5, 0.25};
  std::vector<RecoveryPoint> recovery;
  for (const double mtbf : recovery_mtbf)
    for (const bool checkpointed : {false, true})
      recovery.push_back(run_recovery_point(options, config, mtbf,
                                            checkpointed));

  es::util::AsciiTable recovery_table(
      "Recovery modes (EASY, capless requeue=head; ckpt: I=900s C=30s)");
  recovery_table.set_columns({"MTBF", "mode", "util %", "wait (s)",
                              "interrupted", "lost kPs", "saved kPs",
                              "ckpt-ovh kPs", "goodput %", "aborted",
                              "unfinished", "termination"});
  for (const RecoveryPoint& p : recovery) {
    recovery_table.cell(std::to_string(p.mtbf_hours).substr(0, 4) + " h")
        .cell(p.mode)
        .cell(100.0 * p.utilization, 2)
        .cell(p.mean_wait, 1)
        .cell(p.interrupted, 1)
        .cell(p.lost_kps, 1)
        .cell(p.saved_kps, 1)
        .cell(p.overhead_kps, 1)
        .cell(p.goodput_pct, 2)
        .cell(static_cast<long long>(p.aborted))
        .cell(p.unfinished, 1)
        .cell(p.termination)
        .end_row();
  }
  recovery_table.render(std::cout);

  ::mkdir(options.csv_dir.c_str(), 0755);
  const std::string path = options.csv_dir + "/failure_resilience.csv";
  std::ofstream out(path);
  if (out) {
    es::util::CsvWriter csv(out);
    csv.set_header({"mtbf_hours", "algorithm", "requeue", "utilization",
                    "mean_wait", "outages", "interrupted", "requeued",
                    "abandoned", "lost_proc_seconds", "goodput_share"});
    auto write = [&csv](const std::vector<Point>& points) {
      for (const Point& p : points) {
        csv.cell(p.mtbf_hours)
            .cell(p.algorithm)
            .cell(p.requeue)
            .cell(p.utilization)
            .cell(p.mean_wait)
            .cell(p.outages)
            .cell(p.interrupted)
            .cell(p.requeues)
            .cell(p.abandoned)
            .cell(p.lost_kps * 1000.0)
            .cell(p.goodput_pct / 100.0)
            .end_row();
      }
    };
    write(sweep);
    write(policy_points);
    std::printf("[csv] %s\n", path.c_str());
  } else {
    std::printf("[csv] could not write %s\n", path.c_str());
  }

  const std::string recovery_path = options.csv_dir + "/failure_recovery.csv";
  const bool recovery_ok = es::util::write_file_atomic(
      recovery_path, [&recovery](std::ostream& stream) {
        es::util::CsvWriter csv(stream);
        csv.set_header({"mtbf_hours", "mode", "utilization", "mean_wait",
                        "interrupted", "lost_proc_seconds",
                        "saved_proc_seconds", "ckpt_overhead_proc_seconds",
                        "goodput_share", "aborted_replications",
                        "mean_unfinished", "termination"});
        for (const RecoveryPoint& p : recovery) {
          csv.cell(p.mtbf_hours)
              .cell(p.mode)
              .cell(p.utilization)
              .cell(p.mean_wait)
              .cell(p.interrupted)
              .cell(p.lost_kps * 1000.0)
              .cell(p.saved_kps * 1000.0)
              .cell(p.overhead_kps * 1000.0)
              .cell(p.goodput_pct / 100.0)
              .cell(static_cast<long long>(p.aborted))
              .cell(p.unfinished)
              .cell(p.termination)
              .end_row();
        }
        return stream.good();
      });
  if (recovery_ok) {
    std::printf("[csv] %s\n", recovery_path.c_str());
  } else {
    std::printf("[csv] could not write %s\n", recovery_path.c_str());
  }
  return 0;
}
