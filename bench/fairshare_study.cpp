// Fair-share study: does pool-weighted fair-share scheduling actually buy
// fairness under skewed multi-tenant load, and what does it cost?
//
// Workload: the paper's P_S = 0.5 batch mix at offered load 0.9, with jobs
// tagged by Zipf-distributed submitters (a few heavy users dominate, as in
// production traces) mapped onto four weighted pools.  Baselines are EASY,
// Delayed-LOS and Hybrid-LOS — all FIFO-with-backfill policies that ignore
// the pool tags — against FairShare with starvation-driven preemption.
//
// Per policy and seed, the FairnessObserver reports per-pool wait
// percentiles, share satisfaction and Jain's fairness index; the study
// averages over seeds and prints the fairness-vs-goodput trade.  The
// verdicts (FairShare beats both LOS baselines on Jain and on the worst
// pool's p99 wait, while keeping utilization within 5%) gate the exit
// status.
#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

/// Seed-averaged fairness summary of one policy.
struct PolicyRow {
  std::string algorithm;
  es::util::RunningStats jain;
  es::util::RunningStats worst_p99;   ///< max over pools of p99 wait
  es::util::RunningStats mean_wait;
  es::util::RunningStats utilization;
  es::util::RunningStats preemptions;
};

}  // namespace

int main(int argc, char** argv) {
  es::bench::BenchOptions options;
  if (!es::bench::parse_bench_options(
          argc, argv, "Multi-tenant fair-share study (FairShare vs LOS)",
          options))
    return 0;

  // Four pools with skewed weights; prod additionally holds a min-share
  // floor.  A --config file can reshape all of this through the spine.
  es::workload::GeneratorConfig workload = es::bench::base_workload(options);
  workload.p_small = 0.5;
  workload.target_load = 0.9;
  workload.num_users = options.quick ? 32 : 64;
  workload.zipf_exponent = 1.1;
  workload.num_pools = 4;

  es::core::AlgorithmOptions algo;
  algo.lookahead = options.lookahead;
  algo.max_skip_count = 7;
  // Study defaults: preemption is modeled as suspend/resume (a preempted
  // job banks its elapsed work and resumes, it does not restart cold), and
  // the relief timeouts are hours-scale to match hours-scale batch jobs.
  // The engine's own aggressive sub-hour defaults thrash on this workload:
  // every preemption victim re-queues at the tail, and those re-waits blow
  // up the victims' pools' p99 far beyond what the rescued pools gain.
  algo.engine.checkpoint.enabled = true;
  algo.engine.checkpoint.on_preempt = true;
  algo.engine.fairshare.min_share_preemption_timeout = 7200;
  algo.engine.fairshare.fair_share_preemption_timeout = 43200;
  algo.engine.fairshare.max_preemptions_per_job = 1;
  // One spine pass: the file may reshape the engine, the pool tree and the
  // tenancy knobs; the study's defaults above are plain pre-load values, so
  // the file overrides them like any other default.
  es::bench::apply_config_file(options.config_path, algo, &workload);
  if (algo.engine.fairshare.pools.empty()) {
    algo.engine.fairshare.pools = {{"prod", 4.0, 0.25},
                                   {"batch", 2.0, 0.0},
                                   {"dev", 1.0, 0.0},
                                   {"scavenger", 1.0, 0.0}};
  }
  algo.engine.fairshare.collect_stats = true;

  const std::vector<std::string> algorithms{"FairShare", "EASY", "Delayed-LOS",
                                            "Hybrid-LOS"};
  std::vector<PolicyRow> rows;
  for (const std::string& algorithm : algorithms) {
    PolicyRow row;
    row.algorithm = algorithm;
    for (int i = 0; i < options.replications; ++i) {
      es::exp::RunSpec spec;
      spec.workload = workload;
      spec.workload.seed = options.seed + static_cast<unsigned>(i);
      spec.algorithm = algorithm;
      spec.options = algo;
      const es::sched::SimulationResult result = es::exp::run_once(spec);
      const es::sched::FairnessStats& fairness = result.perf.fairness;
      row.jain.add(fairness.jain);
      double worst = 0;
      for (const es::sched::PoolFairnessStats& pool : fairness.pools)
        worst = std::max(worst, pool.wait_p99);
      row.worst_p99.add(worst);
      row.mean_wait.add(result.mean_wait);
      row.utilization.add(result.utilization);
      row.preemptions.add(
          static_cast<double>(result.failure.interruptions));
    }
    rows.push_back(row);
  }

  es::util::AsciiTable table(
      "Fair-share study — Zipf users over 4 pools, P_S=0.5, load 0.9");
  table.set_columns({"policy", "Jain", "worst-pool p99 wait (h)",
                     "mean wait (h)", "utilization %", "preemptions"});
  for (PolicyRow& row : rows) {
    table.cell(row.algorithm)
        .cell(row.jain.mean(), 4)
        .cell(row.worst_p99.mean() / 3600.0, 2)
        .cell(row.mean_wait.mean() / 3600.0, 2)
        .cell(100.0 * row.utilization.mean(), 2)
        .cell(row.preemptions.mean(), 1);
    table.end_row();
  }
  table.render(std::cout);

  // Verdicts against the two LOS baselines (EASY is informational).
  const PolicyRow& fair = rows[0];
  bool jain_wins = true, p99_wins = true, goodput_ok = true;
  for (std::size_t i = 2; i < rows.size(); ++i) {
    if (fair.jain.mean() <= rows[i].jain.mean()) jain_wins = false;
    if (fair.worst_p99.mean() >= rows[i].worst_p99.mean()) p99_wins = false;
    if (fair.utilization.mean() < 0.95 * rows[i].utilization.mean())
      goodput_ok = false;
  }
  std::printf("\nverdict: Jain %s, worst-pool p99 %s, goodput within 5%% "
              "%s\n",
              jain_wins ? "improved" : "NOT improved",
              p99_wins ? "improved" : "NOT improved",
              goodput_ok ? "yes" : "NO");
  return (jain_wins && p99_wins && goodput_ok) ? 0 : 1;
}
