// Replay an SWF/CWF trace file through any algorithm — the workflow for
// evaluating the schedulers on Parallel Workloads Archive logs.
//
//   $ ./examples/swf_replay --trace my_log.swf --procs 128 --algorithm EASY
//
// Without --trace, the example writes a small demonstration CWF trace to a
// temporary file first, so it is runnable out of the box.
#include <cstdio>
#include <fstream>
#include <iostream>

#include "exp/experiment.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "workload/cwf.hpp"
#include "workload/generator.hpp"
#include "workload/load.hpp"

namespace {

std::string write_demo_trace() {
  // A generated workload saved as CWF: stands in for an archive download.
  es::workload::GeneratorConfig config;
  config.machine_procs = 320;
  config.num_jobs = 300;
  config.seed = 99;
  config.p_dedicated = 0.2;
  config.p_extend = 0.2;
  config.p_reduce = 0.1;
  config.target_load = 0.8;
  const auto workload = es::workload::generate(config);
  const std::string path = "/tmp/elastisched_demo.cwf";
  es::workload::save_cwf_workload(
      path, workload,
      {"elastisched demo trace", "Computer: simulated BlueGene/P"});
  return path;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace;
  std::string algorithm = "Hybrid-LOS-E";  // handles every CWF feature
  int procs = 0;  // 0 = from the trace's MaxProcs header, else 320
  int granularity = 0;
  double scale = 1.0;
  es::util::CliParser cli(
      "Replay an SWF/CWF trace through a scheduling algorithm");
  cli.add_option("trace", "path to an SWF or CWF file (default: demo trace)",
                 &trace);
  cli.add_option("algorithm", "algorithm name (see Table III)", &algorithm);
  cli.add_option("procs",
                 "machine size in processors (default: trace header)", &procs);
  cli.add_option("granularity", "allocation granularity (default: trace)",
                 &granularity);
  cli.add_option("scale",
                 "arrival-time scale factor (>1 lowers load, <1 raises it)",
                 &scale);
  if (!cli.parse(argc, argv)) return 1;

  if (trace.empty()) {
    trace = write_demo_trace();
    std::printf("No --trace given; wrote demo trace to %s\n", trace.c_str());
  }

  es::workload::Workload workload = es::workload::load_cwf_workload(trace);
  if (workload.jobs.empty()) {
    std::fprintf(stderr, "no usable jobs in %s\n", trace.c_str());
    return 1;
  }
  // CLI overrides > trace header metadata > defaults.
  if (procs > 0) workload.machine_procs = procs;
  if (workload.machine_procs <= 0) workload.machine_procs = 320;
  if (granularity > 0) workload.granularity = granularity;
  if (workload.granularity <= 0) workload.granularity = 1;
  procs = workload.machine_procs;
  if (scale != 1.0) workload.scale_arrivals(scale);

  // Drop jobs the target machine cannot host (archive logs sometimes carry
  // oversized entries).
  std::erase_if(workload.jobs, [procs](const es::workload::Job& job) {
    return job.num > procs;
  });

  const double load = es::workload::offered_load(workload, procs);
  std::printf("Trace: %zu jobs (%zu dedicated), %zu ECCs, offered load %.3f\n\n",
              workload.jobs.size(), workload.dedicated_count(),
              workload.eccs.size(), load);

  const auto result = es::exp::run_workload(workload, algorithm);
  es::util::AsciiTable table("Replay results — " + algorithm);
  table.set_columns({"metric", "value"});
  table.cell("mean utilization %").cell(100.0 * result.utilization, 2).end_row();
  table.cell("mean wait").cell(es::util::format_duration(result.mean_wait)).end_row();
  table.cell("slowdown").cell(result.slowdown, 3).end_row();
  table.cell("jobs completed").cell(static_cast<long long>(result.completed)).end_row();
  table.cell("jobs killed (overran estimate)").cell(static_cast<long long>(result.killed)).end_row();
  table.cell("ECCs processed").cell(static_cast<long long>(result.ecc.processed)).end_row();
  table.cell("makespan").cell(es::util::format_duration(result.makespan)).end_row();
  table.render(std::cout);
  return 0;
}
