// cwfgen — Cloud Workload Format generator CLI (paper section IV-D).
//
// Produces a synthetic CWF trace from the Lublin-model generator with the
// paper's knobs exposed as flags:
//
//   $ cwfgen --jobs 500 --p-small 0.5 --p-dedicated 0.5 --p-extend 0.2
//       --p-reduce 0.1 --load 0.9 --seed 42 --output trace.cwf
//
// (one command line, wrapped here).
//
// The resulting file replays through `simrun`, `examples/swf_replay`, or
// any SWF-compatible tool (the first 18 fields are standard SWF).
#include <cstdio>
#include <string>

#include <iostream>

#include "util/cli.hpp"
#include "workload/cwf.hpp"
#include "workload/generator.hpp"
#include "workload/load.hpp"
#include "workload/summary.hpp"

int main(int argc, char** argv) {
  es::workload::GeneratorConfig config;
  std::string output = "workload.cwf";
  int jobs = 500;
  unsigned long long seed = 1;
  double load = 0.0;
  bool describe = false;
  es::util::CliParser cli("Generate a synthetic CWF workload trace");
  cli.add_flag("describe", "print a statistical summary of the trace",
               &describe);
  cli.add_option("output", "output file path (default workload.cwf)", &output);
  cli.add_option("jobs", "number of jobs (default 500)", &jobs);
  cli.add_option("seed", "RNG seed (default 1)", &seed);
  cli.add_option("procs", "machine size, processors (default 320)",
                 &config.machine_procs);
  cli.add_option("p-small", "small-job probability P_S (default 0.5)",
                 &config.p_small);
  cli.add_option("p-dedicated", "dedicated-job probability P_D (default 0)",
                 &config.p_dedicated);
  cli.add_option("p-extend", "ET injection probability P_E (default 0)",
                 &config.p_extend);
  cli.add_option("p-reduce", "RT injection probability P_R (default 0)",
                 &config.p_reduce);
  cli.add_option("load", "calibrate offered load to this value (0 = off)",
                 &load);
  cli.add_option("estimate-factor",
                 "requested time = factor x actual (default 1.0)",
                 &config.estimate_factor);
  cli.add_option("beta-arr", "arrival Gamma scale (paper Table II)",
                 &config.arrival.b_arr);
  if (!cli.parse(argc, argv)) return 1;
  config.num_jobs = static_cast<std::size_t>(jobs);
  config.seed = seed;
  config.target_load = load;

  const es::workload::Workload workload = es::workload::generate(config);
  char header1[160];
  std::snprintf(header1, sizeof header1,
                "Generated by cwfgen: jobs=%d seed=%llu P_S=%.2f P_D=%.2f "
                "P_E=%.2f P_R=%.2f",
                jobs, seed, config.p_small, config.p_dedicated,
                config.p_extend, config.p_reduce);
  char header2[128];
  std::snprintf(header2, sizeof header2,
                "MaxProcs: %d (granularity %d); offered load %.4f",
                config.machine_procs, workload.granularity,
                es::workload::offered_load(workload, config.machine_procs));
  if (!es::workload::save_cwf_workload(output, workload,
                                       {header1, header2})) {
    std::fprintf(stderr, "cwfgen: cannot write %s\n", output.c_str());
    return 1;
  }
  std::printf("%s: %zu jobs (%zu dedicated), %zu ECCs\n", output.c_str(),
              workload.jobs.size(), workload.dedicated_count(),
              workload.eccs.size());
  if (describe)
    es::workload::print_summary(std::cout,
                                es::workload::summarize(workload));
  return 0;
}
