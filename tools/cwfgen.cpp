// cwfgen — Cloud Workload Format generator CLI (paper section IV-D).
//
// Produces a synthetic CWF trace from the Lublin-model generator with the
// paper's knobs exposed as flags:
//
//   $ cwfgen --num-jobs 500 --p-small 0.5 --p-dedicated 0.5 --p-extend 0.2
//       --p-reduce 0.1 --load 0.9 --seed 42 --output trace.cwf
//
// (one command line, wrapped here).  The model flags are generated from the
// workload.* registry params (workload/generator.hpp), the same ones simrun
// exposes, with the same ranges.
//
// The resulting file replays through `simrun`, `examples/swf_replay`, or
// any SWF-compatible tool (the first 18 fields are standard SWF).
//
// Exit codes (simrun's contract): 0 success, 1 usage error, 2 invalid flag
// value (the message names the field), 3 output I/O error.
#include <cstdio>
#include <string>

#include <iostream>

#include "util/cli.hpp"
#include "util/param_registry.hpp"
#include "workload/cwf.hpp"
#include "workload/generator.hpp"
#include "workload/load.hpp"
#include "workload/summary.hpp"

int main(int argc, char** argv) {
  es::workload::GeneratorConfig config;
  std::string output = "workload.cwf";
  bool describe = false;
  es::util::ParamRegistry registry;
  es::workload::register_generator_params(registry, config);
  es::util::CliParser cli("Generate a synthetic CWF workload trace");
  cli.add_flag("describe", "print a statistical summary of the trace",
               &describe);
  cli.add_option("output", "output file path (default workload.cwf)", &output);
  cli.add_option("procs", "machine size, processors (default 320)",
                 &config.machine_procs);
  cli.add_param_flags(registry);
  if (!cli.parse(argc, argv)) return 1;
  try {
    cli.apply_param_flags(registry);
    registry.finalize();
  } catch (const es::util::ConfigError& error) {
    std::fprintf(stderr, "cwfgen: config: %s\n", error.what());
    return 2;
  }
  if (config.machine_procs < 1) {
    std::fprintf(stderr, "cwfgen: --procs: must be >= 1\n");
    return 2;
  }

  const es::workload::Workload workload = es::workload::generate(config);
  char header1[160];
  std::snprintf(header1, sizeof header1,
                "Generated by cwfgen: jobs=%zu seed=%llu P_S=%.2f P_D=%.2f "
                "P_E=%.2f P_R=%.2f",
                config.num_jobs, static_cast<unsigned long long>(config.seed),
                config.p_small, config.p_dedicated, config.p_extend,
                config.p_reduce);
  char header2[128];
  std::snprintf(header2, sizeof header2,
                "Granularity: %d; offered load %.4f", workload.granularity,
                es::workload::offered_load(workload, config.machine_procs));
  if (!es::workload::save_cwf_workload(output, workload,
                                       {header1, header2})) {
    std::fprintf(stderr, "cwfgen: cannot write %s\n", output.c_str());
    return 3;
  }
  std::printf("%s: %zu jobs (%zu dedicated), %zu ECCs\n", output.c_str(),
              workload.jobs.size(), workload.dedicated_count(),
              workload.eccs.size());
  if (describe)
    es::workload::print_summary(std::cout,
                                es::workload::summarize(workload));
  return 0;
}
