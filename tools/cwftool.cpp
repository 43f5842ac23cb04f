// cwftool — inspect and transform SWF/CWF trace files.
//
//   cwftool validate trace.cwf            lint a trace, report problems
//   cwftool describe trace.cwf            print the statistical summary
//   cwftool convert  in.cwf out.swf       strip to plain 18-field SWF
//   cwftool scale    in.cwf out.cwf --factor 2.0
//                                         stretch arrival times (halves load)
//   cwftool calibrate in.cwf out.cwf --load 0.9 [--procs 320]
//                                         scale arrivals to a target load
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <iostream>
#include <string>

#include "util/cli.hpp"
#include "workload/cwf.hpp"
#include "workload/load.hpp"
#include "workload/summary.hpp"

namespace {

int validate(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cwftool: cannot open %s\n", path.c_str());
    return 2;
  }
  std::vector<es::workload::SwfParseError> errors;
  const es::workload::CwfFile file = es::workload::parse_cwf(in, &errors);
  for (const auto& error : errors)
    std::printf("%s:%zu: %s\n", path.c_str(), error.line_number,
                error.message.c_str());

  // Semantic lint on top of the syntax pass.
  const es::workload::SwfMetadata metadata =
      es::workload::parse_swf_metadata(file.header);
  int problems = static_cast<int>(errors.size());
  std::set<long long> ids;
  double last_submit = -1;
  for (const auto& record : file.records) {
    if (record.is_submission()) {
      if (!ids.insert(record.swf.job_number).second) {
        std::printf("job %lld: duplicate submission\n",
                    record.swf.job_number);
        ++problems;
      }
      const long long procs = record.swf.req_procs > 0
                                  ? record.swf.req_procs
                                  : record.swf.used_procs;
      if (procs <= 0 ||
          (record.swf.req_time <= 0 && record.swf.run_time <= 0)) {
        std::printf("job %lld: unusable (no size or runtime)\n",
                    record.swf.job_number);
        ++problems;
      }
      if (metadata.max_procs > 0 && procs > metadata.max_procs) {
        std::printf("job %lld: requests %lld procs > MaxProcs %lld\n",
                    record.swf.job_number, procs, metadata.max_procs);
        ++problems;
      }
      if (record.req_start_time >= 0 &&
          record.req_start_time < record.swf.submit_time) {
        std::printf("job %lld: requested start before submission\n",
                    record.swf.job_number);
        ++problems;
      }
      if (record.swf.submit_time < last_submit) {
        std::printf("job %lld: submissions not sorted by time\n",
                    record.swf.job_number);
        ++problems;
      }
      last_submit = std::max(last_submit, record.swf.submit_time);
    } else {
      if (!ids.contains(record.swf.job_number)) {
        std::printf("ECC at t=%.0f: references unknown job %lld\n",
                    record.swf.submit_time, record.swf.job_number);
        ++problems;
      }
    }
  }
  std::printf("%s: %zu records, %d problem(s)\n", path.c_str(),
              file.records.size(), problems);
  return problems == 0 ? 0 : 1;
}

int describe(const std::string& path) {
  const es::workload::Workload workload =
      es::workload::load_cwf_workload(path);
  if (workload.jobs.empty()) {
    std::fprintf(stderr, "cwftool: no usable jobs in %s\n", path.c_str());
    return 2;
  }
  es::workload::print_summary(std::cout,
                              es::workload::summarize(workload));
  return 0;
}

int convert(const std::string& in_path, const std::string& out_path) {
  std::ifstream in(in_path);
  if (!in) {
    std::fprintf(stderr, "cwftool: cannot open %s\n", in_path.c_str());
    return 2;
  }
  const es::workload::CwfFile file = es::workload::parse_cwf(in);
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cwftool: cannot write %s\n", out_path.c_str());
    return 2;
  }
  for (const std::string& line : file.header) out << "; " << line << '\n';
  out << "; Converted from CWF by cwftool (ECC lines dropped)\n";
  std::size_t submissions = 0;
  for (const auto& record : file.records) {
    if (!record.is_submission()) continue;
    out << es::workload::format_swf_record(record.swf) << '\n';
    ++submissions;
  }
  std::printf("%s: %zu submissions (ECC lines dropped)\n", out_path.c_str(),
              submissions);
  return 0;
}

int rescale(const std::string& in_path, const std::string& out_path,
            double factor, double target_load, int procs) {
  es::workload::Workload workload =
      es::workload::load_cwf_workload(in_path);
  if (workload.jobs.empty()) {
    std::fprintf(stderr, "cwftool: no usable jobs in %s\n", in_path.c_str());
    return 2;
  }
  if (procs > 0) workload.machine_procs = procs;
  if (workload.machine_procs <= 0) workload.machine_procs = 320;
  if (target_load > 0) {
    const double achieved = es::workload::calibrate_load(
        workload, workload.machine_procs, target_load);
    std::printf("calibrated offered load: %.4f (target %.4f, M=%d)\n",
                achieved, target_load, workload.machine_procs);
  } else {
    workload.scale_arrivals(factor);
    std::printf("arrival times scaled by %.4f; offered load now %.4f\n",
                factor,
                es::workload::offered_load(workload,
                                           workload.machine_procs));
  }
  if (!es::workload::save_cwf_workload(out_path, workload)) {
    std::fprintf(stderr, "cwftool: cannot write %s\n", out_path.c_str());
    return 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  double factor = 1.0;
  double load = 0.0;
  int procs = 0;
  es::util::CliParser cli(
      "Inspect and transform SWF/CWF traces.\n"
      "subcommands: validate <file> | describe <file> | convert <in> <out>\n"
      "             scale <in> <out> --factor F | calibrate <in> <out> "
      "--load L [--procs M]");
  cli.add_option("factor", "arrival-time scale factor for `scale` (> 0)",
                 &factor);
  cli.add_option("load", "target offered load for `calibrate` (> 0)", &load);
  cli.add_option("procs", "machine size override", &procs);
  if (!cli.parse(argc, argv)) return 1;
  const auto& args = cli.positional();
  if (args.empty()) {
    std::fputs(cli.help(argv[0]).c_str(), stderr);
    return 1;
  }
  const std::string& command = args[0];
  if (cli.was_set("procs") && procs < 1) {
    std::fprintf(stderr, "cwftool: --procs: must be >= 1\n");
    return 2;
  }
  // Scaling by a factor that is not finite and positive has no meaning; a
  // missing --load (0) would silently copy the trace.
  const auto require_positive = [](const char* flag, double value) {
    if (std::isfinite(value) && value > 0) return true;
    std::fprintf(stderr, "cwftool: --%s: must be a finite number > 0\n",
                 flag);
    return false;
  };
  try {
    if (command == "validate" && args.size() == 2) return validate(args[1]);
    if (command == "describe" && args.size() == 2) return describe(args[1]);
    if (command == "convert" && args.size() == 3)
      return convert(args[1], args[2]);
    if (command == "scale" && args.size() == 3)
      return require_positive("factor", factor)
                 ? rescale(args[1], args[2], factor, 0.0, procs)
                 : 2;
    if (command == "calibrate" && args.size() == 3)
      return require_positive("load", load)
                 ? rescale(args[1], args[2], 1.0, load, procs)
                 : 2;
  } catch (const es::workload::TraceError& error) {
    std::fprintf(stderr, "cwftool: %s: %s\n", args[1].c_str(), error.what());
    return 2;
  }
  std::fputs(cli.help(argv[0]).c_str(), stderr);
  return 1;
}
