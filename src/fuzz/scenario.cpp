#include "fuzz/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/atomic_file.hpp"
#include "util/check.hpp"
#include "workload/cwf.hpp"

namespace es::fuzz {

namespace {

constexpr int kScenarioVersion = 1;

std::string trim(const std::string& text) {
  const auto begin = text.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return "";
  const auto end = text.find_last_not_of(" \t\r\n");
  return text.substr(begin, end - begin + 1);
}

[[noreturn]] void fail(std::size_t line, const std::string& message) {
  throw ScenarioError("scenario line " + std::to_string(line) + ": " +
                      message);
}

double parse_double(std::size_t line, const std::string& key,
                    const std::string& value) {
  try {
    std::size_t used = 0;
    const double parsed = std::stod(value, &used);
    if (used != value.size() || !std::isfinite(parsed))
      fail(line, key + ": expected a finite number, got '" + value + "'");
    return parsed;
  } catch (const ScenarioError&) {
    throw;
  } catch (const std::exception&) {
    fail(line, key + ": expected a finite number, got '" + value + "'");
  }
}

long long parse_int(std::size_t line, const std::string& key,
                    const std::string& value) {
  try {
    std::size_t used = 0;
    const long long parsed = std::stoll(value, &used);
    if (used != value.size())
      fail(line, key + ": expected an integer, got '" + value + "'");
    return parsed;
  } catch (const ScenarioError&) {
    throw;
  } catch (const std::exception&) {
    fail(line, key + ": expected an integer, got '" + value + "'");
  }
}

std::uint64_t parse_u64(std::size_t line, const std::string& key,
                        const std::string& value) {
  try {
    std::size_t used = 0;
    const unsigned long long parsed = std::stoull(value, &used);
    if (used != value.size())
      fail(line, key + ": expected an unsigned integer, got '" + value + "'");
    return parsed;
  } catch (const ScenarioError&) {
    throw;
  } catch (const std::exception&) {
    fail(line, key + ": expected an unsigned integer, got '" + value + "'");
  }
}

bool parse_bool(std::size_t line, const std::string& key,
                const std::string& value) {
  if (value == "0") return false;
  if (value == "1") return true;
  fail(line, key + ": expected 0 or 1, got '" + value + "'");
}

std::string format_double(double value) {
  // Round-trip-exact rendering keeps save -> load -> save byte-stable.
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

core::AlgorithmOptions Scenario::options() const {
  core::AlgorithmOptions options;
  options.engine = engine;
  options.engine.machine_procs = workload.machine_procs;
  options.engine.granularity = workload.granularity;
  return options;
}

std::string format_scenario(const Scenario& scenario) {
  std::ostringstream out;
  out << "# elastisched scenario v" << kScenarioVersion << "\n";
  out << "scenario-version = " << kScenarioVersion << "\n";
  out << "name = " << scenario.name << "\n";
  out << "family = " << scenario.family << "\n";
  out << "seed = " << scenario.seed << "\n";
  out << "expect-completion = " << (scenario.expect_completion ? 1 : 0)
      << "\n";
  out << "procs = " << scenario.workload.machine_procs << "\n";
  out << "granularity = " << scenario.workload.granularity << "\n";
  out << "requeue = " << fault::to_string(scenario.engine.requeue) << "\n";

  const fault::FailureModelConfig& failure = scenario.engine.failure;
  if (failure.enabled) {
    if (failure.script.empty()) {
      out << "fail-seed = " << failure.seed << "\n";
      out << "fail-mtbf = " << format_double(failure.mtbf) << "\n";
      out << "fail-mttr = " << format_double(failure.mttr) << "\n";
      out << "fail-min-nodes = " << failure.min_nodes << "\n";
      out << "fail-max-nodes = " << failure.max_nodes << "\n";
    }
    if (failure.max_interruptions > 0)
      out << "fail-retry-cap = " << failure.max_interruptions << "\n";
    for (const fault::Outage& outage : failure.script) {
      out << "outage = " << format_double(outage.down) << ' '
          << format_double(outage.up) << ' ' << outage.procs << "\n";
    }
  }

  const fault::CheckpointConfig& ckpt = scenario.engine.checkpoint;
  if (ckpt.enabled) {
    out << "ckpt-interval = " << format_double(ckpt.interval) << "\n";
    out << "ckpt-overhead = " << format_double(ckpt.overhead) << "\n";
    out << "ckpt-on-preempt = " << (ckpt.on_preempt ? 1 : 0) << "\n";
  }

  const sim::WatchdogConfig& watchdog = scenario.engine.watchdog;
  if (watchdog.max_events > 0)
    out << "max-events = " << watchdog.max_events << "\n";
  if (watchdog.max_sim_time > 0)
    out << "max-sim-time = " << format_double(watchdog.max_sim_time) << "\n";
  if (watchdog.no_progress_cycles > 0)
    out << "no-progress-cycles = " << watchdog.no_progress_cycles << "\n";

  out << "workload:\n";
  const workload::CwfFile file = workload::from_workload(scenario.workload);
  for (const workload::CwfRecord& record : file.records)
    out << workload::format_cwf_record(record) << "\n";
  return out.str();
}

Scenario parse_scenario(const std::string& text) {
  Scenario scenario;
  bool saw_version = false;
  bool ckpt_enabled = false;
  bool fail_stochastic = false;
  int procs = 320;
  int granularity = 32;

  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  std::ostringstream cwf_text;
  bool in_workload = false;
  while (std::getline(in, line)) {
    ++line_no;
    if (in_workload) {
      cwf_text << line << "\n";
      continue;
    }
    const std::string stripped = trim(line);
    if (stripped.empty() || stripped[0] == '#') continue;
    if (stripped == "workload:") {
      in_workload = true;
      continue;
    }
    const auto eq = stripped.find('=');
    if (eq == std::string::npos)
      fail(line_no, "expected 'key = value', got '" + stripped + "'");
    const std::string key = trim(stripped.substr(0, eq));
    const std::string value = trim(stripped.substr(eq + 1));
    if (key.empty() || value.empty())
      fail(line_no, "expected 'key = value', got '" + stripped + "'");

    if (key == "scenario-version") {
      if (parse_int(line_no, key, value) != kScenarioVersion)
        fail(line_no, "unsupported scenario version '" + value + "'");
      saw_version = true;
    } else if (key == "name") {
      scenario.name = value;
    } else if (key == "family") {
      scenario.family = value;
    } else if (key == "seed") {
      scenario.seed = parse_u64(line_no, key, value);
    } else if (key == "expect-completion") {
      scenario.expect_completion = parse_bool(line_no, key, value);
    } else if (key == "procs") {
      procs = static_cast<int>(parse_int(line_no, key, value));
      if (procs <= 0) fail(line_no, "procs must be > 0");
    } else if (key == "granularity") {
      granularity = static_cast<int>(parse_int(line_no, key, value));
      if (granularity <= 0) fail(line_no, "granularity must be > 0");
    } else if (key == "requeue") {
      if (!fault::parse_requeue_policy(value, scenario.engine.requeue))
        fail(line_no, "requeue: expected head, tail or abandon");
    } else if (key == "fail-seed") {
      scenario.engine.failure.seed = parse_u64(line_no, key, value);
    } else if (key == "fail-mtbf") {
      scenario.engine.failure.mtbf = parse_double(line_no, key, value);
      if (scenario.engine.failure.mtbf <= 0)
        fail(line_no, "fail-mtbf must be > 0");
      fail_stochastic = true;
    } else if (key == "fail-mttr") {
      scenario.engine.failure.mttr = parse_double(line_no, key, value);
      if (scenario.engine.failure.mttr <= 0)
        fail(line_no, "fail-mttr must be > 0");
    } else if (key == "fail-min-nodes") {
      scenario.engine.failure.min_nodes =
          static_cast<int>(parse_int(line_no, key, value));
    } else if (key == "fail-max-nodes") {
      scenario.engine.failure.max_nodes =
          static_cast<int>(parse_int(line_no, key, value));
    } else if (key == "fail-retry-cap") {
      scenario.engine.failure.max_interruptions =
          static_cast<int>(parse_int(line_no, key, value));
    } else if (key == "outage") {
      std::istringstream fields(value);
      fault::Outage outage;
      if (!(fields >> outage.down >> outage.up >> outage.procs) ||
          !(fields >> std::ws).eof())
        fail(line_no, "outage: expected 'down up procs'");
      if (!(outage.up > outage.down) || outage.procs <= 0)
        fail(line_no, "outage: need up > down and procs > 0");
      scenario.engine.failure.script.push_back(outage);
    } else if (key == "ckpt-interval") {
      scenario.engine.checkpoint.interval = parse_double(line_no, key, value);
      if (scenario.engine.checkpoint.interval < 0)
        fail(line_no, "ckpt-interval must be >= 0");
      ckpt_enabled = true;
    } else if (key == "ckpt-overhead") {
      scenario.engine.checkpoint.overhead = parse_double(line_no, key, value);
      if (scenario.engine.checkpoint.overhead < 0)
        fail(line_no, "ckpt-overhead must be >= 0");
      ckpt_enabled = true;
    } else if (key == "ckpt-on-preempt") {
      scenario.engine.checkpoint.on_preempt = parse_bool(line_no, key, value);
      ckpt_enabled = true;
    } else if (key == "max-events") {
      scenario.engine.watchdog.max_events = parse_u64(line_no, key, value);
    } else if (key == "max-sim-time") {
      scenario.engine.watchdog.max_sim_time =
          parse_double(line_no, key, value);
    } else if (key == "no-progress-cycles") {
      scenario.engine.watchdog.no_progress_cycles =
          static_cast<int>(parse_int(line_no, key, value));
    } else {
      fail(line_no, "unknown key '" + key + "'");
    }
  }
  if (!saw_version) throw ScenarioError("scenario: missing scenario-version");
  if (!in_workload) throw ScenarioError("scenario: missing 'workload:' section");

  scenario.engine.failure.enabled =
      fail_stochastic || !scenario.engine.failure.script.empty();
  scenario.engine.checkpoint.enabled = ckpt_enabled;
  if (scenario.engine.failure.enabled &&
      scenario.engine.failure.max_nodes < scenario.engine.failure.min_nodes)
    throw ScenarioError("scenario: fail-max-nodes < fail-min-nodes");

  std::vector<workload::SwfParseError> errors;
  const workload::CwfFile file =
      workload::parse_cwf_string(cwf_text.str(), &errors);
  if (!errors.empty()) {
    throw ScenarioError("scenario workload line " +
                        std::to_string(errors.front().line_number) + ": " +
                        errors.front().message);
  }
  try {
    scenario.workload = workload::to_workload(file);
  } catch (const workload::TraceError& error) {
    throw ScenarioError(std::string("scenario workload: ") + error.what());
  }
  scenario.workload.machine_procs = procs;
  scenario.workload.granularity = granularity;
  scenario.engine.machine_procs = procs;
  scenario.engine.granularity = granularity;
  for (const workload::Job& job : scenario.workload.jobs) {
    if (job.num > procs)
      throw ScenarioError("scenario: job " + std::to_string(job.id) +
                          " requests " + std::to_string(job.num) +
                          " procs on a " + std::to_string(procs) +
                          "-proc machine");
  }
  return scenario;
}

Scenario load_scenario(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read scenario file " + path);
  std::ostringstream text;
  text << in.rdbuf();
  try {
    return parse_scenario(text.str());
  } catch (const ScenarioError& error) {
    throw ScenarioError(path + ": " + error.what());
  }
}

bool save_scenario(const std::string& path, const Scenario& scenario) {
  const std::string text = format_scenario(scenario);
  return util::write_file_atomic(path, [&text](std::ostream& out) {
    out << text;
    return out.good();
  });
}

std::vector<std::string> list_corpus(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec)
    throw std::runtime_error("cannot read corpus directory " + dir + ": " +
                             ec.message());
  std::vector<std::string> paths;
  for (const fs::directory_entry& entry : it) {
    if (entry.path().extension() == ".scn") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

}  // namespace es::fuzz
