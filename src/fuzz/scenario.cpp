#include "fuzz/scenario.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "sched/engine_params.hpp"
#include "util/atomic_file.hpp"
#include "util/param_registry.hpp"
#include "workload/cwf.hpp"

namespace es::fuzz {

namespace {

constexpr int kScenarioVersion = 2;

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

  // Registered while default-constructed, so each param's default_value()
  // is the built-in default; the scenario's settings are copied in after.
  sched::EngineConfig engine;
  util::ParamRegistry registry;
  sched::register_engine_params(registry, engine);
  engine = scenario.options().engine;
  for (const util::ParamRegistry::Param& param : registry.params()) {
    // The file fixes the machine shape whatever the lower config layers say.
    const bool shape = param.name() == "engine.machine_procs" ||
                       param.name() == "engine.granularity";
    if (shape || param.current_value() != param.default_value())
      out << param.name() << " = " << param.current_value() << "\n";
  }
  for (const auto& [key, value] : registry.dynamic_entries())
    out << key << " = " << value << "\n";
  for (const fault::Outage& outage : engine.failure.script) {
    out << "outage = " << format_double(outage.down) << ' '
        << format_double(outage.up) << ' ' << outage.procs << "\n";
  }

  out << "workload:\n";
  const workload::CwfFile file = workload::from_workload(scenario.workload);
  for (const workload::CwfRecord& record : file.records)
    out << workload::format_cwf_record(record) << "\n";
  return out.str();
}

Scenario parse_scenario(const std::string& text,
                        const sched::EngineConfig& base) {
  Scenario scenario;
  scenario.engine = base;
  util::ParamRegistry registry;
  registry.add_string("name", &scenario.name, "scenario label");
  registry.add_string("family", &scenario.family, "generating family");
  registry.add_uint64("seed", &scenario.seed, "family seed (provenance)");
  registry.add_bool("expect-completion", &scenario.expect_completion,
                    "treat a watchdog abort as a violation");
  sched::register_engine_params(registry, scenario.engine);
  // Line of each key as written, so a cross-field rule that fails at
  // finalize() can point back into the file.
  std::map<std::string, std::size_t> key_lines;
  bool saw_version = false;

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
      if (value != std::to_string(kScenarioVersion))
        fail(line_no, "unsupported scenario version '" + value +
                          "' (this reader takes " +
                          std::to_string(kScenarioVersion) + ")");
      saw_version = true;
    } else if (key == "outage") {
      std::istringstream fields(value);
      fault::Outage outage;
      if (!(fields >> outage.down >> outage.up >> outage.procs) ||
          !(fields >> std::ws).eof())
        fail(line_no, "outage: expected 'down up procs'");
      if (!(outage.up > outage.down) || outage.procs <= 0)
        fail(line_no, "outage: need up > down and procs > 0");
      scenario.engine.failure.script.push_back(outage);
    } else {
      try {
        registry.set(key, value);
      } catch (const util::ConfigError& error) {
        fail(line_no, error.what());
      }
      key_lines[key] = line_no;
    }
  }
  if (!saw_version) throw ScenarioError("scenario: missing scenario-version");
  if (!in_workload) throw ScenarioError("scenario: missing 'workload:' section");
  try {
    registry.finalize();
  } catch (const util::ConfigError& error) {
    const auto where = key_lines.find(error.field());
    if (where != key_lines.end()) fail(where->second, error.what());
    throw ScenarioError(std::string("scenario: ") + error.what());
  }

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
  const int procs = scenario.engine.machine_procs;
  scenario.workload.machine_procs = procs;
  scenario.workload.granularity = scenario.engine.granularity;
  for (const workload::Job& job : scenario.workload.jobs) {
    if (job.num > procs)
      throw ScenarioError("scenario: job " + std::to_string(job.id) +
                          " requests " + std::to_string(job.num) +
                          " procs on a " + std::to_string(procs) +
                          "-proc machine");
  }
  return scenario;
}

Scenario load_scenario(const std::string& path,
                       const sched::EngineConfig& base) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read scenario file " + path);
  std::ostringstream text;
  text << in.rdbuf();
  try {
    return parse_scenario(text.str(), base);
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
