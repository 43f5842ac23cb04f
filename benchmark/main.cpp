// es_benchmark — the repository benchmark.
//
//   es_benchmark [--workload NAME]... [--seed S] [--seconds T] [--trace 0|1]
//                [--quick] [--self-test] [--record] [--out DIR]
//
// Protocol.  es_benchmark never measures in its own process: it fork/execs
// itself once per (workload, rep), one child at a time, and each child
// reports its timings, CPU time and peak RSS as one JSON line on a pipe.
// Peak RSS is process-global, so a process per rep is the only way it
// means anything per workload.  After one untimed warm-up rep per workload,
// reps run in rounds; each round runs every selected workload once,
// rotating the order by one per round, so slow phases of a noisy host
// spread over all workloads instead of landing on one.  Without --seconds
// it runs 11 rounds (3 with --quick); with it, rounds until the next one
// would overrun the budget (at least three).  With --trace 1 (the default)
// one traced child per workload follows the timed rounds.
//
// Every metric is reported with its best rep, median, quartiles and sample
// count.  Every rep's result fingerprint must equal every other rep's, the
// traced child's too, and the committed expected.tsv entry for (workload,
// size, seed) when there is one; a mismatch fails all of that rep's
// simulations.  The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"} with the best-rep
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1),
// named "<metric>" for one workload and "<workload>.<metric>" for several.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace {

using namespace es::benchmark;
using Clock = std::chrono::steady_clock;

constexpr int kMinRounds = 3;
constexpr int kDefaultRounds = 11;
/// A child that has not reported after this long is killed and its rep
/// counted as failed (the benchmark's own watchdog: an engine watchdog
/// would switch the engine onto its slower stepping event pump).
constexpr int kChildTimeoutSeconds = 150;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- options -----------------------------------------------------------------

struct Options {
  std::vector<std::string> workloads;  ///< empty = all
  std::uint64_t seed = 1;
  double seconds = 0;  ///< 0 = run `rounds` rounds
  int rounds = kDefaultRounds;  ///< kMinRounds with --quick
  bool trace = true;
  bool quick = false;
  bool self_test = false;
  bool record = false;
  std::string out = ES_BENCH_BINARY_DIR "/results";
  // Child mode (internal): run one rep and print its JSON line.
  std::string child;
  bool traced = false;
};

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "es_benchmark: %s\n", message.c_str());
  std::exit(2);
}

bool parse_u64(const std::string& text, std::uint64_t& out) {
  if (text.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || *end != '\0' || text[0] == '-') return false;
  out = value;
  return true;
}

Options parse_options(int argc, char** argv) {
  Options options;
  const auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage_error(std::string(argv[i]) + " needs a value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::uint64_t number = 0;
    if (arg == "--workload") {
      const std::string name = value(i);
      if (find_workload(name) == nullptr)
        usage_error("unknown workload '" + name + "'");
      options.workloads.push_back(name);
    } else if (arg == "--seed") {
      if (!parse_u64(value(i), options.seed)) usage_error("bad --seed");
    } else if (arg == "--seconds") {
      if (!parse_u64(value(i), number) || number == 0)
        usage_error("--seconds must be a positive whole number");
      options.seconds = static_cast<double>(number);
    } else if (arg == "--trace") {
      const std::string flag = value(i);
      if (flag != "0" && flag != "1") usage_error("--trace takes 0 or 1");
      options.trace = flag == "1";
    } else if (arg == "--quick") {
      options.quick = true;
    } else if (arg == "--self-test") {
      options.self_test = true;
    } else if (arg == "--record") {
      options.record = true;
    } else if (arg == "--out") {
      options.out = value(i);
    } else if (arg == "--child") {
      options.child = value(i);
    } else if (arg == "--traced") {
      options.traced = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: es_benchmark [--workload NAME]... [--seed S] [--seconds T]\n"
          "                    [--trace 0|1] [--quick] [--self-test]\n"
          "                    [--record] [--out DIR]\n"
          "workloads:");
      for (const WorkloadInfo& info : workloads())
        std::printf(" %s", info.name);
      std::printf("\n");
      std::exit(0);
    } else {
      usage_error("unknown argument '" + arg + "'");
    }
  }
  if (options.self_test) {
    options.quick = true;
    options.trace = true;
  }
  if (options.quick) options.rounds = kMinRounds;
  if (options.workloads.empty())
    for (const WorkloadInfo& info : workloads())
      options.workloads.push_back(info.name);
  return options;
}

// --- the child's JSON line ---------------------------------------------------

std::string hex(std::uint64_t value) {
  char text[24];
  std::snprintf(text, sizeof(text), "0x%016" PRIx64, value);
  return text;
}

std::string rep_json(const RepResult& rep) {
  std::ostringstream out;
  char number[40];
  const auto real = [&](const char* key, double value) {
    std::snprintf(number, sizeof(number), "%.17g", value);
    out << ", \"" << key << "\": " << number;
  };
  out << "{\"error\": \"";
  for (char c : rep.error) {
    if (c == '"' || c == '\\') out << '\\';
    out << (c == '\n' ? ' ' : c);
  }
  out << "\", \"fingerprint\": \"" << hex(rep.fingerprint) << "\"";
  out << ", \"events\": " << rep.events << ", \"sims\": " << rep.sims
      << ", \"failed_sims\": " << rep.failed_sims;
  real("setup_s", rep.setup_s);
  real("run_s", rep.run_s);
  real("cpu_s", rep.cpu_s);
  real("peak_rss_mib", rep.peak_rss_mib);
  real("mean_wait_s", rep.mean_wait_s);
  real("utilization", rep.utilization);
  real("bounded_slowdown", rep.bounded_slowdown);
  for (const auto& [name, value] : rep.layers) real(name.c_str(), value);
  out << "}";
  return out.str();
}

/// Parses the flat one-level object rep_json() writes: string keys, values
/// that are numbers or strings (with \" and \\ escapes).
bool parse_flat_json(const std::string& line,
                     std::vector<std::pair<std::string, std::string>>& out) {
  std::size_t i = 0;
  const auto skip = [&] {
    while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i])))
      ++i;
  };
  const auto quoted = [&](std::string& text) {
    if (i >= line.size() || line[i] != '"') return false;
    for (++i; i < line.size() && line[i] != '"'; ++i) {
      if (line[i] == '\\' && i + 1 < line.size()) ++i;
      text += line[i];
    }
    if (i >= line.size()) return false;
    ++i;
    return true;
  };
  skip();
  if (i >= line.size() || line[i++] != '{') return false;
  for (;;) {
    skip();
    if (i < line.size() && line[i] == '}') return true;
    std::string key, value;
    if (!quoted(key)) return false;
    skip();
    if (i >= line.size() || line[i++] != ':') return false;
    skip();
    if (i < line.size() && line[i] == '"') {
      if (!quoted(value)) return false;
    } else {
      while (i < line.size() && line[i] != ',' && line[i] != '}')
        value += line[i++];
    }
    out.emplace_back(key, value);
    skip();
    if (i < line.size() && line[i] == ',') ++i;
  }
}

bool parse_rep(const std::string& line, RepResult& rep) {
  std::vector<std::pair<std::string, std::string>> fields;
  if (!parse_flat_json(line, fields)) return false;
  const std::vector<LayerMetric>& layer_list = layer_metrics();
  for (const auto& [key, value] : fields) {
    const double number = std::strtod(value.c_str(), nullptr);
    const auto u64 = [&] { return std::strtoull(value.c_str(), nullptr, 0); };
    if (key == "error") rep.error = value;
    else if (key == "fingerprint") rep.fingerprint = u64();
    else if (key == "events") rep.events = u64();
    else if (key == "sims") rep.sims = u64();
    else if (key == "failed_sims") rep.failed_sims = u64();
    else if (key == "setup_s") rep.setup_s = number;
    else if (key == "run_s") rep.run_s = number;
    else if (key == "cpu_s") rep.cpu_s = number;
    else if (key == "peak_rss_mib") rep.peak_rss_mib = number;
    else if (key == "mean_wait_s") rep.mean_wait_s = number;
    else if (key == "utilization") rep.utilization = number;
    else if (key == "bounded_slowdown") rep.bounded_slowdown = number;
    else if (std::any_of(layer_list.begin(), layer_list.end(),
                         [&](const LayerMetric& m) { return key == m.name; }))
      rep.layers.emplace_back(key, number);
  }
  return true;
}

// --- children ----------------------------------------------------------------

/// Runs one rep in a child process (fork + exec of this binary) and returns
/// what it reported.  A child that crashes, exits non-zero, times out or
/// prints no parsable line yields a rep with `error` set.
RepResult spawn_rep(const std::string& workload, std::uint64_t seed,
                    bool quick, bool traced) {
  std::vector<std::string> args = {"es_benchmark", "--child", workload,
                                   "--seed", std::to_string(seed)};
  if (quick) args.push_back("--quick");
  if (traced) args.push_back("--traced");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  RepResult rep;
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) {
    rep.error = std::string("pipe: ") + std::strerror(errno);
    return rep;
  }
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    rep.error = std::string("fork: ") + std::strerror(errno);
    close(fds[0]);
    close(fds[1]);
    return rep;
  }
  if (pid == 0) {
    // A rep must not outlive an interrupted parent.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    dup2(fds[1], STDOUT_FILENO);
    execv("/proc/self/exe", argv.data());
    _exit(127);
  }
  close(fds[1]);

  std::string output;
  const auto start = Clock::now();
  bool timed_out = false;
  for (;;) {
    const double left = kChildTimeoutSeconds - since(start);
    if (left <= 0) {
      timed_out = true;
      break;
    }
    pollfd poll_fd{fds[0], POLLIN, 0};
    const int ready = poll(&poll_fd, 1, static_cast<int>(left * 1000) + 1);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) continue;
    char buffer[4096];
    const ssize_t got = read(fds[0], buffer, sizeof(buffer));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;
    output.append(buffer, static_cast<std::size_t>(got));
  }
  if (timed_out) kill(pid, SIGKILL);
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }

  if (timed_out) {
    rep.error = "timed out";
  } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    rep.error = WIFSIGNALED(status)
                    ? "killed by signal " + std::to_string(WTERMSIG(status))
                    : "exit status " + std::to_string(WEXITSTATUS(status));
  } else {
    std::string line = output;
    while (!line.empty() && line.back() == '\n') line.pop_back();
    const std::size_t cut = line.rfind('\n');
    if (cut != std::string::npos) line = line.substr(cut + 1);
    if (!parse_rep(line, rep)) rep.error = "unparsable report";
  }
  return rep;
}

// --- statistics --------------------------------------------------------------

struct Summary {
  double min = 0, q1 = 0, median = 0, q3 = 0, max = 0;
  std::size_t n = 0;
};

/// Extremes, median and quartiles, the quartiles by the same rule as
/// Python's statistics.quantiles(values, n=4) (the "exclusive" method).
Summary summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  s.min = values.front();
  s.max = values.back();
  s.median = n % 2 == 1 ? values[n / 2]
                        : (values[n / 2 - 1] + values[n / 2]) / 2.0;
  if (n < 2) {
    s.q1 = s.q3 = s.median;
    return s;
  }
  const auto quantile = [&](std::size_t i) {
    const std::size_t m = n + 1;
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const double delta =
        static_cast<double>(i * m) - 4.0 * static_cast<double>(j);
    return (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  };
  s.q1 = quantile(1);
  s.q3 = quantile(3);
  return s;
}

// --- provenance --------------------------------------------------------------

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      regs[0] >= 0x80000004u) {
    for (unsigned leaf = 0; leaf < 3; ++leaf)
      __get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                  &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string text = brand;
    const std::size_t first = text.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : text.substr(first);
  }
#endif
  return "unknown";
}

std::string command_output(const std::string& command) {
  std::string text;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return text;
  char buffer[256];
  while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) text += buffer;
  pclose(pipe);
  while (!text.empty() && (text.back() == '\n' || text.back() == ' '))
    text.pop_back();
  return text;
}

/// Git revision of the source tree the binary was built from, "+dirty"
/// when tracked files differ; "unknown" outside a git checkout (git is
/// not asked at all then, so it cannot find an enclosing repository).
std::string git_revision() {
  const std::string dir = ES_BENCH_SOURCE_DIR;
  struct stat info{};
  if (stat((dir + "/.git").c_str(), &info) != 0) return "unknown";
  const std::string git = "git -C '" + dir + "' ";
  std::string sha = command_output(git + "rev-parse HEAD 2>/dev/null");
  if (sha.empty()) return "unknown";
  if (!command_output(git + "status --porcelain --untracked-files=no "
                            "2>/dev/null")
           .empty())
    sha += "+dirty";
  return sha;
}

// --- expected fingerprints ---------------------------------------------------

using ExpectedKey = std::tuple<std::string, std::string, std::uint64_t>;

const char* size_name(bool quick) { return quick ? "quick" : "full"; }

/// expected.tsv rows: workload, size (full|quick), seed, fingerprint.
std::map<ExpectedKey, std::uint64_t> load_expected() {
  std::map<ExpectedKey, std::uint64_t> table;
  std::ifstream in(ES_BENCH_EXPECTED);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload, size, seed, print;
    std::uint64_t seed_value = 0;
    if (!(fields >> workload >> size >> seed >> print) ||
        !parse_u64(seed, seed_value))
      continue;
    table[{workload, size, seed_value}] =
        std::strtoull(print.c_str(), nullptr, 0);
  }
  return table;
}

// --- the run -----------------------------------------------------------------

/// An end-to-end metric: name, unit, direction, and how to read it off a
/// rep (summaries are taken over reps).  The paper's science metrics are
/// exact functions of the seed, gated by the fingerprint; they appear in
/// the report but not in the result line, whose metrics are the measured
/// ones BENCHMARK.json bounds.
struct EndToEnd {
  const char* name;
  const char* unit;
  const char* better;
  bool measured;
  double (*value)(const RepResult&);
};

const std::vector<EndToEnd>& end_to_end() {
  static const std::vector<EndToEnd> metrics = {
      {"setup_s", "s", "lower", true,
       [](const RepResult& r) { return r.setup_s; }},
      {"run_s", "s", "lower", true, [](const RepResult& r) { return r.run_s; }},
      {"events_per_s", "1/s", "higher", true,
       [](const RepResult& r) {
         return r.run_s > 0 ? static_cast<double>(r.events) / r.run_s : 0.0;
       }},
      {"cpu_s", "s", "lower", true, [](const RepResult& r) { return r.cpu_s; }},
      {"peak_rss_mib", "MiB", "lower", true,
       [](const RepResult& r) { return r.peak_rss_mib; }},
      {"mean_wait_s", "s", "lower", false,
       [](const RepResult& r) { return r.mean_wait_s; }},
      {"utilization", "ratio", "higher", false,
       [](const RepResult& r) { return r.utilization; }},
      {"bounded_slowdown", "ratio", "lower", false,
       [](const RepResult& r) { return r.bounded_slowdown; }},
  };
  return metrics;
}

struct WorkloadRun {
  std::string name;
  std::vector<RepResult> reps;    ///< timed
  std::optional<RepResult> traced;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t fingerprint = 0;  ///< what the first reporting rep produced
  std::string verdict;  ///< "verified", "unverified" or why it failed
  std::vector<std::pair<std::string, double>> layers;  ///< + overhead ratio
};

/// Applies the correctness gate to one workload's reps: fingerprints agree
/// with the expected entry (or, without one, with the first rep), the
/// traced rep agrees too, and no rep or simulation failed.
void judge(WorkloadRun& run, const Options& options,
           const std::map<ExpectedKey, std::uint64_t>& expected) {
  const auto entry = expected.find(
      {run.name, size_name(options.quick), options.seed});
  std::optional<std::uint64_t> reference, observed;
  if (entry != expected.end()) reference = entry->second;
  bool mismatch = false, rep_error = false;
  const auto count = [&](const RepResult& rep) {
    const std::uint64_t sims = sims_per_rep(run.name, options.quick);
    run.attempted += sims;
    if (!rep.error.empty()) {
      rep_error = true;
      run.failed += sims;
      return;
    }
    if (!observed) observed = rep.fingerprint;
    if (!reference) reference = rep.fingerprint;
    if (rep.fingerprint != *reference) {
      mismatch = true;
      run.failed += sims;
      return;
    }
    run.failed += std::min(rep.failed_sims, sims);
  };
  for (const RepResult& rep : run.reps) count(rep);
  if (run.traced) count(*run.traced);
  run.fingerprint = observed.value_or(0);

  if (rep_error)
    run.verdict = "FAILED: a rep did not report";
  else if (mismatch)
    run.verdict = entry != expected.end()
                      ? "FAILED: fingerprint differs from expected.tsv"
                      : "FAILED: reps disagree on the fingerprint";
  else if (run.failed > 0)
    run.verdict = "FAILED: simulations failed or a guard tripped";
  else
    run.verdict = entry != expected.end() ? "verified" : "unverified";
}

std::vector<double> column(const WorkloadRun& run, const EndToEnd& metric) {
  std::vector<double> values;
  for (const RepResult& rep : run.reps)
    if (rep.error.empty()) values.push_back(metric.value(rep));
  return values;
}

/// The best rep: the fastest, smallest or highest-rate one.  Interference
/// from other work on the host only ever slows a rep down, so the best rep
/// estimates the program's own cost.  On a shared host whose reps split
/// into a fast mode and a mode 1.5x slower, the median flips between the
/// modes from one run to the next while the best rep holds.
double best(const EndToEnd& metric, const Summary& s) {
  return std::strcmp(metric.better, "lower") == 0 ? s.min : s.max;
}

void print_report(const std::vector<WorkloadRun>& runs,
                  const Options& options, int rounds, double wall) {
  std::printf("es_benchmark  seed %" PRIu64 "  %s size  %d timed rounds  "
              "%.1f s\n",
              options.seed, size_name(options.quick), rounds, wall);
  for (const WorkloadRun& run : runs) {
    std::printf("\n== %s  (threads %d, %zu timed reps, %" PRIu64
                "/%" PRIu64 " sims failed, failed_frac %.6g, fingerprint "
                "%s: %s)\n",
                run.name.c_str(), find_workload(run.name)->threads,
                run.reps.size(), run.failed, run.attempted,
                run.attempted > 0 ? static_cast<double>(run.failed) /
                                        static_cast<double>(run.attempted)
                                  : 0.0,
                hex(run.fingerprint).c_str(), run.verdict.c_str());
    std::printf("  %-18s %-6s %-7s %13s %13s %13s %13s %3s\n", "metric",
                "unit", "better", "best", "median", "q1", "q3", "n");
    for (const EndToEnd& metric : end_to_end()) {
      const Summary s = summarize(column(run, metric));
      std::printf("  %-18s %-6s %-7s %13.6g %13.6g %13.6g %13.6g %3zu\n",
                  metric.name, metric.unit, metric.better, best(metric, s),
                  s.median, s.q1, s.q3, s.n);
    }
    if (run.layers.empty()) continue;
    std::printf("  traced profile (one traced child):\n");
    double refill = 0, cycle = 0, other = 0;
    for (const auto& [name, value] : run.layers) {
      std::printf("    %-30s %14.6g\n", name.c_str(), value);
      if (name == "workload.refill_s") refill = value;
      if (name == "sched.policy.cycle_s") cycle = value;
      if (name == "sched.engine.other_s") other = value;
    }
    std::printf("    refill %.4f + cycle %.4f + other %.4f = run %.4f s%s\n",
                refill, cycle, other, refill + cycle + other,
                run.name == "campaign_fig" ? " (summed over worker threads)"
                                           : "");
  }
}

struct Provenance {
  std::string cpu = cpu_model();
  std::string git = git_revision();
  int nproc = es::util::hardware_parallelism();
};

void print_provenance(const Provenance& p) {
  std::printf("host: nproc %d, cpu %s\nbuild: %s, g++ %s, source %s\n",
              p.nproc, p.cpu.c_str(), ES_BENCH_BUILD_TYPE, __VERSION__,
              p.git.c_str());
}

/// Writes the full report (provenance, every metric's summary, layer
/// values, verdicts) as JSON under --out; best-effort.
void write_report_file(const std::vector<WorkloadRun>& runs,
                       const Options& options, const Provenance& p,
                       int rounds) {
  mkdir(options.out.c_str(), 0755);
  std::string tag = runs.size() == 1 ? runs.front().name : "all";
  const std::string path = options.out + "/es_benchmark-" + tag + "-seed" +
                           std::to_string(options.seed) + ".json";
  std::ofstream out(path);
  if (!out) return;
  out.precision(17);
  out << "{\n  \"provenance\": {\"nproc\": " << p.nproc << ", \"cpu\": \""
      << p.cpu << "\", \"compiler\": \"g++ " << __VERSION__
      << "\", \"build_type\": \"" << ES_BENCH_BUILD_TYPE << "\", \"git\": \""
      << p.git << "\", \"seed\": " << options.seed << ", \"size\": \""
      << size_name(options.quick) << "\", \"rounds\": " << rounds
      << "},\n  \"workloads\": {";
  for (std::size_t w = 0; w < runs.size(); ++w) {
    const WorkloadRun& run = runs[w];
    out << (w ? ",\n" : "\n") << "    \"" << run.name
        << "\": {\"threads\": " << find_workload(run.name)->threads
        << ", \"reps\": " << run.reps.size()
        << ", \"attempted\": " << run.attempted
        << ", \"failed\": " << run.failed << ", \"fingerprint\": \""
        << hex(run.fingerprint) << "\", \"verdict\": \"" << run.verdict
        << "\", \"metrics\": {";
    bool first = true;
    for (const EndToEnd& metric : end_to_end()) {
      const std::vector<double> values = column(run, metric);
      const Summary s = summarize(values);
      out << (first ? "" : ", ") << "\"" << metric.name
          << "\": {\"unit\": \"" << metric.unit << "\", \"best\": "
          << best(metric, s) << ", \"median\": " << s.median
          << ", \"q1\": " << s.q1 << ", \"q3\": " << s.q3
          << ", \"n\": " << s.n << ", \"values\": [";
      for (std::size_t i = 0; i < values.size(); ++i)
        out << (i ? ", " : "") << values[i];
      out << "]}";
      first = false;
    }
    out << "}, \"layers\": {";
    first = true;
    for (const auto& [name, value] : run.layers) {
      out << (first ? "" : ", ") << "\"" << name << "\": " << value;
      first = false;
    }
    out << "}}";
  }
  out << "\n  }\n}\n";
}

/// The last stdout line: the machine-readable result.
void print_result_line(const std::vector<WorkloadRun>& runs,
                       const Options& options) {
  std::uint64_t attempted = 0, failed = 0;
  for (const WorkloadRun& run : runs) {
    attempted += run.attempted;
    failed += run.failed;
  }
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (failed == 0 && attempted > 0 ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const WorkloadRun& run, const std::string& name,
                        const char* unit, double value) {
    const std::string key =
        runs.size() == 1 ? name : run.name + "." + name;
    out << (first ? "" : ", ") << "\"" << key << "\": {\"value\": " << value
        << ", \"unit\": \"" << unit << "\"}";
    first = false;
  };
  for (const WorkloadRun& run : runs) {
    if (options.trace) {
      const std::vector<LayerMetric>& metrics = layer_metrics();
      for (std::size_t i = 0; i < run.layers.size(); ++i)
        emit(run, run.layers[i].first, metrics[i].unit,
             run.layers[i].second);
    } else {
      for (const EndToEnd& metric : end_to_end())
        if (metric.measured)
          emit(run, metric.name, metric.unit,
               best(metric, summarize(column(run, metric))));
    }
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
}

/// A warm-up round, timed rounds, then the traced children.  Returns the
/// timed rounds run.
int measure(std::vector<WorkloadRun>& runs, const Options& options) {
  const auto start = Clock::now();
  // The first reps after an idle spell run 30-50% slow (the CPU is still
  // leaving its idle state); one untimed rep per workload absorbs that.
  for (const WorkloadRun& run : runs)
    spawn_rep(run.name, options.seed, options.quick, false);
  const auto timed_start = Clock::now();
  const int max_rounds = options.seconds > 0 ? 1000 : options.rounds;
  int rounds = 0;
  for (;;) {
    for (std::size_t k = 0; k < runs.size(); ++k) {
      WorkloadRun& run =
          runs[(k + static_cast<std::size_t>(rounds)) % runs.size()];
      run.reps.push_back(
          spawn_rep(run.name, options.seed, options.quick, false));
    }
    ++rounds;
    if (rounds >= max_rounds) break;
    if (options.seconds > 0 && rounds >= kMinRounds) {
      const double per_round = since(timed_start) / rounds;
      // A traced child runs slower than a timed one; keep room for it.
      const double reserve = options.trace ? 1.5 * per_round : 0.0;
      if (since(start) + per_round + reserve > options.seconds) break;
    }
  }
  if (options.trace) {
    for (WorkloadRun& run : runs) {
      run.traced = spawn_rep(run.name, options.seed, options.quick, true);
      if (!run.traced->error.empty()) continue;
      run.layers = run.traced->layers;
      std::vector<double> run_s;
      for (const RepResult& rep : run.reps)
        if (rep.error.empty()) run_s.push_back(rep.run_s);
      const double untraced = summarize(run_s).median;
      run.layers.emplace_back(
          "trace.overhead_ratio",
          untraced > 0 ? run.traced->run_s / untraced : 0.0);
    }
  }
  return rounds;
}

int record(const Options& options) {
  bool ok = true;
  for (const std::string& name : options.workloads) {
    const RepResult rep =
        spawn_rep(name, options.seed, options.quick, false);
    if (!rep.error.empty() || rep.failed_sims > 0) {
      std::fprintf(stderr, "es_benchmark: %s seed %" PRIu64 " failed: %s\n",
                   name.c_str(), options.seed, rep.error.c_str());
      ok = false;
      continue;
    }
    std::printf("%s\t%s\t%" PRIu64 "\t%s\n", name.c_str(),
                size_name(options.quick), options.seed,
                hex(rep.fingerprint).c_str());
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_options(argc, argv);

  if (!options.child.empty()) {
    const RepResult rep =
        run_rep(options.child, options.seed, options.quick, options.traced);
    std::printf("%s\n", rep_json(rep).c_str());
    return 0;
  }
  if (options.record) return record(options);

  const Provenance provenance;
  print_provenance(provenance);
  std::vector<WorkloadRun> runs;
  for (const std::string& name : options.workloads) {
    WorkloadRun run;
    run.name = name;
    runs.push_back(run);
  }
  const auto start = Clock::now();
  const int rounds = measure(runs, options);
  const auto expected = load_expected();
  bool all_verified = true;
  for (WorkloadRun& run : runs) {
    judge(run, options, expected);
    all_verified = all_verified && run.verdict == "verified";
  }
  print_report(runs, options, rounds, since(start));
  write_report_file(runs, options, provenance, rounds);
  print_result_line(runs, options);
  if (options.self_test) return all_verified ? 0 : 1;
  return 0;
}
