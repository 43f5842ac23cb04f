#include "core/factory.hpp"

#include <algorithm>
#include <cctype>

#include "core/delayed_los.hpp"
#include "core/hybrid_los.hpp"
#include "core/los.hpp"
#include "core/selector.hpp"
#include "sched/conservative.hpp"
#include "sched/easy.hpp"
#include "sched/fairshare.hpp"
#include "sched/fcfs.hpp"
#include "sched/sorted_queue.hpp"

namespace es::core {
namespace {

std::string lower(const std::string& text) {
  std::string out = text;
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

/// Splits a lowercased name into its base policy and the ECC-suffix flag:
/// "easy-de" -> ("easy-d", true), "delayed-los-e" -> ("delayed-los", true).
std::string strip_ecc_suffix(const std::string& key, bool* process_eccs) {
  std::string base = key;
  if (base.size() > 3 && base.ends_with("-de")) {
    *process_eccs = true;
    base.pop_back();  // drop the 'e', keep the dedicated "-d"
  } else if (base.size() > 2 && base.ends_with("-e")) {
    *process_eccs = true;
    base = base.substr(0, base.size() - 2);
  }
  return base;
}

std::unique_ptr<sched::Scheduler> build_policy(
    const std::string& base, const AlgorithmOptions& options) {
  if (base == "easy") return std::make_unique<sched::Easy>(false);
  if (base == "easy-d") return std::make_unique<sched::Easy>(true);
  if (base == "los") return std::make_unique<Los>(false, options.lookahead);
  if (base == "los-d") return std::make_unique<Los>(true, options.lookahead);
  if (base == "delayed-los")
    return std::make_unique<DelayedLos>(options.max_skip_count,
                                        options.lookahead);
  if (base == "hybrid-los")
    return std::make_unique<HybridLos>(options.max_skip_count,
                                       options.lookahead);
  if (base == "fcfs") return std::make_unique<sched::Fcfs>();
  if (base == "sjf")
    return std::make_unique<sched::SortedQueue>(
        sched::QueueOrder::kShortestFirst);
  if (base == "smallest")
    return std::make_unique<sched::SortedQueue>(
        sched::QueueOrder::kSmallestFirst);
  if (base == "ljf")
    return std::make_unique<sched::SortedQueue>(
        sched::QueueOrder::kLargestFirst);
  if (base == "cons" || base == "conservative")
    return std::make_unique<sched::Conservative>();
  if (base == "fairshare")
    return std::make_unique<sched::FairShare>(options.engine.fairshare);
  if (base == "adaptive") {
    AdaptiveSelector::Options selector_options;
    selector_options.max_skip_count = options.max_skip_count;
    selector_options.lookahead = options.lookahead;
    return std::make_unique<AdaptiveSelector>(selector_options);
  }
  return nullptr;
}

std::string unknown_message(const std::string& name) {
  std::string message = "unknown algorithm '" + name + "'; known names:";
  for (const std::string& known : algorithm_names()) message += " " + known;
  return message;
}

}  // namespace

UnknownAlgorithmError::UnknownAlgorithmError(const std::string& name)
    : std::invalid_argument(unknown_message(name)), name_(name) {}

Algorithm make_algorithm(const std::string& name,
                         const AlgorithmOptions& options) {
  Algorithm algorithm;
  const std::string base =
      strip_ecc_suffix(lower(name), &algorithm.process_eccs);
  algorithm.policy = build_policy(base, options);
  if (algorithm.policy == nullptr) throw UnknownAlgorithmError(name);

  algorithm.allow_running_resize =
      algorithm.process_eccs && options.engine.allow_running_resize;
  algorithm.canonical_name = algorithm.policy->name();
  if (algorithm.process_eccs) {
    // Dedicated variants end in "-D" and become "-DE" (EASY-DE, LOS-DE);
    // the rest take a "-E" suffix, matching the paper's Table III.
    algorithm.canonical_name +=
        algorithm.canonical_name.ends_with("-D") ? "E" : "-E";
  }
  return algorithm;
}

bool is_algorithm_name(const std::string& name) {
  bool process_eccs = false;
  // Builds and discards the policy: cheap enough for CLI validation and
  // can't diverge from make_algorithm because both share
  // strip_ecc_suffix + build_policy.
  return build_policy(strip_ecc_suffix(lower(name), &process_eccs), {}) !=
         nullptr;
}

std::vector<std::string> algorithm_names() {
  return {"EASY",        "EASY-D",        "EASY-E",        "EASY-DE",
          "LOS",         "LOS-D",         "LOS-E",         "LOS-DE",
          "Delayed-LOS", "Hybrid-LOS",    "Delayed-LOS-E", "Hybrid-LOS-E",
          "FCFS",        "CONS",          "SJF",           "SMALLEST",
          "LJF",         "Adaptive",      "FairShare",     "FairShare-E"};
}

}  // namespace es::core
