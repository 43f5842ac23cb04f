// Scenario serialization: the corpus contract.  A scenario must round-trip
// through its file format bit-identically — the in-memory scenario the
// fuzzer ran IS the file the corpus commits and `simrun --scenario` replays.
#include "fuzz/scenario.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "fuzz/hostile.hpp"

namespace es::fuzz {
namespace {

std::filesystem::path temp_path(const std::string& leaf) {
  return std::filesystem::path(::testing::TempDir()) / leaf;
}

TEST(ScenarioFormat, RoundTripsEveryHostileFamily) {
  for (const std::string& family : family_names()) {
    const Scenario original = make_scenario(family, 3);
    const std::string once = format_scenario(original);
    const Scenario reparsed = parse_scenario(once);
    // Bit-identical re-serialization: parse(format(s)) loses nothing.
    EXPECT_EQ(format_scenario(reparsed), once) << family;
    EXPECT_EQ(reparsed.name, original.name);
    EXPECT_EQ(reparsed.family, original.family);
    EXPECT_EQ(reparsed.seed, original.seed);
    EXPECT_EQ(reparsed.expect_completion, original.expect_completion);
    EXPECT_EQ(reparsed.workload.jobs.size(), original.workload.jobs.size());
    EXPECT_EQ(reparsed.workload.eccs.size(), original.workload.eccs.size());
    EXPECT_EQ(reparsed.workload.machine_procs, original.workload.machine_procs);
    EXPECT_EQ(reparsed.workload.granularity, original.workload.granularity);
    EXPECT_EQ(reparsed.engine.requeue, original.engine.requeue);
    EXPECT_EQ(reparsed.engine.failure.enabled, original.engine.failure.enabled);
    EXPECT_EQ(reparsed.engine.failure.script.size(),
              original.engine.failure.script.size());
    EXPECT_EQ(reparsed.engine.checkpoint.enabled,
              original.engine.checkpoint.enabled);
    EXPECT_EQ(reparsed.engine.watchdog.max_events,
              original.engine.watchdog.max_events);
  }
}

TEST(ScenarioFormat, SaveLoadRoundTrip) {
  const Scenario original = make_scenario("outage_cascade", 11);
  const std::string path = temp_path("roundtrip.scn").string();
  ASSERT_TRUE(save_scenario(path, original));
  const Scenario loaded = load_scenario(path);
  EXPECT_EQ(format_scenario(loaded), format_scenario(original));
}

TEST(ScenarioFormat, ParseRejectsUnknownKey) {
  const std::string text = format_scenario(make_scenario("flash_crowd", 1));
  EXPECT_THROW(parse_scenario("mystery-knob = 7\n" + text), ScenarioError);
}

TEST(ScenarioFormat, ParseRejectsMissingWorkloadSection) {
  EXPECT_THROW(parse_scenario("# elastisched scenario v2\n"
                              "scenario-version = 2\n"
                              "name = x\n"),
               ScenarioError);
}

/// `text` with `line` inserted before its "workload:" section, and the
/// 1-based number the inserted line gets.
std::pair<std::string, std::size_t> insert_header_line(
    const std::string& text, const std::string& line) {
  const std::size_t at = text.find("workload:\n");
  const std::string head = text.substr(0, at);
  const auto number = static_cast<std::size_t>(
      std::count(head.begin(), head.end(), '\n') + 1);
  return {head + line + "\n" + text.substr(at), number};
}

/// Message of the ScenarioError `parse_scenario(text)` throws, or "".
std::string parse_error(const std::string& text) {
  try {
    parse_scenario(text);
  } catch (const ScenarioError& error) {
    return error.what();
  }
  return "";
}

TEST(ScenarioFormat, OutOfRangeEngineValueNamesFieldAndLine) {
  const auto [text, line] = insert_header_line(
      format_scenario(make_scenario("flash_crowd", 1)),
      "checkpoint.overhead = -1");
  const std::string message = parse_error(text);
  EXPECT_NE(message.find("line " + std::to_string(line) + ":"),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("checkpoint.overhead"), std::string::npos)
      << message;
  EXPECT_NE(message.find("out of range"), std::string::npos) << message;
}

TEST(ScenarioFormat, BrokenCrossFieldRuleNamesFieldAndLine) {
  const auto [with_min, min_line] = insert_header_line(
      format_scenario(make_scenario("heavy_tail", 1)),
      "failure.min_nodes = 3");
  const auto [text, max_line] =
      insert_header_line(with_min, "failure.max_nodes = 2");
  const std::string message = parse_error(text);
  EXPECT_NE(message.find("line " + std::to_string(max_line) + ":"),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("failure.max_nodes"), std::string::npos) << message;
  EXPECT_NE(message.find("below failure.min_nodes"), std::string::npos)
      << message;
}

TEST(ScenarioFormat, FairShareSettingsRoundTrip) {
  Scenario scenario = make_scenario("flash_crowd", 2);
  scenario.engine.fairshare.max_preemptions_per_job = 9;
  scenario.engine.fairshare.pools = {{"batch", 3.0, 0.25},
                                     {"interactive", 1.0, 0.5}};
  const std::string text = format_scenario(scenario);
  EXPECT_NE(text.find("fairshare.max_preemptions_per_job = 9\n"),
            std::string::npos);
  EXPECT_NE(text.find("pool.batch.weight = 3\n"), std::string::npos);
  EXPECT_NE(text.find("pool.interactive.min_share = 0.5\n"),
            std::string::npos);
  const Scenario reparsed = parse_scenario(text);
  EXPECT_EQ(format_scenario(reparsed), text);
  ASSERT_EQ(reparsed.engine.fairshare.pools.size(), 2u);
  EXPECT_EQ(reparsed.engine.fairshare.pools[1].name, "interactive");
  EXPECT_EQ(reparsed.engine.fairshare.max_preemptions_per_job, 9);
}

TEST(ScenarioFormat, ParseRejectsVersionOneHeader) {
  std::string text = format_scenario(make_scenario("heavy_tail", 1));
  const std::string v2 = "scenario-version = 2\n";
  text.replace(text.find(v2), v2.size(), "scenario-version = 1\n");
  EXPECT_NE(parse_error(text).find("unsupported scenario version '1'"),
            std::string::npos);
}

TEST(ScenarioFormat, FileValuesLayerOverTheBaseConfig) {
  // Keys the file sets win; keys it leaves out keep the base's value.
  sched::EngineConfig base;
  base.fairshare.max_preemptions_per_job = 7;
  base.watchdog.max_events = 5;
  const Scenario scenario = parse_scenario(
      format_scenario(make_scenario("flash_crowd", 1)), base);
  EXPECT_EQ(scenario.engine.fairshare.max_preemptions_per_job, 7);
  EXPECT_EQ(scenario.engine.watchdog.max_events, 20'000'000u);
}

TEST(ScenarioFormat, CorpusIsCanonical) {
  const std::vector<std::string> paths = list_corpus(ES_CORPUS_DIR);
  ASSERT_FALSE(paths.empty());
  for (const std::string& path : paths) {
    std::ifstream in(path);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    EXPECT_EQ(format_scenario(load_scenario(path)), bytes.str()) << path;
  }
}

TEST(ScenarioFormat, ParseRejectsMalformedCwfLine) {
  std::string text = format_scenario(make_scenario("heavy_tail", 2));
  text += "not a cwf line at all\n";
  EXPECT_THROW(parse_scenario(text), ScenarioError);
}

TEST(ScenarioFormat, ParseRejectsJobWiderThanMachine) {
  Scenario scenario = make_scenario("flash_crowd", 5);
  scenario.workload.jobs.front().num = scenario.workload.machine_procs * 2;
  EXPECT_THROW(parse_scenario(format_scenario(scenario)), ScenarioError);
}

TEST(ScenarioFormat, ParseRejectsRepeatedJobNumber) {
  Scenario scenario = make_scenario("flash_crowd", 5);
  scenario.workload.jobs.push_back(scenario.workload.jobs.front());
  EXPECT_THROW(parse_scenario(format_scenario(scenario)), ScenarioError);
}

TEST(ScenarioFormat, LoadDistinguishesIoFromValidation) {
  // Missing file: I/O, reported as a plain runtime_error (simrun exit 3)...
  EXPECT_THROW(load_scenario(temp_path("nonexistent.scn").string()),
               std::runtime_error);
  // ...while malformed content is a ScenarioError (simrun exit 2).
  const std::string bad = temp_path("bad.scn").string();
  std::ofstream(bad) << "scenario-version = 99\n";
  EXPECT_THROW(load_scenario(bad), ScenarioError);
}

TEST(ScenarioFormat, ListCorpusSortsAndFilters) {
  const auto dir = temp_path("corpus_list_test");
  std::filesystem::create_directories(dir);
  std::ofstream(dir / "b.scn") << "x";
  std::ofstream(dir / "a.scn") << "x";
  std::ofstream(dir / "notes.txt") << "x";
  const std::vector<std::string> paths = list_corpus(dir.string());
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_TRUE(paths[0].ends_with("a.scn"));
  EXPECT_TRUE(paths[1].ends_with("b.scn"));
}

TEST(HostileFamilies, DeterministicBySeed) {
  for (const std::string& family : family_names()) {
    EXPECT_EQ(format_scenario(make_scenario(family, 42)),
              format_scenario(make_scenario(family, 42)))
        << family;
    EXPECT_NE(format_scenario(make_scenario(family, 1)),
              format_scenario(make_scenario(family, 2)))
        << family;
  }
}

TEST(HostileFamilies, UnknownFamilyThrows) {
  EXPECT_THROW(make_scenario("volcano", 1), ScenarioError);
}

TEST(HostileFamilies, EccStormCarriesSameInstantConflicts) {
  // The family's reason to exist: at least one job with two same-instant
  // commands in the same dimension (the conflict shield's target).
  const Scenario scenario = make_scenario("ecc_storm", 1);
  bool found = false;
  const auto& eccs = scenario.workload.eccs;
  for (std::size_t i = 1; i < eccs.size() && !found; ++i) {
    found = eccs[i].job_id == eccs[i - 1].job_id &&
            eccs[i].issue == eccs[i - 1].issue &&
            eccs[i].time_dimension() == eccs[i - 1].time_dimension();
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace es::fuzz
