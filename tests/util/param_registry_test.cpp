#include "util/param_registry.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

namespace es::util {
namespace {

enum class Mode { kFast = 0, kSafe = 1 };

/// A small config struct standing in for the engine's: one knob per kind.
struct Knobs {
  bool flag = true;
  int count = 7;
  std::uint64_t big = 42;
  double ratio = 0.5;
  std::string label = "default";
  Mode mode = Mode::kFast;
};

void register_knobs(ParamRegistry& registry, Knobs& knobs) {
  registry.add_bool("k.flag", &knobs.flag, "a flag");
  registry.add_int("k.count", &knobs.count, "a count").range(0, 100).alias(
      "k.n");
  registry.add_uint64("k.big", &knobs.big, "a big count");
  registry.add_double("k.ratio", &knobs.ratio, "a ratio").range(0, 1);
  registry.add_string("k.label", &knobs.label, "a label");
  registry.add_enum("k.mode", &knobs.mode,
                    {{"fast", 0}, {"safe", 1}}, "a mode");
}

TEST(ParamRegistry, SetWritesThroughToBoundStorage) {
  Knobs knobs;
  ParamRegistry registry;
  register_knobs(registry, knobs);

  registry.set("k.flag", "false");
  registry.set("k.count", "13");
  registry.set("k.big", "9000000000");
  registry.set("k.ratio", "0.25");
  registry.set("k.label", "hello world");
  registry.set("k.mode", "SAFE");  // spellings are case-insensitive

  EXPECT_FALSE(knobs.flag);
  EXPECT_EQ(knobs.count, 13);
  EXPECT_EQ(knobs.big, 9000000000ull);
  EXPECT_DOUBLE_EQ(knobs.ratio, 0.25);
  EXPECT_EQ(knobs.label, "hello world");
  EXPECT_EQ(knobs.mode, Mode::kSafe);

  EXPECT_EQ(registry.get("k.count"), "13");
  EXPECT_EQ(registry.get("k.mode"), "safe");
  EXPECT_EQ(registry.get("k.label"), "\"hello world\"");
}

TEST(ParamRegistry, BoolAcceptsTheUsualSpellings) {
  Knobs knobs;
  ParamRegistry registry;
  register_knobs(registry, knobs);
  for (const char* spelling : {"true", "1", "yes", "on", "TRUE"}) {
    registry.set("k.flag", spelling);
    EXPECT_TRUE(knobs.flag) << spelling;
    registry.set("k.flag", "off");
    EXPECT_FALSE(knobs.flag);
  }
  EXPECT_THROW(registry.set("k.flag", "maybe"), ConfigError);
}

TEST(ParamRegistry, RangeViolationNamesTheField) {
  Knobs knobs;
  ParamRegistry registry;
  register_knobs(registry, knobs);
  try {
    registry.set("k.count", "101");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& error) {
    EXPECT_EQ(error.field(), "k.count");
    EXPECT_NE(std::string(error.what()).find("k.count"), std::string::npos);
  }
  EXPECT_EQ(knobs.count, 7) << "failed assignment must not write through";
}

TEST(ParamRegistry, NanIsOutOfEveryRange) {
  // NaN compares false against both bounds; a range check written as
  // "value < lo || value > hi" would let it through to the bound struct.
  Knobs knobs;
  ParamRegistry registry;
  register_knobs(registry, knobs);
  EXPECT_THROW(registry.set("k.ratio", "nan"), ConfigError);
  EXPECT_DOUBLE_EQ(knobs.ratio, 0.5);
  knobs.ratio = std::nan("");
  EXPECT_THROW(registry.finalize(), ConfigError);
}

TEST(ParamRegistry, AliasResolvesToTheSameStorage) {
  Knobs knobs;
  ParamRegistry registry;
  register_knobs(registry, knobs);
  EXPECT_TRUE(registry.has("k.n"));
  registry.set("k.n", "21");
  EXPECT_EQ(knobs.count, 21);
  EXPECT_EQ(registry.get("k.n"), registry.get("k.count"));
}

TEST(ParamRegistry, UnknownKeySuggestsTheNearestName) {
  Knobs knobs;
  ParamRegistry registry;
  register_knobs(registry, knobs);
  try {
    registry.set("k.cout", "3");  // typo for k.count
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& error) {
    EXPECT_NE(std::string(error.what()).find("k.count"), std::string::npos)
        << error.what();
  }
}

TEST(ParamRegistry, EnumRejectsUnknownSpellingListingChoices) {
  Knobs knobs;
  ParamRegistry registry;
  register_knobs(registry, knobs);
  try {
    registry.set("k.mode", "turbo");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("fast"), std::string::npos) << what;
    EXPECT_NE(what.find("safe"), std::string::npos) << what;
  }
}

TEST(ParamRegistry, LoadTextSectionsCommentsQuotesAndLastWriteWins) {
  Knobs knobs;
  ParamRegistry registry;
  register_knobs(registry, knobs);
  registry.load_text(
      "# leading comment\n"
      "k.count = 1\n"
      "[k]\n"
      "count = 2      # section prefix + trailing comment\n"
      "label = \"with # hash and = sign\"\n"
      "ratio = 0.75\n",
      "test");
  EXPECT_EQ(knobs.count, 2) << "later lines must win";
  EXPECT_EQ(knobs.label, "with # hash and = sign");
  EXPECT_DOUBLE_EQ(knobs.ratio, 0.75);
}

TEST(ParamRegistry, LoadTextReportsUnknownKeyWithOrigin) {
  Knobs knobs;
  ParamRegistry registry;
  register_knobs(registry, knobs);
  try {
    registry.load_text("nope = 1\n", "myfile.conf");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& error) {
    EXPECT_NE(std::string(error.what()).find("myfile.conf"),
              std::string::npos)
        << error.what();
  }
}

TEST(ParamRegistry, FinalizeRunsRulesAndNamesTheOffendingField) {
  Knobs knobs;
  ParamRegistry registry;
  register_knobs(registry, knobs);
  registry.add_rule("k.ratio", [&knobs]() -> std::string {
    if (knobs.flag && knobs.ratio > 0.9) return "ratio too high with flag";
    return "";
  });
  EXPECT_NO_THROW(registry.finalize());
  knobs.ratio = 0.95;
  try {
    registry.finalize();
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& error) {
    EXPECT_EQ(error.field(), "k.ratio");
  }
}

TEST(ParamRegistry, FinalizeRechecksRangesOnMutatedStorage) {
  // Code may write the bound structs directly; finalize() must catch a
  // value that never went through set().
  Knobs knobs;
  ParamRegistry registry;
  register_knobs(registry, knobs);
  knobs.count = -5;
  EXPECT_THROW(registry.finalize(), ConfigError);
}

TEST(ParamRegistry, DynamicPrefixRoutesSuffixAndDumps) {
  Knobs knobs;
  ParamRegistry registry;
  register_knobs(registry, knobs);
  std::vector<std::pair<std::string, std::string>> seen;
  registry.add_dynamic(
      "dyn.",
      [&seen](const std::string& suffix, const std::string& value) {
        seen.emplace_back(suffix, value);
      },
      [&seen]() {
        std::vector<std::pair<std::string, std::string>> out;
        for (const auto& [suffix, value] : seen)
          out.emplace_back("dyn." + suffix, value);
        return out;
      });
  registry.set("dyn.alpha.weight", "3");
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].first, "alpha.weight");
  EXPECT_EQ(seen[0].second, "3");
  EXPECT_NE(registry.dump_config().find("dyn.alpha.weight"),
            std::string::npos);
}

TEST(ParamRegistry, DumpConfigIsLoadableAndStable) {
  Knobs knobs;
  ParamRegistry registry;
  register_knobs(registry, knobs);
  registry.set("k.count", "33");
  registry.set("k.label", "spaced value");
  const std::string dump = registry.dump_config();

  Knobs other;
  ParamRegistry second;
  register_knobs(second, other);
  second.load_text(dump, "dump");
  EXPECT_EQ(other.count, 33);
  EXPECT_EQ(other.label, "spaced value");
  EXPECT_EQ(second.dump_config(), dump) << "dump -> load -> dump must agree";
}

TEST(ParamRegistry, DefaultValueCapturedAtRegistration) {
  Knobs knobs;
  knobs.count = 55;
  ParamRegistry registry;
  register_knobs(registry, knobs);
  registry.set("k.count", "66");
  for (const ParamRegistry::Param& param : registry.params()) {
    if (param.name() == "k.count") {
      EXPECT_EQ(param.default_value(), "55");
      EXPECT_EQ(param.current_value(), "66");
    }
  }
}

}  // namespace
}  // namespace es::util
