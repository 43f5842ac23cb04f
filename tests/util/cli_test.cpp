#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <string>

#include "util/param_registry.hpp"

namespace es::util {
namespace {

TEST(Cli, ParsesSeparatedAndInlineValues) {
  int count = 0;
  double rate = 0;
  std::string name;
  CliParser cli("test");
  cli.add_option("count", "", &count);
  cli.add_option("rate", "", &rate);
  cli.add_option("name", "", &name);
  const char* argv[] = {"prog", "--count", "5", "--rate=0.25", "--name", "x"};
  ASSERT_TRUE(cli.parse(6, argv));
  EXPECT_EQ(count, 5);
  EXPECT_DOUBLE_EQ(rate, 0.25);
  EXPECT_EQ(name, "x");
}

TEST(Cli, BooleanFlagForms) {
  bool flag = false;
  CliParser cli("test");
  cli.add_flag("verbose", "", &flag);
  const char* argv[] = {"prog", "--verbose"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_TRUE(flag);

  bool flag2 = true;
  CliParser cli2("test");
  cli2.add_flag("verbose", "", &flag2);
  const char* argv2[] = {"prog", "--verbose=false"};
  ASSERT_TRUE(cli2.parse(2, argv2));
  EXPECT_FALSE(flag2);
}

TEST(Cli, UnknownOptionFails) {
  CliParser cli("test");
  const char* argv[] = {"prog", "--nope"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(Cli, MissingValueFails) {
  int count = 0;
  CliParser cli("test");
  cli.add_option("count", "", &count);
  const char* argv[] = {"prog", "--count"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(Cli, MalformedNumberFails) {
  int count = 0;
  CliParser cli("test");
  cli.add_option("count", "", &count);
  const char* argv[] = {"prog", "--count", "12abc"};
  EXPECT_FALSE(cli.parse(3, argv));
}

TEST(Cli, PositionalArgumentsCollected) {
  CliParser cli("test");
  const char* argv[] = {"prog", "input.swf", "more"};
  ASSERT_TRUE(cli.parse(3, argv));
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "input.swf");
}

TEST(Cli, HelpListsOptions) {
  int count = 0;
  CliParser cli("my tool");
  cli.add_option("count", "number of things", &count);
  const std::string text = cli.help("prog");
  EXPECT_NE(text.find("my tool"), std::string::npos);
  EXPECT_NE(text.find("--count"), std::string::npos);
  EXPECT_NE(text.find("number of things"), std::string::npos);
}

TEST(Cli, UnsignedLongLongOption) {
  unsigned long long seed = 0;
  CliParser cli("test");
  cli.add_option("seed", "", &seed);
  const char* argv[] = {"prog", "--seed", "18446744073709551615"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_EQ(seed, 18446744073709551615ull);
}

// A two-param registry whose dotless aliases become generated flags.
struct ParamFlagFixture {
  int count = 1;
  bool verbose = false;
  ParamRegistry registry;
  CliParser cli{"test"};

  ParamFlagFixture() {
    registry.add_int("k.count", &count, "how many things")
        .range(0, 100)
        .alias("k.n")
        .alias("count");
    registry.add_bool("k.verbose", &verbose, "talk more").alias("verbose");
    cli.add_param_flags(registry);
  }
};

TEST(Cli, ParamFlagBeatsFileValue) {
  ParamFlagFixture f;
  const char* argv[] = {"prog", "--count", "7"};
  ASSERT_TRUE(f.cli.parse(3, argv));
  EXPECT_EQ(f.count, 1);  // parse() only records the typed text
  f.registry.load_text("k.count = 5\n", "file");
  EXPECT_EQ(f.count, 5);
  f.cli.apply_param_flags(f.registry);
  EXPECT_EQ(f.count, 7);
  EXPECT_TRUE(f.cli.was_set("count"));
}

TEST(Cli, ParamFlagsApplyInCommandLineOrder) {
  ParamFlagFixture f;
  const char* argv[] = {"prog", "--count=3", "--count", "4"};
  ASSERT_TRUE(f.cli.parse(4, argv));
  f.cli.apply_param_flags(f.registry);
  EXPECT_EQ(f.count, 4);
}

TEST(Cli, BareBoolParamFlagSetsTrue) {
  ParamFlagFixture f;
  const char* argv[] = {"prog", "--verbose"};
  ASSERT_TRUE(f.cli.parse(2, argv));
  f.cli.apply_param_flags(f.registry);
  EXPECT_TRUE(f.verbose);

  ParamFlagFixture g;
  g.verbose = true;
  const char* argv2[] = {"prog", "--verbose=false"};
  ASSERT_TRUE(g.cli.parse(2, argv2));
  g.cli.apply_param_flags(g.registry);
  EXPECT_FALSE(g.verbose);
}

TEST(Cli, MalformedParamValueThrowsConfigErrorNamingFieldAndFlag) {
  for (const char* bad : {"abc", "101"}) {  // unparsable, out of range
    ParamFlagFixture f;
    const char* argv[] = {"prog", "--count", bad};
    ASSERT_TRUE(f.cli.parse(3, argv)) << bad;
    try {
      f.cli.apply_param_flags(f.registry);
      FAIL() << "expected ConfigError for " << bad;
    } catch (const ConfigError& error) {
      EXPECT_EQ(error.field(), "k.count");
      EXPECT_NE(std::string(error.what()).find("--count"), std::string::npos)
          << error.what();
    }
    EXPECT_EQ(f.count, 1) << bad;
  }
}

TEST(Cli, ParamFlagHelpShowsDocAndRegistryDefault) {
  ParamFlagFixture f;
  const std::string text = f.cli.help("prog");
  EXPECT_NE(text.find("--count <value>\n      how many things (default 1)"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("--verbose\n      talk more (default false)"),
            std::string::npos)
      << text;
  // Dotted aliases stay config-file spellings only.
  EXPECT_EQ(text.find("--k.n"), std::string::npos);
}

TEST(Cli, UnknownFlagFailsAlongsideParamFlags) {
  ParamFlagFixture f;
  const char* argv[] = {"prog", "--counts", "7"};
  EXPECT_FALSE(f.cli.parse(3, argv));
}

TEST(Cli, DuplicateOptionNameIsAPreconditionFailure) {
  EXPECT_DEATH(
      {
        ParamFlagFixture f;
        int count = 0;
        f.cli.add_option("count", "", &count);
      },
      "duplicate option --count");
}

}  // namespace
}  // namespace es::util
