// The configuration spine end to end: register_run_params plus the
// generator's register_generator_params / register_tenancy_params over the
// real option structs, the file loader,
// the generated parameter flags and their precedence contract, and the
// cross-field rules the engine depends on.
#include "core/config_spine.hpp"

#include <gtest/gtest.h>

#include <string>

#include "util/cli.hpp"
#include "workload/generator.hpp"

namespace es::core {
namespace {

TEST(ConfigSpine, EveryParamRoundTripsItsOwnRendering) {
  // set(name, current_value()) must be the identity for every registered
  // param: proves each parser accepts each renderer's output, so a dumped
  // config reproduces the exact configuration.
  AlgorithmOptions options;
  workload::GeneratorConfig generator;
  util::ParamRegistry registry;
  register_run_params(registry, options);
  workload::register_generator_params(registry, generator);
  workload::register_tenancy_params(registry, generator);
  for (const util::ParamRegistry::Param& param : registry.params()) {
    const std::string before = param.current_value();
    ASSERT_NO_THROW(registry.set(param.name(), before)) << param.name();
    EXPECT_EQ(param.current_value(), before) << param.name();
  }
  EXPECT_NO_THROW(registry.finalize());
}

TEST(ConfigSpine, RegistryDefaultsMatchStructDefaults) {
  // The registry binds live storage, so a freshly registered spine over
  // default-constructed structs must report default == current everywhere
  // — any drift means a param was registered after mutation, which would
  // corrupt --dump-config's "# default:" annotations.
  AlgorithmOptions options;
  workload::GeneratorConfig generator;
  util::ParamRegistry registry;
  register_run_params(registry, options);
  workload::register_generator_params(registry, generator);
  workload::register_tenancy_params(registry, generator);
  for (const util::ParamRegistry::Param& param : registry.params())
    EXPECT_EQ(param.default_value(), param.current_value()) << param.name();

  // And two independent registrations agree on the whole dump surface.
  AlgorithmOptions other_options;
  workload::GeneratorConfig other_generator;
  util::ParamRegistry other;
  register_run_params(other, other_options);
  workload::register_generator_params(other, other_generator);
  workload::register_tenancy_params(other, other_generator);
  EXPECT_EQ(registry.dump_config(), other.dump_config());
}

TEST(ConfigSpine, DumpLoadDumpIsTheIdentity) {
  AlgorithmOptions options;
  workload::GeneratorConfig generator;
  util::ParamRegistry registry;
  register_run_params(registry, options);
  workload::register_generator_params(registry, generator);
  workload::register_tenancy_params(registry, generator);
  registry.load_text(
      "[engine]\n"
      "machine_procs = 640\n"
      "granularity = 64\n"
      "[pool]\n"
      "prod.weight = 4\n"
      "prod.min_share = 0.25\n"
      "batch.weight = 1\n"
      "[tenancy]\n"
      "users = 16\n"
      "pools = 2\n"
      "[workload]\n"
      "num_jobs = 80\n"
      "p_extend = 0.25\n"
      "estimate_factor = 1.5\n",
      "test");
  const std::string dump = registry.dump_config();

  AlgorithmOptions options2;
  workload::GeneratorConfig generator2;
  util::ParamRegistry second;
  register_run_params(second, options2);
  workload::register_generator_params(second, generator2);
  workload::register_tenancy_params(second, generator2);
  second.load_text(dump, "dump");
  EXPECT_EQ(second.dump_config(), dump);
  EXPECT_EQ(options2.engine.machine_procs, 640);
  ASSERT_EQ(options2.engine.fairshare.pools.size(), 2u);
  EXPECT_EQ(options2.engine.fairshare.pools[0].name, "prod");
  EXPECT_DOUBLE_EQ(options2.engine.fairshare.pools[0].weight, 4);
  EXPECT_DOUBLE_EQ(options2.engine.fairshare.pools[0].min_share, 0.25);
  EXPECT_EQ(generator2.num_users, 16);
  EXPECT_EQ(generator2.num_jobs, 80u);
  EXPECT_DOUBLE_EQ(generator2.p_extend, 0.25);
  EXPECT_DOUBLE_EQ(generator2.estimate_factor, 1.5);
}

TEST(ConfigSpine, CliOverlayOverridesFileValue) {
  // The precedence contract simrun follows: defaults, then the file, then
  // the parameter flags the user typed (generated from the registry's
  // dotless aliases and set through the registry), then finalize()
  // validates the merged result.
  AlgorithmOptions options;
  util::ParamRegistry registry;
  register_run_params(registry, options);
  util::CliParser cli("test");
  cli.add_param_flags(registry);
  const char* argv[] = {"prog", "--procs", "320"};
  ASSERT_TRUE(cli.parse(3, argv));
  registry.load_text("engine.machine_procs = 128\nengine.granularity = 32\n",
                     "file");
  EXPECT_EQ(options.engine.machine_procs, 128);
  cli.apply_param_flags(registry);
  EXPECT_NO_THROW(registry.finalize());
  EXPECT_EQ(options.engine.machine_procs, 320);
  EXPECT_EQ(registry.get("engine.machine_procs"), "320");
}

TEST(ConfigSpine, MalformedParamFlagNamesTheField) {
  AlgorithmOptions options;
  util::ParamRegistry registry;
  register_run_params(registry, options);
  util::CliParser cli("test");
  cli.add_param_flags(registry);
  const char* argv[] = {"prog", "--procs", "abc"};
  ASSERT_TRUE(cli.parse(3, argv));
  try {
    cli.apply_param_flags(registry);
    FAIL() << "expected ConfigError";
  } catch (const util::ConfigError& error) {
    EXPECT_EQ(error.field(), "engine.machine_procs");
    EXPECT_NE(std::string(error.what()).find("--procs"), std::string::npos)
        << error.what();
  }
}

TEST(ConfigSpine, GeneratedHelpShowsRegistryDefaults) {
  AlgorithmOptions options;
  workload::GeneratorConfig generator;
  util::ParamRegistry registry;
  register_run_params(registry, options);
  workload::register_generator_params(registry, generator);
  workload::register_tenancy_params(registry, generator);
  util::CliParser cli("test");
  cli.add_param_flags(registry);
  const std::string text = cli.help("simrun");
  EXPECT_NE(text.find("--lookahead <value>\n      DP lookahead depth "
                      "(Shmueli's 50-job limit) (default 50)"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("--ckpt-on-preempt\n"), std::string::npos) << text;
  EXPECT_NE(text.find("--zipf-exponent <value>"), std::string::npos) << text;
  EXPECT_NE(text.find("--num-jobs <value>\n      N_J: synthetic jobs to "
                      "generate (default 500)"),
            std::string::npos)
      << text;
}

TEST(ConfigSpine, GeneratorRangesAcceptJobSamplerBoundaries) {
  // Every boundary value JobSampler's preconditions accept passes the
  // registered ranges and rules, and the sampler then constructs: the
  // registry never rejects a model the generator can draw from.
  const char* const kBoundaries[][2] = {
      {"workload.num_jobs", "1"},       {"workload.p_small", "0"},
      {"workload.p_small", "1"},        {"workload.p_dedicated", "0"},
      {"workload.p_dedicated", "1"},    {"workload.estimate_factor", "1"},
      {"workload.target_load", "0"},
  };
  for (const auto& [key, value] : kBoundaries) {
    workload::GeneratorConfig generator;
    util::ParamRegistry registry;
    workload::register_generator_params(registry, generator);
    ASSERT_NO_THROW(registry.set(key, value)) << key << " = " << value;
    ASSERT_NO_THROW(registry.finalize()) << key << " = " << value;
    workload::JobSampler sampler(generator);
  }
  // P_E and P_R each at 0 and 1, and summing to exactly 1.
  const char* const kEccPairs[][2] = {
      {"0", "0"}, {"1", "0"}, {"0", "1"}, {"0.5", "0.5"}, {"0.7", "0.3"},
      {"0.25", "0.75"}};
  for (const auto& [extend, reduce] : kEccPairs) {
    workload::GeneratorConfig generator;
    util::ParamRegistry registry;
    workload::register_generator_params(registry, generator);
    registry.set("p-extend", extend);
    registry.set("p-reduce", reduce);
    ASSERT_NO_THROW(registry.finalize()) << extend << " + " << reduce;
    workload::JobSampler sampler(generator);
  }
}

TEST(ConfigSpine, GeneratorRejectsWhatJobSamplerWouldAbortOn) {
  const char* const kRejected[][2] = {
      {"workload.num_jobs", "0"},       {"workload.num_jobs", "-1"},
      {"workload.p_small", "2.0"},      {"workload.p_small", "-0.1"},
      {"workload.p_small", "nan"},      {"workload.p_dedicated", "1.5"},
      {"workload.p_extend", "1.01"},    {"workload.p_reduce", "-1"},
      {"workload.estimate_factor", "0.5"}, {"workload.target_load", "-1"},
      {"workload.estimate_factor", "inf"}, {"workload.target_load", "inf"},
      {"workload.seed", "-1"},
  };
  for (const auto& [key, value] : kRejected) {
    workload::GeneratorConfig generator;
    util::ParamRegistry registry;
    workload::register_generator_params(registry, generator);
    try {
      registry.set(key, value);
      FAIL() << key << " = " << value << " was accepted";
    } catch (const util::ConfigError& error) {
      EXPECT_EQ(error.field(), key) << error.what();
    }
  }
  workload::GeneratorConfig generator;
  util::ParamRegistry registry;
  workload::register_generator_params(registry, generator);
  registry.set("p-extend", "0.5");
  registry.set("p-reduce", "0.7");
  try {
    registry.finalize();
    FAIL() << "expected ConfigError";
  } catch (const util::ConfigError& error) {
    EXPECT_EQ(error.field(), "workload.p_reduce");
    EXPECT_NE(std::string(error.what()).find("= 1.2 exceeds 1"),
              std::string::npos)
        << error.what();
  }
}

TEST(ConfigSpine, UnknownFlagStillFailsWithGeneratedFlags) {
  AlgorithmOptions options;
  util::ParamRegistry registry;
  register_run_params(registry, options);
  util::CliParser cli("test");
  cli.add_param_flags(registry);
  const char* argv[] = {"prog", "--machine-procs", "320"};
  EXPECT_FALSE(cli.parse(3, argv));
}

TEST(ConfigSpine, AllowRunningResizeRequiresProcessEccs) {
  AlgorithmOptions options;
  util::ParamRegistry registry;
  register_run_params(registry, options);
  registry.set("engine.allow_running_resize", "true");
  try {
    registry.finalize();
    FAIL() << "expected ConfigError";
  } catch (const util::ConfigError& error) {
    EXPECT_EQ(error.field(), "engine.allow_running_resize");
  }
  registry.set("engine.process_eccs", "true");
  EXPECT_NO_THROW(registry.finalize());
}

TEST(ConfigSpine, GranularityMustDivideMachineProcs) {
  AlgorithmOptions options;
  util::ParamRegistry registry;
  register_run_params(registry, options);
  registry.set("engine.granularity", "48");  // 320 % 48 != 0
  EXPECT_THROW(registry.finalize(), util::ConfigError);
  registry.set("engine.granularity", "64");
  EXPECT_NO_THROW(registry.finalize());
}

TEST(ConfigSpine, CheckpointOverheadRequiresInterval) {
  AlgorithmOptions options;
  util::ParamRegistry registry;
  register_run_params(registry, options);
  registry.set("checkpoint.enabled", "true");
  registry.set("checkpoint.overhead", "10");
  EXPECT_THROW(registry.finalize(), util::ConfigError);
  registry.set("checkpoint.interval", "300");
  EXPECT_NO_THROW(registry.finalize());
}

TEST(ConfigSpine, FailureInjectionNeedsPositiveMttr) {
  // Without this rule failure.enabled + mttr = 0 from a config file reached
  // FailureModel's precondition and aborted the process.
  AlgorithmOptions options;
  util::ParamRegistry registry;
  register_run_params(registry, options);
  registry.load_text("failure.enabled = true\nfailure.mttr = 0\n", "file");
  try {
    registry.finalize();
    FAIL() << "expected ConfigError";
  } catch (const util::ConfigError& error) {
    EXPECT_EQ(error.field(), "failure.mttr");
  }
  registry.set("failure.mttr", "600");
  EXPECT_NO_THROW(registry.finalize());
  // A scripted outage sequence needs no stochastic repair time.
  registry.set("failure.mttr", "0");
  options.engine.failure.script.push_back({100, 200, 32});
  EXPECT_NO_THROW(registry.finalize());
}

TEST(ConfigSpine, CheckpointingNeedsATrigger) {
  // Without this rule checkpoint.enabled alone reached the checkpoint
  // model's precondition (interval > 0 || on_preempt) and aborted.
  AlgorithmOptions options;
  util::ParamRegistry registry;
  register_run_params(registry, options);
  registry.set("checkpoint.enabled", "true");
  try {
    registry.finalize();
    FAIL() << "expected ConfigError";
  } catch (const util::ConfigError& error) {
    EXPECT_EQ(error.field(), "checkpoint.enabled");
  }
  registry.set("checkpoint.on_preempt", "true");
  EXPECT_NO_THROW(registry.finalize());
  registry.set("checkpoint.on_preempt", "false");
  registry.set("checkpoint.interval", "300");
  EXPECT_NO_THROW(registry.finalize());
}

TEST(ConfigSpine, FailureNodeRangeValidated) {
  AlgorithmOptions options;
  util::ParamRegistry registry;
  register_run_params(registry, options);
  registry.set("failure.min_nodes", "4");
  registry.set("failure.max_nodes", "2");
  EXPECT_THROW(registry.finalize(), util::ConfigError);
}

TEST(ConfigSpine, PoolMinSharesMustNotOversubscribe) {
  AlgorithmOptions options;
  util::ParamRegistry registry;
  register_run_params(registry, options);
  registry.set("pool.a.min_share", "0.7");
  registry.set("pool.b.min_share", "0.6");
  try {
    registry.finalize();
    FAIL() << "expected ConfigError";
  } catch (const util::ConfigError& error) {
    EXPECT_EQ(error.field(), "pool");
  }
}

TEST(ConfigSpine, AliasesAcceptedForEngineKeys) {
  AlgorithmOptions options;
  util::ParamRegistry registry;
  register_run_params(registry, options);
  registry.set("engine.procs", "640");
  registry.set("engine.gran", "64");
  registry.set("algorithm.cs", "3");
  EXPECT_EQ(options.engine.machine_procs, 640);
  EXPECT_EQ(options.engine.granularity, 64);
  EXPECT_EQ(options.max_skip_count, 3);
}

TEST(ConfigSpine, RequeueModeIsAnEnum) {
  AlgorithmOptions options;
  util::ParamRegistry registry;
  register_run_params(registry, options);
  registry.set("engine.requeue", "abandon");
  EXPECT_EQ(options.engine.requeue, fault::RequeuePolicy::kAbandon);
  EXPECT_THROW(registry.set("engine.requeue", "sideways"),
               util::ConfigError);
}

}  // namespace
}  // namespace es::core
