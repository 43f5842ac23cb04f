// Sweep CSV bytes for byte-identity gates, and the fixed Fig-7 mini-sweep
// that data/golden/kernel_equivalence.csv records.
#pragma once

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/factory.hpp"
#include "exp/report.hpp"
#include "exp/sweep.hpp"
#include "testing/temp_path.hpp"

namespace es::testing {

/// The exact bytes exp::write_sweep_csv writes for `sweep`, through a
/// per-test scratch file named after `stem`.
inline std::string sweep_csv_bytes(const exp::Sweep& sweep,
                                   const std::string& stem) {
  const std::string path = unique_temp_path(stem);
  EXPECT_TRUE(exp::write_sweep_csv(path, sweep));
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  std::remove(path.c_str());
  return out.str();
}

/// The kernel-equivalence mini-sweep: M = 320, 200 jobs, seed 1, P_S = 0.2,
/// loads {0.6, 0.9}, EASY / LOS / Delayed-LOS, 2 replications, lookahead
/// 250, C_s = 7.  `engine` varies only engine settings that must leave the
/// science untouched.
inline exp::Sweep kernel_mini_sweep(const sched::EngineConfig& engine = {}) {
  workload::GeneratorConfig config;
  config.machine_procs = 320;
  config.num_jobs = 200;
  config.seed = 1;
  config.p_small = 0.2;
  core::AlgorithmOptions options;
  options.lookahead = 250;
  options.max_skip_count = 7;
  options.engine = engine;
  return exp::load_sweep(config, {0.6, 0.9}, {"EASY", "LOS", "Delayed-LOS"},
                         options, 2);
}

}  // namespace es::testing
