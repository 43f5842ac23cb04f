#include "exp/sweep.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "exp/report.hpp"

namespace es::exp {
namespace {

workload::GeneratorConfig small_config() {
  workload::GeneratorConfig config;
  config.num_jobs = 100;
  config.seed = 6;
  return config;
}

core::AlgorithmOptions lookahead_250() {
  core::AlgorithmOptions options;
  options.lookahead = 250;
  return options;
}

TEST(Sweep, LoadSweepShape) {
  const Sweep sweep = load_sweep(small_config(), {0.6, 0.9}, {"EASY", "LOS"},
                                 {}, 2);
  ASSERT_EQ(sweep.points.size(), 2u);
  EXPECT_EQ(sweep.x_label, "load");
  for (const SweepPoint& point : sweep.points) {
    ASSERT_EQ(point.by_algorithm.size(), 2u);
    EXPECT_TRUE(point.by_algorithm.contains("EASY"));
    EXPECT_TRUE(point.by_algorithm.contains("LOS"));
  }
  EXPECT_DOUBLE_EQ(sweep.points[0].x, 0.6);
  // Higher load -> higher utilization, for any sane scheduler.
  EXPECT_GT(sweep.points[1].by_algorithm.at("EASY").utilization,
            sweep.points[0].by_algorithm.at("EASY").utilization);
}

TEST(Sweep, SkipCountSweepHasFlatReferences) {
  const Sweep sweep =
      skip_count_sweep(small_config(), 1, 3, {"EASY"}, lookahead_250(), 2);
  ASSERT_EQ(sweep.points.size(), 3u);
  EXPECT_EQ(sweep.x_label, "C_s");
  // EASY does not depend on C_s, so it is evaluated once and shared —
  // stored in Sweep::references, never copied into the points.
  ASSERT_TRUE(sweep.references.contains("EASY"));
  const Aggregate& reference = sweep.references.at("EASY");
  EXPECT_GT(reference.replications, 0);
  for (const SweepPoint& point : sweep.points) {
    EXPECT_FALSE(point.by_algorithm.contains("EASY"));
    // ...but find() and merged() surface it at every x.
    const Aggregate* found = sweep.find(point, "EASY");
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found, &reference);  // shared, not a per-point copy
    EXPECT_DOUBLE_EQ(found->mean_wait, reference.mean_wait);
    const auto view = sweep.merged(point);
    ASSERT_TRUE(view.contains("EASY"));
    ASSERT_TRUE(view.contains("Delayed-LOS"));
    EXPECT_EQ(view.size(), 2u);
  }
  // Delayed-LOS (C_s-dependent) still lives in each point.
  for (const SweepPoint& point : sweep.points)
    EXPECT_TRUE(point.by_algorithm.contains("Delayed-LOS"));
}

TEST(Sweep, MaxImprovementReadsSharedReferences) {
  // The baseline lives in Sweep::references; max_improvement must resolve
  // it through find() rather than expecting per-point copies.
  const Sweep sweep =
      skip_count_sweep(small_config(), 1, 2, {"EASY"}, lookahead_250(), 1);
  const Improvement improvement =
      max_improvement(sweep, "Delayed-LOS", "EASY");
  EXPECT_TRUE(std::isfinite(improvement.utilization));
  EXPECT_TRUE(std::isfinite(improvement.wait));
  EXPECT_TRUE(std::isfinite(improvement.slowdown));
}

TEST(Sweep, MaxImprovementAgainstSelfIsZero) {
  const Sweep sweep = load_sweep(small_config(), {0.8}, {"EASY"}, {}, 2);
  const Improvement improvement = max_improvement(sweep, "EASY", "EASY");
  EXPECT_DOUBLE_EQ(improvement.utilization, 0.0);
  EXPECT_DOUBLE_EQ(improvement.wait, 0.0);
  EXPECT_DOUBLE_EQ(improvement.slowdown, 0.0);
}

TEST(Sweep, MaxImprovementPicksBestAcrossPoints) {
  Sweep sweep;
  sweep.x_label = "load";
  auto mk = [](double util, double wait, double slowdown) {
    Aggregate aggregate;
    aggregate.utilization = util;
    aggregate.mean_wait = wait;
    aggregate.slowdown = slowdown;
    return aggregate;
  };
  SweepPoint p1;
  p1.x = 0.5;
  p1.by_algorithm["cand"] = mk(0.50, 90, 1.9);
  p1.by_algorithm["base"] = mk(0.50, 100, 2.0);
  SweepPoint p2;
  p2.x = 0.9;
  p2.by_algorithm["cand"] = mk(0.78, 80, 1.5);
  p2.by_algorithm["base"] = mk(0.75, 100, 2.0);
  sweep.points = {p1, p2};
  const Improvement improvement = max_improvement(sweep, "cand", "base");
  EXPECT_NEAR(improvement.utilization, 4.0, 1e-9);   // from p2
  EXPECT_NEAR(improvement.wait, 20.0, 1e-9);          // from p2
  EXPECT_NEAR(improvement.slowdown, 25.0, 1e-9);      // from p2
}

TEST(Report, PrintSweepContainsAllSeries) {
  const Sweep sweep = load_sweep(small_config(), {0.8}, {"EASY", "LOS"},
                                 {}, 1);
  std::ostringstream out;
  print_sweep(out, "Test figure", sweep, {"EASY", "LOS"});
  const std::string text = out.str();
  EXPECT_NE(text.find("mean utilization"), std::string::npos);
  EXPECT_NE(text.find("mean job waiting time"), std::string::npos);
  EXPECT_NE(text.find("slowdown"), std::string::npos);
  EXPECT_NE(text.find("EASY"), std::string::npos);
  EXPECT_NE(text.find("LOS"), std::string::npos);
}

TEST(Report, PrintImprovementsRendersPaperStyleRows) {
  const Sweep sweep = load_sweep(small_config(), {0.8},
                                 {"EASY", "LOS", "Delayed-LOS"}, {}, 1);
  std::ostringstream out;
  print_improvements(out, "Table IV", sweep, "Delayed-LOS", {"LOS", "EASY"});
  const std::string text = out.str();
  EXPECT_NE(text.find("Utilization"), std::string::npos);
  EXPECT_NE(text.find("Job waiting time"), std::string::npos);
  EXPECT_NE(text.find("Slowdown"), std::string::npos);
  EXPECT_NE(text.find("LOS (%)"), std::string::npos);
}

TEST(Report, CsvRoundTripsRowCount) {
  const Sweep sweep = load_sweep(small_config(), {0.7, 0.9},
                                 {"EASY", "LOS"}, {}, 1);
  const std::string path = ::testing::TempDir() + "/sweep_test.csv";
  ASSERT_TRUE(write_sweep_csv(path, sweep));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 1 + 2 * 2);  // header + points x algorithms
  std::remove(path.c_str());
}


TEST(Report, GnuplotScriptReferencesCsvAndSeries) {
  const Sweep sweep = load_sweep(small_config(), {0.7, 0.9},
                                 {"EASY", "LOS"}, {}, 1);
  const std::string path = ::testing::TempDir() + "/sweep_test.gp";
  ASSERT_TRUE(write_sweep_gnuplot(path, "sweep_test.csv", "Test title",
                                  sweep, {"EASY", "LOS"}));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("sweep_test.csv"), std::string::npos);
  EXPECT_NE(text.find("stringcolumn(2) eq 'EASY'"), std::string::npos);
  EXPECT_NE(text.find("stringcolumn(2) eq 'LOS'"), std::string::npos);
  EXPECT_NE(text.find("set terminal svg"), std::string::npos);
  EXPECT_NE(text.find("_wait.svg"), std::string::npos);
  EXPECT_NE(text.find("Test title"), std::string::npos);
  // One plot block per metric panel.
  std::size_t plots = 0, pos = 0;
  while ((pos = text.find("\nplot ", pos)) != std::string::npos) {
    ++plots;
    ++pos;
  }
  EXPECT_EQ(plots, 3u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace es::exp
