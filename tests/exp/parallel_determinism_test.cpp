// Tier-1 guarantee of the parallel experiment engine: fanning a campaign
// across worker threads changes wall time and nothing else.  Every seed is
// derived up front and every aggregate is folded serially in index order,
// so --jobs 8 must produce byte-identical CSVs to --jobs 1.
#include <gtest/gtest.h>

#include <string>

#include "exp/experiment.hpp"
#include "exp/sweep.hpp"
#include "testing/sweep_csv.hpp"
#include "util/thread_pool.hpp"

namespace es::exp {
namespace {

class ParallelDeterminism : public ::testing::Test {
 protected:
  // Every test compares a serial leg against a pooled leg; always restore
  // the process-wide default (serial) so other suites are unaffected.
  void TearDown() override { util::set_global_parallelism(1); }

  static workload::GeneratorConfig small_config() {
    workload::GeneratorConfig config;
    config.num_jobs = 120;
    config.seed = 11;
    config.p_small = 0.2;
    return config;
  }

  static core::AlgorithmOptions lookahead_250() {
    core::AlgorithmOptions options;
    options.lookahead = 250;
    return options;
  }
};

TEST_F(ParallelDeterminism, RunReplicatedAggregateIsBitwiseEqual) {
  RunSpec spec;
  spec.workload = small_config();
  spec.algorithm = "Delayed-LOS";

  util::set_global_parallelism(1);
  const Aggregate serial = run_replicated(spec, 6);
  util::set_global_parallelism(8);
  const Aggregate parallel = run_replicated(spec, 6);

  // Bitwise, not approximate: the parallel fold must execute the identical
  // floating-point operation sequence.
  EXPECT_EQ(serial.utilization, parallel.utilization);
  EXPECT_EQ(serial.mean_wait, parallel.mean_wait);
  EXPECT_EQ(serial.slowdown, parallel.slowdown);
  EXPECT_EQ(serial.utilization_stddev, parallel.utilization_stddev);
  EXPECT_EQ(serial.mean_wait_stddev, parallel.mean_wait_stddev);
  EXPECT_EQ(serial.utilization_ci95, parallel.utilization_ci95);
  EXPECT_EQ(serial.mean_wait_ci95, parallel.mean_wait_ci95);
  EXPECT_EQ(serial.offered_load, parallel.offered_load);
  EXPECT_EQ(serial.mean_dedicated_delay, parallel.mean_dedicated_delay);
  EXPECT_EQ(serial.ecc_processed, parallel.ecc_processed);
  EXPECT_EQ(serial.dp.calls, parallel.dp.calls);
  EXPECT_EQ(serial.dp.table_runs, parallel.dp.table_runs);
}

TEST_F(ParallelDeterminism, LoadSweepCsvIsByteIdenticalAtJobs8) {
  const std::vector<double> loads{0.6, 0.9};
  const std::vector<std::string> algorithms{"EASY", "LOS", "Delayed-LOS"};

  util::set_global_parallelism(1);
  const Sweep serial =
      load_sweep(small_config(), loads, algorithms, {}, 3);
  util::set_global_parallelism(8);
  const Sweep parallel =
      load_sweep(small_config(), loads, algorithms, {}, 3);

  const std::string serial_bytes =
      testing::sweep_csv_bytes(serial, "det_serial.csv");
  const std::string parallel_bytes =
      testing::sweep_csv_bytes(parallel, "det_parallel.csv");
  ASSERT_FALSE(serial_bytes.empty());
  EXPECT_EQ(serial_bytes, parallel_bytes);
}

TEST_F(ParallelDeterminism, SkipCountSweepCsvIsByteIdenticalAtJobs8) {
  util::set_global_parallelism(1);
  const Sweep serial =
      skip_count_sweep(small_config(), 1, 4, {"EASY", "LOS"},
                       lookahead_250(), 2);
  util::set_global_parallelism(8);
  const Sweep parallel =
      skip_count_sweep(small_config(), 1, 4, {"EASY", "LOS"},
                       lookahead_250(), 2);

  const std::string serial_bytes =
      testing::sweep_csv_bytes(serial, "cs_serial.csv");
  const std::string parallel_bytes =
      testing::sweep_csv_bytes(parallel, "cs_parallel.csv");
  ASSERT_FALSE(serial_bytes.empty());
  EXPECT_EQ(serial_bytes, parallel_bytes);
}

TEST_F(ParallelDeterminism, OptimalSkipCountAgreesAcrossJobCounts) {
  util::set_global_parallelism(1);
  const int serial = optimal_skip_count(small_config(), 1, 5, 2);
  util::set_global_parallelism(8);
  const int parallel = optimal_skip_count(small_config(), 1, 5, 2);
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace es::exp
