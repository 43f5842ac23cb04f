#include "core/dp.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "core/dp_reference.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace es::core {
namespace {

int total(const std::vector<int>& weights, const std::vector<int>& chosen) {
  int sum = 0;
  for (int index : chosen) sum += weights[static_cast<std::size_t>(index)];
  return sum;
}

/// Exhaustive maximum packing value for small instances.
int brute_force_best(const std::vector<int>& weights, int capacity) {
  const std::size_t n = weights.size();
  int best = 0;
  for (std::size_t mask = 0; mask < (1u << n); ++mask) {
    int sum = 0;
    for (std::size_t i = 0; i < n; ++i)
      if (mask & (1u << i)) sum += weights[i];
    if (sum <= capacity) best = std::max(best, sum);
  }
  return best;
}

/// Exhaustive 2D maximum.
int brute_force_best_2d(const std::vector<int>& weights,
                        const std::vector<int>& shadows, int cap,
                        int shadow_cap) {
  const std::size_t n = weights.size();
  int best = 0;
  for (std::size_t mask = 0; mask < (1u << n); ++mask) {
    int sum = 0, shadow = 0;
    for (std::size_t i = 0; i < n; ++i)
      if (mask & (1u << i)) {
        sum += weights[i];
        shadow += shadows[i];
      }
    if (sum <= cap && shadow <= shadow_cap) best = std::max(best, sum);
  }
  return best;
}

TEST(BasicDp, EmptyInputs) {
  DpWorkspace ws;
  EXPECT_TRUE(basic_dp({}, 10, ws).empty());
  const std::vector<int> weights{3, 4};
  EXPECT_TRUE(basic_dp(weights, 0, ws).empty());
}

TEST(BasicDp, PaperFigure2Example) {
  // Free capacity 10, queue sizes 7, 4, 6: the optimum is {4, 6}, skipping
  // the head — the scenario motivating Delayed-LOS.
  DpWorkspace ws;
  const std::vector<int> weights{7, 4, 6};
  const auto chosen = basic_dp(weights, 10, ws);
  EXPECT_EQ(chosen, (std::vector<int>{1, 2}));
  EXPECT_EQ(total(weights, chosen), 10);
}

TEST(BasicDp, TakesEverythingWhenItFits) {
  DpWorkspace ws;
  const std::vector<int> weights{2, 3, 4};
  const auto chosen = basic_dp(weights, 10, ws);
  EXPECT_EQ(chosen, (std::vector<int>{0, 1, 2}));
}

TEST(BasicDp, PrefersEarlierJobsOnTies) {
  DpWorkspace ws;
  // {4} vs {4}: first one wins.
  EXPECT_EQ(basic_dp(std::vector<int>{4, 4}, 4, ws),
            (std::vector<int>{0}));
  // {2,2} vs {4}: equal utilization; the set containing the head wins.
  EXPECT_EQ(basic_dp(std::vector<int>{2, 4, 2}, 4, ws),
            (std::vector<int>{0, 2}));
}

TEST(BasicDp, SkipsZeroAndOversizedItems) {
  DpWorkspace ws;
  const std::vector<int> weights{0, 15, 3};
  const auto chosen = basic_dp(weights, 10, ws);
  EXPECT_EQ(chosen, (std::vector<int>{2}));
}

TEST(BasicDp, PropertyMatchesBruteForce) {
  util::Rng rng(101);
  DpWorkspace ws;
  for (int round = 0; round < 300; ++round) {
    const int n = static_cast<int>(rng.uniform_int(1, 12));
    const int capacity = static_cast<int>(rng.uniform_int(1, 30));
    std::vector<int> weights;
    for (int i = 0; i < n; ++i)
      weights.push_back(static_cast<int>(rng.uniform_int(1, 15)));
    const auto chosen = basic_dp(weights, capacity, ws);
    // Feasible…
    ASSERT_LE(total(weights, chosen), capacity);
    // …and optimal.
    ASSERT_EQ(total(weights, chosen), brute_force_best(weights, capacity))
        << "round " << round;
    // Indices ascending and unique.
    for (std::size_t i = 1; i < chosen.size(); ++i)
      ASSERT_LT(chosen[i - 1], chosen[i]);
  }
}

TEST(ReservationDp, ReducesToBasicWithUnboundedShadow) {
  util::Rng rng(55);
  DpWorkspace ws1, ws2;
  for (int round = 0; round < 50; ++round) {
    const int n = static_cast<int>(rng.uniform_int(1, 10));
    const int capacity = static_cast<int>(rng.uniform_int(1, 25));
    std::vector<int> weights, zeros;
    for (int i = 0; i < n; ++i) {
      weights.push_back(static_cast<int>(rng.uniform_int(1, 12)));
      zeros.push_back(0);
    }
    const auto basic = basic_dp(weights, capacity, ws1);
    const auto reservation = reservation_dp(weights, zeros, capacity, 0, ws2);
    EXPECT_EQ(basic, reservation);
  }
}

TEST(ReservationDp, ShadowConstraintBindsCrossingJobs) {
  DpWorkspace ws;
  // Two jobs of 5; both cross the freeze; shadow capacity admits only one.
  const std::vector<int> weights{5, 5};
  const std::vector<int> shadows{5, 5};
  const auto chosen = reservation_dp(weights, shadows, 10, 5, ws);
  EXPECT_EQ(chosen, (std::vector<int>{0}));
}

TEST(ReservationDp, MixesCrossingAndNonCrossingJobs) {
  DpWorkspace ws;
  // Job 0 crosses (shadow 6 > cap 5); jobs 1-2 end before the freeze.
  const std::vector<int> weights{6, 4, 5};
  const std::vector<int> shadows{6, 0, 0};
  const auto chosen = reservation_dp(weights, shadows, 10, 5, ws);
  // Best: {1, 2} = 9 now, no shadow use; including 0 would cap at 6+4=10
  // but shadow 6 > 5 excludes job 0 entirely.
  EXPECT_EQ(chosen, (std::vector<int>{1, 2}));
}

TEST(ReservationDp, PaperSemanticsHeadReservationExample) {
  // Shmueli-style: head (not in items) reserved; shadow capacity 3.
  // Waiting: a 3-proc long job (crosses, shadow 3) and a 5-proc short job
  // (ends before freeze).  Both fit now (capacity 8) and together they
  // maximize utilization.
  DpWorkspace ws;
  const std::vector<int> weights{3, 5};
  const std::vector<int> shadows{3, 0};
  const auto chosen = reservation_dp(weights, shadows, 8, 3, ws);
  EXPECT_EQ(chosen, (std::vector<int>{0, 1}));
}

TEST(ReservationDp, PropertyMatchesBruteForce) {
  util::Rng rng(202);
  DpWorkspace ws;
  for (int round = 0; round < 300; ++round) {
    const int n = static_cast<int>(rng.uniform_int(1, 10));
    const int capacity = static_cast<int>(rng.uniform_int(1, 20));
    const int shadow_cap = static_cast<int>(rng.uniform_int(0, 15));
    std::vector<int> weights, shadows;
    for (int i = 0; i < n; ++i) {
      const int w = static_cast<int>(rng.uniform_int(1, 10));
      weights.push_back(w);
      shadows.push_back(rng.bernoulli(0.5) ? w : 0);  // frenum is 0 or w
    }
    const auto chosen = reservation_dp(weights, shadows, capacity, shadow_cap, ws);
    int sum = 0, shadow_sum = 0;
    for (int index : chosen) {
      sum += weights[static_cast<std::size_t>(index)];
      shadow_sum += shadows[static_cast<std::size_t>(index)];
    }
    ASSERT_LE(sum, capacity);
    ASSERT_LE(shadow_sum, shadow_cap);
    ASSERT_EQ(sum,
              brute_force_best_2d(weights, shadows, capacity, shadow_cap))
        << "round " << round;
  }
}

TEST(FastPath, BasicDpMatchesTablePathWhenEverythingFits) {
  util::Rng rng(303);
  DpWorkspace fast_ws, table_ws;
  for (int round = 0; round < 200; ++round) {
    const int n = static_cast<int>(rng.uniform_int(1, 12));
    std::vector<int> weights;
    int demand = 0;
    for (int i = 0; i < n; ++i) {
      const int w = static_cast<int>(rng.uniform_int(0, 8));  // incl. zeros
      weights.push_back(w);
      demand += w;
    }
    // Capacity at or above total demand: the fast path must fire and select
    // exactly what the unconditional table fill selects.
    const int capacity =
        std::max(1, demand + static_cast<int>(rng.uniform_int(0, 5)));
    const auto before = fast_ws.counters.fast_path;
    const auto fast = basic_dp(weights, capacity, fast_ws);
    ASSERT_EQ(fast_ws.counters.fast_path, before + 1) << "round " << round;
    const auto table = detail::basic_dp_table(weights, capacity, table_ws);
    ASSERT_EQ(fast, table) << "round " << round;
  }
}

TEST(FastPath, ReservationDpMatchesTablePathWhenEverythingFits) {
  util::Rng rng(404);
  DpWorkspace fast_ws, table_ws;
  for (int round = 0; round < 200; ++round) {
    const int n = static_cast<int>(rng.uniform_int(1, 10));
    std::vector<int> weights, shadows;
    int demand = 0, shadow_demand = 0;
    for (int i = 0; i < n; ++i) {
      const int w = static_cast<int>(rng.uniform_int(0, 8));
      weights.push_back(w);
      const int s = rng.bernoulli(0.5) ? w : 0;
      shadows.push_back(s);
      demand += w;
      shadow_demand += s;
    }
    const int capacity =
        std::max(1, demand + static_cast<int>(rng.uniform_int(0, 5)));
    const int shadow_cap =
        shadow_demand + static_cast<int>(rng.uniform_int(0, 5));
    const auto before = fast_ws.counters.fast_path;
    const auto fast =
        reservation_dp(weights, shadows, capacity, shadow_cap, fast_ws);
    ASSERT_EQ(fast_ws.counters.fast_path, before + 1) << "round " << round;
    const auto table = detail::reservation_dp_table(weights, shadows,
                                                    capacity, shadow_cap,
                                                    table_ws);
    ASSERT_EQ(fast, table) << "round " << round;
  }
}

TEST(DpCounters, EveryCallIsCounted) {
  DpWorkspace ws;
  const std::vector<int> weights{2, 3};
  basic_dp(weights, 10, ws);              // fast path
  basic_dp(weights, 4, ws);               // table
  basic_dp(weights, 4, ws);               // the same instance: table again
  const std::vector<int> shadows{0, 0};
  reservation_dp(weights, shadows, 10, 0, ws);  // fast path
  EXPECT_EQ(ws.counters.calls, 4u);
  EXPECT_EQ(ws.counters.fast_path, 2u);
  EXPECT_EQ(ws.counters.table_runs, 2u);
  EXPECT_GT(ws.counters.table_cells, 0u);
}

class BlockedDpTest : public ::testing::Test {
 protected:
  void TearDown() override { util::set_global_parallelism(1); }
};

TEST_F(BlockedDpTest, WideTableSelectsIdenticallyUnderParallelFill) {
  // Capacities of 8192 columns and more, filled with the process-wide pool
  // at 1 and at 4 threads: the selection must not depend on the pool size,
  // bit for bit (same optimum AND same tie-breaks).
  util::Rng rng(505);
  for (int round = 0; round < 6; ++round) {
    const int capacity = 8191 + static_cast<int>(rng.uniform_int(0, 9000));
    const int n = 8 + static_cast<int>(rng.uniform_int(0, 24));
    std::vector<int> weights;
    for (int i = 0; i < n; ++i)
      weights.push_back(static_cast<int>(rng.uniform_int(0, capacity / 2)));
    util::set_global_parallelism(1);
    DpWorkspace serial_ws;
    const auto serial = detail::basic_dp_table(weights, capacity, serial_ws);
    util::set_global_parallelism(4);
    DpWorkspace parallel_ws;
    const auto parallel =
        detail::basic_dp_table(weights, capacity, parallel_ws);
    ASSERT_EQ(parallel, serial) << "round " << round;
    // Logical work accounting must not depend on the pool size either.
    EXPECT_EQ(parallel_ws.counters.table_cells,
              serial_ws.counters.table_cells);
  }
}

class SimdDpTest : public ::testing::Test {
 protected:
  // Every test flips the process-wide SIMD toggle; always restore the
  // default (enabled — the runtime probe still decides the actual tier).
  void TearDown() override { set_dp_simd_enabled(true); }
};

TEST_F(SimdDpTest, DisabledTogglesReportScalar) {
  set_dp_simd_enabled(false);
  EXPECT_EQ(dp_simd_level(), DpSimdLevel::kScalar);
  EXPECT_FALSE(dp_simd_enabled());
  set_dp_simd_enabled(true);
  EXPECT_TRUE(dp_simd_enabled());
  // The enabled tier is whatever the host supports — just require a name.
  EXPECT_NE(dp_simd_level_name(dp_simd_level()), nullptr);
}

TEST_F(SimdDpTest, VectorRowFillSelectsIdenticallyToScalar) {
  // The contract for the vector kernels: across random wide instances,
  // the widest supported tier and the forced-scalar fill must produce the
  // same selection bit for bit — same optimum AND same tie-breaks — with
  // the same logical cell count.
  util::Rng rng(707);
  for (int round = 0; round < 25; ++round) {
    const int capacity = 128 + static_cast<int>(rng.uniform_int(0, 4000));
    const int n = 4 + static_cast<int>(rng.uniform_int(0, 40));
    std::vector<int> weights;
    for (int i = 0; i < n; ++i)
      weights.push_back(static_cast<int>(rng.uniform_int(0, capacity)));
    set_dp_simd_enabled(false);
    DpWorkspace scalar_ws;
    const auto scalar = detail::basic_dp_table(weights, capacity, scalar_ws);
    set_dp_simd_enabled(true);
    DpWorkspace simd_ws;
    const auto simd = detail::basic_dp_table(weights, capacity, simd_ws);
    ASSERT_EQ(simd, scalar) << "round " << round;
    EXPECT_EQ(simd_ws.counters.table_cells, scalar_ws.counters.table_cells);
    ASSERT_LE(total(weights, simd), capacity);
  }
}

TEST_F(SimdDpTest, VectorAndBlockedFillsComposeIdentically) {
  // A wide table under all four (simd x pool size) combinations: the
  // selection must agree across every one of them.
  util::Rng rng(808);
  const int capacity = 8192 + static_cast<int>(rng.uniform_int(0, 4096));
  std::vector<int> weights;
  for (int i = 0; i < 24; ++i)
    weights.push_back(static_cast<int>(rng.uniform_int(0, capacity / 2)));
  std::vector<std::vector<int>> results;
  for (const bool simd : {false, true}) {
    for (const int jobs : {1, 4}) {
      set_dp_simd_enabled(simd);
      util::set_global_parallelism(jobs);
      DpWorkspace ws;
      results.push_back(detail::basic_dp_table(weights, capacity, ws));
    }
  }
  util::set_global_parallelism(1);
  for (std::size_t i = 1; i < results.size(); ++i)
    ASSERT_EQ(results[i], results[0]) << "combination " << i;
}

TEST_F(SimdDpTest, BoundaryWidthsAgreeAcrossTiers) {
  // Capacities straddling the vector-width epilogues (multiples of 4, 8
  // and the 64-column keep words), including rows shorter than one word.
  for (const int capacity :
       {1, 3, 7, 8, 9, 10, 11, 63, 64, 65, 126, 127, 128, 129, 191, 192, 255,
        256, 320}) {
    const std::vector<int> weights{1,  2,  63, 64, 65, 127, 128,
                                   31, 96, 5,  capacity, capacity - 1};
    set_dp_simd_enabled(false);
    DpWorkspace scalar_ws;
    const auto scalar = detail::basic_dp_table(weights, capacity, scalar_ws);
    set_dp_simd_enabled(true);
    DpWorkspace simd_ws;
    ASSERT_EQ(detail::basic_dp_table(weights, capacity, simd_ws), scalar)
        << "capacity " << capacity;
  }
}

TEST(ReservationDp, WorkspaceReuseIsClean) {
  DpWorkspace ws;
  const std::vector<int> big{9, 9, 9};
  const std::vector<int> zeros{0, 0, 0};
  reservation_dp(big, zeros, 27, 10, ws);
  // A smaller follow-up problem must not see stale state.
  const std::vector<int> weights{2, 3};
  const std::vector<int> shadows{0, 0};
  const auto chosen = reservation_dp(weights, shadows, 5, 1, ws);
  EXPECT_EQ(chosen, (std::vector<int>{0, 1}));

  // Then both DPs on the same workspace, alternating wide and narrow tables
  // with values inside and past INT32_MAX ((capacity + 1) * (n^2 + 1)
  // exceeds it for the 5000- and 20000-item shapes): every selection must
  // equal the reference fill's, so no stale table row, keep word or
  // live-item entry survives from one call into the next.
  struct Shape {
    int n;
    int capacity;
    int shadow_capacity;
  };
  const Shape shapes[] = {{60, 200, 150},    // wide, 32-bit values
                          {12, 9, 4},        // narrow, 32-bit values
                          {5000, 120, 100},  // wide, 64-bit values
                          {20000, 6, 3}};    // narrow, 64-bit values
  util::Rng rng(909);
  for (int round = 0; round < 8; ++round) {
    const Shape& shape = shapes[round % 4];
    std::vector<int> w, s;
    for (int i = 0; i < shape.n; ++i) {
      const int weight =
          static_cast<int>(rng.uniform_int(0, shape.capacity + 2));
      w.push_back(weight);
      s.push_back(rng.bernoulli(0.5) ? weight : 0);
    }
    ASSERT_EQ(detail::reservation_dp_table(w, s, shape.capacity,
                                           shape.shadow_capacity, ws),
              testing::reference_reservation_dp(w, s, shape.capacity,
                                                shape.shadow_capacity))
        << "round " << round;
    ASSERT_EQ(detail::basic_dp_table(w, shape.capacity, ws),
              testing::reference_basic_dp(w, shape.capacity))
        << "round " << round;
  }
}

}  // namespace
}  // namespace es::core
