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
  table_ws.cache_enabled = false;
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
  table_ws.cache_enabled = false;
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

TEST(DpCache, RepeatedInstanceHitsAndSelectsIdentically) {
  DpWorkspace ws;
  // Over capacity so neither call resolves on the fast path.
  const std::vector<int> weights{7, 4, 6};
  const auto first = basic_dp(weights, 10, ws);
  EXPECT_EQ(ws.counters.table_runs, 1u);
  EXPECT_EQ(ws.counters.cache_hits, 0u);
  const auto second = basic_dp(weights, 10, ws);
  EXPECT_EQ(second, first);
  EXPECT_EQ(ws.counters.table_runs, 1u);  // answered from the cache
  EXPECT_EQ(ws.counters.cache_hits, 1u);
  // A different capacity is a different instance: miss, new table fill.
  basic_dp(weights, 9, ws);
  EXPECT_EQ(ws.counters.table_runs, 2u);
  EXPECT_EQ(ws.counters.cache_hits, 1u);
}

TEST(DpCache, BasicAndReservationInstancesNeverAlias) {
  DpWorkspace ws;
  // Same weights and capacity, both past the fast path, but reservation_dp
  // with a binding shadow must not be answered from the basic_dp cache
  // entry (or vice versa).
  const std::vector<int> weights{7, 4, 6};
  const auto basic = basic_dp(weights, 10, ws);
  EXPECT_EQ(basic, (std::vector<int>{1, 2}));
  const std::vector<int> shadows{7, 4, 6};
  const auto reservation = reservation_dp(weights, shadows, 10, 5, ws);
  EXPECT_EQ(reservation, (std::vector<int>{1}));
  // And re-posing the basic instance afterwards still answers correctly.
  EXPECT_EQ(basic_dp(weights, 10, ws), basic);
}

TEST(DpCache, DisabledWorkspaceSelectsIdentically) {
  util::Rng rng(505);
  DpWorkspace cached, uncached;
  uncached.cache_enabled = false;
  for (int round = 0; round < 200; ++round) {
    const int n = static_cast<int>(rng.uniform_int(1, 10));
    const int capacity = static_cast<int>(rng.uniform_int(1, 20));
    const int shadow_cap = static_cast<int>(rng.uniform_int(0, 12));
    std::vector<int> weights, shadows;
    for (int i = 0; i < n; ++i) {
      const int w = static_cast<int>(rng.uniform_int(1, 10));
      weights.push_back(w);
      shadows.push_back(rng.bernoulli(0.5) ? w : 0);
    }
    // Re-pose instances frequently so the cached workspace actually hits.
    for (int repeat = 0; repeat < 2; ++repeat) {
      ASSERT_EQ(basic_dp(weights, capacity, cached),
                basic_dp(weights, capacity, uncached))
          << "round " << round;
      ASSERT_EQ(reservation_dp(weights, shadows, capacity, shadow_cap, cached),
                reservation_dp(weights, shadows, capacity, shadow_cap,
                               uncached))
          << "round " << round;
    }
  }
  EXPECT_GT(cached.counters.cache_hits, 0u);
  EXPECT_EQ(uncached.counters.cache_hits, 0u);
}

TEST(DpCache, EvictionKeepsAnswersCorrect) {
  // More distinct instances than kCacheSlots: the round-robin eviction must
  // only ever cost extra table fills, never wrong selections.
  DpWorkspace ws;
  for (int extra = 0;
       extra < static_cast<int>(DpWorkspace::kDefaultCacheSlots) + 4;
       ++extra) {
    const std::vector<int> weights{7, 4, 6, 2 + extra};
    const auto chosen = basic_dp(weights, 10, ws);
    DpWorkspace fresh;
    fresh.cache_enabled = false;
    ASSERT_EQ(chosen, basic_dp(weights, 10, fresh)) << "extra " << extra;
  }
}

TEST(DpCounters, EveryCallIsCounted) {
  DpWorkspace ws;
  const std::vector<int> weights{2, 3};
  basic_dp(weights, 10, ws);              // fast path
  basic_dp(weights, 4, ws);               // table
  basic_dp(weights, 4, ws);               // cache hit
  const std::vector<int> shadows{0, 0};
  reservation_dp(weights, shadows, 10, 0, ws);  // fast path
  EXPECT_EQ(ws.counters.calls, 4u);
  EXPECT_EQ(ws.counters.fast_path, 2u);
  EXPECT_EQ(ws.counters.table_runs, 1u);
  EXPECT_EQ(ws.counters.cache_hits, 1u);
  EXPECT_GT(ws.counters.table_cells, 0u);
}

TEST(DpCache, ResizingClearsAndStillAnswersCorrectly) {
  DpWorkspace ws;
  const std::vector<int> weights{7, 4, 6};
  const auto first = basic_dp(weights, 10, ws);
  ws.set_cache_slots(2);  // shrink: previous entries must be gone
  EXPECT_EQ(basic_dp(weights, 10, ws), first);
  EXPECT_EQ(ws.counters.cache_hits, 0u);
  EXPECT_EQ(ws.counters.table_runs, 2u);
  // With 2 slots, a third distinct instance evicts the oldest; answers stay
  // correct regardless.
  for (int cap = 8; cap <= 12; ++cap) {
    DpWorkspace fresh;
    fresh.cache_enabled = false;
    EXPECT_EQ(basic_dp(weights, cap, ws), basic_dp(weights, cap, fresh));
  }
  ws.set_cache_slots(0);  // clamps to one slot, never zero
  EXPECT_EQ(basic_dp(weights, 10, ws), first);
}

TEST(DpCache, SurvivesMoreDistinctInstancesThanEightSlots) {
  // Regression for the widened cache: a working set of 32 instances
  // (distinct capacities, so distinct keys even after normalization)
  // cycled twice must hit on every instance the second time around — the
  // old 8-slot cache evicted each one long before it was re-posed.
  DpWorkspace ws;
  const std::vector<int> weights{20, 14, 16, 13};  // total 63: never fast
  for (int k = 0; k < 32; ++k) basic_dp(weights, 11 + k, ws);
  EXPECT_EQ(ws.counters.cache_hits, 0u);
  for (int k = 0; k < 32; ++k) basic_dp(weights, 11 + k, ws);
  EXPECT_EQ(ws.counters.cache_hits, 32u);
}

TEST(DpCache, NormalizedKeySharesEntriesAcrossIneligibleItems) {
  // Two instances differing only in items over capacity (which the fill
  // can never select) share one cache entry and one selection.
  DpWorkspace ws;
  const std::vector<int> a{7, 4, 11, 6};
  const std::vector<int> b{7, 4, 99, 6};  // item 2 still ineligible
  const auto first = basic_dp(a, 10, ws);
  EXPECT_EQ(ws.counters.table_runs, 1u);
  EXPECT_EQ(basic_dp(b, 10, ws), first);
  EXPECT_EQ(ws.counters.cache_hits, 1u);
  EXPECT_EQ(ws.counters.table_runs, 1u);
  // But an item crossing the eligibility boundary changes the key.
  const std::vector<int> c{7, 4, 9, 6};
  basic_dp(c, 10, ws);
  EXPECT_EQ(ws.counters.table_runs, 2u);
  // Sanity: the shared answer is what an uncached fill computes for b.
  DpWorkspace fresh;
  fresh.cache_enabled = false;
  EXPECT_EQ(first, basic_dp(b, 10, fresh));
}

class BlockedDpTest : public ::testing::Test {
 protected:
  void TearDown() override { util::set_global_parallelism(1); }
};

TEST_F(BlockedDpTest, WideTableSelectsIdenticallyUnderParallelFill) {
  // Capacities past the blocking threshold, filled serial vs parallel: the
  // parallel blocks must reproduce the serial fill's selection bit for bit
  // (same optimum AND same tie-breaks).
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
    // Logical work accounting must not depend on the fill strategy.
    EXPECT_EQ(parallel_ws.counters.table_cells,
              serial_ws.counters.table_cells);
  }
}

TEST_F(BlockedDpTest, NarrowTablesStaySerialAndIdentical) {
  // Below the width threshold the pool must not engage; selections across
  // parallelism settings are trivially identical because the same code runs.
  util::Rng rng(606);
  for (int round = 0; round < 20; ++round) {
    const int capacity = 1 + static_cast<int>(rng.uniform_int(0, 100));
    std::vector<int> weights;
    const int n = 1 + static_cast<int>(rng.uniform_int(0, 12));
    for (int i = 0; i < n; ++i)
      weights.push_back(static_cast<int>(rng.uniform_int(0, 20)));
    util::set_global_parallelism(1);
    DpWorkspace a;
    const auto serial = detail::basic_dp_table(weights, capacity, a);
    util::set_global_parallelism(4);
    DpWorkspace b;
    ASSERT_EQ(detail::basic_dp_table(weights, capacity, b), serial);
    ASSERT_EQ(total(weights, serial), brute_force_best(weights, capacity));
  }
}

TEST_F(BlockedDpTest, ParallelFillHandlesSkippedAndBoundaryItems) {
  // Zero-weight and over-capacity items interleaved with weights that land
  // exactly on block boundaries (multiples of the 8192 block width).
  const int capacity = 3 * 8192;
  const std::vector<int> weights{0,    8192, capacity + 1, 1,
                                 8191, 0,    16384,        3};
  util::set_global_parallelism(1);
  DpWorkspace serial_ws;
  const auto serial = detail::basic_dp_table(weights, capacity, serial_ws);
  util::set_global_parallelism(4);
  DpWorkspace parallel_ws;
  ASSERT_EQ(detail::basic_dp_table(weights, capacity, parallel_ws), serial);
  for (int index : serial) {
    EXPECT_NE(weights[static_cast<std::size_t>(index)], 0);
    EXPECT_LE(weights[static_cast<std::size_t>(index)], capacity);
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
  // Past the blocking threshold the SIMD row kernel runs inside the
  // blocked/parallel fill; all four (simd x parallel) combinations must
  // agree on the selection.
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

TEST(DpSpecCache, WarmedEntryHitsWithIdenticalSelection) {
  const std::vector<int> weights{20, 14, 16, 13};  // total 63: never fast
  const int capacity = 40;
  DpWorkspace fill_ws;
  const auto selected = detail::basic_dp_table(weights, capacity, fill_ws);

  DpWorkspace ws;
  warm_basic_dp_cache(weights, capacity, selected, ws);
  // Warming books no calls and no table runs on the owning workspace.
  EXPECT_EQ(ws.counters.calls, 0u);
  EXPECT_EQ(ws.counters.table_runs, 0u);
  const auto hit = basic_dp(weights, capacity, ws);
  EXPECT_EQ(hit, selected);
  // The hit counts as a cache hit AND a speculation hit; no table ran, so
  // calls == fast_path + cache_hits + table_runs still balances.
  EXPECT_EQ(ws.counters.calls, 1u);
  EXPECT_EQ(ws.counters.cache_hits, 1u);
  EXPECT_EQ(ws.counters.spec_hits, 1u);
  EXPECT_EQ(ws.counters.table_runs, 0u);
  // A second probe is an ordinary (non-speculative) hit.
  basic_dp(weights, capacity, ws);
  EXPECT_EQ(ws.counters.cache_hits, 2u);
  EXPECT_EQ(ws.counters.spec_hits, 1u);
}

TEST(DpSpecCache, WarmingAnAlreadyCachedInstanceIsANoOp) {
  const std::vector<int> weights{20, 14, 16, 13};
  DpWorkspace ws;
  const auto selected = basic_dp(weights, 40, ws);  // table run + store
  warm_basic_dp_cache(weights, 40, selected, ws);
  // The entry stays non-speculative: the next hit books no spec_hits.
  basic_dp(weights, 40, ws);
  EXPECT_EQ(ws.counters.cache_hits, 1u);
  EXPECT_EQ(ws.counters.spec_hits, 0u);
}

TEST(DpSpecCache, EvictedUnprobedEntryCountsAsDiscarded) {
  DpWorkspace ws;
  ws.set_cache_slots(2);
  const std::vector<int> weights{20, 14, 16, 13};
  DpWorkspace fill_ws;
  warm_basic_dp_cache(weights, 40,
                      detail::basic_dp_table(weights, 40, fill_ws), ws);
  // Two distinct instances wrap the 2-slot round-robin and overwrite the
  // never-probed speculative entry.
  basic_dp(weights, 41, ws);
  basic_dp(weights, 42, ws);
  EXPECT_EQ(ws.counters.spec_discarded, 1u);
  EXPECT_EQ(ws.counters.spec_hits, 0u);
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
