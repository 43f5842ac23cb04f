// The DP table fills against the reference recurrences in dp_reference.hpp,
// selection for selection: a fill may change how it computes, never which
// of several tied sets it picks.  Every instance runs on the scalar tier
// and on the widest tier the host supports.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/dp.hpp"
#include "core/dp_reference.hpp"
#include "util/rng.hpp"

namespace es::core {
namespace {

class DpReference : public ::testing::Test {
 protected:
  void TearDown() override { set_dp_simd_enabled(true); }
};

struct Instance {
  std::vector<int> weights;
  std::vector<int> shadows;  ///< frenum: 0 or the item's weight
  int capacity = 0;
  int shadow_capacity = 0;
};

int draw(util::Rng& rng, int lo, int hi) {
  return static_cast<int>(rng.uniform_int(lo, hi));
}

/// Items drawn from a few distinct sizes, so many subsets tie on
/// utilization, with zero-weight and oversize items mixed in.  The shadow
/// capacity lands below, at or above the capacity.
Instance tie_heavy(util::Rng& rng, int n, int capacity) {
  Instance instance;
  instance.capacity = capacity;
  std::vector<int> sizes(static_cast<std::size_t>(draw(rng, 1, 4)));
  for (int& size : sizes) size = draw(rng, 1, std::max(1, capacity / 3));
  for (int i = 0; i < n; ++i) {
    const int roll = draw(rng, 0, 19);
    int w = sizes[static_cast<std::size_t>(
        draw(rng, 0, static_cast<int>(sizes.size()) - 1))];
    if (roll == 0) w = 0;
    if (roll == 1) w = capacity + draw(rng, 1, 40);
    instance.weights.push_back(w);
    instance.shadows.push_back(rng.bernoulli(0.5) ? w : 0);
  }
  switch (draw(rng, 0, 3)) {
    case 0:
      instance.shadow_capacity = 0;
      break;
    case 1:
      instance.shadow_capacity = draw(rng, 0, capacity);
      break;
    case 2:
      instance.shadow_capacity = capacity;
      break;
    default:
      instance.shadow_capacity = draw(rng, capacity, 2 * capacity);
      break;
  }
  return instance;
}

/// (capacity + 1) * (n^2 + 1): every table value stays below it.
std::int64_t value_bound(std::size_t n, int capacity) {
  const auto items = static_cast<std::int64_t>(n);
  return (static_cast<std::int64_t>(capacity) + 1) * (items * items + 1);
}

void expect_basic_matches(const Instance& instance, DpWorkspace& ws,
                          const char* label) {
  const auto expected =
      testing::reference_basic_dp(instance.weights, instance.capacity);
  for (const bool simd : {false, true}) {
    set_dp_simd_enabled(simd);
    ASSERT_EQ(detail::basic_dp_table(instance.weights, instance.capacity, ws),
              expected)
        << label << " simd " << simd << " n " << instance.weights.size()
        << " capacity " << instance.capacity;
  }
}

void expect_reservation_matches(const Instance& instance, DpWorkspace& ws,
                                const char* label) {
  const auto expected = testing::reference_reservation_dp(
      instance.weights, instance.shadows, instance.capacity,
      instance.shadow_capacity);
  for (const bool simd : {false, true}) {
    set_dp_simd_enabled(simd);
    ASSERT_EQ(detail::reservation_dp_table(instance.weights, instance.shadows,
                                           instance.capacity,
                                           instance.shadow_capacity, ws),
              expected)
        << label << " simd " << simd << " n " << instance.weights.size()
        << " capacity " << instance.capacity << " shadow capacity "
        << instance.shadow_capacity;
  }
}

TEST_F(DpReference, BasicDpOnTieHeavyInstances) {
  util::Rng rng(1301);
  DpWorkspace ws;
  for (int round = 0; round < 1500; ++round) {
    const bool big = round % 15 == 0;
    const Instance instance = tie_heavy(rng, draw(rng, 1, big ? 250 : 40),
                                        draw(rng, 1, big ? 4096 : 96));
    expect_basic_matches(instance, ws, "tie-heavy");
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST_F(DpReference, ReservationDpOnTieHeavyInstances) {
  util::Rng rng(1302);
  DpWorkspace ws;
  for (int round = 0; round < 1500; ++round) {
    const bool big = round % 50 == 0;
    const Instance instance = tie_heavy(rng, draw(rng, 1, big ? 250 : 40),
                                        draw(rng, 1, big ? 224 : 48));
    expect_reservation_matches(instance, ws, "tie-heavy");
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST_F(DpReference, BasicDpOnNarrowTables) {
  util::Rng rng(606);
  DpWorkspace ws;
  for (int round = 0; round < 20; ++round) {
    Instance instance;
    instance.capacity = 1 + draw(rng, 0, 100);
    const int n = 1 + draw(rng, 0, 12);
    for (int i = 0; i < n; ++i) instance.weights.push_back(draw(rng, 0, 20));
    expect_basic_matches(instance, ws, "narrow");
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST_F(DpReference, BasicDpOnWideTables) {
  // Tables of 8192 and more columns: the granularity-1 regime of a machine
  // with many thousand processors.
  DpWorkspace ws;
  util::Rng rng(505);
  for (int round = 0; round < 6; ++round) {
    Instance instance;
    instance.capacity = 8191 + draw(rng, 0, 9000);
    const int n = 8 + draw(rng, 0, 24);
    for (int i = 0; i < n; ++i)
      instance.weights.push_back(draw(rng, 0, instance.capacity / 2));
    expect_basic_matches(instance, ws, "wide");
    if (::testing::Test::HasFatalFailure()) return;
  }
  util::Rng fixed_n_rng(808);
  Instance instance;
  instance.capacity = 8192 + draw(fixed_n_rng, 0, 4096);
  for (int i = 0; i < 24; ++i)
    instance.weights.push_back(draw(fixed_n_rng, 0, instance.capacity / 2));
  expect_basic_matches(instance, ws, "wide, 24 items");
}

TEST_F(DpReference, BasicDpWithSkippedAndWordBoundaryItems) {
  // Zero-weight and over-capacity items interleaved with weights that are
  // multiples of the 64-column keep word, on a 3 * 8192-column table.
  Instance instance;
  instance.capacity = 3 * 8192;
  instance.weights = {0, 8192, instance.capacity + 1, 1, 8191, 0, 16384, 3};
  DpWorkspace ws;
  expect_basic_matches(instance, ws, "skipped and boundary");
}

TEST_F(DpReference, BasicDpAcrossTheInt32Bound) {
  // Pairs of capacities whose value bound sits just inside and just past
  // INT32_MAX: 250 items with 34358 / 34359 grains, 5000 items with 84 / 85.
  constexpr std::int64_t kInt32Max = std::numeric_limits<std::int32_t>::max();
  util::Rng rng(1303);
  DpWorkspace ws;
  for (const auto& [n, inside] : {std::pair{250, 34358}, std::pair{5000, 84}}) {
    const auto items = static_cast<std::size_t>(n);
    ASSERT_LE(value_bound(items, inside), kInt32Max);
    ASSERT_GT(value_bound(items, inside + 1), kInt32Max);
    for (const int capacity : {inside, inside + 1}) {
      for (int round = 0; round < 2; ++round) {
        expect_basic_matches(tie_heavy(rng, n, capacity), ws, "bound");
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST_F(DpReference, ReservationDpAcrossTheInt32Bound) {
  // 5000 items: 84 grains keep the bound inside INT32_MAX, 85 go past it.
  // Shadow capacities below and above the capacity.
  constexpr std::int64_t kInt32Max = std::numeric_limits<std::int32_t>::max();
  ASSERT_LE(value_bound(5000, 84), kInt32Max);
  ASSERT_GT(value_bound(5000, 85), kInt32Max);
  util::Rng rng(1304);
  DpWorkspace ws;
  for (const int capacity : {84, 85}) {
    for (const int shadow_capacity : {0, 20, capacity, 100}) {
      Instance instance = tie_heavy(rng, 5000, capacity);
      instance.shadow_capacity = shadow_capacity;
      expect_reservation_matches(instance, ws, "bound");
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace es::core
