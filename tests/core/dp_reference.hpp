// Reference recurrences for core::detail::basic_dp_table and
// core::detail::reservation_dp_table: the two knapsack fills exactly as the
// scheduler first shipped them — 64-bit values, one table updated in place,
// a keep bit for every (item, cell) pair, and the shadow axis run out to
// the full shadow capacity.  Deliberately plain: any faster fill must pick
// the same set as these, ties included.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace es::testing {

/// value = weight * (n^2 + 1) + (n - index): one more grain always wins,
/// and among equal-utilization sets the one with earlier (and more) items.
inline std::int64_t reference_item_value(int weight, std::size_t index,
                                         std::size_t n) {
  const std::int64_t base =
      static_cast<std::int64_t>(n) * static_cast<std::int64_t>(n) + 1;
  return static_cast<std::int64_t>(weight) * base +
         static_cast<std::int64_t>(n - index);
}

inline std::vector<int> reference_basic_dp(std::span<const int> weights,
                                           int capacity) {
  const std::size_t n = weights.size();
  if (n == 0 || capacity <= 0) return {};
  const std::size_t cols = static_cast<std::size_t>(capacity) + 1;
  std::vector<std::int64_t> value(cols, 0);
  std::vector<bool> keep(n * cols, false);
  for (std::size_t i = 0; i < n; ++i) {
    const int w = weights[i];
    if (w == 0 || w > capacity) continue;
    const std::int64_t v = reference_item_value(w, i, n);
    for (std::size_t c = cols - 1; c >= static_cast<std::size_t>(w); --c) {
      const std::int64_t candidate =
          value[c - static_cast<std::size_t>(w)] + v;
      if (candidate > value[c]) {
        value[c] = candidate;
        keep[i * cols + c] = true;
      }
    }
  }
  std::vector<int> selected;
  std::size_t c = cols - 1;
  for (std::size_t i = n; i-- > 0;) {
    if (keep[i * cols + c]) {
      selected.push_back(static_cast<int>(i));
      c -= static_cast<std::size_t>(weights[i]);
    }
  }
  std::reverse(selected.begin(), selected.end());
  return selected;
}

inline std::vector<int> reference_reservation_dp(
    std::span<const int> weights, std::span<const int> shadow_weights,
    int capacity, int shadow_capacity) {
  const std::size_t n = weights.size();
  if (n == 0 || capacity <= 0) return {};
  const std::size_t c1 = static_cast<std::size_t>(capacity) + 1;
  const std::size_t c2 = static_cast<std::size_t>(shadow_capacity) + 1;
  const std::size_t cells = c1 * c2;
  std::vector<std::int64_t> value(cells, 0);
  std::vector<bool> keep(n * cells, false);
  for (std::size_t i = 0; i < n; ++i) {
    const int w = weights[i];
    const int s = shadow_weights[i];
    if (w == 0 || w > capacity || s > shadow_capacity) continue;
    const std::int64_t v = reference_item_value(w, i, n);
    for (std::size_t a = c1 - 1; a >= static_cast<std::size_t>(w); --a) {
      for (std::size_t b = c2 - 1; b >= static_cast<std::size_t>(s); --b) {
        const std::int64_t candidate =
            value[(a - static_cast<std::size_t>(w)) * c2 + b -
                  static_cast<std::size_t>(s)] +
            v;
        if (candidate > value[a * c2 + b]) {
          value[a * c2 + b] = candidate;
          keep[i * cells + a * c2 + b] = true;
        }
        if (b == 0) break;  // avoid size_t underflow
      }
      if (a == 0) break;
    }
  }
  std::vector<int> selected;
  std::size_t a = c1 - 1;
  std::size_t b = c2 - 1;
  for (std::size_t i = n; i-- > 0;) {
    if (keep[i * cells + a * c2 + b]) {
      selected.push_back(static_cast<int>(i));
      a -= static_cast<std::size_t>(weights[i]);
      b -= static_cast<std::size_t>(shadow_weights[i]);
    }
  }
  std::reverse(selected.begin(), selected.end());
  return selected;
}

}  // namespace es::testing
