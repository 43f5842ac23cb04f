#include "core/dp.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <limits>
#include <type_traits>

#include "util/check.hpp"

// The vector tiers of the row kernel: compiled only on x86-64 and only when
// the build enables them (ES_DP_SIMD, default on).  Per-function target
// attributes keep the rest of the translation unit at the baseline ISA; the
// host's actual support is probed once at runtime.
#if defined(ES_DP_SIMD) && (defined(__x86_64__) || defined(_M_X64))
#define ES_DP_SIMD_X86 1
#include <immintrin.h>
#else
#define ES_DP_SIMD_X86 0
#endif

namespace es::core {
namespace {

/// Secondary-objective encoding: value = weight * kPriorityBase + (n - i),
/// so any extra grain of utilization dominates, and among equal-utilization
/// sets the one containing earlier (and more) jobs wins.  kPriorityBase must
/// exceed the largest possible secondary sum.
std::int64_t priority_base(std::size_t n) {
  return static_cast<std::int64_t>(n) * static_cast<std::int64_t>(n) + 1;
}

std::int64_t item_value(int weight, std::size_t index, std::size_t n,
                        std::int64_t base) {
  return static_cast<std::int64_t>(weight) * base +
         static_cast<std::int64_t>(n - index);
}

/// Items the table fill can never select: weight 0, weight over the
/// capacity, or (Reservation_DP) shadow weight over the shadow capacity.
bool fill_skips(int weight, int shadow_weight, int capacity,
                int shadow_capacity) {
  return weight == 0 || weight > capacity || shadow_weight > shadow_capacity;
}

/// Fast path: when every positive-weight item fits together (total demand
/// <= capacity, and total shadow demand <= shadow capacity), "take them
/// all" is the unique optimum — each item adds its full weight of primary
/// value plus a positive tie-break term, so no proper subset can match it.
/// Returns true and fills `selected` (ascending) when it applies.
bool fits_entirely(std::span<const int> weights,
                   std::span<const int> shadow_weights, int capacity,
                   int shadow_capacity, std::vector<int>& selected) {
  std::int64_t total = 0;
  std::int64_t shadow_total = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const int w = weights[i];
    ES_EXPECTS(w >= 0);
    if (w == 0) continue;
    total += w;
    if (!shadow_weights.empty()) shadow_total += shadow_weights[i];
  }
  if (total > capacity || shadow_total > shadow_capacity) return false;
  selected.clear();
  for (std::size_t i = 0; i < weights.size(); ++i)
    if (weights[i] > 0) selected.push_back(static_cast<int>(i));
  return true;
}

/// Scope timer accumulating into DpCounters::table_seconds — the
/// denominator behind `simrun --perf-report`'s ns-per-DP-invocation row.
class TableTimer {
 public:
  explicit TableTimer(DpWorkspace& ws)
      : ws_(&ws), start_(std::chrono::steady_clock::now()) {}
  TableTimer(const TableTimer&) = delete;
  TableTimer& operator=(const TableTimer&) = delete;
  ~TableTimer() {
    ws_->counters.table_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
  }

 private:
  DpWorkspace* ws_;
  std::chrono::steady_clock::time_point start_;
};

std::atomic<bool> g_dp_simd_enabled{true};

DpSimdLevel detect_dp_simd_level() {
#if ES_DP_SIMD_X86
  if (__builtin_cpu_supports("avx2")) return DpSimdLevel::kAvx2;
#endif
  return DpSimdLevel::kScalar;
}

}  // namespace

DpSimdLevel dp_simd_level() {
  static const DpSimdLevel detected = detect_dp_simd_level();
  return g_dp_simd_enabled.load(std::memory_order_relaxed)
             ? detected
             : DpSimdLevel::kScalar;
}

void set_dp_simd_enabled(bool enabled) {
  g_dp_simd_enabled.store(enabled, std::memory_order_relaxed);
}

bool dp_simd_enabled() {
  return g_dp_simd_enabled.load(std::memory_order_relaxed);
}

const char* dp_simd_level_name(DpSimdLevel level) {
  switch (level) {
    case DpSimdLevel::kAvx2:
      return "avx2";
    case DpSimdLevel::kScalar:
      return "scalar";
  }
  return "scalar";
}

namespace detail {

namespace {

// --- the row kernel ----------------------------------------------------------

#if ES_DP_SIMD_X86
/// A vector of 32 bytes of T: the AVX2 tier's lanes.
template <typename T>
struct Lanes;
template <>
struct Lanes<std::int32_t> {
  typedef std::int32_t Vec __attribute__((vector_size(32)));
};
template <>
struct Lanes<std::int64_t> {
  typedef std::int64_t Vec __attribute__((vector_size(32)));
};

/// A vector compare result's lane bits, with the tier's instruction.
struct Avx2Mask {
  template <typename Vec>
  __attribute__((target("avx2"))) static int bits(Vec take) {
    if constexpr (sizeof(take[0]) == 4)
      return _mm256_movemask_ps((__m256)take);
    else
      return _mm256_movemask_pd((__m256d)take);
  }
};
#endif  // ES_DP_SIMD_X86

// One row step of Basic_DP, in place over the columns [lo, hi), lo >= shift:
//   row[c] = max(row[c], row[c - shift] + v),
// setting bit c of the row's keep words (bit c & 63 of keep_row[c >> 6])
// where the donor wins.  The keep words must be clear on entry.  Columns
// run from hi down to lo: one at a time down to a multiple of the vector
// width, then a vector group at a time — a group's bits all land in one
// word, which collects them in a register and is OR-ed into the table once
// — then one at a time for the rest.  Descending is what makes one row
// enough: a step (a column or a group [g, g + L)) loads its own cells and
// its donor cells [g - shift, g - shift + L) before it stores, and every
// later step reads only cells below g, so every read sees the previous
// row.  Every candidate stays below the table's value bound (see
// fits_int32), so the sums never overflow T.
//
// kBytes is the vector width of the ISA tier (sizeof(T) for the scalar
// tier); `Mask` turns a vector compare result into its lane bits with the
// tier's instruction.
template <typename T, std::size_t kBytes, typename Mask>
[[gnu::always_inline]] inline void fill_row(T* row, std::size_t shift,
                                            std::uint64_t* keep_row,
                                            std::size_t lo, std::size_t hi,
                                            T v) {
  constexpr std::size_t kLanes = kBytes / sizeof(T);
  const auto take_bit = [&](std::size_t c) -> std::uint64_t {
    const T current = row[c];
    const T candidate = row[c - shift] + v;
    const bool take = candidate > current;
    row[c] = take ? candidate : current;
    return take ? 1 : 0;
  };
  std::size_t c = hi;  // columns [c, hi) are done
  while (c > lo && c % kLanes != 0) {
    --c;
    keep_row[c >> 6] |= take_bit(c) << (c & 63);
  }
  while (c >= lo + kLanes) {
    const std::size_t word_start = std::max(lo, (c - 1) & ~std::size_t{63});
    std::uint64_t word = 0;
    while (c >= word_start + kLanes) {
      c -= kLanes;
      if constexpr (kLanes == 1) {
        word |= take_bit(c) << (c & 63);
      } else {
#if ES_DP_SIMD_X86
        using Vec = typename Lanes<T>::Vec;
        Vec current;
        Vec donated;
        std::memcpy(&current, row + c, sizeof current);
        std::memcpy(&donated, row + (c - shift), sizeof donated);
        const Vec candidate = donated + v;
        const auto take = candidate > current;
        const Vec best = take ? candidate : current;
        std::memcpy(row + c, &best, sizeof best);
        word |= std::uint64_t{static_cast<unsigned>(Mask::bits(take))}
                << (c & 63);
#endif
      }
    }
    keep_row[c >> 6] |= word;
  }
  while (c > lo) {
    --c;
    keep_row[c >> 6] |= take_bit(c) << (c & 63);
  }
}

template <typename T>
using RowFill = void (*)(T*, std::size_t, std::uint64_t*, std::size_t,
                         std::size_t, T);

template <typename T>
void fill_row_scalar(T* row, std::size_t shift, std::uint64_t* keep_row,
                     std::size_t lo, std::size_t hi, T v) {
  fill_row<T, sizeof(T), void>(row, shift, keep_row, lo, hi, v);
}

#if ES_DP_SIMD_X86
// `flatten` inlines the kernel and, through it, the tier's mask function
// into the target-attributed body, so the vector code is compiled for the
// tier's ISA.
template <typename T>
__attribute__((target("avx2"), flatten)) void fill_row_avx2(
    T* row, std::size_t shift, std::uint64_t* keep_row, std::size_t lo,
    std::size_t hi, T v) {
  fill_row<T, 32, Avx2Mask>(row, shift, keep_row, lo, hi, v);
}
#endif  // ES_DP_SIMD_X86

template <typename T>
RowFill<T> pick_row_fill() {
#if ES_DP_SIMD_X86
  if (dp_simd_level() == DpSimdLevel::kAvx2) return fill_row_avx2<T>;
#endif
  return fill_row_scalar<T>;
}

// --- the two fills -----------------------------------------------------------

/// Every cell holds the value of a set packed within its column's capacity:
/// at most capacity * base of utilization plus a tie-break sum of at most
/// n(n+1)/2 < base = n^2 + 1.  So every value, and every candidate the
/// kernel forms, is below (capacity + 1) * base, and a table whose bound
/// fits fills with int32_t.
bool fits_int32(std::size_t n, int capacity) {
  return priority_base(n) <= std::numeric_limits<std::int32_t>::max() /
                                 (static_cast<std::int64_t>(capacity) + 1);
}

template <typename T>
DpTable<T>& table_of(DpWorkspace& ws) {
  if constexpr (std::is_same_v<T, std::int32_t>)
    return ws.table32;
  else
    return ws.table64;
}

/// Keep rows are padded to whole 64-bit words.
std::size_t keep_words(std::size_t cols) { return (cols + 63) / 64; }

bool keep_bit(const std::uint64_t* keep_row, std::size_t c) {
  return (keep_row[c >> 6] >> (c & 63)) & 1;
}

/// Items the fill can select, ascending: the rest are never selected.
/// Reservation_DP's split into two 1-D knapsacks rests on the frenum check.
///
/// Dominated copies are dropped too: an item is live only if fewer than
/// floor(C / w) earlier live items have its weight w, counted per class for
/// Reservation_DP — A items (shadow weight 0) against C, B items (shadow
/// weight w) against min(S, C); Basic_DP's items are all A.  C is the
/// capacity and S the shadow capacity.
///
/// This is exact.  Say an optimal set at some column, over the items up to
/// a dropped one, held it.  Its items of weight w weigh at most the column,
/// so at most C, and its B items at most the shadow column, so at most
/// min(S, C), the most the backtrack reads.  So besides the dropped item it
/// holds at most m - 1 items of its weight and class, m = floor(C / w)
/// (for B, floor(min(S, C) / w)), and one of the m earlier live copies is
/// unused.  Swapping the dropped item for that copy keeps the weight and
/// the shadow weight and strictly raises the tie-break term n - i: a
/// contradiction.  So no optimal set at any column holds a dropped item.
/// Every value V_k is the same with or without its row, its keep bit would
/// be 0 in every column (its candidate falls short strictly), and the
/// backtrack takes the same items.
///
/// `ws.live_weight` holds, per weight, the weight of its live copies so far
/// (A's at [w], B's at [C + 1 + w]); an item is live while that plus w fits
/// its class's capacity, which is the count rule without a division.  Only
/// a live item's entry is ever raised, so zeroing those leaves the entries
/// all zero for the next call.
void collect_live(std::span<const int> weights,
                  std::span<const int> shadow_weights, int capacity,
                  int shadow_capacity, DpWorkspace& ws) {
  const std::size_t cols = static_cast<std::size_t>(capacity) + 1;
  const int b_capacity = std::min(shadow_capacity, capacity);
  const auto shadow_of = [&](std::size_t i) {
    return shadow_weights.empty() ? 0 : shadow_weights[i];
  };
  const auto live_weight_of = [&](std::size_t i) -> int& {
    return ws.live_weight[(shadow_of(i) > 0 ? cols : 0) +
                          static_cast<std::size_t>(weights[i])];
  };
  ws.live.clear();
  ws.live_weight.resize(2 * cols);  // all zero between calls
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const int w = weights[i];
    const int s = shadow_of(i);
    ES_EXPECTS(w >= 0 && s >= 0);
    ES_EXPECTS(s == 0 || s == w);  // frenum is 0 or the job size
    if (fill_skips(w, s, capacity, shadow_capacity)) continue;
    int& taken = live_weight_of(i);
    if (taken <= (s > 0 ? b_capacity : capacity) - w) {
      taken += w;
      ws.live.push_back(i);
    }
  }
  for (const std::size_t i : ws.live) live_weight_of(i) = 0;
}

/// Basic_DP in one row, filled in place: after row k (the k-th live item)
/// the row holds V_k, and the item's keep bits are its own row of words.
template <typename T>
std::vector<int> basic_fill(std::span<const int> weights, int capacity,
                            DpWorkspace& ws) {
  const std::size_t n = weights.size();
  const std::int64_t base = priority_base(n);
  const std::size_t cols = static_cast<std::size_t>(capacity) + 1;
  const std::size_t words = keep_words(cols);
  const RowFill<T> fill = pick_row_fill<T>();

  collect_live(weights, {}, capacity, 0, ws);
  std::vector<T>& row = table_of<T>(ws).a_rows;
  row.assign(cols, 0);
  ws.keep.assign(ws.live.size() * words, 0);

  for (std::size_t k = 0; k < ws.live.size(); ++k) {
    const std::size_t i = ws.live[k];
    // A live item fits (w <= capacity); columns below w keep V_{k-1}.
    const std::size_t w = static_cast<std::size_t>(weights[i]);
    const T v = static_cast<T>(item_value(weights[i], i, n, base));
    fill(row.data(), w, ws.keep.data() + k * words, w, cols, v);
  }

  std::vector<int> selected;
  std::size_t c = cols - 1;
  for (std::size_t k = ws.live.size(); k-- > 0;) {
    if (keep_bit(ws.keep.data() + k * words, c)) {
      const std::size_t i = ws.live[k];
      selected.push_back(static_cast<int>(i));
      c -= static_cast<std::size_t>(weights[i]);
    }
  }
  std::reverse(selected.begin(), selected.end());
  return selected;
}

/// One 0/1-knapsack row over `cols` columns: out[c] is the best of
/// prev[c] and prev[c - w] + v.
template <typename T>
void knapsack_row(const T* __restrict prev, T* __restrict out,
                  std::size_t cols, std::size_t w, T v) {
  std::copy(prev, prev + w, out);
  for (std::size_t c = w; c < cols; ++c)
    out[c] = std::max(prev[c], prev[c - w] + v);
}

/// max over x <= min(a, b) of fb[x] + fa[a - x]: the best value of a set
/// whose B items weigh x and whose A items fit in the rest of a.
template <typename T>
T best_split(const T* fa, const T* fb, std::size_t a, std::size_t b) {
  T best = fa[a];  // fb[0] is 0
  for (std::size_t x = 1; x <= std::min(a, b); ++x)
    best = std::max(best, static_cast<T>(fb[x] + fa[a - x]));
  return best;
}

/// Reservation_DP as two 1-D knapsacks.  Shadow weights are 0 or the
/// weight (collect_live checks it), so the live items split into A
/// (shadow weight 0) and B (shadow weight = weight).  A set fits (a, b)
/// exactly when its B weight x <= min(a, b) and its A weight <= a - x, so
///   V_k(a, b) = max over x <= min(a, b) of FB_k(x) + FA_k(a - x),
/// V_k the 2-D table after the first k live items and FA_k / FB_k the
/// plain knapsack rows over their A items (columns 0 .. C) and B items
/// (columns 0 .. min(S, C); a live B item weighs at most that), C the
/// capacity and S the shadow capacity.  `a_rows` holds FA after each A
/// item and `b_rows` FB after each B item; row 0 of each is all zeros.
///
/// The backtrack starts from t = V_L(C, min(S, C)) and walks k downward,
/// taking item k (weights (w, s)) iff V_{k-1}(a, b) < t and then moving
/// t, a and b by (v, w, s).  Since t = V_k(a, b) = max(V_{k-1}(a, b),
/// V_{k-1}(a - w, b - s) + v), that is the 2-D table's keep bit
/// V_{k-1}(a - w, b - s) + v > V_{k-1}(a, b): the same items are taken.
template <typename T>
std::vector<int> reservation_fill(std::span<const int> weights,
                                  std::span<const int> shadow_weights,
                                  int capacity, int shadow_capacity,
                                  DpWorkspace& ws) {
  DpTable<T>& table = table_of<T>(ws);
  const std::size_t n = weights.size();
  const std::int64_t base = priority_base(n);
  const std::size_t cols_a = static_cast<std::size_t>(capacity) + 1;
  const std::size_t cols_b =
      static_cast<std::size_t>(std::min(shadow_capacity, capacity)) + 1;

  collect_live(weights, shadow_weights, capacity, shadow_capacity, ws);
  const std::size_t count_b = static_cast<std::size_t>(
      std::count_if(ws.live.begin(), ws.live.end(),
                    [&](std::size_t i) { return shadow_weights[i] > 0; }));
  const std::size_t count_a = ws.live.size() - count_b;
  // Every row past row 0 is written in full before it is read.
  table.a_rows.resize((count_a + 1) * cols_a);
  table.b_rows.resize((count_b + 1) * cols_b);
  std::fill_n(table.a_rows.begin(), cols_a, T{0});
  std::fill_n(table.b_rows.begin(), cols_b, T{0});

  const auto value_of = [&](std::size_t i) {
    return static_cast<T>(item_value(weights[i], i, n, base));
  };
  T* fa = table.a_rows.data();
  T* fb = table.b_rows.data();
  for (const std::size_t i : ws.live) {
    const std::size_t w = static_cast<std::size_t>(weights[i]);
    if (shadow_weights[i] == 0) {
      knapsack_row(fa, fa + cols_a, cols_a, w, value_of(i));
      fa += cols_a;
    } else {
      knapsack_row(fb, fb + cols_b, cols_b, w, value_of(i));
      fb += cols_b;
    }
  }

  std::vector<int> selected;
  std::size_t a = cols_a - 1;
  std::size_t b = cols_b - 1;
  T t = best_split(fa, fb, a, b);
  for (std::size_t k = ws.live.size(); k-- > 0;) {
    const std::size_t i = ws.live[k];
    const bool shadowed = shadow_weights[i] > 0;
    if (shadowed)
      fb -= cols_b;
    else
      fa -= cols_a;
    if (best_split(fa, fb, a, b) < t) {
      selected.push_back(static_cast<int>(i));
      t -= value_of(i);
      a -= static_cast<std::size_t>(weights[i]);
      if (shadowed) b -= static_cast<std::size_t>(weights[i]);
    }
  }
  std::reverse(selected.begin(), selected.end());
  return selected;
}

}  // namespace

std::vector<int> basic_dp_table(std::span<const int> weights, int capacity,
                                DpWorkspace& ws) {
  ES_EXPECTS(capacity >= 0);
  const std::size_t n = weights.size();
  if (n == 0 || capacity == 0) return {};
  TableTimer timer(ws);
  ++ws.counters.table_runs;
  ws.counters.table_cells += n * (static_cast<std::size_t>(capacity) + 1);
  return fits_int32(n, capacity)
             ? basic_fill<std::int32_t>(weights, capacity, ws)
             : basic_fill<std::int64_t>(weights, capacity, ws);
}

std::vector<int> reservation_dp_table(std::span<const int> weights,
                                      std::span<const int> shadow_weights,
                                      int capacity, int shadow_capacity,
                                      DpWorkspace& ws) {
  ES_EXPECTS(capacity >= 0);
  ES_EXPECTS(shadow_capacity >= 0);
  ES_EXPECTS(weights.size() == shadow_weights.size());
  const std::size_t n = weights.size();
  if (n == 0 || capacity == 0) return {};
  TableTimer timer(ws);
  ++ws.counters.table_runs;
  ws.counters.table_cells += n * (static_cast<std::size_t>(capacity) + 1) *
                             (static_cast<std::size_t>(shadow_capacity) + 1);
  return fits_int32(n, capacity)
             ? reservation_fill<std::int32_t>(weights, shadow_weights,
                                              capacity, shadow_capacity, ws)
             : reservation_fill<std::int64_t>(weights, shadow_weights,
                                              capacity, shadow_capacity, ws);
}

}  // namespace detail

std::vector<int> basic_dp(std::span<const int> weights, int capacity,
                          DpWorkspace& ws) {
  ES_EXPECTS(capacity >= 0);
  ++ws.counters.calls;
  if (weights.empty() || capacity == 0) {
    ++ws.counters.fast_path;  // trivially empty: no table
    return {};
  }

  std::vector<int> selected;
  if (fits_entirely(weights, {}, capacity, 0, selected)) {
    ++ws.counters.fast_path;
    return selected;
  }
  return detail::basic_dp_table(weights, capacity, ws);
}

std::vector<int> reservation_dp(std::span<const int> weights,
                                std::span<const int> shadow_weights,
                                int capacity, int shadow_capacity,
                                DpWorkspace& ws) {
  ES_EXPECTS(capacity >= 0);
  ES_EXPECTS(shadow_capacity >= 0);
  ES_EXPECTS(weights.size() == shadow_weights.size());
  ++ws.counters.calls;
  if (weights.empty() || capacity == 0) {
    ++ws.counters.fast_path;  // trivially empty: no table
    return {};
  }

  std::vector<int> selected;
  if (fits_entirely(weights, shadow_weights, capacity, shadow_capacity,
                    selected)) {
    ++ws.counters.fast_path;
    return selected;
  }
  return detail::reservation_dp_table(weights, shadow_weights, capacity,
                                      shadow_capacity, ws);
}

}  // namespace es::core
