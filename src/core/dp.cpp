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
  if (__builtin_cpu_supports("sse4.2")) return DpSimdLevel::kSse42;
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
    case DpSimdLevel::kSse42:
      return "sse4.2";
    case DpSimdLevel::kScalar:
      return "scalar";
  }
  return "scalar";
}

namespace detail {

namespace {

// --- the row kernel ----------------------------------------------------------

#if ES_DP_SIMD_X86
/// A vector of kBytes / sizeof(T) lanes of T.
template <typename T, std::size_t kBytes>
struct Lanes;
template <>
struct Lanes<std::int32_t, 32> {
  typedef std::int32_t Vec __attribute__((vector_size(32)));
};
template <>
struct Lanes<std::int64_t, 32> {
  typedef std::int64_t Vec __attribute__((vector_size(32)));
};
template <>
struct Lanes<std::int32_t, 16> {
  typedef std::int32_t Vec __attribute__((vector_size(16)));
};
template <>
struct Lanes<std::int64_t, 16> {
  typedef std::int64_t Vec __attribute__((vector_size(16)));
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

struct Sse42Mask {
  template <typename Vec>
  __attribute__((target("sse4.2"))) static int bits(Vec take) {
    if constexpr (sizeof(take[0]) == 4)
      return _mm_movemask_ps((__m128)take);
    else
      return _mm_movemask_pd((__m128d)take);
  }
};
#endif  // ES_DP_SIMD_X86


// --- the row kernel ----------------------------------------------------------
//
// One row step of either DP over the columns [lo, hi), lo >= shift:
//   out[c] = max(base[c], donor[c - shift] + v),
// setting bit c of the row's keep words (bit c & 63 of keep_row[c >> 6])
// where the donor wins.  The donor comes as its row plus a shift, so no
// pointer is ever formed before a row's start.  `out` may alias `base`
// (Reservation_DP fills in place) but not the donor's cells, and the keep
// words must be clear on entry.  Columns run one at a time up to a
// multiple of the vector width, then a vector group at a time — a group's
// bits all land in one word, which collects them in a register and is
// OR-ed into the table once — then one at a time for the tail.  Every
// candidate stays below the table's value bound (see fits_int32), so the
// sums never overflow T.
//
// kBytes is the vector width of the ISA tier (sizeof(T) for the scalar
// tier); `Mask` turns a vector compare result into its lane bits with the
// tier's instruction.
template <typename T, std::size_t kBytes, typename Mask>
[[gnu::always_inline]] inline void fill_row(const T* base, const T* donor,
                                            std::size_t shift, T* out,
                                            std::uint64_t* keep_row,
                                            std::size_t lo, std::size_t hi,
                                            T v) {
  constexpr std::size_t kLanes = kBytes / sizeof(T);
  const auto take_bit = [&](std::size_t c) -> std::uint64_t {
    const T current = base[c];
    const T candidate = donor[c - shift] + v;
    const bool take = candidate > current;
    out[c] = take ? candidate : current;
    return take ? 1 : 0;
  };
  std::size_t c = lo;
  for (; c < hi && c % kLanes != 0; ++c)
    keep_row[c >> 6] |= take_bit(c) << (c & 63);
  while (c + kLanes <= hi) {
    const std::size_t word_end = std::min(hi, (c | 63) + 1);
    std::uint64_t word = 0;
    for (; c + kLanes <= word_end; c += kLanes) {
      if constexpr (kLanes == 1) {
        word |= take_bit(c) << (c & 63);
      } else {
#if ES_DP_SIMD_X86
        using Vec = typename Lanes<T, kBytes>::Vec;
        Vec current;
        Vec donated;
        std::memcpy(&current, base + c, sizeof current);
        std::memcpy(&donated, donor + (c - shift), sizeof donated);
        const Vec candidate = donated + v;
        const auto take = candidate > current;
        const Vec best = take ? candidate : current;
        std::memcpy(out + c, &best, sizeof best);
        word |= std::uint64_t{static_cast<unsigned>(Mask::bits(take))}
                << (c & 63);
#endif
      }
    }
    keep_row[(c - 1) >> 6] |= word;
  }
  for (; c < hi; ++c) keep_row[c >> 6] |= take_bit(c) << (c & 63);
}

template <typename T>
using RowFill = void (*)(const T*, const T*, std::size_t, T*, std::uint64_t*,
                         std::size_t, std::size_t, T);

template <typename T>
void fill_row_scalar(const T* base, const T* donor, std::size_t shift,
                     T* out, std::uint64_t* keep_row, std::size_t lo,
                     std::size_t hi, T v) {
  fill_row<T, sizeof(T), void>(base, donor, shift, out, keep_row, lo, hi, v);
}

#if ES_DP_SIMD_X86
// `flatten` inlines the kernel and, through it, the tier's mask function
// into the target-attributed body, so the vector code is compiled for the
// tier's ISA.
template <typename T>
__attribute__((target("sse4.2"), flatten)) void fill_row_sse42(
    const T* base, const T* donor, std::size_t shift, T* out,
    std::uint64_t* keep_row, std::size_t lo, std::size_t hi, T v) {
  fill_row<T, 16, Sse42Mask>(base, donor, shift, out, keep_row, lo, hi, v);
}

template <typename T>
__attribute__((target("avx2"), flatten)) void fill_row_avx2(
    const T* base, const T* donor, std::size_t shift, T* out,
    std::uint64_t* keep_row, std::size_t lo, std::size_t hi, T v) {
  fill_row<T, 32, Avx2Mask>(base, donor, shift, out, keep_row, lo, hi, v);
}
#endif  // ES_DP_SIMD_X86

template <typename T>
RowFill<T> pick_row_fill() {
  switch (dp_simd_level()) {
#if ES_DP_SIMD_X86
    case DpSimdLevel::kAvx2:
      return fill_row_avx2<T>;
    case DpSimdLevel::kSse42:
      return fill_row_sse42<T>;
#endif
    default:
      return fill_row_scalar<T>;
  }
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

/// Items the fill can select, ascending: the rest get no keep row.
void collect_live(std::span<const int> weights,
                  std::span<const int> shadow_weights, int capacity,
                  int shadow_capacity, std::vector<std::size_t>& live) {
  live.clear();
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const int w = weights[i];
    const int s = shadow_weights.empty() ? 0 : shadow_weights[i];
    ES_EXPECTS(w >= 0 && s >= 0);
    ES_EXPECTS(s == 0 || s == w);  // frenum is 0 or the job size
    if (!fill_skips(w, s, capacity, shadow_capacity)) live.push_back(i);
  }
}

/// Basic_DP, double-buffered: row k (the k-th live item) is computed from
/// row k-1 — base is the previous row, the donor is the same row shifted by
/// the item's weight.
template <typename T>
std::vector<int> basic_fill(std::span<const int> weights, int capacity,
                            DpWorkspace& ws) {
  DpTable<T>& table = table_of<T>(ws);
  const std::size_t n = weights.size();
  const std::int64_t base = priority_base(n);
  const std::size_t cols = static_cast<std::size_t>(capacity) + 1;
  const std::size_t words = keep_words(cols);
  const RowFill<T> fill = pick_row_fill<T>();

  collect_live(weights, {}, capacity, 0, ws.live);
  table.value.assign(cols, 0);
  table.next.resize(cols);  // every row writes all of it
  ws.keep.assign(ws.live.size() * words, 0);

  for (std::size_t k = 0; k < ws.live.size(); ++k) {
    const std::size_t i = ws.live[k];
    const std::size_t w = static_cast<std::size_t>(weights[i]);
    const T v = static_cast<T>(item_value(weights[i], i, n, base));
    const T* prev = table.value.data();
    T* cur = table.next.data();
    // A live item fits (w <= capacity), so columns below w keep the
    // previous row and the donor covers the rest.
    std::copy(prev, prev + w, cur);
    fill(prev, prev, w, cur, ws.keep.data() + k * words, w, cols, v);
    std::swap(table.value, table.next);
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

/// Reservation_DP, in place, over capacity rows a = 0 .. C and shadow
/// columns b = 0 .. min(S, C), C the capacity and S the shadow capacity.
/// For each live item (w, s) the rows are taken in descending order, row a
/// updated from row a - w shifted by s; row a - w has not been touched for
/// this item yet, so it still holds the previous item's values.
///
/// The clamp of the shadow axis to min(S, C) selects what the unclamped
/// table selects.  Let V(a, b) be the best value of a set of total weight
/// <= a and total shadow weight <= b.  Shadow weights are 0 or the weight,
/// so a set's shadow total never exceeds its weight total, and for b >= a
/// the shadow bound is implied: V(a, b) = V(a, infinity).  The keep bit at
/// (a, b) compares V(a - w, b - s) + v with V(a, b); for b >= a also
/// b - s >= a - w, so neither side, and hence the bit, depends on b there.
/// The backtrack starts at (C, min(S, C)) and each taken item moves it by
/// (w, s) with s <= w, so b - a never shrinks.  When S >= C, the unclamped
/// backtrack from (C, S) and the clamped one from (C, C) therefore read,
/// step by step, the same item's bit in the same row a at columns that are
/// both >= a, where the bit does not depend on the column: they take the
/// same items.  When S < C nothing is clamped.  A cell's recurrence reads
/// no column to its right, so the cells the clamped table keeps hold the
/// unclamped values.
template <typename T>
std::vector<int> reservation_fill(std::span<const int> weights,
                                  std::span<const int> shadow_weights,
                                  int capacity, int shadow_capacity,
                                  DpWorkspace& ws) {
  std::vector<T>& value = table_of<T>(ws).value;
  const std::size_t n = weights.size();
  const std::int64_t base = priority_base(n);
  const std::size_t rows = static_cast<std::size_t>(capacity) + 1;
  const std::size_t cols =
      static_cast<std::size_t>(std::min(shadow_capacity, capacity)) + 1;
  const std::size_t words = keep_words(cols);
  const std::size_t item_words = rows * words;
  const RowFill<T> fill = pick_row_fill<T>();

  collect_live(weights, shadow_weights, capacity, shadow_capacity, ws.live);
  value.assign(rows * cols, 0);
  ws.keep.assign(ws.live.size() * item_words, 0);

  for (std::size_t k = 0; k < ws.live.size(); ++k) {
    const std::size_t i = ws.live[k];
    const std::size_t w = static_cast<std::size_t>(weights[i]);
    const std::size_t s = static_cast<std::size_t>(shadow_weights[i]);
    const T v = static_cast<T>(item_value(weights[i], i, n, base));
    std::uint64_t* keep_item = ws.keep.data() + k * item_words;
    for (std::size_t a = rows - 1; a >= w; --a) {
      T* row = value.data() + a * cols;
      fill(row, value.data() + (a - w) * cols, s, row, keep_item + a * words,
           s, cols, v);
    }
  }

  std::vector<int> selected;
  std::size_t a = rows - 1;
  std::size_t b = cols - 1;
  for (std::size_t k = ws.live.size(); k-- > 0;) {
    if (keep_bit(ws.keep.data() + k * item_words + a * words, b)) {
      const std::size_t i = ws.live[k];
      selected.push_back(static_cast<int>(i));
      a -= static_cast<std::size_t>(weights[i]);
      b -= static_cast<std::size_t>(shadow_weights[i]);
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
