// The dynamic programs at the heart of the LOS scheduler family
// (Shmueli & Feitelson 2005; paper section III).
//
// Basic_DP   — pick the subset of waiting jobs that maximizes utilization
//              right now: 0/1 knapsack with weight = value = processors.
// Reservation_DP — same objective under an additional *shadow* constraint:
//              jobs whose estimated completion crosses the freeze end time
//              `fret` must also fit into the shadow capacity `frec`
//              (a 2-dimensional knapsack).
//
// Ties in achievable utilization are broken toward sets containing
// earlier-queued jobs (and more of them), which keeps head jobs from being
// skipped gratuitously and makes results deterministic.
//
// Capacities and weights are in *allocation grains* (processors divided by
// the machine granularity — 32 on BlueGene/P), which keeps the DP tables
// tiny; callers convert.  A reusable workspace avoids per-cycle allocation.
//
// Hot-path structure: every call resolves through one of two tiers,
//  1. the *fast path* — when the total eligible demand fits the capacity
//     (and, for Reservation_DP, the total shadow demand fits the shadow
//     capacity), the optimum is "take everything", no table needed;
//  2. the table fill.
//     - Basic_DP fills one row in place, from the top column down,
//         row[c] = max(row[c], row[c - w] + v),
//       which sets a keep bit (one bit per cell) where the donor wins.  It
//       is one template over the value type, instantiated for AVX2 and the
//       scalar baseline (see DpSimdLevel); each vector group loads its
//       donor cells before it stores, and each 64-bit word of keep bits is
//       OR-ed into the table at once, so rows shorter than 64 columns
//       vectorize too.  Keep rows exist only for the live items (below)
//       and are padded to whole 64-bit words.
//     - Reservation_DP is solved as two 1-D knapsacks.  Shadow weights are
//       0 or the weight, so the live items split into A (shadow weight 0)
//       and B (shadow weight = weight), and the 2-D value is
//         V(a, b) = max over x <= min(a, b) of FB(x) + FA(a - x),
//       FA and FB plain knapsack rows over the A items (capacity + 1
//       columns) and the B items (min(shadow capacity, capacity) + 1
//       columns).  Every row is kept, with no keep bits; the backtrack
//       takes item k iff V_{k-1}(a, b) falls short of the value still to
//       account for, which is the 2-D table's keep bit (proof at the fill
//       in dp.cpp).
//     Live items: those the fill can select (positive weight within the
//     capacity, shadow weight within the shadow capacity), less dominated
//     copies — an item of weight w is dropped once floor(capacity / w)
//     earlier live items have its weight (per class A or B for
//     Reservation_DP, B against min(shadow capacity, capacity)).
//     No optimal set at any column can hold it — swapping it for an
//     unused earlier copy would raise the tie-break — so every value and
//     every selection is unchanged (proof at collect_live in dp.cpp).
//     Value width: every cell holds the value of a set packed within its
//     column's capacity, which is below (capacity + 1) * (n^2 + 1) because
//     the tie-break sum stays under the n^2 + 1 priority base.  When that
//     bound fits int32_t the table fills with int32_t (twice the lanes per
//     vector), else with int64_t — the data picks the width per table.
//     DpCounters::table_cells counts *logical* cells — items x (capacity +
//     1), times (shadow capacity + 1) for Reservation_DP — so it stays
//     comparable across fill strategies.
// All paths return bit-identical selections; the kernels stay pure
// functions of their arguments.  There is deliberately no result memo
// between the tiers: an exact-keyed one answered 5-11% of the benchmark
// workloads' calls and cost more than the fills it saved (see
// docs/architecture.md).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sched/perf.hpp"

namespace es::sched {
struct JobRun;
}

namespace es::core {

/// Table storage of one value width, int32_t or int64_t (the header comment
/// above says how a table picks its width).
template <typename T>
struct DpTable {
  /// Basic_DP's one row, filled in place; Reservation_DP's knapsack rows
  /// over its A items (shadow weight 0), one per item plus row 0
  std::vector<T> a_rows;
  /// Reservation_DP's knapsack rows over its B items (shadow weight =
  /// weight), one per item plus row 0
  std::vector<T> b_rows;
};

/// Reusable DP buffers and counters; one per policy instance.
struct DpWorkspace {
  DpTable<std::int32_t> table32;
  DpTable<std::int64_t> table64;
  /// Basic_DP's take bits of the live items only, one row per item, each
  /// row padded to whole 64-bit words.
  std::vector<std::uint64_t> keep;
  std::vector<std::size_t> live;  ///< items the fill can select, ascending
  /// Per weight w, the weight of the live items of weight w so far while
  /// `live` is collected: class A at [w], class B at [capacity + 1 + w].
  /// All zero between calls.
  std::vector<int> live_weight;

  /// Per-cycle eligibility-scan scratch, reused by the LOS-family policies
  /// so the hot scheduling cycle performs no heap allocation.  The scans
  /// never nest (a step runs exactly one DP), so one set per workspace
  /// suffices.
  std::vector<sched::JobRun*> eligible_scratch;
  std::vector<int> weights_scratch;
  std::vector<int> shadows_scratch;

  sched::DpCounters counters;
};

/// Basic_DP.  `weights[i]` is the i-th waiting job's size in grains, in
/// queue order; `capacity` the free grains.  Returns the selected indices,
/// ascending.  Items with weight 0 are never selected (treat as ineligible).
std::vector<int> basic_dp(std::span<const int> weights, int capacity,
                          DpWorkspace& ws);

/// Reservation_DP.  `weights[i]` as above; `shadow_weights[i]` is the
/// paper's `frenum` in grains: 0 if the job finishes (by estimate) before
/// the freeze end time, else its size.  Selected sets satisfy
///   sum weights <= capacity  AND  sum shadow_weights <= shadow_capacity.
std::vector<int> reservation_dp(std::span<const int> weights,
                                std::span<const int> shadow_weights,
                                int capacity, int shadow_capacity,
                                DpWorkspace& ws);

/// Instruction-set tier of Basic_DP's row kernel.  The kernel is
/// instantiated for AVX2 (a per-function target attribute, so the rest of
/// the binary stays baseline-ISA) and for the scalar baseline; table fills
/// use AVX2 when the host supports it at runtime, else scalar.  Both tiers
/// compute the identical max/keep recurrence, so selections are
/// bit-identical across tiers — gated by the dp tests, micro_dp, and the
/// WideDpGolden equivalence legs.
enum class DpSimdLevel { kScalar, kAvx2 };

/// The tier table fills will actually use: kAvx2 when the host supports
/// it, else kScalar — also when vectorization is disabled
/// (set_dp_simd_enabled(false), building with ES_DP_SIMD off, or a non-x86
/// host).
DpSimdLevel dp_simd_level();

/// Force-scalar toggle for differential tests and before/after benchmarks
/// (`simrun --no-dp-simd`).  Thread-safe; takes effect on the next fill.
void set_dp_simd_enabled(bool enabled);
bool dp_simd_enabled();

/// Human-readable tier name ("scalar", "avx2").
const char* dp_simd_level_name(DpSimdLevel level);

namespace detail {

/// The unconditional table fills, bypassing the fast path.
/// Exposed for the equivalence tests and microbenchmarks that prove the
/// fast paths select identically; production code calls the wrappers above.
std::vector<int> basic_dp_table(std::span<const int> weights, int capacity,
                                DpWorkspace& ws);
std::vector<int> reservation_dp_table(std::span<const int> weights,
                                      std::span<const int> shadow_weights,
                                      int capacity, int shadow_capacity,
                                      DpWorkspace& ws);

}  // namespace detail

}  // namespace es::core
