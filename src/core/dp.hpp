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
// Hot-path structure: every call resolves through, in order,
//  1. the *fast path* — when the total eligible demand fits the capacity
//     (and, for Reservation_DP, the total shadow demand fits the shadow
//     capacity), the optimum is "take everything", no table needed;
//  2. the *result cache* — a memo of recent (weights, shadows,
//     capacities) -> selection pairs, keyed on the *normalized* instance:
//     items the fill can never select (weight 0, weight over capacity,
//     shadow weight over shadow capacity) are zeroed in the key, so
//     scheduling events that only perturb ineligible jobs — an arrival too
//     large for the free grains, an ECC resize of an already-too-big
//     queued job — re-pose the same key and the cache answers in O(n)
//     instead of O(n * capacity^2).  The compare on normalized weights is
//     still exact (a hit is always sound); entries carry a FNV-1a
//     fingerprint of the key, so a probe is one hash compare per slot and
//     the element-wise compare runs only on fingerprint agreement — which
//     let the cache grow from 8 to 256 slots (the 8-slot round-robin
//     evicted instances long before the schedule re-posed them: ~1.7% hit
//     rate on the PR 5 baseline);
//  3. the table fill.  Both DPs run one row kernel,
//       out[c] = max(base[c], donor[c - shift] + v),
//     which sets a keep bit (one bit per cell) where the donor wins.  It is
//     one template over the value type, instantiated per ISA tier (see
//     DpSimdLevel); each vector group's keep bits are OR-ed into their
//     64-bit word at once, so rows shorter than 64 columns vectorize too.
//     Basic_DP calls it double-buffered: base is the previous row, the
//     donor is that row shifted by the item's weight w.  Reservation_DP
//     calls it in place, capacity row by capacity row in descending order:
//     base and out are row a, the donor is row a - w shifted by the item's
//     shadow weight.  Around the kernel:
//     - value width: every cell holds the value of a set packed within its
//       column's capacity, which is below (capacity + 1) * (n^2 + 1)
//       because the tie-break sum stays under the n^2 + 1 priority base.
//       When that bound fits int32_t the table fills with int32_t (twice
//       the lanes per vector), else with int64_t — the data picks the
//       width per table;
//     - shadow clamp: Reservation_DP's shadow axis stops at
//       min(shadow capacity, capacity).  Shadow weights are 0 or the
//       weight, so a set within the capacity never needs more shadow
//       grains than the capacity; the keep bits on the backtrack path are
//       those of the unclamped table (proof at the fill in dp.cpp);
//     - live rows: keep rows exist only for the items the fill can select
//       (positive weight within the capacity, shadow weight within the
//       shadow capacity); the others produce no keep bits and are never
//       selected.  Keep rows are padded to whole 64-bit words;
//     - blocks: Basic_DP tables of more than one 8192-column block fan each
//       row's blocks out across util::ThreadPool when the global
//       parallelism is > 1.  Block origins are multiples of 64, so blocks
//       write disjoint value cells and keep words, and the backtrack reads
//       the table a serial fill produces.
//     DpCounters::table_cells counts *logical* cells — items x (capacity +
//     1), times (shadow capacity + 1) for Reservation_DP, unclamped — so
//     it stays comparable across fill strategies.
// All paths return bit-identical selections; the kernels stay pure
// functions of their arguments.
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
  std::vector<T> value;  ///< Reservation_DP table; Basic_DP's previous row
  std::vector<T> next;   ///< Basic_DP's row being filled
};

/// Reusable DP buffers, result cache and counters; one per policy instance.
struct DpWorkspace {
  DpTable<std::int32_t> table32;
  DpTable<std::int64_t> table64;
  /// Take bits of the live items only, one row per table row, each row
  /// padded to whole 64-bit words.
  std::vector<std::uint64_t> keep;
  std::vector<std::size_t> live;     ///< items the fill can select, ascending
  std::vector<int> key_weights;      ///< normalized-cache-key scratch
  std::vector<int> key_shadows;      ///< (ineligible items zeroed out)

  /// Per-cycle eligibility-scan scratch, reused by the LOS-family policies
  /// so the hot scheduling cycle performs no heap allocation.  The scans
  /// never nest (a step runs exactly one DP), so one set per workspace
  /// suffices.
  std::vector<sched::JobRun*> eligible_scratch;
  std::vector<int> weights_scratch;
  std::vector<int> shadows_scratch;

  /// Memo of recent instances, keyed on the normalized weights (ineligible
  /// items zeroed — see normalize_key in dp.cpp).  Entries store full
  /// copies of the key and are compared element-wise on fingerprint
  /// agreement, so a hit is always sound (no fingerprint collisions); the
  /// slot count bounds both memory and probe cost.
  struct CacheEntry {
    bool used = false;
    bool reservation = false;  ///< reservation_dp (vs basic_dp) instance
    /// Inserted by the speculative pipeline (warm_basic_dp_cache) and not
    /// yet probed.  A hit on such an entry counts in both cache_hits and
    /// spec_hits; eviction while still set counts in spec_discarded.
    bool speculative = false;
    int capacity = 0;
    int shadow_capacity = 0;
    std::uint64_t fingerprint = 0;  ///< FNV-1a over the full instance key
    std::vector<int> weights;
    std::vector<int> shadow_weights;  ///< empty for basic_dp entries
    std::vector<int> selected;
  };
  static constexpr std::size_t kDefaultCacheSlots = 256;
  std::vector<CacheEntry> cache =
      std::vector<CacheEntry>(kDefaultCacheSlots);
  /// Fingerprint of each cache slot, mirrored out of CacheEntry so the
  /// probe scans one dense word array (2 KiB at the default slot count)
  /// instead of striding across the fat entries; a slot's entry is touched
  /// only on fingerprint agreement.  Invariant: cache_fps[i] ==
  /// cache[i].fingerprint whenever cache[i].used.
  std::vector<std::uint64_t> cache_fps =
      std::vector<std::uint64_t>(kDefaultCacheSlots, 0);
  std::size_t cache_clock = 0;  ///< round-robin eviction cursor
  bool cache_enabled = true;    ///< AlgorithmOptions::dp_cache

  /// Resizes (and clears) the result cache.  Slot count is clamped to
  /// >= 1; AlgorithmOptions::dp_cache_slots plumbs through here.
  void set_cache_slots(std::size_t slots) {
    cache.assign(slots > 0 ? slots : 1, CacheEntry{});
    cache_fps.assign(cache.size(), 0);
    cache_clock = 0;
  }

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

/// Instruction-set tier of the DP row kernel.  The kernel is instantiated
/// for AVX2 and SSE4.2 (per-function target attributes, so the rest of the
/// binary stays baseline-ISA) and for the scalar baseline; table fills use
/// the widest tier the host supports at runtime.  Every tier computes the
/// identical max/keep recurrence, so selections are bit-identical across
/// tiers — gated by the dp tests, micro_dp, and the perf_baseline
/// equivalence legs.
enum class DpSimdLevel { kScalar = 0, kSse42 = 1, kAvx2 = 2 };

/// The tier table fills will actually use: the widest supported one, or
/// kScalar when vectorization is disabled (set_dp_simd_enabled(false),
/// building with ES_DP_SIMD off, or a non-x86 host).
DpSimdLevel dp_simd_level();

/// Force-scalar toggle for differential tests and before/after benchmarks
/// (`simrun --no-dp-simd`).  Thread-safe; takes effect on the next fill.
void set_dp_simd_enabled(bool enabled);
bool dp_simd_enabled();

/// Human-readable tier name ("scalar", "sse4.2", "avx2").
const char* dp_simd_level_name(DpSimdLevel level);

/// Inserts a speculatively precomputed Basic_DP result into `ws`'s result
/// cache, keyed exactly as basic_dp() would key the same instance, and
/// marks the entry speculative.  `selected` must be the table-fill
/// selection for (weights, capacity) — the caller computed it off-thread
/// on a scratch workspace.  Call on the owning (main) thread only: the
/// workspace is not thread-safe.  Pure cache warming — a later basic_dp()
/// call either hits the exact-keyed entry (identical selection to the fill
/// it skipped) or ignores it, so scheduling decisions cannot change.
void warm_basic_dp_cache(std::span<const int> weights, int capacity,
                         const std::vector<int>& selected, DpWorkspace& ws);

namespace detail {

/// The unconditional table fills, bypassing the fast path and the cache.
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
