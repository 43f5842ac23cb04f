// Counting replacements for the global operator new/delete, for allocation
// audits of hot paths.
//
// The operators are process-global, so include this header from exactly
// one translation unit of a dedicated test binary.  Sanitizer builds still
// intercept the underlying malloc/free, so leak and poisoning checks keep
// working.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace es::testing {

inline std::atomic<std::uint64_t> g_allocations{0};

/// Heap allocations made through operator new since process start.
inline std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace es::testing

void* operator new(std::size_t size) {
  es::testing::g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
