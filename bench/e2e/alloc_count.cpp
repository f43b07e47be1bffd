// Counting replacement for the global operator new and delete.
//
// Turns "allocation-free hot path" into a number: the traced run switches
// counting on around its measured phase and divides by the packets carried.
// The plain forms are replaced as a malloc/free pair; libstdc++ routes
// new[], delete[] and the nothrow forms through them.  Untraced runs pay
// one relaxed load per allocation.
#include <atomic>
#include <cstdlib>
#include <new>

#include "harness.hpp"

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_bytes{0};
}  // namespace

void* operator new(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(n, std::memory_order_relaxed);
  }
  if (n == 0) n = 1;
  for (;;) {
    if (void* p = std::malloc(n)) return p;
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace e2e {

void set_alloc_counting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

AllocCounts alloc_counts() {
  return AllocCounts{g_allocs.load(std::memory_order_relaxed),
                     g_bytes.load(std::memory_order_relaxed)};
}

}  // namespace e2e
