#include "alloc_count.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

// The plain forms are replaced as a malloc/free pair; libstdc++ routes
// new[], delete[] and the nothrow forms through them.
void* operator new(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
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

namespace ipop::bench {

void set_alloc_counting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

std::uint64_t allocs_counted() {
  return g_allocs.load(std::memory_order_relaxed);
}

}  // namespace ipop::bench
