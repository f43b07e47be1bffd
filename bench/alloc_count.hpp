// Heap-allocation counting for benches that pin "allocation-free".
//
// Linking bench/alloc_count.cpp replaces the global operator new/delete
// with a malloc/free pair that counts allocations while counting is on.
// It lives in its own translation unit so the compiler never sees a
// replaced operator new inlined next to the std::free that releases it.
#pragma once

#include <cstdint>

namespace ipop::bench {

/// Turn counting on or off (off by default; a relaxed flag).
void set_alloc_counting(bool on);
/// Allocations counted so far.
std::uint64_t allocs_counted();

}  // namespace ipop::bench
