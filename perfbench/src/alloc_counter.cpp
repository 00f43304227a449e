#include "alloc_counter.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
thread_local std::uint64_t t_heap_allocs = 0;

void* counted_malloc(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  ++t_heap_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}
}  // namespace

std::uint64_t perfbench::heap_allocations() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}

std::uint64_t perfbench::thread_heap_allocations() { return t_heap_allocs; }

void* operator new(std::size_t size) { return counted_malloc(size); }
void* operator new[](std::size_t size) { return counted_malloc(size); }

// GCC pairs these deletes with the default operator new and warns about
// free(); the replacement news above are malloc-backed, so the pairing is
// correct.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop
