// Heap-allocation counter: blam_perf replaces the global operator new, so
// every allocation the simulator makes inside this binary is counted.
#pragma once

#include <cstdint>

namespace perfbench {

/// Allocations by every thread of the process.
[[nodiscard]] std::uint64_t heap_allocations();

/// Allocations by the calling thread only (a serial engine running beside
/// other engines on their own threads).
[[nodiscard]] std::uint64_t thread_heap_allocations();

}  // namespace perfbench
