// Recorded correctness fingerprints, one per (workload, seed). A run whose
// fingerprint differs from the recorded value failed; a seed with no
// recorded value is checked for agreement between repeated runs instead.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace perfbench {

[[nodiscard]] std::optional<std::uint64_t> expected_fingerprint(std::string_view workload,
                                                                std::uint64_t seed);

}  // namespace perfbench
