// Summary statistics for timing samples.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// Median (mean of the two middle values for an even count); 0 when empty.
[[nodiscard]] double median(std::vector<double> samples);

/// Nearest-rank percentile `pct` in (0, 100]: the smallest sample with at
/// least pct% of the samples at or below it; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> samples, double pct);

/// The tail rule for timings: the highest percentile of the ladder
/// {99.9, 99, 90, 50} that leaves at least ten samples beyond it under the
/// nearest-rank definition, or nullopt when even the median has fewer than
/// ten beyond it (fewer than 20 samples).
[[nodiscard]] std::optional<double> tail_percentile(std::size_t samples);

}  // namespace perfbench
