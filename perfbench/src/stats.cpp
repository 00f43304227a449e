#include "stats.hpp"

#include <algorithm>
#include <array>
#include <cmath>

namespace perfbench {

namespace {

/// 1-based nearest rank of the per-mille percentile: ceil(n * pm / 1000),
/// in integers so 99.9% is exact.
std::size_t rank_per_mille(std::size_t n, std::size_t per_mille) {
  return (n * per_mille + 999) / 1000;
}

}  // namespace

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  const std::size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(mid),
                   samples.end());
  const double upper = samples[mid];
  if (samples.size() % 2 == 1) return upper;
  const double lower = *std::max_element(samples.begin(),
                                         samples.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lower + upper);
}

double percentile(std::vector<double> samples, double pct) {
  if (samples.empty()) return 0.0;
  const auto per_mille = static_cast<std::size_t>(std::llround(pct * 10.0));
  const std::size_t rank = std::max<std::size_t>(1, rank_per_mille(samples.size(), per_mille));
  const auto index = static_cast<std::ptrdiff_t>(std::min(rank, samples.size()) - 1);
  std::nth_element(samples.begin(), samples.begin() + index, samples.end());
  return samples[static_cast<std::size_t>(index)];
}

std::optional<double> tail_percentile(std::size_t samples) {
  constexpr std::array<std::size_t, 4> kLadderPerMille{999, 990, 900, 500};
  for (const std::size_t per_mille : kLadderPerMille) {
    if (samples - rank_per_mille(samples, per_mille) >= 10) {
      return static_cast<double>(per_mille) / 10.0;
    }
  }
  return std::nullopt;
}

}  // namespace perfbench
