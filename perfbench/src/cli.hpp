// Command line of blam_perf:
//   --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed{0};
  /// Measured time budget; the run still completes its minimum iterations.
  double seconds{10.0};
  bool trace{false};
  /// Chrome trace-event JSON destination (trace mode; empty = not written).
  std::string trace_out;
};

/// Parses the arguments after argv[0]. Throws std::invalid_argument naming
/// the offending flag on unknown flags, missing values or malformed numbers.
[[nodiscard]] Options parse_args(const std::vector<std::string>& args);

}  // namespace perfbench
