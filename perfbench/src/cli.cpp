#include "cli.hpp"

#include <charconv>
#include <cmath>
#include <stdexcept>

namespace perfbench {

namespace {

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  std::uint64_t value = 0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || end != text.data() + text.size()) {
    throw std::invalid_argument{flag + ": expected a non-negative integer, got '" + text + "'"};
  }
  return value;
}

}  // namespace

Options parse_args(const std::vector<std::string>& args) {
  Options opts;
  bool have_workload = false;
  for (std::size_t i = 0; i < args.size(); i += 2) {
    const std::string& flag = args[i];
    if (i + 1 >= args.size()) throw std::invalid_argument{flag + ": missing value"};
    const std::string& value = args[i + 1];
    if (flag == "--workload") {
      opts.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opts.seed = parse_u64(flag, value);
    } else if (flag == "--seconds") {
      std::size_t used = 0;
      double s = 0.0;
      try {
        s = std::stod(value, &used);
      } catch (const std::exception&) {
        used = 0;
      }
      if (used != value.size() || !std::isfinite(s) || s < 0.0 || s > 600.0) {
        throw std::invalid_argument{flag + ": expected seconds in [0, 600], got '" + value + "'"};
      }
      opts.seconds = s;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument{flag + ": expected 0 or 1, got '" + value + "'"};
      }
      opts.trace = value == "1";
    } else if (flag == "--trace-out") {
      opts.trace_out = value;
    } else {
      throw std::invalid_argument{"unknown flag '" + flag + "'"};
    }
  }
  if (!have_workload) throw std::invalid_argument{"--workload is required"};
  return opts;
}

}  // namespace perfbench
