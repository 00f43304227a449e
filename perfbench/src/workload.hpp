// The benchmark's workloads: each is a fixed deployment shape plus a
// horizon; the seed argument is the only input that varies between runs,
// and the simulator only ever sees the resulting ScenarioConfig.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "net/scenario.hpp"

namespace perfbench {

struct Workload {
  std::string_view name;
  /// One-line reason the workload exists (which layer it stresses).
  std::string_view why;
  int nodes{0};
  /// 0 = the paper's single-gateway disk; > 0 = the city grid.
  int gateways{0};
  int shards{1};
  /// Horizon in dissemination epochs (one day each).
  int days{0};
  /// Checkpoint at every epoch barrier, then restore the mid-run
  /// checkpoint into a fresh engine and run it to the end.
  bool resume{false};
};

[[nodiscard]] std::span<const Workload> workloads();

/// nullptr when no workload has that name.
[[nodiscard]] const Workload* find_workload(std::string_view name);

/// The scenario a workload runs for one seed.
[[nodiscard]] blam::ScenarioConfig workload_config(const Workload& workload, std::uint64_t seed);

}  // namespace perfbench
