// Per-layer operation costs, timed by calling each layer's public function
// in a loop at the workload's own sizes (queue depth, SoC-report length,
// window count, node count, solar trace). Each result is the median
// ns/op over several repetitions.
#pragma once

#include <cstddef>
#include <cstdint>

#include "energy/solar.hpp"
#include "net/scenario.hpp"

namespace perfbench {

/// EventQueue schedule + pop at a steady population of `depth` events.
[[nodiscard]] double queue_op_ns(std::size_t depth, std::uint64_t seed);

/// encode_uplink + decode_uplink of a frame carrying `report_samples` SoC
/// samples.
[[nodiscard]] double codec_roundtrip_ns(std::size_t report_samples);

/// WindowSelector::select (Algorithm 1) over `windows` forecast windows with
/// the scenario's utility function.
[[nodiscard]] double select_ns(const blam::ScenarioConfig& config, int windows,
                               std::uint64_t seed);

/// RetxEstimator::expected_transmissions over `windows` windows.
[[nodiscard]] double expected_tx_ns(int windows, std::uint64_t seed);

/// SolarTrace::energy_between over one-minute intervals starting anywhere
/// in [0, horizon).
[[nodiscard]] double solar_between_ns(const blam::SolarTrace& trace, blam::Time horizon,
                                      std::uint64_t seed);

/// DegradationService::ingest_report of two-sample reports, round-robin
/// over `nodes` registered nodes.
[[nodiscard]] double ledger_ingest_ns(int nodes, std::uint64_t seed);

/// DegradationTracker::record of a half-hourly SoC walk.
[[nodiscard]] double degradation_record_ns(std::uint64_t seed);

}  // namespace perfbench
