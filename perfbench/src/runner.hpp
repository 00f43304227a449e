// One measured iteration of a workload: build the engine, run it epoch by
// epoch to the horizon, finalize, fingerprint and (city_resume) replay the
// second half from the mid-run checkpoint. Every figure is timed from
// outside, around the simulator's public calls.
#pragma once

#include <cstdint>
#include <vector>

#include "net/deployment_plan.hpp"
#include "net/metrics.hpp"
#include "net/scenario.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace perfbench {

struct IterationResult {
  /// Engine construction (ShardedNetwork constructor).
  double setup_s{0.0};
  /// Sum of the uninterrupted engine's run_until epoch slices.
  double run_s{0.0};
  /// Nodes x simulated days over those slices.
  double node_days{0.0};
  /// Construction to verified result, resume leg included.
  double wall_s{0.0};
  double finalize_s{0.0};
  std::vector<double> epoch_s;
  /// Max per-shard busy CPU time over the run phase; the engine thread's
  /// CPU time when serial.
  double critical_path_s{0.0};
  std::vector<double> checkpoint_s;
  double restore_s{0.0};
  std::size_t checkpoint_bytes{0};
  /// Resumed engine's final checkpoint and fingerprint equal the
  /// uninterrupted run's (always true without a resume leg).
  bool resume_identical{true};

  std::uint64_t fingerprint{0};
  std::uint64_t events{0};
  /// Heap allocations made inside run_until.
  std::uint64_t run_allocs{0};

  // Public counters of the measured engine, after finalize_metrics().
  std::uint64_t generated{0};
  std::uint64_t delivered{0};
  std::uint64_t tx_attempts{0};
  std::uint64_t retx{0};
  /// Uplink copies heard under the audibility floor (see below_floor_gateways).
  std::uint64_t arrivals_below_floor{0};
  blam::GatewayMetrics gateway{};
  std::vector<double> w_u;
  double d_max{0.0};
  int max_windows{1};
  int effective_shards{1};
  int domains{0};
  /// Nodes on the most loaded shard (all nodes when serial).
  std::size_t largest_shard_nodes{0};
};

/// Per node, how many gateways hear it under the scenario's audibility
/// floor. Every transmission reaches each of them as an arrival the gateway
/// counts and drops, so sum(tx_attempts * count) is the below-floor arrival
/// total. Exact for the benchmark's scenarios (frozen link budgets, fixed
/// TX power: no ADR, no fast fading).
[[nodiscard]] std::vector<std::uint32_t> below_floor_gateways(
    const blam::ScenarioConfig& config, const blam::DeploymentPlan& deployment);

/// Runs one iteration. `tracer` may be null (untraced); `below_floor` may be
/// null (arrivals_below_floor left 0). Throws on any simulator error or when
/// the engine shape differs from the workload's (a sharded workload that fell
/// back to serial).
[[nodiscard]] IterationResult run_iteration(const Workload& workload,
                                            const blam::ScenarioConfig& config,
                                            const std::vector<std::uint32_t>* below_floor,
                                            Tracer* tracer, int run);

struct CheckpointCost {
  /// Median of several checkpoints of the same engine.
  double checkpoint_s{0.0};
  double restore_s{0.0};
  std::size_t bytes{0};
};

/// Checkpoint and restore cost of the workload's engine after one epoch,
/// for workloads whose own iterations take no checkpoints. Throws if the
/// restored engine does not checkpoint back to the same bytes.
[[nodiscard]] CheckpointCost checkpoint_probe(const blam::ScenarioConfig& config);

/// Largest pending-event count of the serial engine sampled hourly over the
/// first `days` simulated days.
[[nodiscard]] std::size_t serial_pending_events_max(const blam::ScenarioConfig& config,
                                                    int days);

}  // namespace perfbench
