#include "workload.hpp"

#include <array>

namespace perfbench {

namespace {

// Horizons are set so one iteration takes a few host seconds on a 4-core
// x86 host, leaving several iterations per measured run for the medians.
constexpr std::array<Workload, 4> kWorkloads{{
    {"paper_h50",
     "the paper's 500-node H-50 cell on one gateway, 4 cells at once like a figure sweep: "
     "event queue, Algorithm 1 and solar; no fanout, shards or checkpoints",
     500, 0, 1, 45, false},
    {"city_serial",
     "2000-node 16-gateway city on one engine, 4 at once: 15 of 16 gateway arrivals are "
     "below-floor copies, so uplink fanout work shows here",
     2000, 16, 1, 7, false},
    {"city_sharded",
     "the same city as one 4-shard engine: epoch barriers, the D_max all-reduce and shard "
     "balance; each shard skips foreign-gateway fanout",
     2000, 16, 4, 30, false},
    {"city_resume",
     "4000-node city on 4 shards, checkpoint to memory at every epoch, restore mid-run into a "
     "fresh engine: the checkpoint codec's write and read paths",
     4000, 16, 4, 8, true},
}};

}  // namespace

std::span<const Workload> workloads() { return kWorkloads; }

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

blam::ScenarioConfig workload_config(const Workload& workload, std::uint64_t seed) {
  blam::ScenarioConfig c = blam::blam_scenario(workload.nodes, /*theta=*/0.5, seed);
  c.sf_assignment = blam::SfAssignment::kDistanceBased;
  c.shards = workload.shards;
  if (workload.gateways == 0) {
    c.path_loss.shadowing_sigma_db = 6.0;
  } else {
    // The shard_throughput city: gateways on a 12 km grid, nodes within
    // 1 km of their cell's gateway, no shadowing, so every foreign gateway
    // hears a node under the -143 dBm floor and each cell is its own
    // collision domain.
    c.n_gateways = workload.gateways;
    c.gateway_grid_pitch_m = 12000.0;
    c.cluster_radius_m = 1000.0;
    c.interference_floor_dbm = -143.0;
  }
  return c;
}

}  // namespace perfbench
