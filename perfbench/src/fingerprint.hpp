// Correctness fingerprint of a finished run: FNV-1a over every per-node
// metric the figures consume, the disseminated w_u of every node and the
// (compensated) gateway counters, the same digest bench/shard_throughput
// uses to prove sharded == serial. events_executed is left out: sharded
// runs execute extra per-shard dissemination ticks.
#pragma once

#include <cstdint>

#include "sim/shard_engine.hpp"

namespace perfbench {

/// Call after ShardedNetwork::finalize_metrics().
[[nodiscard]] std::uint64_t fingerprint(const blam::ShardedNetwork& net);

}  // namespace perfbench
