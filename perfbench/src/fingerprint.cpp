#include "fingerprint.hpp"

#include <bit>

namespace perfbench {

namespace {

std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (word >> (byte * 8)) & 0xffULL;
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

}  // namespace

std::uint64_t fingerprint(const blam::ShardedNetwork& net) {
  std::uint64_t hash = 1469598103934665603ULL;
  const blam::Metrics& m = net.metrics();
  for (std::size_t i = 0; i < m.node_count(); ++i) {
    const blam::NodeMetrics& n = m.node(i);
    hash = fnv1a(hash, n.generated);
    hash = fnv1a(hash, n.delivered);
    hash = fnv1a(hash, n.tx_attempts);
    hash = fnv1a(hash, n.retx);
    hash = fnv1a(hash, bits(n.tx_energy.joules()));
    hash = fnv1a(hash, bits(n.utility_sum));
    hash = fnv1a(hash, bits(n.degradation));
    hash = fnv1a(hash, bits(n.final_soc));
    hash = fnv1a(hash, bits(net.w_for(static_cast<std::uint32_t>(i))));
  }
  const blam::GatewayMetrics& g = m.gateway();
  hash = fnv1a(hash, g.arrivals);
  hash = fnv1a(hash, g.received);
  hash = fnv1a(hash, g.lost_interference);
  hash = fnv1a(hash, g.lost_under_sensitivity);
  hash = fnv1a(hash, g.acks_sent);
  return hash;
}

}  // namespace perfbench
