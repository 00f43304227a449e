#include "sim/checkpoint.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "fault/fault_plan.hpp"
#include "net/gateway.hpp"
#include "net/metrics.hpp"
#include "net/network_server.hpp"
#include "net/node.hpp"

namespace blam {

void write_rng(StateWriter& w, const Rng::State& state) {
  for (std::uint64_t word : state.s) w.put_u64(word);
  w.put_u64(state.seed);
  w.put_u64(state.stream);
  w.put_double(state.cached_normal);
  w.put_u64(state.has_cached_normal ? 1 : 0);
}

Rng::State read_rng(StateReader& r) {
  Rng::State state;
  for (std::uint64_t& word : state.s) word = r.get_u64();
  state.seed = r.get_u64();
  state.stream = r.get_u64();
  state.cached_normal = r.get_double();
  state.has_cached_normal = r.get_u64() != 0;
  return state;
}

void write_stats(StateWriter& w, const RunningStats& stats) {
  const RunningStats::Raw raw = stats.raw();
  w.put_u64(raw.n);
  w.put_double(raw.mean);
  w.put_double(raw.m2);
  w.put_double(raw.min);
  w.put_double(raw.max);
}

void read_stats(StateReader& r, RunningStats& stats) {
  RunningStats::Raw raw;
  raw.n = r.get_u64();
  raw.mean = r.get_double();
  raw.m2 = r.get_double();
  raw.min = r.get_double();
  raw.max = r.get_double();
  stats.restore_raw(raw);
}

void write_uplink_frame(StateWriter& w, const UplinkFrame& frame) {
  w.put_u64(frame.node_id);
  w.put_u64(frame.seq);
  w.put_i64(frame.attempt);
  write_time(w, frame.generated_at);
  w.put_i64(frame.selected_window);
  w.put_i64(frame.app_payload_bytes);
  w.put_u64(frame.soc_report.size());
  for (const SocSample& sample : frame.soc_report) {
    write_time(w, sample.t);
    w.put_double(sample.soc);
  }
  w.put_u64(frame.report_seq);
  w.put_u64(frame.report_crc);
  w.put_u64(frame.confirmed ? 1 : 0);
}

void read_uplink_frame(StateReader& r, UplinkFrame& frame) {
  frame.node_id = static_cast<std::uint32_t>(r.get_u64());
  frame.seq = static_cast<std::uint32_t>(r.get_u64());
  frame.attempt = static_cast<int>(r.get_i64());
  frame.generated_at = read_time(r);
  frame.selected_window = static_cast<int>(r.get_i64());
  frame.app_payload_bytes = static_cast<int>(r.get_i64());
  frame.soc_report.resize(r.get_u64());
  for (SocSample& sample : frame.soc_report) {
    sample.t = read_time(r);
    sample.soc = r.get_double();
  }
  frame.report_seq = static_cast<std::uint16_t>(r.get_u64());
  frame.report_crc = static_cast<std::uint8_t>(r.get_u64());
  frame.confirmed = r.get_u64() != 0;
}

void write_event(StateWriter& w, const Simulator& sim, EventHandle handle) {
  const auto pending = sim.lookup(handle);
  w.put_u64(pending.has_value() ? 1 : 0);
  if (pending.has_value()) {
    write_time(w, pending->time);
    w.put_u64(pending->seq);
  }
}

std::optional<EventQueue::PendingEvent> read_event(StateReader& r) {
  if (r.get_u64() == 0) return std::nullopt;
  EventQueue::PendingEvent event;
  event.time = read_time(r);
  event.seq = r.get_u64();
  return event;
}

namespace {

void write_gateway_metrics(StateWriter& w, const GatewayMetrics& m) {
  w.begin_section("gateway-metrics");
  w.put_u64(m.arrivals);
  w.put_u64(m.received);
  w.put_u64(m.lost_interference);
  w.put_u64(m.lost_half_duplex);
  w.put_u64(m.lost_no_demod_path);
  w.put_u64(m.lost_under_sensitivity);
  w.put_u64(m.acks_sent);
  w.put_u64(m.acks_rx2);
  w.put_u64(m.acks_unschedulable);
  w.put_u64(m.acks_undecodable);
  w.put_u64(m.duplicates);
  w.put_u64(m.lost_outage);
  w.put_u64(m.acks_lost_outage);
  w.put_u64(m.acks_lost_channel);
  w.put_u64(m.recomputes_skipped);
  w.put_u64(m.reports_dropped_fault);
  w.put_u64(m.reports_duplicated_fault);
  w.put_u64(m.reports_reordered_fault);
  w.put_u64(m.reports_corrupted_fault);
  w.put_u64(m.reports_truncated_fault);
  w.end_section();
}

void read_gateway_metrics(StateReader& r, GatewayMetrics& m) {
  r.begin_section("gateway-metrics");
  m.arrivals = r.get_u64();
  m.received = r.get_u64();
  m.lost_interference = r.get_u64();
  m.lost_half_duplex = r.get_u64();
  m.lost_no_demod_path = r.get_u64();
  m.lost_under_sensitivity = r.get_u64();
  m.acks_sent = r.get_u64();
  m.acks_rx2 = r.get_u64();
  m.acks_unschedulable = r.get_u64();
  m.acks_undecodable = r.get_u64();
  m.duplicates = r.get_u64();
  m.lost_outage = r.get_u64();
  m.acks_lost_outage = r.get_u64();
  m.acks_lost_channel = r.get_u64();
  m.recomputes_skipped = r.get_u64();
  m.reports_dropped_fault = r.get_u64();
  m.reports_duplicated_fault = r.get_u64();
  m.reports_reordered_fault = r.get_u64();
  m.reports_corrupted_fault = r.get_u64();
  m.reports_truncated_fault = r.get_u64();
  r.end_section();
}

void write_faults(StateWriter& w, const FaultPlan& faults) {
  // Only the downlink Gilbert-Elliott chains carry draw-consuming state;
  // the outage/drought schedules regenerate deterministically from
  // (config, seed) and are deliberately NOT captured.
  const auto states = faults.channel_states();
  w.begin_section("faults");
  w.put_u64(states.size());
  for (const auto& [gateway_id, state] : states) {
    w.put_i64(gateway_id);
    write_rng(w, state.rng);
    w.put_u64(state.bad ? 1 : 0);
    write_time(w, state.state_until);
  }
  w.end_section();
}

void read_faults(StateReader& r, FaultPlan& faults) {
  r.begin_section("faults");
  std::vector<std::pair<int, GilbertElliott::State>> states(r.get_u64());
  for (auto& [gateway_id, state] : states) {
    gateway_id = static_cast<int>(r.get_i64());
    state.rng = read_rng(r);
    state.bad = r.get_u64() != 0;
    state.state_until = read_time(r);
  }
  r.end_section();
  faults.restore_channel_states(states);
}

}  // namespace

void checkpoint_slice(StateWriter& w, const EngineSlice& slice) {
  w.begin_section("clock");
  write_time(w, slice.sim->now());
  w.put_u64(slice.sim->events_executed());
  w.put_u64(slice.sim->next_event_seq());
  w.end_section();

  w.begin_section("topology");
  w.put_u64(slice.gateways->size());
  w.put_u64(slice.nodes->size());
  w.put_u64(slice.faults != nullptr ? 1 : 0);
  w.end_section();

  slice.server->checkpoint_state(w);
  for (const auto& gateway : *slice.gateways) gateway->checkpoint_state(w);
  write_gateway_metrics(w, *slice.gateway_metrics);
  for (const auto& node : *slice.nodes) node->checkpoint_state(w);
  if (slice.faults != nullptr) write_faults(w, *slice.faults);
}

void restore_slice(StateReader& r, const EngineSlice& slice) {
  // Wipe the construction-time schedule first: every component then replays
  // its own pending events under their original seqs.
  slice.sim->clear_events();

  r.begin_section("clock");
  const Time now = read_time(r);
  const std::uint64_t executed = r.get_u64();
  const std::uint64_t next_seq = r.get_u64();
  r.end_section();

  r.begin_section("topology");
  if (r.get_u64() != slice.gateways->size() || r.get_u64() != slice.nodes->size() ||
      (r.get_u64() != 0) != (slice.faults != nullptr)) {
    throw std::runtime_error{"restore_slice: checkpoint topology does not match this slice"};
  }
  r.end_section();

  // Global id -> node, built once: pending frames and receptions name their
  // node by id, and a scan per lookup made restore O(nodes x pending).
  using IdEntry = std::pair<std::uint32_t, Node*>;
  std::vector<IdEntry> by_id;
  by_id.reserve(slice.nodes->size());
  for (const auto& node : *slice.nodes) by_id.emplace_back(node->id(), node.get());
  const auto id_less = [](const IdEntry& a, const IdEntry& b) { return a.first < b.first; };
  std::sort(by_id.begin(), by_id.end(), id_less);
  const auto node_by_id = [&by_id, &id_less](std::uint32_t id) -> Node* {
    const auto it = std::lower_bound(by_id.begin(), by_id.end(), IdEntry{id, nullptr}, id_less);
    if (it == by_id.end() || it->first != id) {
      throw std::runtime_error{"restore_slice: checkpoint references a node outside this slice"};
    }
    return it->second;
  };

  slice.server->restore_state(r, *slice.gateways, node_by_id);
  for (const auto& gateway : *slice.gateways) gateway->restore_state(r, node_by_id);
  read_gateway_metrics(r, *slice.gateway_metrics);
  for (const auto& node : *slice.nodes) node->restore_state(r);
  if (slice.faults != nullptr) read_faults(r, *slice.faults);

  // Last: the clock. Every schedule_at_seq above validated against now()==0;
  // from here the engine is positioned exactly at the checkpoint instant.
  slice.sim->restore_clock(now, executed, next_seq);
}

}  // namespace blam
