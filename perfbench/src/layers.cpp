#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <vector>

#include "common/rng.hpp"
#include "core/degradation_service.hpp"
#include "core/window_selector.hpp"
#include "degradation/model.hpp"
#include "degradation/tracker.hpp"
#include "forecast/retx_estimator.hpp"
#include "mac/codec.hpp"
#include "sim/event_queue.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

/// Keeps a result alive so the timed call cannot be optimized away.
template <class T>
void keep(const T& value) {
  __asm__ __volatile__("" : : "g"(&value) : "memory");
}

constexpr int kRepetitions = 7;

/// Median over kRepetitions of the mean cost of `ops` calls of op(i), with
/// i counting on across repetitions so stateful layers keep advancing.
template <class Op>
double ns_per_op(std::size_t ops, Op&& op) {
  std::vector<double> reps;
  std::size_t i = 0;
  for (int r = 0; r < kRepetitions; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t k = 0; k < ops; ++k) op(i++);
    const auto ns =
        std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - t0).count();
    reps.push_back(ns / static_cast<double>(ops));
  }
  return median(std::move(reps));
}

}  // namespace

double queue_op_ns(std::size_t depth, std::uint64_t seed) {
  blam::EventQueue queue;
  blam::Rng rng{seed, 1};
  for (std::size_t i = 0; i < std::max<std::size_t>(depth, 1); ++i) {
    queue.schedule(blam::Time::from_us(rng.uniform_int(0, 1'000'000)), [] {});
  }
  std::int64_t clock = 1'000'000;
  return ns_per_op(200'000, [&](std::size_t) {
    queue.schedule(blam::Time::from_us(clock + rng.uniform_int(0, 1'000'000)), [] {});
    auto popped = queue.pop();
    clock = popped.time.us();
    keep(popped.callback);
  });
}

double codec_roundtrip_ns(std::size_t report_samples) {
  blam::UplinkFrame frame;
  frame.node_id = 7;
  frame.seq = 42;
  frame.attempt = 1;
  frame.selected_window = 3;
  frame.app_payload_bytes = 10;
  for (std::size_t i = 0; i < report_samples; ++i) {
    const auto k = static_cast<double>(i);
    frame.soc_report.push_back({blam::Time::from_minutes(100.0 + 4.0 * k), 0.7 - 0.1 * k});
  }
  frame.report_seq = 9;
  frame.report_crc = blam::report_checksum(frame.report_seq, frame.soc_report);
  const blam::Time reference =
      frame.soc_report.empty() ? blam::Time::zero() : frame.soc_report.back().t;
  return ns_per_op(100'000, [&](std::size_t) {
    const auto bytes = blam::encode_uplink(frame);
    keep(blam::decode_uplink(bytes, reference));
  });
}

double select_ns(const blam::ScenarioConfig& config, int windows, std::uint64_t seed) {
  constexpr std::size_t kInputs = 64;
  const auto n = static_cast<std::size_t>(std::max(windows, 1));
  blam::Rng rng{seed, 2};
  std::vector<std::vector<blam::Energy>> harvest(kInputs);
  std::vector<std::vector<blam::Energy>> cost(kInputs);
  std::vector<double> w_u(kInputs);
  for (std::size_t k = 0; k < kInputs; ++k) {
    for (std::size_t t = 0; t < n; ++t) {
      harvest[k].push_back(blam::Energy::from_joules(rng.uniform(0.0, 0.2)));
      cost[k].push_back(blam::Energy::from_joules(rng.uniform(0.05, 0.1)));
    }
    w_u[k] = rng.uniform();
  }
  const auto utility = blam::make_utility(config);
  blam::WindowSelectorInput input;
  input.battery = blam::Energy::from_joules(1.0);
  input.storage_cap = blam::Energy::from_joules(2.0);
  input.w_b = 1.0;
  input.max_tx = blam::Energy::from_joules(0.8);
  input.utility = utility.get();
  const blam::WindowSelector selector;
  blam::WindowSelector::Workspace ws;
  return ns_per_op(50'000, [&](std::size_t i) {
    const std::size_t k = i % kInputs;
    input.harvest = harvest[k];
    input.tx_cost = cost[k];
    input.w_u = w_u[k];
    keep(selector.select(input, ws));
  });
}

double expected_tx_ns(int windows, std::uint64_t seed) {
  const auto n = static_cast<std::size_t>(std::max(windows, 1));
  blam::RetxEstimator estimator{n};
  blam::Rng rng{seed, 3};
  for (std::size_t i = 0; i < 64 * n; ++i) {
    estimator.record(i % n, static_cast<int>(rng.uniform_int(0, 7)));
  }
  return ns_per_op(200'000, [&](std::size_t i) { keep(estimator.expected_transmissions(i % n)); });
}

double solar_between_ns(const blam::SolarTrace& trace, blam::Time horizon, std::uint64_t seed) {
  constexpr std::size_t kStarts = 4096;
  blam::Rng rng{seed, 4};
  std::vector<blam::Time> starts;
  for (std::size_t i = 0; i < kStarts; ++i) {
    starts.push_back(blam::Time::from_us(rng.uniform_int(0, horizon.us())));
  }
  const blam::Time width = blam::Time::from_minutes(1.0);
  return ns_per_op(200'000, [&](std::size_t i) {
    const blam::Time t0 = starts[i % kStarts];
    keep(trace.energy_between(t0, t0 + width));
  });
}

double ledger_ingest_ns(int nodes, std::uint64_t seed) {
  const auto n = static_cast<std::size_t>(std::max(nodes, 1));
  const blam::DegradationModel model{};
  blam::DegradationService service{model, 25.0};
  for (std::uint32_t id = 0; id < n; ++id) service.register_node(id);
  blam::Rng rng{seed, 5};
  // One report per node per round, all nodes sharing the round's samples
  // (a half-hourly period: start-of-period and latest SoC).
  std::vector<blam::SocSample> samples(2);
  std::uint16_t seq = 0;
  std::uint8_t crc = 0;
  const std::size_t ops = std::max<std::size_t>(n * 20, 100'000);
  return ns_per_op(ops, [&](std::size_t i) {
    const std::size_t round = i / n;
    if (i % n == 0) {
      const blam::Time t0 = blam::Time::from_minutes(30.0 * static_cast<double>(round));
      samples[0] = {t0, rng.uniform(0.3, 0.9)};
      samples[1] = {t0 + blam::Time::from_minutes(20.0), rng.uniform(0.3, 0.9)};
      seq = static_cast<std::uint16_t>(round + 1);
      crc = blam::report_checksum(seq, samples);
    }
    service.ingest_report(static_cast<std::uint32_t>(i % n), seq, crc, samples);
  });
}

double degradation_record_ns(std::uint64_t seed) {
  constexpr std::size_t kWalk = 4096;
  const blam::DegradationModel model{};
  blam::DegradationTracker tracker{model, 25.0};
  blam::Rng rng{seed, 6};
  std::vector<double> walk;
  double soc = 0.5;
  for (std::size_t i = 0; i < kWalk; ++i) {
    soc = std::clamp(soc + rng.uniform(-0.1, 0.1), 0.0, 1.0);
    walk.push_back(soc);
  }
  return ns_per_op(200'000, [&](std::size_t i) {
    tracker.record(blam::Time::from_minutes(30.0 * static_cast<double>(i + 1)), walk[i % kWalk]);
  });
}

}  // namespace perfbench
