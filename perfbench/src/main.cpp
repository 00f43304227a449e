// blam_perf: runs one benchmark workload for a time budget and prints its
// metrics. The last stdout line is the result object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {name: {value, unit}}}
// --trace 0 reports the end-to-end metrics (no spans recorded); --trace 1
// alternates untraced and traced batches, times each layer's public calls,
// and reports the per-layer metrics plus the tracing overhead.
//
// A batch runs one engine per lane at once. Serial workloads get one lane
// per core (up to kMaxThreads), as a figure sweep runs its cells; a sharded
// engine's worker threads take the cores themselves, so it gets one lane.
// Either way the process uses at most kMaxThreads busy threads.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cli.hpp"
#include "common/rng.hpp"
#include "expected.hpp"
#include "host.hpp"
#include "layers.hpp"
#include "net/deployment_plan.hpp"
#include "runner.hpp"
#include "sim/shard_engine.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

/// Every run makes at least this many batches, so a seed without a recorded
/// fingerprint is still checked for run-to-run agreement and the medians
/// have more than one sample.
constexpr int kMinBatches = 3;
/// Traced runs pair an untraced batch with each traced one.
constexpr int kMinTracePairs = 2;
/// Busy threads the benchmark may use (the cores of the reference host).
constexpr unsigned kMaxThreads = 4;
/// BLAM uplinks carry two SoC samples: period start and latest.
constexpr std::size_t kReportSamples = 2;
/// Simulated days over which the pending-event probe samples the serial
/// engine's queue, hourly.
constexpr int kProbeDays = 1;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// True when another iteration, at the mean cost of the `done` so far,
/// still fits in the budget (so a run ends near its budget, not one
/// iteration past it).
bool time_left(Clock::time_point start, double budget_s, int done) {
  const double elapsed = seconds_since(start);
  return elapsed + elapsed / std::max(done, 1) <= budget_s;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, int attempted, int failed, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Counts attempts and failures and decides whether an iteration is right:
/// its fingerprint must equal the recorded one for (workload, seed), or,
/// without a recorded value, the first iteration's; a resume leg must
/// reproduce the uninterrupted run exactly.
class Gate {
 public:
  Gate(const Workload& workload, std::uint64_t seed)
      : expected_{expected_fingerprint(workload.name, seed)} {}

  /// `r` is empty when the iteration threw (`error` says why).
  bool check(const std::optional<IterationResult>& r, const std::string& error, int run,
             bool traced) {
    ++attempted_;
    bool ok = false;
    if (r) {
      if (!have_reference_) {
        reference_ = expected_.value_or(r->fingerprint);
        have_reference_ = true;
      }
      ok = r->resume_identical && r->fingerprint == reference_;
      std::printf("iteration %d%s: setup_s=%.4f run_s=%.4f wall_s=%.4f fingerprint=%016" PRIx64
                  " %s\n",
                  run, traced ? " (traced)" : "", r->setup_s, r->run_s, r->wall_s, r->fingerprint,
                  ok ? "ok" : "MISMATCH");
      if (!r->resume_identical) {
        std::fprintf(stderr, "error: iteration %d: resumed run differs from the uninterrupted "
                             "run\n", run);
      }
    } else {
      std::fprintf(stderr, "error: iteration %d failed: %s\n", run, error.c_str());
    }
    if (!ok) ++failed_;
    return ok;
  }

  /// Counts a failed check made outside the iterations.
  void fail(const char* what, const char* error) {
    std::fprintf(stderr, "error: %s failed: %s\n", what, error);
    ++attempted_;
    ++failed_;
  }

  [[nodiscard]] int attempted() const { return attempted_; }
  [[nodiscard]] int failed() const { return failed_; }
  [[nodiscard]] bool correct() const { return attempted_ > 0 && failed_ == 0; }
  [[nodiscard]] bool recorded() const { return expected_.has_value(); }

 private:
  std::optional<std::uint64_t> expected_;
  std::uint64_t reference_{0};
  bool have_reference_{false};
  int attempted_{0};
  int failed_{0};
};

int lanes_for(const Workload& w) {
  const unsigned cores = std::clamp(std::thread::hardware_concurrency(), 1U, kMaxThreads);
  return std::max(1, static_cast<int>(cores) / w.shards);
}

/// Runs one iteration per lane at once (lane 0 on the calling thread),
/// checks each through the gate and returns the verified ones. `tracers` is
/// empty (untraced) or has one tracer per lane.
std::vector<IterationResult> run_batch(Gate& gate, const Workload& w,
                                       const blam::ScenarioConfig& config,
                                       const std::vector<std::uint32_t>* below_floor,
                                       std::span<Tracer> tracers, int batch, int lanes) {
  std::vector<std::optional<IterationResult>> results(static_cast<std::size_t>(lanes));
  std::vector<std::string> errors(static_cast<std::size_t>(lanes));
  const auto lane_body = [&](int lane) {
    const auto i = static_cast<std::size_t>(lane);
    try {
      results[i] = run_iteration(w, config, below_floor, tracers.empty() ? nullptr : &tracers[i],
                                 batch * lanes + lane);
    } catch (const std::exception& e) {
      errors[i] = e.what();
    }
  };
  {
    std::vector<std::jthread> threads;
    for (int lane = 1; lane < lanes; ++lane) threads.emplace_back(lane_body, lane);
    lane_body(0);
  }
  std::vector<IterationResult> ok;
  for (int lane = 0; lane < lanes; ++lane) {
    auto& r = results[static_cast<std::size_t>(lane)];
    if (gate.check(r, errors[static_cast<std::size_t>(lane)], batch * lanes + lane,
                   !tracers.empty())) {
      ok.push_back(std::move(*r));
    }
  }
  return ok;
}

void append(std::vector<IterationResult>& to, std::vector<IterationResult> from) {
  for (IterationResult& r : from) to.push_back(std::move(r));
}

double node_days_per_s(const IterationResult& r) { return r.node_days / r.run_s; }

template <class T, class Field>
double median_of(const std::vector<T>& items, Field field) {
  std::vector<double> v;
  for (const T& item : items) v.push_back(field(item));
  return median(std::move(v));
}

/// Median of every epoch checkpoint the iterations took.
double median_checkpoint_s(const std::vector<IterationResult>& runs) {
  std::vector<double> all;
  for (const IterationResult& r : runs) {
    all.insert(all.end(), r.checkpoint_s.begin(), r.checkpoint_s.end());
  }
  return median(std::move(all));
}

void print_fingerprint(const Workload& w, std::uint64_t seed, const Gate& gate,
                       const std::vector<IterationResult>& ok) {
  if (ok.empty()) return;
  std::printf("fingerprint %.*s %" PRIu64 " 0x%016" PRIx64 " (%s)\n",
              static_cast<int>(w.name.size()), w.name.data(), seed, ok.front().fingerprint,
              gate.recorded() ? "matches the recorded value" : "no recorded value: runs agree");
}

int run_untraced(const Workload& w, const blam::ScenarioConfig& config, const Options& opts) {
  Gate gate{w, opts.seed};
  const int lanes = lanes_for(w);
  std::vector<IterationResult> ok;
  const auto start = Clock::now();
  for (int b = 0; b < kMinBatches || time_left(start, opts.seconds, b); ++b) {
    append(ok, run_batch(gate, w, config, nullptr, {}, b, lanes));
  }
  print_fingerprint(w, opts.seed, gate, ok);
  if (w.resume && !ok.empty()) {
    std::printf("resume: checkpoint_s=%.4f restore_s=%.4f checkpoint_mb=%.3f\n",
                median_checkpoint_s(ok), median_of(ok, [](const auto& r) { return r.restore_s; }),
                static_cast<double>(ok.front().checkpoint_bytes) / 1e6);
  }
  print_result(gate.correct(), gate.attempted(), gate.failed(),
               {{"node_days_per_s",
                 median_of(ok, [](const auto& r) { return node_days_per_s(r); }),
                 "node-day/s"},
                {"setup_s", median_of(ok, [](const auto& r) { return r.setup_s; }), "s"},
                {"wall_s", median_of(ok, [](const auto& r) { return r.wall_s; }), "s"},
                {"peak_rss_mb", peak_rss_mb(), "MB"}});
  return 0;
}

/// Median seconds of `calls` calls of fn(), each inside a span.
template <class Fn>
double timed_calls(Tracer& tracer, const char* name, int calls, Fn&& fn) {
  std::vector<double> s;
  for (int i = 0; i < calls; ++i) {
    const ScopedSpan span{&tracer, name, -1};
    const auto t0 = Clock::now();
    fn();
    s.push_back(seconds_since(t0));
  }
  return median(std::move(s));
}

template <class Fn>
double layer(Tracer& tracer, const char* name, Fn&& fn) {
  const ScopedSpan span{&tracer, name, -1};
  return fn();
}

int run_traced(const Workload& w, const blam::ScenarioConfig& config, const Options& opts) {
  const int lanes = lanes_for(w);
  const auto start = Clock::now();
  std::vector<Tracer> tracers(static_cast<std::size_t>(lanes), Tracer{start});
  Tracer& tracer = tracers.front();
  Gate gate{w, opts.seed};

  // Planning, timed by calling the same public functions the engine's
  // constructor calls.
  const blam::Rng root{config.seed, blam::salt::kRootStream};
  blam::DeploymentPlan deployment;
  const double plan_deployment_s = timed_calls(tracer, "plan_deployment", 3, [&] {
    deployment = blam::plan_deployment(config, root);
  });
  const double plan_shards_s = timed_calls(tracer, "plan_shards", 3, [&] {
    (void)blam::plan_shards(config, deployment, config.shards);
  });
  const std::vector<std::uint32_t> below_floor = below_floor_gateways(config, deployment);

  std::vector<IterationResult> untraced;
  std::vector<IterationResult> traced;
  // The side that runs first alternates, so neither gains from going first.
  for (int pair = 0; pair < kMinTracePairs || time_left(start, opts.seconds, 2 * pair); ++pair) {
    const bool traced_first = pair % 2 == 1;
    for (int side = 0; side < 2; ++side) {
      const bool trace_this = (side == 0) == traced_first;
      const int batch = 2 * pair + side;
      if (trace_this) {
        append(traced, run_batch(gate, w, config, &below_floor, tracers, batch, lanes));
      } else {
        append(untraced, run_batch(gate, w, config, &below_floor, {}, batch, lanes));
      }
    }
  }
  const double traced_wall = median_of(traced, [](const auto& r) { return r.wall_s; });
  const double untraced_wall = median_of(untraced, [](const auto& r) { return r.wall_s; });
  const double overhead_s = traced_wall - untraced_wall;
  print_fingerprint(w, opts.seed, gate, traced);
  if (traced.empty()) {
    print_result(false, gate.attempted(), gate.failed(), {});
    return 0;
  }
  const IterationResult& first = traced.front();

  CheckpointCost checkpoints;
  if (w.resume) {
    // The workload's own checkpoints and restores.
    checkpoints.checkpoint_s = median_checkpoint_s(traced);
    checkpoints.restore_s = median_of(traced, [](const auto& r) { return r.restore_s; });
    checkpoints.bytes = first.checkpoint_bytes;
  } else {
    const ScopedSpan span{&tracer, "probe.checkpoint", -1};
    try {
      checkpoints = checkpoint_probe(config);
    } catch (const std::exception& e) {
      gate.fail("checkpoint probe", e.what());
    }
  }

  std::size_t serial_depth = 0;
  {
    const ScopedSpan span{&tracer, "probe.pending_events", -1};
    serial_depth = serial_pending_events_max(config, kProbeDays);
  }
  // A shard's queue holds its own nodes' events only.
  const std::size_t shard_depth =
      serial_depth * first.largest_shard_nodes / static_cast<std::size_t>(w.nodes);
  const double queue_ns =
      layer(tracer, "layer.queue", [&] { return queue_op_ns(shard_depth, opts.seed); });
  const double codec_ns =
      layer(tracer, "layer.codec", [&] { return codec_roundtrip_ns(kReportSamples); });
  const double select = layer(tracer, "layer.select", [&] {
    return select_ns(config, first.max_windows, opts.seed);
  });
  const double expected_tx = layer(tracer, "layer.expected_tx", [&] {
    return expected_tx_ns(first.max_windows, opts.seed);
  });
  const double solar = layer(tracer, "layer.solar", [&] {
    const auto trace = blam::build_deployment_trace(config, deployment.worst_attempt_energy);
    return solar_between_ns(*trace, blam::Time::from_days(w.days), opts.seed);
  });
  const double ingest =
      layer(tracer, "layer.ledger_ingest", [&] { return ledger_ingest_ns(w.nodes, opts.seed); });
  const double record =
      layer(tracer, "layer.degradation_record", [&] { return degradation_record_ns(opts.seed); });

  std::vector<double> epochs_ms;
  for (const IterationResult& r : traced) {
    for (const double s : r.epoch_s) epochs_ms.push_back(s * 1e3);
  }
  const std::optional<double> tail_pct = tail_percentile(epochs_ms.size());
  const double epoch_tail = tail_pct ? percentile(epochs_ms, *tail_pct)
                                     : *std::max_element(epochs_ms.begin(), epochs_ms.end());

  const auto med = [&traced](auto field) { return median_of(traced, field); };
  const double setup_s = med([](const auto& r) { return r.setup_s; });

  double spans = 0.0;
  for (const Tracer& t : tracers) spans += static_cast<double>(t.spans().size());

  const blam::GatewayMetrics& g = first.gateway;
  const double generated = static_cast<double>(first.generated);
  std::vector<double> w_u = first.w_u;
  const double w_min = w_u.empty() ? 0.0 : *std::min_element(w_u.begin(), w_u.end());
  const double w_max = w_u.empty() ? 0.0 : *std::max_element(w_u.begin(), w_u.end());

  const std::vector<Metric> metrics{
      {"sim.events", static_cast<double>(first.events), "count"},
      {"sim.events_per_s",
       med([](const auto& r) { return static_cast<double>(r.events) / r.run_s; }), "1/s"},
      {"sim.pending_events_max", w.shards <= 1 ? static_cast<double>(serial_depth) : 0.0, "count"},
      {"sim.queue_op_ns", queue_ns, "ns"},
      {"sim.allocs_per_period",
       med([](const auto& r) {
         return r.generated > 0
                    ? static_cast<double>(r.run_allocs) / static_cast<double>(r.generated)
                    : 0.0;
       }),
       "count"},
      {"sim.epoch_ms_p50", percentile(epochs_ms, 50.0), "ms"},
      {"sim.epoch_ms_tail", epoch_tail, "ms"},
      {"sim.epoch_tail_pct", tail_pct.value_or(100.0), "%"},
      {"sim.epoch_samples", static_cast<double>(epochs_ms.size()), "count"},
      {"sim.critical_path_s", med([](const auto& r) { return r.critical_path_s; }), "s"},
      {"sim.barrier_wait_s",
       med([](const auto& r) { return std::max(0.0, r.run_s - r.critical_path_s); }), "s"},
      {"sim.shard_utilization",
       med([](const auto& r) { return std::min(1.0, r.critical_path_s / r.run_s); }), "ratio"},
      {"sim.shards", static_cast<double>(first.effective_shards), "count"},
      {"sim.lanes", static_cast<double>(lanes), "count"},
      {"sim.domains", static_cast<double>(first.domains), "count"},
      {"sim.plan_shards_s", plan_shards_s, "s"},
      {"sim.checkpoint_s", checkpoints.checkpoint_s, "s"},
      {"sim.restore_s", checkpoints.restore_s, "s"},
      {"sim.checkpoint_bytes", static_cast<double>(checkpoints.bytes), "bytes"},
      {"net.plan_deployment_s", plan_deployment_s, "s"},
      {"net.build_s", std::max(0.0, setup_s - plan_deployment_s - plan_shards_s), "s"},
      {"net.finalize_s", med([](const auto& r) { return r.finalize_s; }), "s"},
      {"net.packets_generated", generated, "count"},
      {"net.packets_delivered", static_cast<double>(first.delivered), "count"},
      {"net.prr", generated > 0 ? static_cast<double>(first.delivered) / generated : 0.0,
       "ratio"},
      {"net.gateway_arrivals", static_cast<double>(g.arrivals), "count"},
      {"net.arrivals_below_floor", static_cast<double>(first.arrivals_below_floor), "count"},
      {"net.useful_arrival_ratio",
       g.arrivals > 0 ? 1.0 - static_cast<double>(first.arrivals_below_floor) /
                                  static_cast<double>(g.arrivals)
                      : 0.0,
       "ratio"},
      {"lora.lost_interference", static_cast<double>(g.lost_interference), "count"},
      {"lora.lost_half_duplex", static_cast<double>(g.lost_half_duplex), "count"},
      {"mac.tx_attempts", static_cast<double>(first.tx_attempts), "count"},
      {"mac.retx_per_packet", generated > 0 ? static_cast<double>(first.retx) / generated : 0.0,
       "ratio"},
      {"mac.acks_sent", static_cast<double>(g.acks_sent), "count"},
      {"mac.acks_rx2", static_cast<double>(g.acks_rx2), "count"},
      {"mac.codec_roundtrip_ns", codec_ns, "ns"},
      {"energy.solar_between_ns", solar, "ns"},
      {"forecast.expected_tx_ns", expected_tx, "ns"},
      {"core.select_ns", select, "ns"},
      {"core.max_windows", static_cast<double>(first.max_windows), "count"},
      {"core.ledger_ingest_ns", ingest, "ns"},
      {"degradation.record_ns", record, "ns"},
      {"core.w_u_min", w_min, "ratio"},
      {"core.w_u_p50", median(std::move(w_u)), "ratio"},
      {"core.w_u_max", w_max, "ratio"},
      {"degradation.d_max", first.d_max, "ratio"},
      {"trace.overhead_s", overhead_s, "s"},
      {"trace.spans", spans, "count"},
  };

  if (!opts.trace_out.empty()) {
    char other[512];
    std::snprintf(other, sizeof other,
                  "\"workload\": \"%.*s\", \"seed\": %" PRIu64
                  ", \"traced_wall_s\": %.6f, \"untraced_wall_s\": %.6f, "
                  "\"tracing_overhead_s\": %.6f, \"host\": ",
                  static_cast<int>(w.name.size()), w.name.data(), opts.seed, traced_wall,
                  untraced_wall, overhead_s);
    std::ofstream out{opts.trace_out};
    write_chrome_trace(out, tracers, std::string{other} + host_record_json());
    out.flush();
    if (!out) {
      std::fprintf(stderr, "error: could not write %s\n", opts.trace_out.c_str());
      return 1;
    }
    std::printf("trace: %.0f spans written to %s (tracing overhead %.4f s)\n", spans,
                opts.trace_out.c_str(), overhead_s);
  }
  print_result(gate.correct(), gate.attempted(), gate.failed(), metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  try {
    opts = parse_args(std::vector<std::string>(argv + 1, argv + argc));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "usage: blam_perf --workload <name> --seed <n> --seconds <s> "
                         "--trace <0|1> [--trace-out <path>]\nerror: %s\n",
                 e.what());
    return 2;
  }
  const Workload* workload = find_workload(opts.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "error: unknown workload '%s'; known:", opts.workload.c_str());
    for (const Workload& w : workloads()) {
      std::fprintf(stderr, " %.*s", static_cast<int>(w.name.size()), w.name.data());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  const blam::ScenarioConfig config = workload_config(*workload, opts.seed);
  std::printf("host %s\n", host_record_json().c_str());
  std::printf("workload %.*s: %.*s\n", static_cast<int>(workload->name.size()),
              workload->name.data(), static_cast<int>(workload->why.size()),
              workload->why.data());
  try {
    return opts.trace ? run_traced(*workload, config, opts)
                      : run_untraced(*workload, config, opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
