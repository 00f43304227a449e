#include "runner.hpp"

#include <algorithm>
#include <chrono>
#include <ctime>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

#include "alloc_counter.hpp"
#include "fingerprint.hpp"
#include "net/network.hpp"
#include "sim/shard_engine.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double seconds_between(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

blam::Time epoch_end(const blam::ScenarioConfig& config, int epoch) {
  return blam::Time::from_us(config.dissemination_period.us() * epoch);
}

/// Runs `engine` through the end of `epoch` as one timed slice, adding it
/// to out.epoch_s, out.run_s, out.node_days and out.run_allocs (as counted
/// by `count_allocs`). Returns the calling thread's CPU seconds in the slice.
double run_epoch(blam::ShardedNetwork& engine, const blam::ScenarioConfig& config, int epoch,
                 std::uint64_t (*count_allocs)(), IterationResult& out, Tracer* tracer,
                 int run) {
  const ScopedSpan span{tracer, "epoch", run};
  const std::uint64_t allocs0 = count_allocs();
  const double cpu0 = thread_cpu_s();
  const auto t0 = Clock::now();
  engine.run_until(epoch_end(config, epoch));
  const double wall = seconds_between(t0, Clock::now());
  const double cpu = thread_cpu_s() - cpu0;
  out.run_allocs += count_allocs() - allocs0;
  out.epoch_s.push_back(wall);
  out.run_s += wall;
  out.node_days += config.n_nodes * config.dissemination_period.seconds() / 86400.0;
  return cpu;
}

std::string take_checkpoint(blam::ShardedNetwork& engine) {
  std::ostringstream out;
  engine.checkpoint(out);
  return std::move(out).str();
}

/// Restores `mid` (taken at the end of epoch `mid_epoch`) into a fresh engine,
/// runs it to the horizon, and compares its final checkpoint and fingerprint
/// with the uninterrupted run's.
bool resume_matches(const blam::ScenarioConfig& config, int mid_epoch, int epochs,
                    const std::string& mid, const std::string& final_state,
                    std::uint64_t fingerprint_uninterrupted, IterationResult& out,
                    Tracer* tracer, int run) {
  const ScopedSpan resume_span{tracer, "resume", run};
  blam::ShardedNetwork resumed{config};
  {
    const ScopedSpan span{tracer, "restore", run};
    std::istringstream in{mid};
    const auto t0 = Clock::now();
    resumed.restore(in);
    out.restore_s = seconds_between(t0, Clock::now());
  }
  {
    const ScopedSpan span{tracer, "resume_run", run};
    for (int e = mid_epoch + 1; e <= epochs; ++e) resumed.run_until(epoch_end(config, e));
  }
  const bool same_state = take_checkpoint(resumed) == final_state;
  resumed.finalize_metrics();
  return same_state && fingerprint(resumed) == fingerprint_uninterrupted;
}

void collect_counters(const blam::ShardedNetwork& engine,
                      const std::vector<std::uint32_t>* below_floor, IterationResult& out) {
  const blam::Metrics& m = engine.metrics();
  out.w_u.reserve(m.node_count());
  for (std::size_t i = 0; i < m.node_count(); ++i) {
    const blam::NodeMetrics& n = m.node(i);
    out.generated += n.generated;
    out.delivered += n.delivered;
    out.tx_attempts += n.tx_attempts;
    out.retx += n.retx;
    if (below_floor != nullptr) out.arrivals_below_floor += n.tx_attempts * (*below_floor)[i];
    out.w_u.push_back(engine.w_for(static_cast<std::uint32_t>(i)));
  }
  out.gateway = m.gateway();
  out.d_max = engine.max_degradation();
  out.max_windows = engine.max_windows();
  out.events = engine.events_executed();
  const blam::ShardPlan& plan = engine.plan();
  out.effective_shards = plan.effective;
  out.domains = plan.domains;
  if (plan.serial) {
    out.largest_shard_nodes = m.node_count();
  } else {
    std::vector<std::size_t> per_shard(static_cast<std::size_t>(plan.effective), 0);
    for (const int s : plan.shard_of_node) ++per_shard[static_cast<std::size_t>(s)];
    out.largest_shard_nodes = *std::max_element(per_shard.begin(), per_shard.end());
  }
}

}  // namespace

std::vector<std::uint32_t> below_floor_gateways(const blam::ScenarioConfig& config,
                                                const blam::DeploymentPlan& deployment) {
  std::vector<std::uint32_t> out;
  out.reserve(deployment.nodes.size());
  for (const blam::NodePlan& node : deployment.nodes) {
    std::uint32_t count = 0;
    for (const double loss : node.losses_db) {
      if (config.tx_power_dbm - loss < config.interference_floor_dbm) ++count;
    }
    out.push_back(count);
  }
  return out;
}

IterationResult run_iteration(const Workload& workload, const blam::ScenarioConfig& config,
                              const std::vector<std::uint32_t>* below_floor, Tracer* tracer,
                              int run) {
  const ScopedSpan iteration_span{tracer, "iteration", run};
  IterationResult out;
  const auto t_start = Clock::now();

  std::unique_ptr<blam::ShardedNetwork> engine;
  {
    const ScopedSpan span{tracer, "setup", run};
    engine = std::make_unique<blam::ShardedNetwork>(config);
    out.setup_s = seconds_between(t_start, Clock::now());
  }
  if (engine->serial() != (workload.shards <= 1)) {
    throw std::runtime_error{"engine shape differs from the workload: " +
                             engine->plan().serial_reason};
  }

  // A serial engine runs on this thread only, possibly beside other lanes;
  // a sharded one allocates on its own worker threads.
  const auto count_allocs = engine->serial() ? thread_heap_allocations : heap_allocations;

  const int epochs = workload.days;
  const int mid_epoch = epochs / 2;
  std::string mid_checkpoint;
  std::string final_checkpoint;
  double run_cpu_s = 0.0;
  {
    const ScopedSpan run_span{tracer, "run", run};
    out.epoch_s.reserve(static_cast<std::size_t>(epochs));
    for (int e = 1; e <= epochs; ++e) {
      run_cpu_s += run_epoch(*engine, config, e, count_allocs, out, tracer, run);
      if (!workload.resume) continue;
      const ScopedSpan span{tracer, "checkpoint", run};
      const auto t0 = Clock::now();
      std::string state = take_checkpoint(*engine);
      out.checkpoint_s.push_back(seconds_between(t0, Clock::now()));
      if (e == mid_epoch) {
        out.checkpoint_bytes = state.size();
        mid_checkpoint = std::move(state);
      } else if (e == epochs) {
        final_checkpoint = std::move(state);
      }
    }
  }
  out.critical_path_s = engine->serial() ? run_cpu_s : engine->max_shard_busy_seconds();

  {
    const ScopedSpan span{tracer, "finalize", run};
    const auto t0 = Clock::now();
    engine->finalize_metrics();
    out.finalize_s = seconds_between(t0, Clock::now());
  }
  {
    const ScopedSpan span{tracer, "verify", run};
    out.fingerprint = fingerprint(*engine);
    collect_counters(*engine, below_floor, out);
  }
  engine.reset();

  if (workload.resume) {
    out.resume_identical = resume_matches(config, mid_epoch, epochs, mid_checkpoint,
                                          final_checkpoint, out.fingerprint, out, tracer, run);
  }
  out.wall_s = seconds_between(t_start, Clock::now());
  return out;
}

CheckpointCost checkpoint_probe(const blam::ScenarioConfig& config) {
  CheckpointCost out;
  blam::ShardedNetwork engine{config};
  engine.run_until(epoch_end(config, 1));
  std::vector<double> times;
  std::string state;
  for (int i = 0; i < 3; ++i) {
    const auto t0 = Clock::now();
    state = take_checkpoint(engine);
    times.push_back(seconds_between(t0, Clock::now()));
  }
  std::sort(times.begin(), times.end());
  out.checkpoint_s = times[1];
  out.bytes = state.size();

  blam::ShardedNetwork restored{config};
  std::istringstream in{state};
  const auto t0 = Clock::now();
  restored.restore(in);
  out.restore_s = seconds_between(t0, Clock::now());
  if (take_checkpoint(restored) != state) {
    throw std::runtime_error{"checkpoint probe: restored engine differs from the original"};
  }
  return out;
}

std::size_t serial_pending_events_max(const blam::ScenarioConfig& config, int days) {
  blam::Network network{config};
  std::size_t max_pending = network.simulator().pending_events();
  for (int hour = 1; hour <= days * 24; ++hour) {
    network.run_until(blam::Time::from_hours(static_cast<double>(hour)));
    max_pending = std::max(max_pending, network.simulator().pending_events());
  }
  return max_pending;
}

}  // namespace perfbench
