#include "sim/shard_engine.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <numeric>
#include <sstream>
#include <thread>

#include "audit/audit.hpp"
#include "lora/tx_timing_cache.hpp"
#include "net/scenario_io.hpp"
#include "sim/campaign.hpp"
#include "sim/checkpoint.hpp"

namespace blam {

int resolve_shards(int configured) {
  int shards = configured;
  if (const char* env = std::getenv("BLAM_SHARDS")) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && parsed >= 0) {
      shards = static_cast<int>(parsed);
    }
  }
  return shards;
}

double resolve_shard_timeout_s() {
  if (const char* env = std::getenv("BLAM_SHARD_TIMEOUT_S")) {
    char* end = nullptr;
    const double parsed = std::strtod(env, &end);
    if (end != env && *end == '\0' && parsed >= 0.0) return parsed;
  }
  return 0.0;
}

void write_wedge_quarantine(const std::string& path, const ScenarioConfig& config,
                            const std::string& report) {
  QuarantinedCell cell;
  cell.key = "sharded-run";
  cell.label = "wedged shard";
  cell.seed = config.seed;
  cell.attempts = 1;
  cell.timed_out = true;
  cell.error = report;
  cell.config_text = describe_scenario(config);
  write_quarantine(path, std::vector<QuarantinedCell>{cell});
}

Time cross_shard_lookahead(const ScenarioConfig& config, const DeploymentPlan& deployment) {
  // Which SFs are actually assigned (fixed at build time: sharded plans
  // reject ADR, the only runtime SF mutation).
  std::array<bool, 16> assigned{};
  for (const NodePlan& node : deployment.nodes) {
    assigned[static_cast<std::size_t>(node.sf)] = true;
  }
  TxTimingCache timing;
  Time min_toa{};
  bool seen = false;
  for (SpreadingFactor sf : kAllSpreadingFactors) {
    if (!assigned[static_cast<std::size_t>(sf)]) continue;
    TxParams params;
    params.sf = sf;
    params.bandwidth_hz = 125e3;
    params.payload_bytes = config.payload_bytes + 4;  // with SoC report
    params.tx_power_dbm = config.tx_power_dbm;
    params = params.with_auto_ldro();
    const Time toa = timing.time_on_air(params);
    if (!seen || toa < min_toa) min_toa = toa;
    seen = true;
  }
  return min_toa + config.timings.rx1_delay;
}

namespace {

int uf_find(std::vector<int>& parent, int g) {
  while (parent[static_cast<std::size_t>(g)] != g) {
    parent[static_cast<std::size_t>(g)] =
        parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(g)])];
    g = parent[static_cast<std::size_t>(g)];
  }
  return g;
}

void uf_unite(std::vector<int>& parent, int a, int b) {
  a = uf_find(parent, a);
  b = uf_find(parent, b);
  // Deterministic representative: the lower gateway id wins.
  if (a == b) return;
  if (a < b) {
    parent[static_cast<std::size_t>(b)] = a;
  } else {
    parent[static_cast<std::size_t>(a)] = b;
  }
}

}  // namespace

ShardPlan plan_shards(const ScenarioConfig& config, const DeploymentPlan& deployment,
                      int requested) {
  ShardPlan plan;
  plan.requested = requested;
  if (requested <= 1) {
    plan.serial_reason = "shards <= 1 requested";
    return plan;
  }
  if (audit_config_from_env(config.audit).level > 0) {
    plan.serial_reason = "audit enabled (global event-order hooks)";
    return plan;
  }
  if (config.interference.tx_per_hour > 0.0) {
    plan.serial_reason = "external interferer (one global arrival process)";
    return plan;
  }
  if (config.packet_log) {
    plan.serial_reason = "packet log (global event ordering)";
    return plan;
  }
  if (config.fast_fading) {
    plan.serial_reason = "fast fading (per-gateway draws from the node stream)";
    return plan;
  }
  if (config.adr_enabled) {
    plan.serial_reason = "adr (runtime tx-power changes could re-couple domains)";
    return plan;
  }

  // Collision domains: union-find over gateways, folding every pair some
  // node reaches above the audibility floor. Those gateways share
  // interference state at TX-start time (zero lookahead), so they cannot be
  // split; gateways no node couples to both of remain independent.
  const std::size_t n_gateways = deployment.gateway_positions.size();
  std::vector<int> parent(n_gateways);
  std::iota(parent.begin(), parent.end(), 0);
  std::vector<int> anchor_gateway(deployment.nodes.size(), 0);
  for (std::size_t i = 0; i < deployment.nodes.size(); ++i) {
    const NodePlan& node = deployment.nodes[i];
    int first_coupled = -1;
    int best_gateway = 0;
    double best_loss = node.losses_db.empty() ? 0.0 : node.losses_db[0];
    for (std::size_t g = 0; g < node.losses_db.size(); ++g) {
      if (node.losses_db[g] < best_loss) {
        best_loss = node.losses_db[g];
        best_gateway = static_cast<int>(g);
      }
      const double rx_dbm = config.tx_power_dbm - node.losses_db[g];
      if (rx_dbm >= config.interference_floor_dbm) {
        if (first_coupled < 0) {
          first_coupled = static_cast<int>(g);
        } else {
          uf_unite(parent, first_coupled, static_cast<int>(g));
        }
      }
    }
    // An everywhere-inaudible node still needs a home; its best gateway's
    // domain preserves serial results exactly (its uplinks are dropped under
    // the floor there just as they are everywhere).
    anchor_gateway[i] = first_coupled >= 0 ? first_coupled : best_gateway;
  }

  // Dense domain ids in ascending min-gateway-id order.
  std::vector<int> domain_of_root(n_gateways, -1);
  plan.domain_of_gateway.resize(n_gateways);
  int n_domains = 0;
  for (std::size_t g = 0; g < n_gateways; ++g) {
    const int root = uf_find(parent, static_cast<int>(g));
    if (domain_of_root[static_cast<std::size_t>(root)] < 0) {
      domain_of_root[static_cast<std::size_t>(root)] = n_domains++;
    }
    plan.domain_of_gateway[g] = domain_of_root[static_cast<std::size_t>(root)];
  }
  plan.domains = n_domains;
  plan.lookahead = cross_shard_lookahead(config, deployment);
  if (n_domains <= 1) {
    plan.serial_reason = "single collision domain";
    return plan;
  }

  // Longest-processing-time packing of domains onto shards, by node count.
  plan.effective = std::min(requested, n_domains);
  std::vector<std::uint64_t> domain_nodes(static_cast<std::size_t>(n_domains), 0);
  for (std::size_t i = 0; i < deployment.nodes.size(); ++i) {
    const int d = plan.domain_of_gateway[static_cast<std::size_t>(anchor_gateway[i])];
    ++domain_nodes[static_cast<std::size_t>(d)];
  }
  std::vector<int> order(static_cast<std::size_t>(n_domains));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&domain_nodes](int a, int b) {
    const std::uint64_t na = domain_nodes[static_cast<std::size_t>(a)];
    const std::uint64_t nb = domain_nodes[static_cast<std::size_t>(b)];
    return na != nb ? na > nb : a < b;
  });
  std::vector<std::uint64_t> load(static_cast<std::size_t>(plan.effective), 0);
  std::vector<int> shard_of_domain(static_cast<std::size_t>(n_domains), 0);
  for (const int d : order) {
    std::size_t lightest = 0;
    for (std::size_t s = 1; s < load.size(); ++s) {
      if (load[s] < load[lightest]) lightest = s;
    }
    shard_of_domain[static_cast<std::size_t>(d)] = static_cast<int>(lightest);
    load[lightest] += domain_nodes[static_cast<std::size_t>(d)];
  }

  plan.shard_of_gateway.resize(n_gateways);
  for (std::size_t g = 0; g < n_gateways; ++g) {
    plan.shard_of_gateway[g] =
        shard_of_domain[static_cast<std::size_t>(plan.domain_of_gateway[g])];
  }
  plan.shard_of_node.resize(deployment.nodes.size());
  for (std::size_t i = 0; i < deployment.nodes.size(); ++i) {
    plan.shard_of_node[i] = shard_of_domain[static_cast<std::size_t>(
        plan.domain_of_gateway[static_cast<std::size_t>(anchor_gateway[i])])];
  }
  plan.serial = false;
  plan.serial_reason.clear();
  return plan;
}

// --- ShardBarrier -----------------------------------------------------------

ShardBarrier::ShardBarrier(int parties, double timeout_s)
    : parties_{parties},
      timeout_s_{timeout_s},
      heartbeats_(static_cast<std::size_t>(parties)) {}

double ShardBarrier::reduce_max(double value) {
  std::unique_lock<std::mutex> lock{mutex_};
  if (poisoned_) throw ShardAborted{};
  folding_max_ = arrived_ == 0 ? value : std::max(folding_max_, value);
  if (++arrived_ == parties_) {
    result_ = folding_max_;
    arrived_ = 0;
    ++generation_;
    cv_.notify_all();
    return result_;
  }
  const std::uint64_t my_generation = generation_;
  const auto released = [this, my_generation] {
    return generation_ != my_generation || poisoned_;
  };
  if (timeout_s_ <= 0.0) {
    cv_.wait(lock, released);
  } else if (const auto deadline = std::chrono::steady_clock::now() +
                                   std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                                       std::chrono::duration<double>{timeout_s_});
             !cv_.wait_until(lock, deadline, released)) {
    // wait_until returned with the predicate still false: a peer shard has
    // missed the rendezvous for a full timeout window. This waiter — exactly
    // one, since the check runs under the lock and poisoning flips the
    // predicate for everyone else — becomes the detector: it kills the
    // barrier and escapes with the diagnostics.
    poisoned_ = true;
    cv_.notify_all();
    throw ShardWedged{wedge_report()};
  }
  if (poisoned_) throw ShardAborted{};
  // Safe to read under the lock: the next round cannot complete (and
  // overwrite result_) until every waiter of this round has re-arrived.
  return result_;
}

void ShardBarrier::sync() { (void)reduce_max(0.0); }

void ShardBarrier::heartbeat(int party, const Heartbeat& hb) {
  const std::lock_guard<std::mutex> lock{mutex_};
  heartbeats_[static_cast<std::size_t>(party)] = hb;
}

void ShardBarrier::poison() {
  const std::lock_guard<std::mutex> lock{mutex_};
  poisoned_ = true;
  cv_.notify_all();
}

bool ShardBarrier::poisoned() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  return poisoned_;
}

std::string ShardBarrier::wedge_report() const {
  std::uint64_t max_epoch = 0;
  for (const Heartbeat& hb : heartbeats_) max_epoch = std::max(max_epoch, hb.epoch);
  std::ostringstream out;
  out << "shard wedged: epoch barrier timed out after " << timeout_s_
      << " s; per-shard progress:";
  for (std::size_t p = 0; p < heartbeats_.size(); ++p) {
    const Heartbeat& hb = heartbeats_[p];
    out << "\n  shard " << p << ": epoch " << hb.epoch << ", queue depth " << hb.queue_depth
        << ", sim time " << static_cast<double>(hb.sim_now.us()) * 1e-6 << " s";
    if (hb.epoch < max_epoch) out << "  <-- lagging";
  }
  return out.str();
}

// --- ShardedNetwork ---------------------------------------------------------

struct ShardedNetwork::Shard {
  Simulator sim;
  ChannelPlan channels;
  DegradationModel model;
  std::unique_ptr<TemperatureModel> thermal;
  std::unique_ptr<UtilityFunction> utility;
  Metrics metrics;
  std::unique_ptr<NetworkServer> server;
  /// Full fault-plan replica built from the same 0xfa17 fork as the serial
  /// engine's: outage/drought schedules are global, and the Gilbert-Elliott /
  /// crash / report streams are pure per-gateway / per-node forks, so every
  /// shard's replica regenerates exactly the draws its entities would have
  /// consumed serially. Null when the scenario is fault-free.
  std::unique_ptr<FaultPlan> faults;
  std::vector<std::unique_ptr<Gateway>> gateways;
  /// Global ids of this shard's gateways / nodes, both ascending; local
  /// ids are the vector indices.
  std::vector<int> gateway_ids;
  std::vector<std::uint32_t> node_ids;
  std::vector<std::unique_ptr<Node>> nodes;
  double busy_seconds{0.0};

  Shard(const ScenarioConfig& config, std::size_t n_local)
      : channels{config.uplink_channels, config.downlink_channels},
        model{config.degradation},
        metrics{n_local} {}
};

/// Forwards each shard-local D_max into the epoch barrier's max-reduction;
/// one instance serves every shard (stateless beyond the barrier pointer).
class ShardedNetwork::FleetReducer final : public FleetMaxCombiner {
 public:
  explicit FleetReducer(ShardBarrier& barrier) : barrier_{&barrier} {}
  [[nodiscard]] double combine_max_degradation(double local_max) override {
    return barrier_->reduce_max(local_max);
  }

 private:
  ShardBarrier* barrier_;
};

ShardedNetwork::ShardedNetwork(const ScenarioConfig& config) : ShardedNetwork{config, nullptr} {}

namespace {

std::int64_t resolve_checkpoint_every() {
  if (const char* env = std::getenv("BLAM_CHECKPOINT_EVERY")) {
    char* end = nullptr;
    const long long parsed = std::strtoll(env, &end, 10);
    if (end != env && *end == '\0' && parsed >= 0) return parsed;
  }
  return 0;
}

std::string resolve_checkpoint_dir() {
  if (const char* env = std::getenv("BLAM_CHECKPOINT_DIR")) {
    if (*env != '\0') return env;
  }
  return ".";
}

}  // namespace

ShardedNetwork::ShardedNetwork(const ScenarioConfig& config,
                               std::shared_ptr<const SolarTrace> trace)
    : config_{config}, merged_{static_cast<std::size_t>(config.n_nodes)} {
  config_.validate();
  checkpoint_every_ = resolve_checkpoint_every();
  checkpoint_dir_ = resolve_checkpoint_dir();
  const Rng root{config_.seed, salt::kRootStream};
  const DeploymentPlan deployment = plan_deployment(config_, root);
  plan_ = plan_shards(config_, deployment, resolve_shards(config_.shards));
  if (plan_.serial) {
    // The proven engine, end to end — even events_executed matches a plain
    // Network run (the deployment is re-planned inside, from the same root).
    network_ = std::make_unique<Network>(config_, std::move(trace));
    if (plan_.requested > 1) {
      // The caller asked for parallelism it will not get; surface the silent
      // degradation once on stderr and in the merged metrics.
      std::fprintf(stderr, "blam: %d shards requested but running serial: %s\n", plan_.requested,
                   plan_.serial_reason.c_str());
      network_->metrics().set_serial_reason(plan_.serial_reason);
    }
    return;
  }
  build_shards(deployment, std::move(trace));
}

ShardedNetwork::~ShardedNetwork() = default;

void ShardedNetwork::build_shards(const DeploymentPlan& deployment,
                                  std::shared_ptr<const SolarTrace> trace) {
  trace_ = trace != nullptr ? std::move(trace)
                            : build_deployment_trace(config_, deployment.worst_attempt_energy);
  const int n_shards = plan_.effective;
  barrier_ = std::make_unique<ShardBarrier>(n_shards, resolve_shard_timeout_s());
  reducer_ = std::make_unique<FleetReducer>(*barrier_);
  failures_.resize(static_cast<std::size_t>(n_shards));

  std::vector<std::size_t> node_count(static_cast<std::size_t>(n_shards), 0);
  for (const int s : plan_.shard_of_node) ++node_count[static_cast<std::size_t>(s)];

  ThermalConfig thermal = config_.thermal;
  if (thermal.insulated) thermal.fixed_c = config_.temperature_c;

  Gateway::Config gw;
  gw.demod_paths = config_.gateway_demod_paths;
  gw.timings = config_.timings;
  gw.downlink_tx_dbm = config_.downlink_tx_dbm;
  gw.rx1_bandwidth_hz = config_.rx1_bandwidth_hz;
  gw.interference_floor_dbm = config_.interference_floor_dbm;

  const std::size_t ingest_batch = resolve_ingest_batch(config_);
  const Rng root{config_.seed, salt::kRootStream};

  shards_.reserve(static_cast<std::size_t>(n_shards));
  for (int s = 0; s < n_shards; ++s) {
    auto shard = std::make_unique<Shard>(config_, node_count[static_cast<std::size_t>(s)]);
    // Cooperative kill switch: lets the wedge watchdog unwind a runaway
    // event loop so the epoch join always returns.
    shard->sim.attach_abort_flag(&abort_flag_);
    shard->thermal = std::make_unique<TemperatureModel>(thermal);
    shard->utility = make_utility(config_);
    // Construction order mirrors Network::build — server first (its
    // dissemination tick is the earliest scheduled event), then gateways,
    // then nodes in ascending global id. Within a collision domain the
    // resulting event order is the serial order's projection, which is what
    // makes shard counts bit-identical.
    shard->server = std::make_unique<NetworkServer>(shard->sim, shard->model,
                                                    config_.temperature_c,
                                                    config_.dissemination_period);
    shard->server->attach_metrics(shard->metrics);
    shard->server->service().set_ingest_batch(ingest_batch);
    shard->server->service().set_fleet_combiner(reducer_.get());
    if (config_.adaptive_theta) {
      ThetaController::Config tc = config_.theta_controller;
      tc.initial = std::clamp(config_.theta, tc.theta_min, tc.theta_max);
      shard->server->enable_adaptive_theta(tc);
    }
    if (config_.faults.any()) {
      shard->faults = std::make_unique<FaultPlan>(config_.faults, root.fork(salt::kFaultPlan));
      shard->server->attach_fault_plan(shard->faults.get());
    }
    for (std::size_t g = 0; g < deployment.gateway_positions.size(); ++g) {
      if (plan_.shard_of_gateway[g] != s) continue;
      const int local_id = static_cast<int>(shard->gateways.size());
      shard->gateways.push_back(std::make_unique<Gateway>(local_id,
                                                          deployment.gateway_positions[g],
                                                          shard->sim, *shard->server,
                                                          shard->metrics, shard->channels, gw));
      shard->gateway_ids.push_back(static_cast<int>(g));
      if (shard->faults != nullptr) {
        // The Gilbert-Elliott downlink chain is keyed by the GLOBAL id.
        shard->gateways.back()->set_fault_gateway_id(static_cast<int>(g));
        shard->gateways.back()->attach_fault_plan(shard->faults.get());
      }
    }
    for (std::size_t i = 0; i < deployment.nodes.size(); ++i) {
      if (plan_.shard_of_node[i] != s) continue;
      const NodePlan& p = deployment.nodes[i];
      Node::Init init;
      init.id = static_cast<std::uint32_t>(i);
      init.position = p.position;
      init.period = p.period;
      init.sf = p.sf;
      // Shard-local link-budget vector, indexed by local gateway id.
      init.link_losses_db.reserve(shard->gateway_ids.size());
      for (const int global_gw : shard->gateway_ids) {
        init.link_losses_db.push_back(p.losses_db[static_cast<std::size_t>(global_gw)]);
      }
      init.battery_capacity = p.battery_capacity;
      init.panel_scale = p.panel_scale;
      shard->server->register_node(init.id);
      const std::size_t local = shard->nodes.size();
      shard->nodes.push_back(std::make_unique<Node>(init, config_, shard->sim, shard->gateways,
                                                    shard->channels, *trace_, shard->model,
                                                    *shard->thermal, *shard->utility,
                                                    shard->metrics.node(local),
                                                    root.fork(salt::kNodeStreamBase + i)));
      shard->node_ids.push_back(init.id);
      if (shard->faults != nullptr) shard->nodes.back()->attach_fault_plan(shard->faults.get());
      shard->nodes.back()->start();
    }
    shards_.push_back(std::move(shard));
  }
}

void ShardedNetwork::run_until(Time until) {
  if (until <= cursor_) return;
  // With checkpointing on, advance in slices that end exactly on checkpoint
  // boundaries (multiples of checkpoint_every_ dissemination epochs, in
  // absolute time), writing the rolling checkpoint file at each one. Slicing
  // is free for determinism: the workers' epoch windows already derive from
  // absolute boundary instants, so any split of [cursor_, until) replays the
  // identical epoch sequence.
  const std::int64_t cp_us =
      checkpoint_every_ > 0 ? config_.dissemination_period.us() * checkpoint_every_ : 0;
  while (cursor_ < until) {
    Time next = until;
    if (cp_us > 0) {
      const std::int64_t next_boundary = (cursor_.us() / cp_us + 1) * cp_us;
      next = std::min(until, Time::from_us(next_boundary));
    }
    if (network_ != nullptr) {
      network_->run_until(next);
    } else {
      advance(cursor_, next);
    }
    cursor_ = next;
    if (cp_us > 0 && next.us() % cp_us == 0) checkpoint_to_file(checkpoint_file_path());
  }
}

void ShardedNetwork::advance(Time start, Time until) {
  abort_flag_.store(false, std::memory_order_relaxed);
  std::fill(failures_.begin(), failures_.end(), nullptr);
  std::vector<std::thread> workers;
  workers.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    workers.emplace_back([this, s, start, until] { worker_run(s, start, until); });
  }
  for (std::thread& worker : workers) worker.join();
  for (const std::exception_ptr& failure : failures_) {
    if (failure == nullptr) continue;
    try {
      std::rethrow_exception(failure);
    } catch (const ShardWedged& wedged) {
      // A wedged run yields no results; leave the repro behind (same
      // protocol as a quarantined campaign cell) before propagating.
      write_wedge_quarantine("quarantine.json", config_, wedged.what());
      throw;
    }
  }
}

void ShardedNetwork::worker_run(std::size_t shard_index, Time start, Time until) {
  Shard& shard = *shards_[shard_index];
  timespec t0{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t0);
  try {
    // Epoch boundaries at multiples of the dissemination period: the w_u
    // recompute (the only cross-shard event) fires exactly at boundary
    // instants, and its D_max all-reduce doubles as the alignment check.
    // Every shard derives the identical window sequence from (start, until),
    // so the collective-call sequences match one to one.
    const std::int64_t epoch_us = config_.dissemination_period.us();
    Time cursor = start;
    while (cursor < until) {
      const std::int64_t next_boundary = (cursor.us() / epoch_us + 1) * epoch_us;
      const Time next = std::min(until, Time::from_us(next_boundary));
      shard.sim.run_until(next);
      // Publish progress before the rendezvous: if a peer wedges, the
      // detector's report shows this shard parked at the boundary while the
      // laggard's heartbeat is still a round behind.
      ShardBarrier::Heartbeat hb;
      hb.epoch = static_cast<std::uint64_t>(next_boundary / epoch_us);
      hb.queue_depth = shard.sim.pending_events();
      hb.sim_now = shard.sim.now();
      barrier_->heartbeat(static_cast<int>(shard_index), hb);
      barrier_->sync();
      cursor = next;
    }
  } catch (const ShardAborted&) {
    // A peer shard failed; its exception carries the diagnosis.
  } catch (const SimulationAborted&) {
    // This shard's event loop was killed by the watchdog's abort flag; the
    // detector's ShardWedged carries the diagnosis.
  } catch (const ShardWedged&) {
    // This shard detected the wedge (its timed barrier wait expired). The
    // barrier is already poisoned; raise the kill switch so the shard still
    // spinning inside run_until unwinds and join() returns.
    failures_[shard_index] = std::current_exception();
    abort_flag_.store(true, std::memory_order_relaxed);
  } catch (...) {
    failures_[shard_index] = std::current_exception();
    barrier_->poison();
    abort_flag_.store(true, std::memory_order_relaxed);
  }
  timespec t1{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t1);
  shard.busy_seconds += static_cast<double>(t1.tv_sec - t0.tv_sec) +
                        static_cast<double>(t1.tv_nsec - t0.tv_nsec) * 1e-9;
}

double ShardedNetwork::max_degradation() const {
  if (network_ != nullptr) return network_->max_degradation();
  double max_deg = 0.0;
  for (const auto& shard : shards_) {
    for (const auto& node : shard->nodes) {
      max_deg = std::max(max_deg, node->degradation_now(shard->sim.now()));
    }
  }
  return max_deg;
}

void ShardedNetwork::finalize_metrics() {
  if (network_ != nullptr) {
    network_->finalize_metrics();
    return;
  }
  const std::uint64_t total_gateways = plan_.shard_of_gateway.size();
  GatewayMetrics& mg = merged_.gateway();
  LedgerCounters feedback;
  for (const auto& shard : shards_) {
    for (const auto& node : shard->nodes) node->finalize_metrics(shard->sim.now());
    shard->server->flush_report_channel();

    std::uint64_t attempts = 0;
    for (std::size_t local = 0; local < shard->node_ids.size(); ++local) {
      const NodeMetrics& row = shard->metrics.node(local);
      merged_.node(shard->node_ids[local]) = row;
      attempts += row.tx_attempts;
    }

    const GatewayMetrics& g = shard->metrics.gateway();
    mg.arrivals += g.arrivals;
    mg.received += g.received;
    mg.lost_interference += g.lost_interference;
    mg.lost_half_duplex += g.lost_half_duplex;
    mg.lost_no_demod_path += g.lost_no_demod_path;
    mg.lost_under_sensitivity += g.lost_under_sensitivity;
    mg.acks_sent += g.acks_sent;
    mg.acks_rx2 += g.acks_rx2;
    mg.acks_unschedulable += g.acks_unschedulable;
    mg.acks_undecodable += g.acks_undecodable;
    mg.duplicates += g.duplicates;
    mg.lost_outage += g.lost_outage;
    mg.acks_lost_outage += g.acks_lost_outage;
    mg.acks_lost_channel += g.acks_lost_channel;
    // Every shard's server skips the identical backhaul-down dissemination
    // instants (the outage schedule is global), while the serial engine
    // counts each skip once — so this counter is replicated, not partitioned.
    mg.recomputes_skipped = g.recomputes_skipped;
    // Report-channel fault tallies live on each shard's channel, not in the
    // per-shard gateway metrics; nodes partition across shards, so the
    // serial per-node lanes sum is exactly the per-shard channels sum.
    if (const ReportChannelCounters* rc = shard->server->report_channel_counters()) {
      mg.reports_dropped_fault += rc->dropped;
      mg.reports_duplicated_fault += rc->duplicated;
      mg.reports_reordered_fault += rc->reordered;
      mg.reports_corrupted_fault += rc->corrupted;
      mg.reports_truncated_fault += rc->truncated;
    }

    // Exact compensation for the gateways this shard never radiated to: in
    // the serial engine every attempt arrives at every gateway, and at a
    // foreign shard's gateway it would sit under the audibility floor by
    // construction — one arrival plus one lost_under_sensitivity, nothing
    // else. No other counter can differ.
    const std::uint64_t missing = total_gateways - shard->gateways.size();
    mg.arrivals += attempts * missing;
    mg.lost_under_sensitivity += attempts * missing;

    const LedgerCounters& c = shard->server->service().counters();
    feedback.reports_accepted += c.reports_accepted;
    feedback.reports_duplicate += c.reports_duplicate;
    feedback.reports_checksum_rejected += c.reports_checksum_rejected;
    feedback.reports_buffered += c.reports_buffered;
    feedback.reports_reassembled += c.reports_reassembled;
    feedback.samples_rejected_nonmonotonic += c.samples_rejected_nonmonotonic;
    feedback.samples_rejected_range += c.samples_rejected_range;
    feedback.gaps_bridged += c.gaps_bridged;
    feedback.discontinuities += c.discontinuities;
    feedback.quarantines += c.quarantines;
    feedback.recoveries += c.recoveries;
  }
  merged_.set_feedback(feedback);
  if (!shards_.empty() && shards_.front()->faults != nullptr) {
    // The outage schedule is global and every replica regenerates it
    // identically; any shard's tally is the serial value.
    Shard& front = *shards_.front();
    merged_.set_total_outage(front.faults->outage_seconds_until(front.sim.now()));
  }
}

const Metrics& ShardedNetwork::metrics() const {
  return network_ != nullptr ? network_->metrics() : merged_;
}

const SolarTrace& ShardedNetwork::solar_trace() const {
  return network_ != nullptr ? network_->solar_trace() : *trace_;
}

std::shared_ptr<const SolarTrace> ShardedNetwork::share_trace() const {
  return network_ != nullptr ? network_->share_trace() : trace_;
}

const Auditor* ShardedNetwork::auditor() const {
  return network_ != nullptr ? network_->auditor() : nullptr;
}

int ShardedNetwork::max_windows() const {
  if (network_ != nullptr) return network_->max_windows();
  int max_w = 1;
  for (const auto& shard : shards_) {
    for (const auto& node : shard->nodes) max_w = std::max(max_w, node->n_windows());
  }
  return max_w;
}

std::uint64_t ShardedNetwork::events_executed() const {
  if (network_ != nullptr) return network_->simulator().events_executed();
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->sim.events_executed();
  return total;
}

double ShardedNetwork::w_for(std::uint32_t node_id) const {
  if (network_ != nullptr) return network_->server().w_for(node_id);
  const int s = plan_.shard_of_node.at(node_id);
  return shards_[static_cast<std::size_t>(s)]->server->w_for(node_id);
}

double ShardedNetwork::max_shard_busy_seconds() const {
  double max_busy = 0.0;
  for (const auto& shard : shards_) max_busy = std::max(max_busy, shard->busy_seconds);
  return max_busy;
}

void ShardedNetwork::checkpoint(std::ostream& out) {
  out << kCheckpointMagic << '\n';
  StateWriter w{out};
  // The meta section pins everything restore() cannot rebuild on its own:
  // the scenario identity (seed, fleet size), the engine shape (a serial
  // checkpoint cannot restore into a sharded engine or vice versa — slice
  // boundaries differ), and the resume cursor.
  w.begin_section("meta");
  w.put_u64(config_.seed);
  w.put_u64(static_cast<std::uint64_t>(config_.n_nodes));
  w.put_u64(plan_.serial ? 1 : 0);
  w.put_u64(static_cast<std::uint64_t>(plan_.effective));
  write_time(w, cursor_);
  w.end_section();
  if (network_ != nullptr) {
    network_->checkpoint_state(w);
  } else {
    for (const auto& shard : shards_) {
      EngineSlice slice;
      slice.sim = &shard->sim;
      slice.server = shard->server.get();
      slice.gateways = &shard->gateways;
      slice.nodes = &shard->nodes;
      slice.gateway_metrics = &shard->metrics.gateway();
      slice.faults = shard->faults.get();
      checkpoint_slice(w, slice);
    }
  }
  w.flush();
}

void ShardedNetwork::restore(std::istream& in) {
  std::string magic;
  std::getline(in, magic);
  if (magic != kCheckpointMagic) {
    throw std::runtime_error{"restore: not a \"" + std::string{kCheckpointMagic} +
                             "\" checkpoint stream"};
  }
  StateReader r{in};
  r.begin_section("meta");
  if (r.get_u64() != config_.seed) {
    throw std::runtime_error{"restore: checkpoint seed does not match this scenario"};
  }
  if (r.get_u64() != static_cast<std::uint64_t>(config_.n_nodes)) {
    throw std::runtime_error{"restore: checkpoint fleet size does not match this scenario"};
  }
  if ((r.get_u64() != 0) != plan_.serial ||
      r.get_u64() != static_cast<std::uint64_t>(plan_.effective)) {
    throw std::runtime_error{
        "restore: checkpoint engine shape (serial/shard count) does not match this run"};
  }
  const Time cursor = read_time(r);
  r.end_section();
  if (network_ != nullptr) {
    network_->restore_state(r);
  } else {
    for (const auto& shard : shards_) {
      EngineSlice slice;
      slice.sim = &shard->sim;
      slice.server = shard->server.get();
      slice.gateways = &shard->gateways;
      slice.nodes = &shard->nodes;
      slice.gateway_metrics = &shard->metrics.gateway();
      slice.faults = shard->faults.get();
      restore_slice(r, slice);
    }
  }
  cursor_ = cursor;
}

std::string ShardedNetwork::checkpoint_file_path() const {
  return checkpoint_dir_ + "/blamsim.ckpt";
}

void ShardedNetwork::checkpoint_to_file(const std::string& path) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out{tmp, std::ios::binary | std::ios::trunc};
    if (!out) throw std::runtime_error{"checkpoint: cannot open " + tmp};
    checkpoint(out);
    out.flush();
    if (!out) throw std::runtime_error{"checkpoint: write failed for " + tmp};
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error{"checkpoint: rename to " + path + " failed"};
  }
}

}  // namespace blam
