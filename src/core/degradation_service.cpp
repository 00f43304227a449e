#include "core/degradation_service.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <concepts>
#include <stdexcept>
#include <string>
#include <string_view>

#include "common/checksum.hpp"
#include "common/state_codec.hpp"

namespace blam {

namespace {

// --- "blamledger v1" text helpers ------------------------------------------
// Space-separated fields, one record per line. Doubles travel as 16-hex-digit
// bit patterns (lossless round trip; the campaign journal set the
// precedent), times as signed microseconds.

/// Checksum seed of the ledger trailer. It is one digit short of the FNV-1a
/// 64 offset basis, as the first ledger writer had it; the trailer bytes of
/// every existing checkpoint depend on it.
constexpr std::uint64_t kLedgerFnvSeed = 1469598103934665603ULL;

constexpr std::string_view kChecksumPrefix = "checksum ";

/// A double field: written as its bit pattern in hex16.
struct Hex {
  double value;
};

void put_field(std::string& out, Hex field) {
  char buf[16];
  write_hex16(buf, std::bit_cast<std::uint64_t>(field.value));
  out.append(buf, sizeof buf);
}

template <std::integral T>
void put_field(std::string& out, T value) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
}

/// Appends " field" for every field.
template <typename... Fields>
void put_fields(std::string& out, const Fields&... fields) {
  ((out.push_back(' '), put_field(out, fields)), ...);
}

/// Whitespace-separated tokens of a ledger payload (the separators
/// `operator>>` skips, so hand-edited spacing still parses).
class LedgerTokens {
 public:
  explicit LedgerTokens(std::string_view text) : text_{text} {}

  /// The next token; empty at the end of the payload.
  std::string_view next() {
    skip_space();
    const std::size_t start = pos_;
    while (pos_ < text_.size() && !is_space(text_[pos_])) ++pos_;
    return text_.substr(start, pos_ - start);
  }

  template <std::integral T>
  [[nodiscard]] bool read(T& value) {
    const std::string_view token = next();
    const char* last = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), last, value);
    return !token.empty() && ec == std::errc{} && ptr == last;
  }

  [[nodiscard]] bool read(double& value) {
    std::uint64_t bits = 0;
    if (!parse_hex16(next(), bits)) return false;
    value = std::bit_cast<double>(bits);
    return true;
  }

  [[nodiscard]] bool read(Time& value) {
    std::int64_t us = 0;
    if (!read(us)) return false;
    value = Time::from_us(us);
    return true;
  }

  /// Reads every argument in order; false at the first failure.
  template <typename... Values>
  [[nodiscard]] bool read_all(Values&... values) {
    return (read(values) && ...);
  }

  /// Bytes not yet consumed (an upper bound for reserve()).
  [[nodiscard]] std::size_t remaining() const { return text_.size() - pos_; }

  [[nodiscard]] bool at_end() {
    skip_space();
    return pos_ == text_.size();
  }

 private:
  /// ' ' and '\t' '\n' '\v' '\f' '\r', the C locale's isspace().
  static bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
  void skip_space() {
    while (pos_ < text_.size() && is_space(text_[pos_])) ++pos_;
  }

  std::string_view text_;
  std::size_t pos_{0};
};

}  // namespace

const char* ledger_health_name(LedgerHealth health) {
  switch (health) {
    case LedgerHealth::kHealthy:
      return "healthy";
    case LedgerHealth::kGapped:
      return "gapped";
    case LedgerHealth::kQuarantined:
      return "quarantined";
    case LedgerHealth::kRecovered:
      return "recovered";
  }
  return "?";
}

std::uint8_t report_checksum(std::uint16_t report_seq, std::span<const SocSample> samples) {
  // Canonical little-endian image: seq(2) then per sample t.us()(8) + the
  // SoC double's bit pattern(8). Bit patterns (not value comparisons) so a
  // single flipped mantissa bit changes the checksum.
  std::uint8_t crc = 0x00;
  const auto put = [&crc](std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) crc = crc8_step(crc, static_cast<std::uint8_t>(v >> (8 * i)));
  };
  put(report_seq, 2);
  for (const SocSample& sample : samples) {
    put(static_cast<std::uint64_t>(sample.t.us()), 8);
    put(std::bit_cast<std::uint64_t>(sample.soc), 8);
  }
  return crc;
}

DegradationService::DegradationService(const DegradationModel& model, double temperature_c)
    : store_{model, temperature_c, static_cast<std::uint32_t>(kReorderDepth) + 1} {}

NodeHandle DegradationService::obtain(std::uint32_t node_id) {
  // Single hash lookup: try_emplace both registers an unknown node and
  // finds a known one (this runs once per delivered SoC report).
  auto [it, inserted] = handle_of_.try_emplace(node_id, NodeHandle{0});
  if (inserted) {
    const NodeHandle h = store_.add_node();
    it->second = h;
    health_.push_back(static_cast<std::uint8_t>(LedgerHealth::kHealthy));
    has_report_.push_back(0);
    has_data_.push_back(0);
    last_seq_.push_back(0);
    suspicion_.push_back(0);
    clean_streak_.push_back(0);
    degradation_.push_back(0.0);
    normalized_.push_back(0.0);
    estimated_gap_s_.push_back(0.0);
    first_sample_t_.push_back(Time::zero());
    last_sample_t_.push_back(Time::zero());
    const auto pos = std::lower_bound(ids_.begin(), ids_.end(), node_id);
    const auto index = pos - ids_.begin();
    ids_.insert(pos, node_id);
    handles_by_id_.insert(handles_by_id_.begin() + index, h);
  }
  return it->second;
}

void DegradationService::register_node(std::uint32_t node_id) { obtain(node_id); }

void DegradationService::accept_samples(NodeHandle h, std::span<const SocSample> samples) {
  for (const SocSample& s : samples) {
    if (!std::isfinite(s.soc) || s.soc < 0.0 || s.soc > 1.0) {
      ++counters_.samples_rejected_range;
      continue;
    }
    if (has_data_[h] != 0 && s.t < last_sample_t_[h]) {
      ++counters_.samples_rejected_nonmonotonic;
      continue;
    }
    store_.record(h, s.t, s.soc);
    if (has_data_[h] == 0) first_sample_t_[h] = s.t;
    last_sample_t_[h] = s.t;
    has_data_[h] = 1;
  }
}

void DegradationService::ingest(std::uint32_t node_id, std::span<const SocSample> samples) {
  drain_queue();
  accept_samples(obtain(node_id), samples);
}

void DegradationService::apply_report(NodeHandle h, std::span<const SocSample> samples,
                                      bool bridged_gap) {
  if (bridged_gap) {
    ++counters_.gaps_bridged;
    // The trapezoid inside the tracker interpolates linearly across the
    // missing reports; account the bridged span as estimated, not observed.
    if (has_data_[h] != 0 && !samples.empty() && samples.front().t > last_sample_t_[h]) {
      estimated_gap_s_[h] += (samples.front().t - last_sample_t_[h]).seconds();
    }
    if (health_[h] == static_cast<std::uint8_t>(LedgerHealth::kHealthy)) {
      health_[h] = static_cast<std::uint8_t>(LedgerHealth::kGapped);
    }
  }
  accept_samples(h, samples);
  ++counters_.reports_accepted;
}

void DegradationService::drain_held(NodeHandle h) {
  while (store_.held_count(h) > 0 &&
         store_.held_seq(h, 0) == static_cast<std::uint16_t>(last_seq_[h] + 1)) {
    last_seq_[h] = store_.held_seq(h, 0);
    apply_report(h, store_.held_samples(h, 0), /*bridged_gap=*/false);
    ++counters_.reports_reassembled;
    store_.held_remove(h, 0);
  }
}

void DegradationService::flush_held(NodeHandle h) {
  while (store_.held_count(h) > 0) {
    const std::uint16_t seq = store_.held_seq(h, 0);
    const bool gap = seq != static_cast<std::uint16_t>(last_seq_[h] + 1);
    last_seq_[h] = seq;
    apply_report(h, store_.held_samples(h, 0), gap);
    ++counters_.reports_reassembled;
    store_.held_remove(h, 0);
  }
}

void DegradationService::hold(NodeHandle h, std::uint16_t report_seq,
                              std::span<const SocSample> samples) {
  // Serial order key: forward distance from the last applied sequence.
  const auto distance = [this, h](std::uint16_t seq) {
    return static_cast<std::uint16_t>(seq - last_seq_[h]);
  };
  const std::uint32_t count = store_.held_count(h);
  std::uint32_t slot = count;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint16_t seq = store_.held_seq(h, i);
    if (seq == report_seq) {
      ++counters_.reports_duplicate;
      return;
    }
    if (distance(seq) > distance(report_seq)) {
      slot = i;
      break;
    }
  }
  store_.held_insert(h, slot, report_seq, samples);
  ++counters_.reports_buffered;
  if (store_.held_count(h) > kReorderDepth) {
    // Reassembly buffer exhausted: the missing reports are declared lost
    // and everything held is applied in serial order with bridged gaps.
    flush_held(h);
  }
}

void DegradationService::mark_clean(NodeHandle h) {
  suspicion_[h] = 0;
  ++clean_streak_[h];
  if (health_[h] == static_cast<std::uint8_t>(LedgerHealth::kQuarantined) &&
      clean_streak_[h] >= kRecoveryStreak) {
    health_[h] = static_cast<std::uint8_t>(LedgerHealth::kRecovered);
    ++counters_.recoveries;
  } else if (health_[h] == static_cast<std::uint8_t>(LedgerHealth::kGapped) &&
             store_.held_count(h) == 0) {
    health_[h] = static_cast<std::uint8_t>(LedgerHealth::kHealthy);
  }
}

void DegradationService::mark_suspect(NodeHandle h) {
  clean_streak_[h] = 0;
  ++suspicion_[h];
  if (health_[h] != static_cast<std::uint8_t>(LedgerHealth::kQuarantined) &&
      suspicion_[h] >= kQuarantineThreshold) {
    health_[h] = static_cast<std::uint8_t>(LedgerHealth::kQuarantined);
    ++counters_.quarantines;
  }
}

void DegradationService::process_report(std::uint32_t node_id, std::uint16_t report_seq,
                                        std::uint8_t report_crc,
                                        std::span<const SocSample> samples) {
  const NodeHandle h = obtain(node_id);
  if (report_crc != report_checksum(report_seq, samples)) {
    ++counters_.reports_checksum_rejected;
    mark_suspect(h);
    return;
  }
  if (has_report_[h] == 0) {
    has_report_[h] = 1;
    last_seq_[h] = report_seq;
    apply_report(h, samples, /*bridged_gap=*/false);
    mark_clean(h);
    return;
  }
  // RFC-1982-style serial arithmetic: the u16 difference reinterpreted as
  // signed classifies the report relative to the last applied sequence even
  // across counter wrap.
  const auto diff =
      static_cast<std::int16_t>(static_cast<std::uint16_t>(report_seq - last_seq_[h]));
  if (diff == 0 || (diff < 0 && diff > -kSeqWindow)) {
    ++counters_.reports_duplicate;
    return;
  }
  if (diff == 1) {
    last_seq_[h] = report_seq;
    apply_report(h, samples, /*bridged_gap=*/false);
    drain_held(h);
    mark_clean(h);
    return;
  }
  if (diff > 1 && diff <= kSeqWindow) {
    hold(h, report_seq, samples);
    return;
  }
  // Sequence far outside the window: the node's volatile report counter
  // reset (crash/reboot). Seal the rainflow residual so the SoC break does
  // not pair into a phantom cycle, drop pre-crash stragglers (no longer
  // reassemblable in the new sequence space) and resume.
  ++counters_.discontinuities;
  store_.mark_discontinuity(h);
  store_.held_clear(h);
  last_seq_[h] = report_seq;
  apply_report(h, samples, /*bridged_gap=*/false);
  mark_clean(h);
}

void DegradationService::ingest_report(std::uint32_t node_id, std::uint16_t report_seq,
                                       std::uint8_t report_crc,
                                       std::span<const SocSample> samples) {
  drain_queue();
  process_report(node_id, report_seq, report_crc, samples);
}

void DegradationService::enqueue_report(std::uint32_t node_id, std::uint16_t report_seq,
                                        std::uint8_t report_crc,
                                        std::span<const SocSample> samples) {
  queue_.push(node_id, report_seq, report_crc, samples);
  if (queue_.size() >= ingest_batch_) drain_queue();
}

std::size_t DegradationService::drain_queue() {
  std::size_t drained = 0;
  while (!queue_.empty()) {
    const SocIngestQueue::Record record = queue_.front();
    // The span aliases the queue's payload vector; process_report copies
    // anything it keeps (arena-held reassembly slots, tracker columns) and
    // never pushes, so the alias is safe until pop_front().
    process_report(record.node_id, record.report_seq, record.report_crc, queue_.front_samples());
    queue_.pop_front();
    ++drained;
  }
  return drained;
}

void DegradationService::set_ingest_batch(std::size_t batch) {
  if (batch == 0) throw std::invalid_argument{"DegradationService: ingest batch must be >= 1"};
  ingest_batch_ = batch;
}

void DegradationService::recompute(Time now) {
  // The dissemination period is the deterministic deadline for late
  // reports: whatever is still staged or buffered is applied now.
  drain_queue();
  // Canonical pass order: ascending node id via ids_, never the hash table
  // (see the member comment in the header).
  max_degradation_ = 0.0;
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    const NodeHandle h = handles_by_id_[i];
    if (store_.held_count(h) > 0) flush_held(h);
    // The interpolated-segment policy for bridged gaps: the tracker's
    // trapezoid integrates calendar aging linearly across the gap and
    // rainflow pairs turning points straight over it — identical to what the
    // pre-hardening blind ingest produced for a lost report, which keeps
    // fault-free runs bit-exact. The estimated share of the trace is FLAGGED
    // (estimated_gap_s, kGapped health, gaps_bridged) rather than rescaled;
    // distrust is expressed through quarantine, not through silently
    // inflating D_u.
    degradation_[h] = store_.degradation_at(h, now);
    // Quarantined ledgers hold untrusted (or stale) estimates: they get the
    // conservative prior below and must not inflate or dilute D_max.
    if (has_data_[h] != 0 && health_[h] != static_cast<std::uint8_t>(LedgerHealth::kQuarantined)) {
      max_degradation_ = std::max(max_degradation_, degradation_[h]);
    }
  }
  // Fleet all-reduce: under the sharded engine the true D_max may live in
  // another shard's service. The combiner blocks at the epoch barrier, so
  // every shard normalizes by the same fleet-wide value.
  if (combiner_ != nullptr) {
    max_degradation_ = combiner_->combine_max_degradation(max_degradation_);
  }
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    const NodeHandle h = handles_by_id_[i];
    if (health_[h] == static_cast<std::uint8_t>(LedgerHealth::kQuarantined)) {
      normalized_[h] = 1.0;
    } else {
      normalized_[h] = max_degradation_ > 0.0 ? degradation_[h] / max_degradation_ : 0.0;
    }
    if (health_[h] == static_cast<std::uint8_t>(LedgerHealth::kRecovered)) {
      health_[h] = static_cast<std::uint8_t>(LedgerHealth::kHealthy);
    }
  }
}

NodeHandle DegradationService::handle_of(std::uint32_t node_id) const {
  const auto it = handle_of_.find(node_id);
  if (it == handle_of_.end()) {
    throw std::out_of_range{"DegradationService: unknown node " + std::to_string(node_id)};
  }
  return it->second;
}

double DegradationService::normalized_degradation(std::uint32_t node_id) const {
  return normalized_[handle_of(node_id)];
}

double DegradationService::degradation(std::uint32_t node_id) const {
  return degradation_[handle_of(node_id)];
}

LedgerHealth DegradationService::health(std::uint32_t node_id) const {
  return static_cast<LedgerHealth>(health_[handle_of(node_id)]);
}

double DegradationService::estimated_gap_seconds(std::uint32_t node_id) const {
  return estimated_gap_s_[handle_of(node_id)];
}

void DegradationService::checkpoint(std::string& out) {
  // Staged reports are transport state, not ledger state: fold them into
  // the ledger first. Draining here is batch-invariant (arrival order), so
  // a checkpoint taken mid-batch reads exactly like one taken after it.
  if (!queue_.empty()) drain_queue();
  // Line-oriented text, doubles as bit patterns, FNV-1a checksum trailer.
  const std::size_t start = out.size();
  out.reserve(start + 64 + ids_.size() * 400);  // a node's records run ~320 bytes
  out += "blamledger v1 nodes";
  put_fields(out, ids_.size());
  out += " maxdeg";
  put_fields(out, Hex{max_degradation_});
  const LedgerCounters& c = counters_;
  out += "\ncounters";
  put_fields(out, c.reports_accepted, c.reports_duplicate, c.reports_checksum_rejected,
             c.reports_buffered, c.reports_reassembled, c.samples_rejected_nonmonotonic,
             c.samples_rejected_range, c.gaps_bridged, c.discontinuities, c.quarantines,
             c.recoveries);
  out += '\n';
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    const std::uint32_t id = ids_[i];
    const NodeHandle h = handles_by_id_[i];
    out += "node";
    put_fields(out, id, static_cast<int>(health_[h]), has_report_[h] != 0 ? 1 : 0,
               has_data_[h] != 0 ? 1 : 0, last_seq_[h], suspicion_[h], clean_streak_[h],
               Hex{degradation_[h]}, Hex{normalized_[h]}, Hex{estimated_gap_s_[h]},
               first_sample_t_[h].us(), last_sample_t_[h].us());
    const DegradationTracker::Snapshot t = store_.snapshot(h);
    out += "\ntracker";
    put_fields(out, Hex{t.closed_cycle_sum}, t.last_time.us(), Hex{t.last_soc},
               t.has_sample ? 1 : 0, Hex{t.soc_time_integral}, Hex{t.stress_time_integral},
               t.stress_integrated_to.us(), Hex{t.temperature_c}, t.discontinuities);
    out += "\nrainflow";
    put_fields(out, t.rainflow.full_cycles, t.rainflow.has_last ? 1 : 0,
               Hex{t.rainflow.prev_direction}, Hex{t.rainflow.last}, t.rainflow.stack.size());
    for (const double point : t.rainflow.stack) put_fields(out, Hex{point});
    out += "\nheld";
    put_fields(out, store_.held_count(h));
    out += '\n';
    for (std::uint32_t slot = 0; slot < store_.held_count(h); ++slot) {
      const std::span<const SocSample> samples = store_.held_samples(h, slot);
      out += "heldrep";
      put_fields(out, store_.held_seq(h, slot), samples.size());
      for (const SocSample& sample : samples) put_fields(out, sample.t.us(), Hex{sample.soc});
      out += '\n';
    }
  }
  char trailer[16];
  write_hex16(trailer, fnv1a64(kLedgerFnvSeed, out.data() + start, out.size() - start));
  out += kChecksumPrefix;
  out.append(trailer, sizeof trailer);
  out += '\n';
}

void DegradationService::restore(std::string_view text) {
  const auto fail = [](const std::string& what) {
    throw std::runtime_error{"ledger checkpoint: " + what};
  };
  if (!queue_.empty()) {
    throw std::logic_error{"DegradationService: drain_queue() before restore()"};
  }

  // The payload is every line before the first `checksum` line, so the
  // checksum covers exactly what is parsed.
  std::size_t trailer = 0;
  while (trailer < text.size() && !text.substr(trailer).starts_with(kChecksumPrefix)) {
    const std::size_t eol = text.find('\n', trailer);
    trailer = eol == std::string_view::npos ? text.size() : eol + 1;
  }
  if (trailer >= text.size()) fail("missing checksum trailer");
  const std::string_view payload = text.substr(0, trailer);
  std::string_view checksum = text.substr(trailer + kChecksumPrefix.size());
  checksum = checksum.substr(0, checksum.find('\n'));
  char expected[16];
  write_hex16(expected, fnv1a64(kLedgerFnvSeed, payload.data(), payload.size()));
  if (checksum != std::string_view{expected, sizeof expected}) {
    fail("checksum mismatch (corrupt or truncated)");
  }

  LedgerTokens body{payload};
  std::size_t n_nodes = 0;
  double max_degradation = 0.0;
  if (body.next() != "blamledger") fail("bad magic");
  if (body.next() != "v1") fail("unsupported version");
  if (body.next() != "nodes" || !body.read(n_nodes)) fail("missing node count");
  if (body.next() != "maxdeg" || !body.read(max_degradation)) fail("missing maxdeg");

  store_.reset();
  health_.clear();
  has_report_.clear();
  has_data_.clear();
  last_seq_.clear();
  suspicion_.clear();
  clean_streak_.clear();
  degradation_.clear();
  normalized_.clear();
  estimated_gap_s_.clear();
  first_sample_t_.clear();
  last_sample_t_.clear();
  handle_of_.clear();
  ids_.clear();
  handles_by_id_.clear();
  max_degradation_ = max_degradation;

  if (body.next() != "counters") fail("missing counters");
  LedgerCounters c;
  if (!body.read_all(c.reports_accepted, c.reports_duplicate, c.reports_checksum_rejected,
                     c.reports_buffered, c.reports_reassembled, c.samples_rejected_nonmonotonic,
                     c.samples_rejected_range, c.gaps_bridged, c.discontinuities, c.quarantines,
                     c.recoveries)) {
    fail("malformed counters");
  }
  counters_ = c;

  std::vector<SocSample> held_samples;
  for (std::size_t i = 0; i < n_nodes; ++i) {
    std::uint32_t id = 0;
    int health = 0;
    int has_report = 0;
    int has_data = 0;
    if (body.next() != "node" || !body.read(id)) fail("missing node record");
    if (handle_of_.find(id) != handle_of_.end()) fail("duplicate node record");
    const NodeHandle h = obtain(id);
    if (!body.read_all(health, has_report, has_data, last_seq_[h], suspicion_[h],
                       clean_streak_[h], degradation_[h], normalized_[h], estimated_gap_s_[h],
                       first_sample_t_[h], last_sample_t_[h])) {
      fail("malformed node record");
    }
    if (health < 0 || health > 3) fail("health out of range");
    health_[h] = static_cast<std::uint8_t>(health);
    has_report_[h] = has_report != 0 ? 1 : 0;
    has_data_[h] = has_data != 0 ? 1 : 0;

    DegradationTracker::Snapshot t;
    int has_sample = 0;
    if (body.next() != "tracker" ||
        !body.read_all(t.closed_cycle_sum, t.last_time, t.last_soc, has_sample,
                       t.soc_time_integral, t.stress_time_integral, t.stress_integrated_to,
                       t.temperature_c, t.discontinuities)) {
      fail("malformed tracker record");
    }
    t.has_sample = has_sample != 0;

    int has_last = 0;
    std::size_t depth = 0;
    if (body.next() != "rainflow" ||
        !body.read_all(t.rainflow.full_cycles, has_last, t.rainflow.prev_direction,
                       t.rainflow.last, depth)) {
      fail("malformed rainflow record");
    }
    t.rainflow.has_last = has_last != 0;
    // Every stack point takes at least 17 bytes, which bounds a forged depth.
    t.rainflow.stack.reserve(std::min(depth, body.remaining() / 17));
    for (std::size_t p = 0; p < depth; ++p) {
      double point = 0.0;
      if (!body.read(point)) fail("truncated rainflow stack");
      t.rainflow.stack.push_back(point);
    }
    store_.restore(h, t);

    std::size_t n_held = 0;
    if (body.next() != "held" || !body.read(n_held)) fail("malformed held record");
    if (n_held > kReorderDepth) fail("held buffer overflow");
    for (std::size_t held = 0; held < n_held; ++held) {
      std::uint16_t seq = 0;
      std::size_t n_samples = 0;
      if (body.next() != "heldrep" || !body.read_all(seq, n_samples)) {
        fail("malformed held report");
      }
      held_samples.clear();
      held_samples.reserve(std::min(n_samples, body.remaining() / 19));
      for (std::size_t sm = 0; sm < n_samples; ++sm) {
        SocSample sample;
        if (!body.read_all(sample.t, sample.soc)) fail("truncated held report");
        held_samples.push_back(sample);
      }
      store_.held_insert(h, static_cast<std::uint32_t>(held), seq, held_samples);
    }
  }
  if (!body.at_end()) fail("trailing data");
}

}  // namespace blam
