// "blamsim v1" byte pins: golden token lines for every StateWriter call,
// FNV-64 digests of two small engine checkpoints (recorded before the codec
// was rewritten for speed, so any byte drift fails here), and a
// deterministic mutation sweep over one engine checkpoint: every truncated,
// bit-flipped or reordered stream must either throw std::runtime_error or
// restore to a byte-identical re-checkpoint.
#include "common/state_codec.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/rng.hpp"
#include "sim/shard_engine.hpp"

namespace blam {
namespace {

/// Reference FNV-1a 64, independent of the codec under test.
std::uint64_t reference_fnv(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::string write_one_section(void (*fill)(StateWriter&)) {
  std::ostringstream out;
  {
    StateWriter w{out};
    w.begin_section("t");
    fill(w);
    w.end_section();
    w.flush();
  }
  return out.str();
}

TEST(StateCodecGolden, EveryTokenLine) {
  const std::string text = write_one_section([](StateWriter& w) {
    w.put_u64(0);
    w.put_u64(std::numeric_limits<std::uint64_t>::max());
    w.put_i64(0);
    w.put_i64(-7);
    w.put_i64(std::numeric_limits<std::int64_t>::min());
    w.put_double(0.0);
    w.put_double(-0.0);
    w.put_double(1.0);
    w.put_double(std::bit_cast<double>(std::uint64_t{0x7ff8000000000000ULL}));
    w.put_double(std::bit_cast<double>(std::uint64_t{0xfff800000000002aULL}));
    w.put_string("");
    w.put_string("H-50 label");
    w.put_blob(std::string{});
    w.put_blob(std::string{"a\nb\n"});
  });
  const std::string body =
      "u 0\n"
      "u 18446744073709551615\n"
      "i 0\n"
      "i -7\n"
      "i -9223372036854775808\n"
      "d 0000000000000000\n"
      "d 8000000000000000\n"
      "d 3ff0000000000000\n"
      "d 7ff8000000000000\n"
      "d fff800000000002a\n"
      "s \n"
      "s H-50 label\n"
      "blob 0\n"
      "\n"
      "blob 4\n"
      "a\nb\n"
      "\n";
  EXPECT_EQ(text, "section t\n" + body + "end c51012ec58f172d1\n");
  // The trailer is FNV-1a 64 over exactly the body bytes.
  EXPECT_EQ(reference_fnv(body), 0xc51012ec58f172d1ULL);
}

TEST(StateCodecGolden, EmptySectionTrailerIsTheOffsetBasis) {
  const std::string text = write_one_section([](StateWriter&) {});
  EXPECT_EQ(text, "section t\nend cbf29ce484222325\n");
}

TEST(StateCodecGolden, ReaderReturnsEveryValueBitExact) {
  const std::string text = write_one_section([](StateWriter& w) {
    w.put_u64(std::numeric_limits<std::uint64_t>::max());
    w.put_i64(std::numeric_limits<std::int64_t>::min());
    w.put_double(-0.0);
    w.put_double(std::bit_cast<double>(std::uint64_t{0xfff800000000002aULL}));
    w.put_string("");
    w.put_blob(std::string{"a\nb\n"});
    w.put_string("after the blob");
  });
  std::istringstream in{text};
  StateReader r{in};
  r.begin_section("t");
  EXPECT_EQ(r.get_u64(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(r.get_i64(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.get_double()), 0x8000000000000000ULL);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.get_double()), 0xfff800000000002aULL);
  EXPECT_EQ(std::string{r.get_string()}, "");
  EXPECT_EQ(std::string{r.get_blob()}, "a\nb\n");
  EXPECT_EQ(std::string{r.get_string()}, "after the blob");
  r.end_section();
}

TEST(StateCodecGolden, LargeBlobCrossesEveryBufferBoundary) {
  // Blobs larger than the writer's and reader's buffers take the direct
  // path on both sides; the bytes and the trailer must not care.
  std::string blob(300000, '\0');
  for (std::size_t i = 0; i < blob.size(); ++i) blob[i] = static_cast<char>((i * 7919) % 251);
  std::ostringstream out;
  {
    StateWriter w{out};
    w.begin_section("big");
    w.put_u64(1);
    w.put_blob(blob);
    w.put_u64(2);
    w.end_section();
    w.flush();
  }
  const std::string body = "u 1\nblob 300000\n" + blob + "\nu 2\n";
  const std::string text = out.str();
  ASSERT_EQ(text.substr(0, 12), "section big\n");
  EXPECT_EQ(text.substr(12, body.size()), body);
  char trailer[32];
  std::snprintf(trailer, sizeof trailer, "end %016llx\n",
                static_cast<unsigned long long>(reference_fnv(body)));
  EXPECT_EQ(text.substr(12 + body.size()), trailer);

  std::istringstream in{text};
  StateReader r{in};
  r.begin_section("big");
  EXPECT_EQ(r.get_u64(), 1u);
  EXPECT_EQ(std::string{r.get_blob()}, blob);
  EXPECT_EQ(r.get_u64(), 2u);
  r.end_section();
}

TEST(StateCodecGolden, WrongTagOrUnreadValueThrows) {
  const std::string text = write_one_section([](StateWriter& w) {
    w.put_u64(5);
    w.put_i64(-5);
  });
  {
    std::istringstream in{text};
    StateReader r{in};
    r.begin_section("t");
    EXPECT_THROW((void)r.get_i64(), std::runtime_error);
  }
  {
    std::istringstream in{text};
    StateReader r{in};
    r.begin_section("t");
    EXPECT_EQ(r.get_u64(), 5u);
    EXPECT_THROW(r.end_section(), std::runtime_error);
  }
  {
    std::istringstream in{text};
    StateReader r{in};
    EXPECT_THROW(r.begin_section("other"), std::runtime_error);
  }
}

/// Same decomposable city layout as the engine checkpoint tests.
ScenarioConfig small_city(int nodes, int shards) {
  ScenarioConfig c;
  c.policy = PolicyKind::kBlam;
  c.theta = 0.5;
  c.n_nodes = nodes;
  c.n_gateways = 4;
  c.gateway_grid_pitch_m = 12000.0;
  c.cluster_radius_m = 1000.0;
  c.interference_floor_dbm = -143.0;
  c.sf_assignment = SfAssignment::kDistanceBased;
  c.shards = shards;
  c.seed = 21;
  c.label = c.policy_label();
  return c;
}

void add_faults(ScenarioConfig& c) {
  c.faults.outage_daily_start = Time::from_hours(9.0);
  c.faults.outage_daily_duration = Time::from_hours(2.0);
  c.faults.outage_random_per_day = 1.0;
  c.faults.ack_loss_good = 0.02;
  c.faults.ack_loss_bad = 0.8;
  c.faults.crash_per_year = 24.0;
  c.faults.report_loss = 0.1;
  c.faults.report_reorder = 0.1;
  c.faults.report_corrupt = 0.05;
  c.faults.drought_start = Time::from_days(0.5);
  c.faults.drought_duration = Time::from_days(1.0);
  c.faults.drought_scale = 0.3;
}

ScenarioConfig serial_scenario() { return small_city(16, 1); }

ScenarioConfig faulted_two_shard_scenario() {
  ScenarioConfig c = small_city(24, 2);
  add_faults(c);
  return c;
}

std::string checkpoint_text(ShardedNetwork& engine) {
  std::ostringstream out;
  engine.checkpoint(out);
  return out.str();
}

std::string checkpoint_at(const ScenarioConfig& c, Time t) {
  ShardedNetwork engine{c};
  engine.run_until(t);
  return checkpoint_text(engine);
}

/// Restores `text` into a fresh engine and checkpoints it again.
std::string recheckpoint(const ScenarioConfig& c, const std::string& text) {
  ShardedNetwork engine{c};
  std::istringstream in{text};
  engine.restore(in);
  return checkpoint_text(engine);
}

TEST(StateCodecDigest, SerialCheckpointBytesArePinned) {
  const ScenarioConfig c = serial_scenario();
  const std::string text = checkpoint_at(c, Time::from_days(0.7));
  // Recorded with the original iostream codec; the bytes must never move.
  EXPECT_EQ(text.size(), 59169u);
  EXPECT_EQ(reference_fnv(text), 0x7a45d47bda20e707ULL);
  EXPECT_EQ(recheckpoint(c, text), text);
}

TEST(StateCodecDigest, FaultedTwoShardCheckpointBytesArePinned) {
  const ScenarioConfig c = faulted_two_shard_scenario();
  {
    const ShardedNetwork probe{c};
    ASSERT_EQ(probe.plan().effective, 2);
  }
  const std::string text = checkpoint_at(c, Time::from_days(0.7));
  EXPECT_EQ(text.size(), 98680u);
  EXPECT_EQ(reference_fnv(text), 0xbabbd001ecb135c9ULL);
  EXPECT_EQ(recheckpoint(c, text), text);
}

/// Restore must either refuse `mutated` with std::runtime_error or rebuild
/// an engine whose checkpoint is `original`, byte for byte.
void expect_rejected_or_exact(const ScenarioConfig& c, const std::string& mutated,
                              const std::string& original, const std::string& what) {
  try {
    EXPECT_EQ(recheckpoint(c, mutated), original) << what << " restored to different bytes";
  } catch (const std::runtime_error&) {
    // Refused loudly: the expected outcome for nearly every mutation.
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << " threw a non-runtime_error: " << e.what();
  }
}

class StateCodecMutation : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    config_ = new ScenarioConfig{faulted_two_shard_scenario()};
    original_ = new std::string{checkpoint_at(*config_, Time::from_days(0.7))};
  }
  static void TearDownTestSuite() {
    delete config_;
    delete original_;
    config_ = nullptr;
    original_ = nullptr;
  }
  static const ScenarioConfig& config() { return *config_; }
  static const std::string& original() { return *original_; }

 private:
  static ScenarioConfig* config_;
  static std::string* original_;
};

ScenarioConfig* StateCodecMutation::config_ = nullptr;
std::string* StateCodecMutation::original_ = nullptr;

TEST_F(StateCodecMutation, UntouchedStreamRestoresExactly) {
  EXPECT_EQ(recheckpoint(config(), original()), original());
}

TEST_F(StateCodecMutation, TruncationAtEveryKthByte) {
  const std::string& text = original();
  const std::size_t step = text.size() / 48 + 1;
  for (std::size_t cut = 0; cut < text.size(); cut += step) {
    expect_rejected_or_exact(config(), text.substr(0, cut), text,
                             "truncation at " + std::to_string(cut));
  }
  // The last bytes: the final trailer's newline and digits.
  for (std::size_t back = 1; back <= 22; back += 3) {
    expect_rejected_or_exact(config(), text.substr(0, text.size() - back), text,
                             "truncation " + std::to_string(back) + " from the end");
  }
}

TEST_F(StateCodecMutation, SeededSingleBitFlips) {
  const std::string& text = original();
  Rng rng{0x5eed};
  const auto flip = [&](std::size_t pos, int bit, const std::string& where) {
    std::string mutated = text;
    mutated[pos] = static_cast<char>(mutated[pos] ^ (1 << bit));
    expect_rejected_or_exact(config(), mutated, text,
                             where + " flip at byte " + std::to_string(pos) + " bit " +
                                 std::to_string(bit));
  };
  for (int i = 0; i < 60; ++i) {
    const auto pos =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(text.size()) - 1));
    flip(pos, static_cast<int>(rng.uniform_int(0, 7)), "random");
  }
  const auto random_bit = [&rng] { return static_cast<int>(rng.uniform_int(0, 7)); };
  // Every byte of the ledger blob's length header, newline included.
  const std::size_t blob = text.find("blob ");
  ASSERT_NE(blob, std::string::npos);
  const std::size_t header_end = text.find('\n', blob);
  for (std::size_t pos = blob; pos <= header_end; ++pos) flip(pos, random_bit(), "blob header");
  // Inside the ledger text and on its own checksum line.
  const std::size_t ledger = text.find("blamledger v1", blob);
  ASSERT_EQ(ledger, header_end + 1);
  for (int i = 0; i < 20; ++i) {
    flip(ledger + static_cast<std::size_t>(rng.uniform_int(0, 400)), random_bit(), "ledger body");
  }
  const std::size_t checksum = text.find("checksum ", ledger);
  ASSERT_NE(checksum, std::string::npos);
  for (std::size_t pos = checksum; pos < checksum + 26; pos += 3) {
    flip(pos, random_bit(), "ledger checksum");
  }
}

TEST_F(StateCodecMutation, RemovedEndLine) {
  const std::string& text = original();
  std::size_t removed = 0;
  for (std::size_t pos = text.find("\nend "); pos != std::string::npos && removed < 12;
       pos = text.find("\nend ", pos + 1)) {
    const std::size_t eol = text.find('\n', pos + 1);
    std::string mutated = text;
    mutated.erase(pos + 1, eol - pos);
    expect_rejected_or_exact(config(), mutated, text, "removed end line at " + std::to_string(pos));
    ++removed;
  }
  EXPECT_EQ(removed, 12u);
}

TEST_F(StateCodecMutation, TwoSectionsSwapped) {
  const std::string& text = original();
  // Swap each adjacent pair among the first sections (meta, clock, topology,
  // server, gateway, ...), plus the last two.
  std::vector<std::size_t> starts;
  for (std::size_t pos = text.find("section "); pos != std::string::npos;
       pos = text.find("\nsection ", pos + 1)) {
    starts.push_back(pos == 0 || text[pos] == 's' ? pos : pos + 1);
  }
  starts.push_back(text.size());
  ASSERT_GT(starts.size(), 6u);
  const auto swap_at = [&](std::size_t i) {
    const std::string a = text.substr(starts[i], starts[i + 1] - starts[i]);
    const std::string b = text.substr(starts[i + 1], starts[i + 2] - starts[i + 1]);
    const std::string mutated = text.substr(0, starts[i]) + b + a + text.substr(starts[i + 2]);
    expect_rejected_or_exact(config(), mutated, text, "sections " + std::to_string(i) + " swapped");
  };
  for (std::size_t i = 0; i + 2 < starts.size() && i < 8; ++i) swap_at(i);
  swap_at(starts.size() - 3);
}

}  // namespace
}  // namespace blam
