// PR-6 checkpoint compatibility (ISSUE 7 satellite): a "blamledger v1"
// checkpoint written by the pre-refactor per-node-heap implementation must
// restore into the new columnar layout and re-serialize BYTE-exact —
// including mid-reassembly buffers and quarantined nodes — and the new
// batched pipeline must reproduce the same bytes from the same input stream
// at every batch size.
#include <gtest/gtest.h>

#include <initializer_list>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/degradation_service.hpp"

namespace blam {
namespace {

// Captured verbatim from the PR-6 binary (pre-refactor degradation_service)
// running the scripted scenario replayed by scripted_service() below. Do
// NOT regenerate with current code — the whole point is cross-version
// compatibility.
constexpr const char* kPr6Fixture =
    "blamledger v1 nodes 5 maxdeg 3f609ffd3d11cc00\n"
    "counters 10 0 3 3 2 0 0 2 1 1 0\n"
    "node 1 0 1 1 3 0 4 3f58b3c9362d2a00 3fe7c610a9ef5f0f 0000000000000000 0 302400000000\n"
    "tracker 3ee8a43bb40b34e8 302400000000 3fe6666666666666 1 410a5e0000000000 4112750000000000 "
    "302400000000 4039000000000000 0\n"
    "rainflow 3 1 3ff0000000000000 3fe6666666666666 2 3feccccccccccccd 3fe0000000000000\n"
    "held 0\n"
    "node 2 1 1 1 4 0 1 3f609ffd3d11cc00 3ff0000000000000 410fa40000000000 0 388800000000\n"
    "tracker 3eded4009db4b14e 388800000000 3fe199999999999a 1 410d11e000000000 4117bb0000000000 "
    "388800000000 4039000000000000 0\n"
    "rainflow 2 1 3ff0000000000000 3fe199999999999a 2 3fe999999999999a 3fc999999999999a\n"
    "held 1\n"
    "heldrep 7 3 518400000000 3fe0000000000000 540000000000 3fc3333333333333 561600000000 "
    "3fdccccccccccccd\n"
    "node 3 2 1 1 0 3 0 3f4cd11dfcf3e400 3ff0000000000000 0000000000000000 0 21600000000\n"
    "tracker 0000000000000000 21600000000 3fe0000000000000 1 40cd87ffffffffff 40d5180000000000 "
    "21600000000 4039000000000000 0\n"
    "rainflow 0 1 bff0000000000000 3fe0000000000000 1 3feccccccccccccd\n"
    "held 0\n"
    "node 4 0 0 0 0 0 0 0000000000000000 0000000000000000 0000000000000000 0 0\n"
    "tracker 0000000000000000 0 0000000000000000 0 0000000000000000 0000000000000000 0 "
    "4039000000000000 0\n"
    "rainflow 0 0 0000000000000000 0000000000000000 0\n"
    "held 0\n"
    "node 5 0 1 1 0 0 2 3f575de1abf9c000 3fe67d036b62e68a 0000000000000000 0 302400000000\n"
    "tracker 3ed41489fac02520 302400000000 3fe51eb851eb851f 1 4109da6000000000 4112750000000000 "
    "302400000000 4039000000000000 1\n"
    "rainflow 0 1 3ff0000000000000 3fe51eb851eb851f 2 3fe6666666666666 3fd6666666666666\n"
    "held 0\n"
    "checksum a22797b94e407ad0\n";

std::vector<SocSample> ramp(double start_day, std::initializer_list<double> socs) {
  std::vector<SocSample> out;
  double d = start_day;
  for (double s : socs) {
    out.push_back({Time::from_days(d), s});
    d += 0.25;
  }
  return out;
}

// The exact scenario the PR-6 binary ran to produce kPr6Fixture: healthy
// node 1, gapped node 2 with a fresh post-recompute held report, quarantined
// node 3, silent node 4, crash-reset node 5.
void feed_scripted_scenario(DegradationService& svc,
                            void (DegradationService::*deliver)(std::uint32_t, std::uint16_t,
                                                                std::uint8_t,
                                                                std::span<const SocSample>)) {
  for (std::uint16_t seq = 0; seq < 4; ++seq) {
    const auto samples = ramp(seq * 1.0, {0.9 - 0.05 * seq, 0.5, 0.85 - 0.05 * seq});
    (svc.*deliver)(1, seq, report_checksum(seq, samples), samples);
  }
  const auto n2s0 = ramp(0.0, {0.8, 0.4, 0.75});
  (svc.*deliver)(2, 0, report_checksum(0, n2s0), n2s0);
  const auto n2s2 = ramp(2.0, {0.7, 0.3, 0.65});
  (svc.*deliver)(2, 2, report_checksum(2, n2s2), n2s2);  // held
  const auto n2s4 = ramp(4.0, {0.6, 0.2, 0.55});
  (svc.*deliver)(2, 4, report_checksum(4, n2s4), n2s4);  // held too
  const auto n3s0 = ramp(0.0, {0.9, 0.5});
  (svc.*deliver)(3, 0, report_checksum(0, n3s0), n3s0);
  for (int k = 0; k < 3; ++k) {
    const auto bad = ramp(1.0 + k, {0.8, 0.4});
    (svc.*deliver)(3, static_cast<std::uint16_t>(1 + k),
                   static_cast<std::uint8_t>(report_checksum(static_cast<std::uint16_t>(1 + k),
                                                             bad) ^
                                             0x5a),
                   bad);
  }
  svc.register_node(4);
  const auto n5s0 = ramp(0.0, {0.85, 0.45, 0.8});
  (svc.*deliver)(5, 900, report_checksum(900, n5s0), n5s0);
  const auto n5s1 = ramp(3.0, {0.7, 0.35, 0.66});
  (svc.*deliver)(5, 0, report_checksum(0, n5s1), n5s1);  // far jump: reboot
  svc.recompute(Time::from_days(3.0));
  const auto n2s7 = ramp(6.0, {0.5, 0.15, 0.45});
  (svc.*deliver)(2, 7, report_checksum(7, n2s7), n2s7);  // held post-recompute
}

std::string checkpoint_text(DegradationService& svc) {
  std::string out;
  svc.checkpoint(out);
  return out;
}

TEST(LedgerCheckpoint, Pr6FixtureRoundTripsByteExact) {
  DegradationService svc{DegradationModel{}, 25.0};
  svc.restore(kPr6Fixture);

  // The restored ledger carries the full PR-6 semantics, not just bytes.
  EXPECT_EQ(svc.node_count(), 5u);
  EXPECT_EQ(svc.health(1), LedgerHealth::kHealthy);
  EXPECT_EQ(svc.health(2), LedgerHealth::kGapped);
  EXPECT_EQ(svc.health(3), LedgerHealth::kQuarantined);
  EXPECT_EQ(svc.health(4), LedgerHealth::kHealthy);
  EXPECT_GT(svc.estimated_gap_seconds(2), 0.0);
  EXPECT_EQ(svc.normalized_degradation(3), 1.0);  // conservative prior
  EXPECT_EQ(svc.counters().reports_accepted, 10u);
  EXPECT_EQ(svc.counters().reports_checksum_rejected, 3u);
  EXPECT_EQ(svc.counters().reports_buffered, 3u);
  EXPECT_EQ(svc.counters().reports_reassembled, 2u);
  EXPECT_EQ(svc.counters().gaps_bridged, 2u);
  EXPECT_EQ(svc.counters().discontinuities, 1u);
  EXPECT_EQ(svc.counters().quarantines, 1u);

  // Byte-exact re-serialization, mid-reassembly buffer and all.
  EXPECT_EQ(checkpoint_text(svc), kPr6Fixture);
}

TEST(LedgerCheckpoint, CurrentPipelineReproducesPr6Bytes) {
  // Replaying the scripted scenario through today's synchronous path must
  // land on the PR-6 bytes exactly: the refactor changed the layout, not
  // one bit of the arithmetic or the serialization.
  DegradationService svc{DegradationModel{}, 25.0};
  feed_scripted_scenario(svc, &DegradationService::ingest_report);
  EXPECT_EQ(checkpoint_text(svc), kPr6Fixture);
}

TEST(LedgerCheckpoint, BatchSizeDoesNotChangeTheBytes) {
  DegradationService sync{DegradationModel{}, 25.0};
  feed_scripted_scenario(sync, &DegradationService::ingest_report);

  for (const std::size_t batch : {std::size_t{1}, std::size_t{3}, std::size_t{4096}}) {
    DegradationService svc{DegradationModel{}, 25.0};
    svc.set_ingest_batch(batch);
    feed_scripted_scenario(svc, &DegradationService::enqueue_report);
    svc.drain_queue();
    EXPECT_EQ(checkpoint_text(svc), checkpoint_text(sync)) << "batch " << batch;
    EXPECT_EQ(checkpoint_text(svc), kPr6Fixture) << "batch " << batch;
  }
}

TEST(LedgerCheckpoint, CheckpointDrainsStagedReports) {
  // A checkpoint taken with reports still staged folds them in first and
  // reads exactly like one taken after an explicit drain (drain order is
  // arrival order either way).
  DegradationService drained{DegradationModel{}, 25.0};
  drained.set_ingest_batch(100);  // nothing drains on its own
  const auto samples = ramp(0.0, {0.9, 0.5});
  drained.enqueue_report(1, 0, report_checksum(0, samples), samples);
  EXPECT_EQ(drained.drain_queue(), 1u);
  const std::string expected = checkpoint_text(drained);

  DegradationService svc{DegradationModel{}, 25.0};
  svc.set_ingest_batch(100);
  svc.enqueue_report(1, 0, report_checksum(0, samples), samples);
  ASSERT_EQ(svc.queued_reports(), 1u);
  EXPECT_EQ(checkpoint_text(svc), expected);
  EXPECT_EQ(svc.queued_reports(), 0u);

  // Restore still refuses a non-empty queue: staged reports would be
  // silently destroyed by the rebuild.
  svc.enqueue_report(1, 1, report_checksum(1, samples), samples);
  EXPECT_THROW(svc.restore(kPr6Fixture), std::logic_error);
}

TEST(LedgerCheckpoint, IngestBatchMustBePositive) {
  DegradationService svc{DegradationModel{}, 25.0};
  EXPECT_THROW(svc.set_ingest_batch(0), std::invalid_argument);
  svc.set_ingest_batch(7);
  EXPECT_EQ(svc.ingest_batch(), 7u);
}

TEST(LedgerCheckpoint, RestoreRejectsTamperedFixture) {
  // Flip one hex digit in a tracker line: the FNV trailer must catch it.
  std::string tampered{kPr6Fixture};
  const auto pos = tampered.find("3fe6666666666666");
  ASSERT_NE(pos, std::string::npos);
  tampered[pos + 3] = '5';
  DegradationService svc{DegradationModel{}, 25.0};
  EXPECT_THROW(svc.restore(tampered), std::runtime_error);
}

TEST(LedgerCheckpoint, RestoreRejectsHeldOverflow) {
  // A forged checkpoint claiming more held reports than the reorder depth
  // cannot be represented in the fixed-slot layout and must be refused.
  std::string forged{kPr6Fixture};
  const auto pos = forged.find("held 1\n");
  ASSERT_NE(pos, std::string::npos);
  forged.replace(pos, 6, "held 9");
  DegradationService svc{DegradationModel{}, 25.0};
  EXPECT_THROW(svc.restore(forged), std::runtime_error);
}

}  // namespace
}  // namespace blam
