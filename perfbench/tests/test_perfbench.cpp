// Tests of the benchmark's own logic: the tail-percentile rule, the
// correctness fingerprint and its recorded values, the span recorder, and
// the path from the --seed argument to ScenarioConfig::seed.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "cli.hpp"
#include "expected.hpp"
#include "fingerprint.hpp"
#include "sim/shard_engine.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

TEST(TailPercentile, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_FALSE(tail_percentile(0).has_value());
  EXPECT_FALSE(tail_percentile(19).has_value());
  EXPECT_EQ(tail_percentile(20), 50.0);
  EXPECT_EQ(tail_percentile(99), 50.0);
  EXPECT_EQ(tail_percentile(100), 90.0);
  EXPECT_EQ(tail_percentile(999), 90.0);
  EXPECT_EQ(tail_percentile(1000), 99.0);
  EXPECT_EQ(tail_percentile(9999), 99.0);
  EXPECT_EQ(tail_percentile(10000), 99.9);
}

TEST(TailPercentile, LeavesAtLeastTenSamplesBeyondTheReportedValue) {
  for (const std::size_t n : {20U, 57U, 100U, 101U, 1000U, 1234U, 10000U}) {
    std::vector<double> samples;
    for (std::size_t i = 0; i < n; ++i) samples.push_back(static_cast<double>(i));
    const double value = percentile(samples, *tail_percentile(n));
    std::size_t beyond = 0;
    for (const double s : samples) beyond += s > value ? 1 : 0;
    EXPECT_GE(beyond, 10U) << "n=" << n;
  }
}

TEST(Percentile, NearestRankAndMedian) {
  const std::vector<double> v{5.0, 1.0, 4.0, 2.0, 3.0};
  EXPECT_EQ(percentile(v, 50.0), 3.0);
  EXPECT_EQ(percentile(v, 100.0), 5.0);
  EXPECT_EQ(percentile(v, 20.0), 1.0);
  EXPECT_EQ(median(v), 3.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(SeedArgument, ReachesScenarioConfigSeed) {
  const Options opts =
      parse_args({"--workload", "city_sharded", "--seed", "987654321", "--seconds", "3",
                  "--trace", "1"});
  EXPECT_EQ(opts.seed, 987654321U);
  EXPECT_TRUE(opts.trace);
  EXPECT_EQ(opts.seconds, 3.0);
  const Workload* w = find_workload(opts.workload);
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(workload_config(*w, opts.seed).seed, 987654321U);
  for (const Workload& each : workloads()) {
    EXPECT_EQ(workload_config(each, 17).seed, 17U) << each.name;
  }
}

TEST(SeedArgument, MalformedArgumentsAreRejected) {
  EXPECT_THROW((void)parse_args({"--seed", "3"}), std::invalid_argument);
  EXPECT_THROW((void)parse_args({"--workload", "x", "--seed", "-1"}), std::invalid_argument);
  EXPECT_THROW((void)parse_args({"--workload", "x", "--seed", "12abc"}), std::invalid_argument);
  EXPECT_THROW((void)parse_args({"--workload", "x", "--trace", "2"}), std::invalid_argument);
  EXPECT_THROW((void)parse_args({"--workload", "x", "--seconds", "nan"}), std::invalid_argument);
  EXPECT_THROW((void)parse_args({"--workload", "x", "--bogus", "1"}), std::invalid_argument);
  EXPECT_THROW((void)parse_args({"--workload"}), std::invalid_argument);
  EXPECT_EQ(find_workload("no_such_workload"), nullptr);
}

/// A small city (4 cells) so the fingerprint tests run in well under a second.
blam::ScenarioConfig small_city(std::uint64_t seed, int shards) {
  blam::ScenarioConfig c = workload_config(*find_workload("city_sharded"), seed);
  c.n_nodes = 80;
  c.n_gateways = 4;
  c.shards = shards;
  return c;
}

std::uint64_t run_fingerprint(const blam::ScenarioConfig& config, double days) {
  blam::ShardedNetwork net{config};
  EXPECT_EQ(net.serial(), config.shards <= 1);
  net.run_until(blam::Time::from_days(days));
  net.finalize_metrics();
  return fingerprint(net);
}

TEST(Fingerprint, StableAcrossRunsAndShardCounts) {
  const std::uint64_t serial = run_fingerprint(small_city(5, 1), 3.0);
  EXPECT_EQ(run_fingerprint(small_city(5, 1), 3.0), serial);
  EXPECT_EQ(run_fingerprint(small_city(5, 2), 3.0), serial);
  EXPECT_EQ(run_fingerprint(small_city(5, 4), 3.0), serial);
}

TEST(Fingerprint, SeesADifferentSeedOrHorizon) {
  const std::uint64_t base = run_fingerprint(small_city(5, 1), 3.0);
  EXPECT_NE(run_fingerprint(small_city(6, 1), 3.0), base);
  EXPECT_NE(run_fingerprint(small_city(5, 1), 4.0), base);
}

TEST(Fingerprint, RecordedValueMatchesAFreshRun) {
  const Workload& w = *find_workload("paper_h50");
  const auto recorded = expected_fingerprint(w.name, 0);
  ASSERT_TRUE(recorded.has_value());
  EXPECT_EQ(run_fingerprint(workload_config(w, 0), w.days), *recorded);
  EXPECT_FALSE(expected_fingerprint(w.name, 1'000'003).has_value());
  EXPECT_FALSE(expected_fingerprint("no_such_workload", 0).has_value());
}

TEST(Tracer, NestsSpansAndWritesChromeJson) {
  Tracer tracer;
  {
    const ScopedSpan outer{&tracer, "run", 3};
    const ScopedSpan inner{&tracer, "epoch", 3};
  }
  const ScopedSpan untraced{nullptr, "ignored", 0};
  ASSERT_EQ(tracer.spans().size(), 2U);
  EXPECT_EQ(tracer.spans()[0].parent, -1);
  EXPECT_EQ(tracer.spans()[1].parent, 0);
  EXPECT_EQ(tracer.spans()[1].run, 3);
  EXPECT_LE(tracer.spans()[0].start_ns, tracer.spans()[1].start_ns);
  EXPECT_GE(tracer.spans()[0].end_ns, tracer.spans()[1].end_ns);

  std::ostringstream out;
  write_chrome_trace(out, std::span<const Tracer>{&tracer, 1}, "\"tracing_overhead_s\": 0.5");
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"epoch\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1"),
            std::string::npos);
  EXPECT_NE(json.find("\"parent\": 0, \"run\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"tracing_overhead_s\": 0.5"), std::string::npos);
}

}  // namespace
}  // namespace perfbench
