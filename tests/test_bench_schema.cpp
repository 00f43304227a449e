// Unit tests for tools/bench_schema_check (PR 7 satellite): the CI
// bench-schema gate is only as strong as this checker, so the checker gets
// its own coverage — parser strictness (NaN/Inf rejection, trailing
// garbage), per-bench required keys, monotone grid axes, and boolean
// invariants.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "bench_schema_check/schema_check.hpp"

namespace blam::benchschema {
namespace {

constexpr const char* kValidIngest = R"({
  "nodes": 1000000,
  "rounds": 4,
  "samples_per_report": 6,
  "reports_ingested": 4000000,
  "bytes_per_trace": 101,
  "wall_s": 2.5,
  "traces_per_s": 1600000.0,
  "samples_per_s": 9600000.0,
  "arena_pool_elements": 21443456,
  "bit_identical": true,
  "batch_sweep": [
    {"batch": 1, "traces_per_s": 1400000.0},
    {"batch": 16, "traces_per_s": 1500000.0},
    {"batch": 4096, "traces_per_s": 1600000.0}
  ],
  "dirty_sweep": [
    {"dirty_fraction": 0.01, "clean_rows": 990000, "recompute_wall_s": 0.03},
    {"dirty_fraction": 0.5, "clean_rows": 500000, "recompute_wall_s": 0.05},
    {"dirty_fraction": 1.0, "clean_rows": 0, "recompute_wall_s": 0.07}
  ]
})";

std::string with_replacement(std::string text, const std::string& from, const std::string& to) {
  const auto pos = text.find(from);
  EXPECT_NE(pos, std::string::npos) << from;
  text.replace(pos, from.size(), to);
  return text;
}

TEST(BenchSchema, ValidIngestArtifactPasses) {
  EXPECT_TRUE(check_bench_json("BENCH_ingest.json", kValidIngest).empty());
}

TEST(BenchSchema, MissingRequiredKeyFails) {
  const std::string text =
      with_replacement(kValidIngest, "\"traces_per_s\": 1600000.0,", "");
  const auto issues = check_bench_json("BENCH_ingest.json", text);
  ASSERT_FALSE(issues.empty());
  EXPECT_NE(issues[0].find("traces_per_s"), std::string::npos);
}

TEST(BenchSchema, OverflowToInfinityIsRejected) {
  // 1e999 parses (strtod clamps to inf) but the finite check must veto it.
  const std::string text = with_replacement(kValidIngest, "\"wall_s\": 2.5", "\"wall_s\": 1e999");
  const auto issues = check_bench_json("BENCH_ingest.json", text);
  ASSERT_FALSE(issues.empty());
  EXPECT_NE(issues[0].find("wall_s"), std::string::npos);
}

TEST(BenchSchema, NanLiteralIsAParseError) {
  EXPECT_THROW(parse_json(R"({"x": NaN})"), std::runtime_error);
  EXPECT_THROW(parse_json(R"({"x": Infinity})"), std::runtime_error);
  // check_bench_json converts the parse error into a violation.
  const std::string text = with_replacement(kValidIngest, "\"wall_s\": 2.5", "\"wall_s\": NaN");
  EXPECT_FALSE(check_bench_json("BENCH_ingest.json", text).empty());
}

TEST(BenchSchema, MalformedJsonAndTrailingDataFail) {
  EXPECT_THROW(parse_json("{\"a\": 1"), std::runtime_error);
  EXPECT_THROW(parse_json("{\"a\": 1} extra"), std::runtime_error);
  EXPECT_THROW(parse_json("{'a': 1}"), std::runtime_error);
  EXPECT_FALSE(check_bench_json("BENCH_ingest.json", "{\"a\": 1} extra").empty());
}

TEST(BenchSchema, NonMonotoneBatchAxisFails) {
  const std::string text =
      with_replacement(kValidIngest, "{\"batch\": 16,", "{\"batch\": 1,");
  const auto issues = check_bench_json("BENCH_ingest.json", text);
  ASSERT_FALSE(issues.empty());
  EXPECT_NE(issues[0].find("batch"), std::string::npos);
}

TEST(BenchSchema, NonMonotoneDirtyAxisFails) {
  const std::string text =
      with_replacement(kValidIngest, "\"dirty_fraction\": 1.0", "\"dirty_fraction\": 0.25");
  EXPECT_FALSE(check_bench_json("BENCH_ingest.json", text).empty());
}

TEST(BenchSchema, BitIdenticalFalseFails) {
  const std::string text =
      with_replacement(kValidIngest, "\"bit_identical\": true", "\"bit_identical\": false");
  const auto issues = check_bench_json("BENCH_ingest.json", text);
  ASSERT_FALSE(issues.empty());
  EXPECT_NE(issues[0].find("bit_identical"), std::string::npos);
}

TEST(BenchSchema, FaultGridOrderIsEnforced) {
  const std::string valid = R"({
    "feed_nodes": 50,
    "feed_days": 365,
    "oracle_min_lifespan_years": 4.0,
    "lifespan_within_5pct_up_to_20pct_loss": true,
    "checkpoint_exact": true,
    "cells": [
      {"loss": 0.0, "reorder": 0.0, "corrupt": 0.0, "w_err_avg": 0.0, "w_err_max": 0.0,
       "life_err_pct": 0.0},
      {"loss": 0.0, "reorder": 0.1, "corrupt": 0.0, "w_err_avg": 0.01, "w_err_max": 0.02,
       "life_err_pct": 0.5},
      {"loss": 0.1, "reorder": 0.0, "corrupt": 0.0, "w_err_avg": 0.01, "w_err_max": 0.03,
       "life_err_pct": 0.8}
    ]
  })";
  EXPECT_TRUE(check_bench_json("BENCH_fault.json", valid).empty());

  // Swap the last two cells: (loss, reorder, corrupt) is no longer
  // lexicographically increasing.
  const std::string disordered = with_replacement(
      with_replacement(valid, "{\"loss\": 0.0, \"reorder\": 0.1", "{\"loss\": 0.2, \"reorder\": 0.1"),
      "{\"loss\": 0.1, \"reorder\": 0.0", "{\"loss\": 0.1, \"reorder\": 0.9");
  EXPECT_FALSE(check_bench_json("BENCH_fault.json", disordered).empty());
}

TEST(BenchSchema, ResumeArtifactSchema) {
  const std::string valid = R"({
    "host": {"cores": 4, "cpu": "Example CPU", "compiler": "GNU 13.2.0", "build_type": "Release"},
    "nodes": 48, "gateways": 4, "shards": 4, "days": 0.5,
    "epochs": 12, "kill_epoch": 6,
    "checkpoint_bytes": 250000, "checkpoint_write_s": 0.004,
    "restore_s": 0.006, "fresh_wall_s": 0.09, "resumed_wall_s": 0.05,
    "bit_identical": true
  })";
  EXPECT_TRUE(check_bench_json("BENCH_resume.json", valid).empty());
  // The resume gate is void unless the run actually matched bit for bit.
  EXPECT_FALSE(check_bench_json("BENCH_resume.json",
                                with_replacement(valid, "\"bit_identical\": true",
                                                 "\"bit_identical\": false"))
                   .empty());
  // An empty checkpoint means nothing was captured.
  EXPECT_FALSE(check_bench_json("BENCH_resume.json",
                                with_replacement(valid, "\"checkpoint_bytes\": 250000",
                                                 "\"checkpoint_bytes\": 0"))
                   .empty());
  // Killing at or past the end never tested a resume.
  EXPECT_FALSE(check_bench_json("BENCH_resume.json",
                                with_replacement(valid, "\"kill_epoch\": 6", "\"kill_epoch\": 12"))
                   .empty());
  EXPECT_FALSE(
      check_bench_json("BENCH_resume.json",
                       with_replacement(valid, "\"restore_s\": 0.006, ", ""))
          .empty());
  // A timing without its host cannot be compared with another.
  const auto rejects = [&valid](const std::string& from, const std::string& to) {
    return !check_bench_json("BENCH_resume.json", with_replacement(valid, from, to)).empty();
  };
  EXPECT_TRUE(rejects("\"host\":", "\"machine\":"));
  EXPECT_TRUE(rejects("\"cpu\": \"Example CPU\"", "\"cpu\": \"\""));
  EXPECT_TRUE(rejects("\"cores\": 4", "\"cores\": 0"));
}

TEST(BenchSchema, UnknownBenchFileGetsGenericContract) {
  EXPECT_TRUE(check_bench_json("BENCH_future.json", R"({"anything": 1.0})").empty());
  // ...but still no NaN/Inf and a non-empty object.
  EXPECT_FALSE(check_bench_json("BENCH_future.json", R"({})").empty());
  EXPECT_FALSE(check_bench_json("BENCH_future.json", R"({"x": 1e999})").empty());
  EXPECT_FALSE(check_bench_json("BENCH_future.json", R"([1, 2])").empty());
}

TEST(BenchSchema, ParserHandlesNestingAndEscapes) {
  const JsonValue v = parse_json(R"({"a": [1, {"b": "x\ny"}], "c": null, "d": -2.5e3})");
  ASSERT_EQ(v.kind, JsonValue::Kind::kObject);
  ASSERT_EQ(v.object.size(), 3u);
  EXPECT_EQ(v.object[0].first, "a");
  ASSERT_EQ(v.object[0].second.array.size(), 2u);
  EXPECT_EQ(v.object[0].second.array[1].object[0].second.string, "x\ny");
  EXPECT_EQ(v.object[1].second.kind, JsonValue::Kind::kNull);
  EXPECT_EQ(v.object[2].second.number, -2500.0);
}

}  // namespace
}  // namespace blam::benchschema
