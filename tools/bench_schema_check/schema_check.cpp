#include "bench_schema_check/schema_check.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace blam::benchschema {

namespace {

// --- parser -----------------------------------------------------------------

class Parser {
 public:
  explicit Parser(std::string_view text) : text_{text} {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing data after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error{"json: " + what + " at byte " + std::to_string(pos_)};
  }

  void skip_ws() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string{"expected '"} + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') {
      JsonValue v;
      v.kind = JsonValue::Kind::kString;
      v.string = string();
      return v;
    }
    if (consume_literal("true")) {
      JsonValue v;
      v.kind = JsonValue::Kind::kBool;
      v.boolean = true;
      return v;
    }
    if (consume_literal("false")) {
      JsonValue v;
      v.kind = JsonValue::Kind::kBool;
      return v;
    }
    if (consume_literal("null")) return JsonValue{};
    if (c == '-' || (c >= '0' && c <= '9')) return number();
    fail("unexpected character");
  }

  JsonValue object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case '"':
          case '\\':
          case '/':
            out.push_back(esc);
            break;
          case 'n':
            out.push_back('\n');
            break;
          case 't':
            out.push_back('\t');
            break;
          case 'r':
            out.push_back('\r');
            break;
          case 'b':
          case 'f':
            out.push_back(' ');
            break;
          case 'u': {
            // Bench artifacts are ASCII; accept and round-trip as '?'.
            if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
            pos_ += 4;
            out.push_back('?');
            break;
          }
          default:
            fail("bad escape");
        }
        continue;
      }
      if (static_cast<unsigned char>(c) < 0x20) fail("control character in string");
      out.push_back(c);
    }
  }

  JsonValue number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    const std::string token{text_.substr(start, pos_ - start)};
    char* end = nullptr;
    const double parsed = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || token.empty()) fail("malformed number");
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.number = parsed;  // overflow to +-inf is caught by the finite check
    return v;
  }

  std::string_view text_;
  std::size_t pos_{0};
};

// --- schema helpers ---------------------------------------------------------

const JsonValue* find(const JsonValue& object, const std::string& key) {
  if (object.kind != JsonValue::Kind::kObject) return nullptr;
  for (const auto& [k, v] : object.object) {
    if (k == key) return &v;
  }
  return nullptr;
}

class Checker {
 public:
  explicit Checker(std::string name) : name_{std::move(name)} {}

  void issue(const std::string& what) { issues_.push_back(name_ + ": " + what); }

  /// Every number anywhere in the tree must be finite.
  void check_finite(const JsonValue& v, const std::string& path) {
    switch (v.kind) {
      case JsonValue::Kind::kNumber:
        if (!std::isfinite(v.number)) issue(path + " is not finite");
        break;
      case JsonValue::Kind::kObject:
        for (const auto& [k, child] : v.object) check_finite(child, path + "." + k);
        break;
      case JsonValue::Kind::kArray:
        for (std::size_t i = 0; i < v.array.size(); ++i) {
          check_finite(v.array[i], path + "[" + std::to_string(i) + "]");
        }
        break;
      default:
        break;
    }
  }

  const JsonValue* require(const JsonValue& root, const std::string& key, JsonValue::Kind kind,
                           const char* kind_name) {
    const JsonValue* v = find(root, key);
    if (v == nullptr) {
      issue("missing required key \"" + key + "\"");
      return nullptr;
    }
    if (v->kind != kind) {
      issue("key \"" + key + "\" must be a " + kind_name);
      return nullptr;
    }
    return v;
  }

  const JsonValue* require_number(const JsonValue& root, const std::string& key) {
    return require(root, key, JsonValue::Kind::kNumber, "number");
  }

  void require_true(const JsonValue& root, const std::string& key) {
    const JsonValue* v = require(root, key, JsonValue::Kind::kBool, "boolean");
    if (v != nullptr && !v->boolean) issue("key \"" + key + "\" must be true");
  }

  /// `array` must be a non-empty array of objects whose `axis` member is a
  /// strictly increasing number.
  void require_monotone_axis(const JsonValue& root, const std::string& array_key,
                             const std::string& axis) {
    const JsonValue* arr = require(root, array_key, JsonValue::Kind::kArray, "array");
    if (arr == nullptr) return;
    if (arr->array.empty()) {
      issue("array \"" + array_key + "\" must not be empty");
      return;
    }
    double prev = 0.0;
    bool have_prev = false;
    for (std::size_t i = 0; i < arr->array.size(); ++i) {
      const JsonValue* v = find(arr->array[i], axis);
      if (v == nullptr || v->kind != JsonValue::Kind::kNumber) {
        issue(array_key + "[" + std::to_string(i) + "] lacks numeric \"" + axis + "\"");
        return;
      }
      if (have_prev && !(v->number > prev)) {
        issue(array_key + "." + axis + " axis not strictly increasing at index " +
              std::to_string(i));
        return;
      }
      prev = v->number;
      have_prev = true;
    }
  }

  /// `host` must name the machine and build a timing came from: "cores" a
  /// number >= 1, "cpu", "compiler" and "build_type" non-empty strings.
  void require_host(const JsonValue& root) {
    const JsonValue* host = require(root, "host", JsonValue::Kind::kObject, "object");
    if (host == nullptr) return;
    const JsonValue* cores = find(*host, "cores");
    if (cores == nullptr || cores->kind != JsonValue::Kind::kNumber || !(cores->number >= 1.0)) {
      issue("host.cores must be a number >= 1");
    }
    for (const char* key : {"cpu", "compiler", "build_type"}) {
      const JsonValue* v = find(*host, key);
      if (v == nullptr || v->kind != JsonValue::Kind::kString || v->string.empty()) {
        issue(std::string{"host."} + key + " must be a non-empty string");
      }
    }
  }

  [[nodiscard]] std::vector<std::string> take() { return std::move(issues_); }

 private:
  std::string name_;
  std::vector<std::string> issues_;
};

std::string basename_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

void check_hotpath(Checker& check, const JsonValue& root) {
  for (const char* key : {"nodes", "days", "events_executed", "packets_generated",
                          "packets_delivered", "wall_s", "events_per_s"}) {
    check.require_number(root, key);
  }
  check.require(root, "policy", JsonValue::Kind::kString, "string");
  if (const JsonValue* v = check.require_number(root, "events_per_s");
      v != nullptr && v->number <= 0.0) {
    check.issue("events_per_s must be positive");
  }
}

void check_fault(Checker& check, const JsonValue& root) {
  for (const char* key : {"feed_nodes", "feed_days", "oracle_min_lifespan_years"}) {
    check.require_number(root, key);
  }
  check.require_true(root, "lifespan_within_5pct_up_to_20pct_loss");
  check.require_true(root, "checkpoint_exact");
  const JsonValue* cells = check.require(root, "cells", JsonValue::Kind::kArray, "array");
  if (cells == nullptr || cells->array.empty()) {
    if (cells != nullptr) check.issue("array \"cells\" must not be empty");
    return;
  }
  // The fault grid is ordered lexicographically by (loss, reorder, corrupt).
  double prev[3] = {0.0, 0.0, 0.0};
  bool have_prev = false;
  for (std::size_t i = 0; i < cells->array.size(); ++i) {
    const JsonValue& cell = cells->array[i];
    double axes[3] = {0.0, 0.0, 0.0};
    const char* axis_keys[3] = {"loss", "reorder", "corrupt"};
    for (int a = 0; a < 3; ++a) {
      const JsonValue* v = find(cell, axis_keys[a]);
      if (v == nullptr || v->kind != JsonValue::Kind::kNumber) {
        check.issue("cells[" + std::to_string(i) + "] lacks numeric \"" + axis_keys[a] + "\"");
        return;
      }
      axes[a] = v->number;
    }
    for (const char* key : {"w_err_avg", "w_err_max", "life_err_pct"}) {
      const JsonValue* v = find(cell, key);
      if (v == nullptr || v->kind != JsonValue::Kind::kNumber) {
        check.issue("cells[" + std::to_string(i) + "] lacks numeric \"" + key + "\"");
      }
    }
    if (have_prev) {
      const bool ascending = axes[0] > prev[0] || (axes[0] == prev[0] && axes[1] > prev[1]) ||
                             (axes[0] == prev[0] && axes[1] == prev[1] && axes[2] > prev[2]);
      if (!ascending) {
        check.issue("cells (loss, reorder, corrupt) grid not strictly increasing at index " +
                    std::to_string(i));
        return;
      }
    }
    prev[0] = axes[0];
    prev[1] = axes[1];
    prev[2] = axes[2];
    have_prev = true;
  }
}

void check_ingest(Checker& check, const JsonValue& root) {
  for (const char* key : {"nodes", "rounds", "samples_per_report", "reports_ingested",
                          "bytes_per_trace", "wall_s", "traces_per_s", "samples_per_s",
                          "arena_pool_elements"}) {
    check.require_number(root, key);
  }
  check.require_true(root, "bit_identical");
  if (const JsonValue* v = check.require_number(root, "traces_per_s");
      v != nullptr && v->number <= 0.0) {
    check.issue("traces_per_s must be positive");
  }
  check.require_monotone_axis(root, "batch_sweep", "batch");
  check.require_monotone_axis(root, "dirty_sweep", "dirty_fraction");
}

void check_resume(Checker& check, const JsonValue& root) {
  check.require_host(root);
  for (const char* key : {"nodes", "gateways", "shards", "days", "epochs", "kill_epoch",
                          "checkpoint_bytes", "checkpoint_write_s", "restore_s", "fresh_wall_s",
                          "resumed_wall_s"}) {
    check.require_number(root, key);
  }
  check.require_true(root, "bit_identical");
  if (const JsonValue* v = check.require_number(root, "checkpoint_bytes");
      v != nullptr && v->number <= 0.0) {
    check.issue("checkpoint_bytes must be positive");
  }
  const JsonValue* epochs = find(root, "epochs");
  const JsonValue* kill = find(root, "kill_epoch");
  if (epochs != nullptr && kill != nullptr && epochs->kind == JsonValue::Kind::kNumber &&
      kill->kind == JsonValue::Kind::kNumber &&
      !(kill->number > 0.0 && kill->number < epochs->number)) {
    check.issue("kill_epoch must fall strictly inside (0, epochs)");
  }
}

void check_shard(Checker& check, const JsonValue& root) {
  check.require_number(root, "host_cores");
  check.require(root, "metric_note", JsonValue::Kind::kString, "string");
  check.require_true(root, "bit_identical");
  const JsonValue* deployments =
      check.require(root, "deployments", JsonValue::Kind::kArray, "array");
  if (deployments == nullptr || deployments->array.empty()) {
    if (deployments != nullptr) check.issue("array \"deployments\" must not be empty");
    return;
  }
  for (std::size_t d = 0; d < deployments->array.size(); ++d) {
    const JsonValue& dep = deployments->array[d];
    const std::string where = "deployments[" + std::to_string(d) + "]";
    if (find(dep, "name") == nullptr) check.issue(where + " lacks \"name\"");
    for (const char* key : {"nodes", "gateways", "days"}) {
      const JsonValue* v = find(dep, key);
      if (v == nullptr || v->kind != JsonValue::Kind::kNumber) {
        check.issue(where + " lacks numeric \"" + key + "\"");
      }
    }
    // Shard-count axis must be strictly increasing, serial (1) first.
    check.require_monotone_axis(dep, "runs", "shards");
    const JsonValue* runs = find(dep, "runs");
    if (runs == nullptr || runs->kind != JsonValue::Kind::kArray) continue;
    for (std::size_t r = 0; r < runs->array.size(); ++r) {
      const JsonValue& run = runs->array[r];
      for (const char* key :
           {"shards", "effective_shards", "wall_s", "critical_path_s", "events_executed",
            "events_per_s_wall", "events_per_s_critical_path", "speedup_vs_serial"}) {
        const JsonValue* v = find(run, key);
        if (v == nullptr || v->kind != JsonValue::Kind::kNumber) {
          check.issue(where + ".runs[" + std::to_string(r) + "] lacks numeric \"" + key + "\"");
        } else if (v->number <= 0.0) {
          check.issue(where + ".runs[" + std::to_string(r) + "]." + key + " must be positive");
        }
      }
    }
  }
}

}  // namespace

JsonValue parse_json(std::string_view text) { return Parser{text}.parse(); }

std::vector<std::string> check_bench_json(const std::string& filename, std::string_view text) {
  const std::string base = basename_of(filename);
  Checker check{base};
  JsonValue root;
  try {
    root = parse_json(text);
  } catch (const std::exception& e) {
    check.issue(e.what());
    return check.take();
  }
  if (root.kind != JsonValue::Kind::kObject || root.object.empty()) {
    check.issue("top level must be a non-empty object");
    return check.take();
  }
  check.check_finite(root, "$");
  if (base == "BENCH_hotpath.json") {
    check_hotpath(check, root);
  } else if (base == "BENCH_fault.json") {
    check_fault(check, root);
  } else if (base == "BENCH_ingest.json") {
    check_ingest(check, root);
  } else if (base == "BENCH_shard.json") {
    check_shard(check, root);
  } else if (base == "BENCH_resume.json") {
    check_resume(check, root);
  }
  // Unknown BENCH files pass on the generic contract checked above.
  return check.take();
}

}  // namespace blam::benchschema
