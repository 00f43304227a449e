// In-memory span recorder for the traced run. Spans are opened and closed by
// the benchmark around its own calls into the simulator's public functions
// (nothing inside the simulator is instrumented), kept in memory, and
// written once at the end as Chrome trace-event JSON.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string_view>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    /// Must outlive the tracer (the benchmark passes string literals).
    std::string_view name;
    std::int64_t start_ns{0};
    std::int64_t end_ns{0};
    /// Index of the enclosing open span, -1 at top level.
    int parent{-1};
    /// Iteration the span belongs to (spans of one iteration share it).
    int run{0};
  };

  /// Span times are relative to `origin`; tracers that share one (one per
  /// thread) line up in the same trace.
  explicit Tracer(std::chrono::steady_clock::time_point origin = std::chrono::steady_clock::now());

  /// Opens a span nested in the innermost open one; returns its index.
  int begin(std::string_view name, int run);
  void end(int span);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  [[nodiscard]] std::int64_t now_ns() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Chrome trace-event JSON: {"traceEvents": [...], "otherData": {...}}, one
/// complete ("X") event per span, tracer i on thread id i + 1, with
/// `other_data` (a JSON object body, may be empty) spliced in.
void write_chrome_trace(std::ostream& out, std::span<const Tracer> tracers,
                        std::string_view other_data);

/// RAII span; a null tracer makes it a no-op (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string_view name, int run)
      : tracer_{tracer}, span_{tracer != nullptr ? tracer->begin(name, run) : -1} {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int span_;
};

}  // namespace perfbench
