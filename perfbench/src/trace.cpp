#include "trace.hpp"

#include <cstdio>
#include <ostream>
#include <stdexcept>

namespace perfbench {

Tracer::Tracer(std::chrono::steady_clock::time_point origin) : origin_{origin} {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                              origin_)
      .count();
}

int Tracer::begin(std::string_view name, int run) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.run = run;
  spans_.push_back(span);
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  // Stamped last so the bookkeeping above is not inside the span.
  spans_.back().start_ns = now_ns();
  return index;
}

void Tracer::end(int span) {
  const std::int64_t t = now_ns();
  if (open_.empty() || open_.back() != span) {
    throw std::logic_error{"Tracer::end: spans must close innermost first"};
  }
  open_.pop_back();
  spans_[static_cast<std::size_t>(span)].end_ns = t;
}

void write_chrome_trace(std::ostream& out, std::span<const Tracer> tracers,
                        std::string_view other_data) {
  out << "{\"traceEvents\": [";
  char buf[256];
  const char* sep = "";
  for (std::size_t t = 0; t < tracers.size(); ++t) {
    const std::vector<Tracer::Span>& spans = tracers[t].spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Tracer::Span& s = spans[i];
      // Microseconds; the span tree and run id ride in args so a reader can
      // recompute self time.
      std::snprintf(buf, sizeof buf,
                    "%s\n{\"name\": \"%.*s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %zu, "
                    "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, \"parent\": %d, "
                    "\"run\": %d}}",
                    sep, static_cast<int>(s.name.size()), s.name.data(), t + 1,
                    static_cast<double>(s.start_ns) * 1e-3,
                    static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i, s.parent, s.run);
      out << buf;
      sep = ",";
    }
  }
  out << "\n], \"displayTimeUnit\": \"ms\", \"otherData\": {" << other_data << "}}\n";
}

}  // namespace perfbench
