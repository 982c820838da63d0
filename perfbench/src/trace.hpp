// In-memory span tracing for the benchmark driver.
//
// A span is one timed call into a layer of the library: a name, a start and
// an end on the steady clock, and the id of the span that caused it. Spans
// are recorded from the driver's own code, around public library calls,
// and kept in memory until the run ends; nothing inside src/ is
// instrumented. With tracing off the Tracer pointer is null and every
// ScopedSpan is a no-op that reads no clock.
//
// A layer's self time is its span's duration minus the part of that
// interval covered by its child spans (children that ran concurrently on
// other threads are merged as a union of intervals, not summed).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t to_ns(Clock::time_point t) noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return to_ns(Clock::now());
}

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  const char* name = "";     ///< string literal; outlives the tracer
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  [[nodiscard]] std::uint64_t next_id() noexcept {
    return next_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  void record(const Span& s);
  /// Records a span whose interval the caller measured itself (e.g. a
  /// request's wait from its scheduled time to its issue).
  void record(const char* name, std::uint64_t parent, std::int64_t start_ns,
              std::int64_t end_ns);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

 private:
  std::atomic<std::uint64_t> next_{0};
  std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, records on destruction. Nested
/// ScopedSpans on one thread parent to the innermost open one; a span that
/// starts work on another thread passes its parent explicitly.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name);
  ScopedSpan(Tracer* tracer, const char* name, std::uint64_t parent);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint64_t id() const noexcept { return span_.id; }

 private:
  Tracer* tracer_;
  Span span_;
  std::uint64_t saved_current_ = 0;
};

/// Per-name totals over a finished trace.
struct LayerTotals {
  std::vector<double> durations_s;  ///< one entry per span, record order
  double self_s = 0.0;
  double total_s = 0.0;
};

/// Self time per span name: duration minus the union of its children's
/// intervals (clipped to the span).
[[nodiscard]] std::map<std::string, LayerTotals> layer_totals(
    const std::vector<Span>& spans);

/// Writes every span as one tab-separated line:
/// id, parent, name, start_ns, end_ns (times relative to the first start).
void write_spans(std::ostream& os, const std::vector<Span>& spans);

}  // namespace perfbench
