// Small helpers shared by the fleet benchmark: clocks, process resource
// readings, sample summaries, the named-metric list a run prints, and the
// in-memory span log the traced run writes out at the end.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace fleetbench {

/// Monotonic nanoseconds (std::chrono::steady_clock).
[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process user + system CPU seconds so far (getrusage, all threads).
[[nodiscard]] double process_cpu_seconds();

/// Peak resident set size of the process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Linear-interpolated percentile (pct in [0, 100]); 0 for an empty sample.
[[nodiscard]] double percentile(const std::vector<double>& values, double pct);
[[nodiscard]] double median(const std::vector<double>& values);
/// Splits samples into consecutive sub-windows of `window_s` by their
/// timestamps `at_s` (seconds from the window start), takes `pct` within
/// each sub-window, and returns the median of those: a host stall that
/// hits a few sub-windows moves this far less than the whole-run figure.
[[nodiscard]] double windowed_percentile(const std::vector<double>& values,
                                         const std::vector<double>& at_s,
                                         double window_s, double pct);
[[nodiscard]] double mean(const std::vector<double>& values);

/// One printed metric: name, value as measured, unit.
struct Metric {
  std::string name;
  double value{0.0};
  std::string unit;
};

class MetricList {
 public:
  void add(std::string name, double value, std::string unit) {
    items_.push_back({std::move(name), value, std::move(unit)});
  }
  void add(const Metric& metric) { items_.push_back(metric); }
  [[nodiscard]] const std::vector<Metric>& items() const noexcept { return items_; }
  /// Value of `name`; throws std::out_of_range when absent.
  [[nodiscard]] double value(const std::string& name) const;

 private:
  std::vector<Metric> items_;
};

/// Span ids: every span of one frame carries that frame's (stream,
/// sequence). Spans that belong to no frame (replay passes, probe phases)
/// use kNoStream and a per-kind running index as the sequence.
inline constexpr std::uint32_t kNoStream = 0xFFFFFFFFu;

/// One timed interval around a benchmark call into a module. `parent`
/// names the enclosing span with the same (stream, sequence), or is empty
/// for a root.
struct Span {
  const char* name{""};
  const char* parent{""};
  std::uint32_t stream{kNoStream};
  std::uint64_t sequence{0};
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
};

/// Spans kept in memory during a traced run and written out once at the
/// end (Chrome trace-event JSON: loads in Perfetto / chrome://tracing, and
/// every event carries its stream, sequence and parent in `args`).
/// Single-threaded: spans are appended after the worker threads have
/// joined or from the main thread only.
class SpanLog {
 public:
  void add(const Span& span) { spans_.push_back(span); }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  [[nodiscard]] std::size_t bytes() const noexcept {
    return spans_.capacity() * sizeof(Span);
  }
  /// Writes the trace; returns false on I/O failure.
  [[nodiscard]] bool write_chrome_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace fleetbench
