#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// Benchmark-side spans. The traced run records one span around every
// public call it makes into a layer (name, start, end, parent, statement),
// keeps them in memory, and writes them once at the end together with a
// self-time rollup and a parts-add-up check.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::int64_t id = 0;
  std::int64_t parent = -1;  ///< -1 for a statement's root span
  std::int64_t statement = 0;
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  /// True when the interval was reported by the server (ServerResponse
  /// timings) rather than timed by the benchmark around a call.
  bool derived = false;

  double duration_us() const { return end_us - start_us; }
};

/// Per statement, how much of the root span its direct children cover.
struct Coverage {
  std::int64_t statements = 0;
  double tolerance = 0.0;  ///< allowed uncovered share of the root span
  double median_uncovered_frac = 0.0;
  double max_uncovered_frac = 0.0;
  std::int64_t over_tolerance = 0;
};

/// Thread-safe in-memory span log.
class SpanLog {
 public:
  SpanLog() : epoch_(std::chrono::steady_clock::now()) {}

  /// Microseconds since the log was created.
  double NowUs() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// Appends `span` (its id is assigned here) and returns the id.
  std::int64_t Add(Span span);
  std::int64_t NextStatement() {
    std::lock_guard<std::mutex> lock(mu_);
    return next_statement_++;
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::int64_t next_statement_ = 0;
};

/// Self time of every span: its duration minus the part of it its direct
/// children cover, summed per span name.
std::map<std::string, double> SelfTimeByName(const std::vector<Span>& spans);

/// Parts-add-up check over root spans that have children.
Coverage CheckCoverage(const std::vector<Span>& spans, double tolerance);

/// The spans, the self-time rollup and the coverage check as one JSON
/// document.
std::string SpansToJson(const std::vector<Span>& spans,
                        const Coverage& coverage);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
