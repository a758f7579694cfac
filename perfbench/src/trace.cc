#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

#include "stats.h"

namespace perfbench {

std::int64_t SpanLog::Add(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  span.id = static_cast<std::int64_t>(spans_.size());
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

namespace {

/// Length of the union of `intervals` clipped to [lo, hi].
double CoveredUs(std::vector<std::pair<double, double>> intervals, double lo,
                 double hi) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double cursor = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, cursor);
    end = std::min(end, hi);
    if (end > start) {
      covered += end - start;
      cursor = end;
    }
  }
  return covered;
}

std::unordered_map<std::int64_t, std::vector<std::pair<double, double>>>
ChildIntervals(const std::vector<Span>& spans) {
  std::unordered_map<std::int64_t, std::vector<std::pair<double, double>>>
      children;
  for (const Span& s : spans) {
    if (s.parent >= 0) children[s.parent].emplace_back(s.start_us, s.end_us);
  }
  return children;
}

}  // namespace

std::map<std::string, double> SelfTimeByName(const std::vector<Span>& spans) {
  const auto children = ChildIntervals(spans);
  std::map<std::string, double> self;
  for (const Span& s : spans) {
    double covered = 0.0;
    if (auto it = children.find(s.id); it != children.end()) {
      covered = CoveredUs(it->second, s.start_us, s.end_us);
    }
    self[s.name] += s.duration_us() - covered;
  }
  return self;
}

Coverage CheckCoverage(const std::vector<Span>& spans, double tolerance) {
  const auto children = ChildIntervals(spans);
  Coverage out;
  out.tolerance = tolerance;
  std::vector<double> uncovered;
  for (const Span& s : spans) {
    if (s.parent >= 0 || s.duration_us() <= 0.0) continue;
    auto it = children.find(s.id);
    if (it == children.end()) continue;
    const double frac =
        1.0 - CoveredUs(it->second, s.start_us, s.end_us) / s.duration_us();
    uncovered.push_back(frac);
    if (frac > tolerance) ++out.over_tolerance;
    out.max_uncovered_frac = std::max(out.max_uncovered_frac, frac);
  }
  out.statements = static_cast<std::int64_t>(uncovered.size());
  out.median_uncovered_frac = Percentile(uncovered, 0.5);
  return out;
}

std::string SpansToJson(const std::vector<Span>& spans,
                        const Coverage& coverage) {
  std::string out = "{\"spans\": [";
  char buf[512];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"id\": %lld, \"parent\": %lld, \"statement\": %lld, "
                  "\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f, "
                  "\"derived\": %s}",
                  i == 0 ? "" : ",", static_cast<long long>(s.id),
                  static_cast<long long>(s.parent),
                  static_cast<long long>(s.statement), s.name.c_str(),
                  s.start_us, s.end_us, s.derived ? "true" : "false");
    out += buf;
  }
  out += "],\n\"self_time_us\": {";
  bool first = true;
  for (const auto& [name, us] : SelfTimeByName(spans)) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": %.3f", first ? "" : ", ",
                  name.c_str(), us);
    out += buf;
    first = false;
  }
  std::snprintf(buf, sizeof(buf),
                "},\n\"coverage\": {\"statements\": %lld, \"tolerance\": %.3f, "
                "\"median_uncovered_frac\": %.6f, \"max_uncovered_frac\": "
                "%.6f, \"over_tolerance\": %lld}}\n",
                static_cast<long long>(coverage.statements),
                coverage.tolerance, coverage.median_uncovered_frac,
                coverage.max_uncovered_frac,
                static_cast<long long>(coverage.over_tolerance));
  out += buf;
  return out;
}

}  // namespace perfbench
