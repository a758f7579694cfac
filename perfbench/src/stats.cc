#include "stats.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"

namespace perfbench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::int64_t SamplesBeyond(const std::vector<double>& values, double q) {
  const double cut = Percentile(values, q);
  return std::count_if(values.begin(), values.end(),
                       [cut](double v) { return v > cut; });
}

namespace {

double AvailableIn(const std::vector<double>& available, std::size_t w) {
  return w < available.size() ? available[w] : 1.0;
}

}  // namespace

Rates WindowedRates(const std::vector<Completion>& done, double wall_s,
                    int windows, double q,
                    const std::vector<double>& available) {
  Rates out;
  if (wall_s <= 0.0 || windows <= 0) return out;
  const double width = wall_s / windows;
  std::vector<double> count(static_cast<std::size_t>(windows));
  std::vector<double> rows(static_cast<std::size_t>(windows));
  for (const Completion& c : done) {
    const auto w = static_cast<std::size_t>(
        std::clamp(static_cast<int>(c.at_s / width), 0, windows - 1));
    count[w] += 1.0;
    rows[w] += c.rows;
  }
  for (std::size_t w = 0; w < count.size(); ++w) {
    count[w] /= width;
    out.window_statements_per_s.push_back(count[w]);
    count[w] /= AvailableIn(available, w);
    rows[w] /= width * AvailableIn(available, w);
  }
  out.statements_per_s = Percentile(count, q);
  out.rows_per_s = Percentile(rows, q);
  return out;
}

double WindowedPercentile(const std::vector<Timed>& samples, double wall_s,
                          int windows, double inner, double outer,
                          const std::vector<double>& available) {
  if (wall_s <= 0.0 || windows <= 0) return 0.0;
  const double width = wall_s / windows;
  std::vector<std::vector<double>> per(static_cast<std::size_t>(windows));
  for (const Timed& t : samples) {
    per[static_cast<std::size_t>(std::clamp(static_cast<int>(t.at_s / width),
                                            0, windows - 1))]
        .push_back(t.value);
  }
  std::vector<double> quantiles;
  for (std::size_t w = 0; w < per.size(); ++w) {
    if (!per[w].empty()) {
      quantiles.push_back(Percentile(per[w], inner) *
                          AvailableIn(available, w));
    }
  }
  return Percentile(quantiles, outer);
}

std::uint64_t Fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::vector<Arrival> MakeSchedule(std::uint64_t seed, double rate_per_s,
                                  double seconds, std::int64_t mix_size) {
  std::vector<Arrival> out;
  if (rate_per_s <= 0.0 || seconds <= 0.0 || mix_size <= 0) return out;
  raven::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x5151);
  double t = 0.0;
  for (;;) {
    // Exponential gap; 1 - u keeps the log argument in (0, 1].
    t += -std::log(1.0 - rng.NextDouble()) / rate_per_s;
    if (t >= seconds) break;
    Arrival a;
    a.due_s = t;
    a.statement = static_cast<std::int64_t>(
        rng.NextUint(static_cast<std::uint64_t>(mix_size)));
    a.draw = rng.NextU64();
    out.push_back(a);
  }
  return out;
}

}  // namespace perfbench
