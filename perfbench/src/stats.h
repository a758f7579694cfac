#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// Small numeric helpers of the benchmark: percentiles, result hashing, and
// the seeded open-loop arrival schedule.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The q-quantile (0 <= q <= 1) of `values` by linear interpolation between
/// closest ranks (the "inclusive" method: q = 0 is the minimum, q = 1 the
/// maximum). Returns 0 for an empty input. Sorts a copy.
double Percentile(std::vector<double> values, double q);

/// Samples strictly above the q-quantile: the benchmark reports a
/// percentile only when at least ten samples lie beyond it.
std::int64_t SamplesBeyond(const std::vector<double>& values, double q);

/// One successful statement: when it finished (seconds after its phase
/// started) and the base-table rows it covered.
struct Completion {
  double at_s = 0.0;
  double rows = 0.0;
};

/// Statements and rows per second over `windows` equal time windows of
/// [0, wall_s), each window's rate divided by its `available` CPU share
/// (1 - hypervisor steal; empty means 1), then taken at quantile `q` across
/// the windows. Interference from other tenants only ever slows a window,
/// so an upper quantile tracks the program's own speed.
struct Rates {
  double statements_per_s = 0.0;
  double rows_per_s = 0.0;
  std::vector<double> window_statements_per_s;  ///< before the correction
};
Rates WindowedRates(const std::vector<Completion>& done, double wall_s,
                    int windows, double q,
                    const std::vector<double>& available = {});

/// One latency observation at a point in its phase.
struct Timed {
  double at_s = 0.0;
  double value = 0.0;
};

/// The `inner` quantile of each window's values times the window's
/// `available` CPU share, then the `outer` quantile across windows that
/// hold at least one value.
double WindowedPercentile(const std::vector<Timed>& samples, double wall_s,
                          int windows, double inner, double outer,
                          const std::vector<double>& available = {});

/// 64-bit FNV-1a over `bytes`.
std::uint64_t Fnv1a(const std::string& bytes);

/// One open-loop arrival: when it is due (seconds after the phase starts)
/// and which statement of the mix it sends.
struct Arrival {
  double due_s = 0.0;
  std::int64_t statement = 0;
  /// Seeded per-arrival value the workload may bind into the statement
  /// (a prepared parameter or an ad-hoc literal).
  std::uint64_t draw = 0;
};

/// Poisson arrivals at `rate_per_s` over `seconds`, each picking one of
/// `mix_size` statements uniformly. A function of its arguments alone.
std::vector<Arrival> MakeSchedule(std::uint64_t seed, double rate_per_s,
                                  double seconds, std::int64_t mix_size);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
