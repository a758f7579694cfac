#ifndef PERFBENCH_WORKLOAD_UTIL_H_
#define PERFBENCH_WORKLOAD_UTIL_H_

// Helpers shared by the embedded and served workloads.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "bench.h"
#include "data/hospital.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

/// `rows` scaled by Options::scale, at least 64.
inline std::int64_t Scaled(const Options& options, std::int64_t rows) {
  return std::max<std::int64_t>(
      64, static_cast<std::int64_t>(std::llround(rows * options.scale)));
}

/// The hospital training set: `rows` patients from a fixed seed. Models
/// are part of the system under test, so they stay the same across
/// workload seeds; the seed varies only the data the statements read.
inline raven::data::HospitalDataset TrainingSample(std::int64_t rows) {
  raven::data::HospitalDataset sample;
  sample.joined = raven::data::MakeHospitalDataset(rows, 20200112).joined;
  return sample;
}

/// The paper's §2 running example: a 3-way join, PREDICT with `model`,
/// then `pregnant = 1 AND p > 7`.
inline std::string RunningExampleSql(const std::string& model) {
  return "WITH data AS (SELECT * FROM patient_info JOIN blood_tests ON id = "
         "id JOIN prenatal_tests ON id = id) SELECT id, p FROM "
         "PREDICT(MODEL='" +
         model + "', DATA=data) WITH(p float) WHERE pregnant = 1 AND p > 7";
}

/// Throughput and latency windows per measured phase, and the quantile
/// across windows each is reported at (see WindowedRates).
inline constexpr int kWindows = 10;
inline constexpr double kRateQuantile = 0.9;
inline constexpr double kLatencyQuantile = 0.1;

/// Reports throughput_qps and rows_per_s from the windowed completions of
/// a measured phase, corrected by each window's `available` CPU share, plus
/// the raw per-window rates and steal shares as notes and the mean steal
/// share as bench.steal_frac.
inline void ReportRates(const std::vector<Completion>& done, double wall_s,
                        const std::vector<double>& available,
                        std::int64_t samples, Report* report) {
  const Rates rates =
      WindowedRates(done, wall_s, kWindows, kRateQuantile, available);
  report->Set("throughput_qps", rates.statements_per_s, "statements/s",
              samples);
  report->Set("rows_per_s", rates.rows_per_s, "rows/s", samples);
  std::string windows, steal;
  double stolen = 0.0;
  for (std::size_t w = 0; w < rates.window_statements_per_s.size(); ++w) {
    const double a = w < available.size() ? available[w] : 1.0;
    if (!windows.empty()) windows += ' ', steal += ' ';
    windows += std::to_string(rates.window_statements_per_s[w]);
    steal += std::to_string(1.0 - a);
    stolen += 1.0 - a;
  }
  report->Note("throughput_windows", windows);
  report->Note("steal_windows", steal);
  report->Set("bench.steal_frac", stolen / kWindows, "fraction", kWindows);
}

/// Allowed uncovered share of a statement's root span in the parts-add-up
/// check.
inline constexpr double kCoverageTolerance = 0.05;

/// Writes the span file, then reports the trace overhead (traced against
/// untraced throughput) and the parts-add-up result.
inline void FinishTrace(const Options& options, const SpanLog& log,
                        double plain_qps, double traced_qps, Report* report) {
  const auto spans = log.spans();
  const Coverage coverage = CheckCoverage(spans, kCoverageTolerance);
  const std::string path =
      options.work_dir + "/spans_" + options.workload + ".json";
  if (std::FILE* out = std::fopen(path.c_str(), "w")) {
    const std::string json = SpansToJson(spans, coverage);
    std::fwrite(json.data(), 1, json.size(), out);
    std::fclose(out);
    report->Note("spans_file", path);
  }
  report->Set("bench.trace_overhead_frac",
              plain_qps > 0 ? 1.0 - traced_qps / plain_qps : 0.0, "fraction");
  report->Set("bench.uncovered_frac", coverage.median_uncovered_frac,
              "fraction", coverage.statements);
  report->Note("coverage",
               std::to_string(coverage.statements) + " statements, " +
                   std::to_string(coverage.over_tolerance) + " over " +
                   std::to_string(coverage.tolerance) + " uncovered, max " +
                   std::to_string(coverage.max_uncovered_frac));
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_UTIL_H_
