#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// Shared types of the repository benchmark: run options, the report every
// workload fills, and the helpers the workloads share (result bytes,
// reference checks, closed-loop statement accounting).

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "relational/table.h"
#include "trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for .rvc files, the server socket and span output.
  std::string work_dir = ".";
  /// Set-ups per run; setup_s is their median.
  int setups = 7;
  /// Scale factor on row counts (tests shrink workloads with it).
  double scale = 1.0;
};

/// Everything one run measured. Metrics are keyed by name; `samples` is the
/// number of observations behind each.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           std::int64_t samples = 1);
  bool Has(const std::string& name) const { return metrics_.count(name) > 0; }
  double Get(const std::string& name) const;

  /// Counts one attempted statement; `ok` is false for an error, a busy or
  /// shed response, or a result that differs from its reference.
  void Count(const std::string& statement, bool ok, const std::string& why);
  std::int64_t attempted() const;
  std::int64_t failed() const;

  void Note(const std::string& key, const std::string& value);
  std::string note(const std::string& key) const;

  /// The whole report as one JSON object on one line.
  std::string ToJson() const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
    std::int64_t samples = 1;
  };
  mutable std::mutex mu_;
  std::map<std::string, Metric> metrics_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  /// statement label -> failures, with the first reason seen.
  std::map<std::string, std::pair<std::int64_t, std::string>> failures_;
  std::map<std::string, std::string> notes_;
};

/// The serialized bytes of a result table: the unit of the byte-identity
/// comparison against references.
std::string TableBytes(const raven::relational::Table& table);

/// Reference results keyed by statement key (and model version where it
/// matters, as "<key>@<version>").
using References = std::map<std::string, std::string>;

/// FNV-1a over every (key, bytes) pair in key order, as 16 hex digits: one
/// fingerprint of a run's reference answers.
std::string ReferencesHash(const References& refs);

/// Set-up timings of one fixture build, seconds unless named otherwise.
struct SetupTimes {
  double total_s = 0.0;
  double datagen_s = 0.0;
  double train_s = 0.0;
  double write_s = 0.0;   ///< storage.write_s
  double open_ms = 0.0;   ///< storage.open_ms
  double server_start_s = 0.0;
  double reference_s = 0.0;
  double warmup_s = 0.0;
};

/// Records the medians of several set-ups into the report.
void ReportSetup(const std::vector<SetupTimes>& setups, Report* report);

/// Peak resident set of this process, MiB.
double PeakRssMb();

/// Runs one workload end to end: set-up (Options::setups times), the
/// measured phases, and — with Options::trace — the traced phases.
raven::Status RunWorkload(const Options& options, Report* report);

// Workload entry points (workloads.cc, served.cc).
raven::Status RunBatchScoring(const Options& options, Report* report);
raven::Status RunDiskAnalytics(const Options& options, Report* report);
raven::Status RunServed(const Options& options, bool churn, Report* report);

/// Workload names RunWorkload accepts.
const std::vector<std::string>& WorkloadNames();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
