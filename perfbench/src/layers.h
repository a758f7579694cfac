#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

// Per-layer accounting of the traced run. Every workload reports every
// per-layer metric (a layer a workload never reaches reads 0), so a row of
// the metric table can be compared across workloads.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "frontend/analyzer.h"
#include "nnrt/session.h"
#include "optimizer/cross_optimizer.h"
#include "runtime/codegen.h"

namespace perfbench {

/// Operator kinds the relational.* metrics are split by; any other label
/// folds into "Other".
const std::vector<std::string>& OperatorKinds();
/// "Scan(patients)" -> "Scan", "Fused[Filter+Predict(m)]" -> "Fused".
std::string OperatorKind(const std::string& label);

/// (name, unit) of every per-layer metric, in report order.
const std::vector<std::pair<std::string, std::string>>& LayerMetrics();

/// Sets every per-layer metric to 0 so that the ones a workload never
/// reaches are still reported.
void ZeroLayerMetrics(Report* report);

/// nnrt.session_hit_frac and nnrt.compiles from two SessionCache::stats()
/// snapshots.
void ReportSessionCache(const raven::nnrt::SessionCacheStats& before,
                        const raven::nnrt::SessionCacheStats& after,
                        Report* report);

/// Sums of one layer pass over many statements, each statement weighted.
struct LayerTotals {
  double statements = 0.0;
  double analyze_us = 0.0;
  double optimize_us = 0.0;
  double rules_fired = 0.0;
  double codegen_us = 0.0;
  double execute_us = 0.0;
  double execute_worker_us = 0.0;  ///< execute wall x partitions used
  double morsels = 0.0;
  double partitions_used = 0.0;
  double fused_chains = 0.0;
  double nn_busy_us = 0.0;
  double nn_calls = 0.0;
  double nn_rows = 0.0;
  double blocks_scanned = 0.0;
  double blocks_skipped = 0.0;
  std::vector<double> op_busy_us = std::vector<double>(OperatorKinds().size());
  std::vector<double> op_rows = std::vector<double>(OperatorKinds().size());

  /// Adds one execution. `plan_weight` scales the frontend/optimizer part
  /// (the share of this statement's runs that planned on the request
  /// path), `weight` everything else.
  void Add(double weight, double plan_weight,
           const raven::optimizer::OptimizationReport& optimization,
           double analyze_us, double optimize_us, double codegen_us,
           double execute_us, const raven::runtime::ExecutionStats& exec);

  /// Writes the per-statement means into the report.
  void Fill(Report* report) const;
};

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
