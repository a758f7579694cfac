#include "layers.h"

#include <algorithm>

namespace perfbench {

const std::vector<std::string>& OperatorKinds() {
  static const auto* kinds = new std::vector<std::string>{
      "Scan",    "DiskScan", "Filter",  "Project", "Aggregate", "GroupBy",
      "Sort",    "HashJoin", "Limit",   "Predict", "Fused",     "Other"};
  return *kinds;
}

std::string OperatorKind(const std::string& label) {
  const std::string head = label.substr(0, label.find_first_of("(["));
  const auto& kinds = OperatorKinds();
  return std::find(kinds.begin(), kinds.end(), head) != kinds.end()
             ? head
             : std::string("Other");
}

const std::vector<std::pair<std::string, std::string>>& LayerMetrics() {
  static const auto* metrics = [] {
    auto* m = new std::vector<std::pair<std::string, std::string>>{
        {"frontend.analyze_us", "us"},
        {"optimizer.optimize_us", "us"},
        {"optimizer.rules_fired", "count"},
        {"server.plan_cache_hit_frac", "fraction"},
        {"server.plan_cache_invalidations", "count"},
        {"server.plan_cache_evictions", "count"},
        {"server.miss_statement_us", "us"},
        {"server.hit_statement_us", "us"},
        {"server.roundtrip_us.p50", "us"},
        {"server.roundtrip_us.p99", "us"},
        {"server.statement_us", "us"},
        {"server.wire_us", "us"},
        {"server.queue_wait_us.p50", "us"},
        {"server.queue_wait_us.p99", "us"},
        {"server.admission_shed", "count"},
        {"server.admission_timeouts", "count"},
        {"server.batch_rows", "rows"},
        {"nnrt.busy_us", "us"},
        {"nnrt.share", "fraction"},
        {"nnrt.calls", "count"},
        {"nnrt.rows_per_call", "rows"},
        {"nnrt.session_hit_frac", "fraction"},
        {"nnrt.compiles", "count"},
        {"runtime.execute_us", "us"},
        {"runtime.codegen_us", "us"},
        {"runtime.morsels", "count"},
        {"runtime.partitions_used", "count"},
        {"runtime.fused_chains", "count"},
    };
    for (const auto& kind : OperatorKinds()) {
      m->emplace_back("relational.op_busy_us." + kind, "us");
      m->emplace_back("relational.rows." + kind, "rows");
    }
    for (const auto& extra : std::vector<std::pair<std::string, std::string>>{
             {"storage.blocks_scanned", "count"},
             {"storage.blocks_skipped", "count"},
             {"storage.skip_frac", "fraction"},
             {"storage.write_s", "s"},
             {"storage.open_ms", "ms"},
             {"setup.datagen_s", "s"},
             {"setup.train_s", "s"},
             {"setup.server_start_s", "s"},
             {"setup.reference_s", "s"},
             {"bench.sched_lag_ms", "ms"},
             {"bench.trace_overhead_frac", "fraction"},
             {"bench.uncovered_frac", "fraction"},
         }) {
      m->push_back(extra);
    }
    return m;
  }();
  return *metrics;
}

void ZeroLayerMetrics(Report* report) {
  for (const auto& [name, unit] : LayerMetrics()) {
    if (!report->Has(name)) report->Set(name, 0.0, unit, 0);
  }
}

void ReportSessionCache(const raven::nnrt::SessionCacheStats& before,
                        const raven::nnrt::SessionCacheStats& after,
                        Report* report) {
  const auto hits = static_cast<double>(after.hits - before.hits);
  const double lookups =
      hits + static_cast<double>(after.misses - before.misses);
  report->Set("nnrt.session_hit_frac", lookups > 0 ? hits / lookups : 0.0,
              "fraction", static_cast<std::int64_t>(lookups));
  report->Set("nnrt.compiles",
              static_cast<double>(after.compiles - before.compiles), "count");
}

void LayerTotals::Add(double weight, double plan_weight,
                      const raven::optimizer::OptimizationReport& optimization,
                      double analyze, double optimize, double codegen,
                      double execute,
                      const raven::runtime::ExecutionStats& exec) {
  statements += weight;
  analyze_us += plan_weight * analyze;
  optimize_us += plan_weight * optimize;
  rules_fired +=
      plan_weight * static_cast<double>(optimization.TotalApplications());
  codegen_us += weight * codegen;
  execute_us += weight * execute;
  const double workers =
      static_cast<double>(std::max<std::int64_t>(1, exec.partitions_used));
  execute_worker_us += weight * execute * workers;
  morsels += weight * static_cast<double>(exec.morsels);
  partitions_used += weight * static_cast<double>(exec.partitions_used);
  fused_chains += weight * static_cast<double>(exec.fused_chains);
  nn_busy_us += weight * exec.nn_wall_micros;
  nn_calls += weight * static_cast<double>(exec.predict_batches);
  nn_rows += weight * static_cast<double>(exec.rows_out);
  blocks_scanned += weight * static_cast<double>(exec.blocks_scanned);
  blocks_skipped += weight * static_cast<double>(exec.blocks_skipped);
  const auto& kinds = OperatorKinds();
  for (const auto& op : exec.operators) {
    const auto k = static_cast<std::size_t>(
        std::find(kinds.begin(), kinds.end(), OperatorKind(op.op)) -
        kinds.begin());
    op_busy_us[k] += weight * (op.wall_micros + op.open_micros);
    op_rows[k] += weight * static_cast<double>(op.rows);
  }
}

void LayerTotals::Fill(Report* report) const {
  if (statements <= 0.0) return;
  const auto n = static_cast<std::int64_t>(statements);
  auto mean = [this](double total) { return total / statements; };
  report->Set("frontend.analyze_us", mean(analyze_us), "us", n);
  report->Set("optimizer.optimize_us", mean(optimize_us), "us", n);
  report->Set("optimizer.rules_fired", mean(rules_fired), "count", n);
  report->Set("runtime.codegen_us", mean(codegen_us), "us", n);
  report->Set("runtime.execute_us", mean(execute_us), "us", n);
  report->Set("runtime.morsels", mean(morsels), "count", n);
  report->Set("runtime.partitions_used", mean(partitions_used), "count", n);
  report->Set("runtime.fused_chains", mean(fused_chains), "count", n);
  report->Set("nnrt.busy_us", mean(nn_busy_us), "us", n);
  report->Set("nnrt.share",
              execute_worker_us > 0 ? nn_busy_us / execute_worker_us : 0.0,
              "fraction", n);
  report->Set("nnrt.calls", mean(nn_calls), "count", n);
  report->Set("nnrt.rows_per_call", nn_calls > 0 ? nn_rows / nn_calls : 0.0,
              "rows", n);
  report->Set("storage.blocks_scanned", mean(blocks_scanned), "count", n);
  report->Set("storage.blocks_skipped", mean(blocks_skipped), "count", n);
  const double blocks = blocks_scanned + blocks_skipped;
  report->Set("storage.skip_frac", blocks > 0 ? blocks_skipped / blocks : 0.0,
              "fraction", n);
  const auto& kinds = OperatorKinds();
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    report->Set("relational.op_busy_us." + kinds[k], mean(op_busy_us[k]),
                "us", n);
    report->Set("relational.rows." + kinds[k], mean(op_rows[k]), "rows", n);
  }
}

}  // namespace perfbench
