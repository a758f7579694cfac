// The embedded workloads: batch_scoring (Fig 3 scan+PREDICT and the §2
// running example through RavenContext at dop 4) and disk_analytics
// (zone-map range scans, GROUP BYs and a join over .rvc tables at dop 4).
// One caller runs a closed loop over a fixed statement rotation.

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "bench.h"
#include "common/rng.h"
#include "common/timer.h"
#include "data/hospital.h"
#include "layers.h"
#include "raven/raven.h"
#include "stats.h"
#include "steal.h"
#include "storage/columnar.h"
#include "workload_util.h"

namespace perfbench {
namespace {

using raven::Result;
using raven::Status;
using raven::Timer;

constexpr std::int64_t kDop = 4;

struct EmbeddedStatement {
  std::string key;
  std::string sql;
  std::int64_t base_rows = 0;
};

/// One RavenContext plus its statement rotation: slot i of the rotation
/// draws round-robin from pool i.
struct EmbeddedFixture {
  std::unique_ptr<raven::RavenContext> ctx;
  std::vector<std::vector<EmbeddedStatement>> rotation;
  References refs;

  const EmbeddedStatement& Pick(std::int64_t i) const {
    const auto slots = static_cast<std::int64_t>(rotation.size());
    const auto& pool = rotation[static_cast<std::size_t>(i % slots)];
    return pool[static_cast<std::size_t>(
        (i / slots) % static_cast<std::int64_t>(pool.size()))];
  }
};

/// References at dop 1, then one warm-up pass at the measured dop.
Status PrepareFixture(EmbeddedFixture* f, SetupTimes* times) {
  Timer ref_timer;
  f->ctx->execution_options().parallelism = 1;
  for (const auto& pool : f->rotation) {
    for (const auto& st : pool) {
      RAVEN_ASSIGN_OR_RETURN(raven::QueryResult r, f->ctx->Query(st.sql));
      f->refs[st.key] = TableBytes(r.table);
    }
  }
  times->reference_s = ref_timer.ElapsedSeconds();
  Timer warm_timer;
  f->ctx->execution_options().parallelism = kDop;
  for (const auto& pool : f->rotation) {
    RAVEN_ASSIGN_OR_RETURN(raven::QueryResult r,
                           f->ctx->Query(pool.front().sql));
    (void)r;
  }
  times->warmup_s = warm_timer.ElapsedSeconds();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// batch_scoring

Result<std::unique_ptr<EmbeddedFixture>> MakeBatchScoring(
    const Options& options, SetupTimes* times) {
  Timer total;
  auto f = std::make_unique<EmbeddedFixture>();
  const std::int64_t rows = Scaled(options, 8000);
  Timer datagen;
  raven::data::HospitalDataset data =
      raven::data::MakeHospitalDataset(rows, options.seed);
  times->datagen_s = datagen.ElapsedSeconds();

  raven::RavenOptions ro;
  ro.execution.parallelism = kDop;
  f->ctx = std::make_unique<raven::RavenContext>(ro);
  raven::RavenContext& ctx = *f->ctx;
  RAVEN_RETURN_IF_ERROR(ctx.RegisterTable("patients", data.joined));
  RAVEN_RETURN_IF_ERROR(ctx.RegisterTable("patient_info", data.patient_info));
  RAVEN_RETURN_IF_ERROR(ctx.RegisterTable("blood_tests", data.blood_tests));
  RAVEN_RETURN_IF_ERROR(
      ctx.RegisterTable("prenatal_tests", data.prenatal_tests));

  Timer train;
  const raven::data::HospitalDataset sample = TrainingSample(2000);
  RAVEN_ASSIGN_OR_RETURN(auto forest,
                         raven::data::TrainHospitalForest(sample, 10, 8));
  RAVEN_ASSIGN_OR_RETURN(auto mlp, raven::data::TrainHospitalMlp(sample));
  times->train_s = train.ElapsedSeconds();
  RAVEN_RETURN_IF_ERROR(
      ctx.InsertModel("rf", raven::data::HospitalForestScript(), forest));
  RAVEN_RETURN_IF_ERROR(
      ctx.InsertModel("mlp", raven::data::HospitalMlpScript(), mlp));

  f->rotation = {
      {{"fig3_forest",
        "SELECT id, p FROM PREDICT(MODEL='rf', DATA=patients) WITH(p float)",
        rows}},
      {{"fig3_mlp",
        "SELECT id, p FROM PREDICT(MODEL='mlp', DATA=patients) WITH(p float)",
        rows}},
      {{"running_example", RunningExampleSql("rf"), 3 * rows}},
  };
  RAVEN_RETURN_IF_ERROR(PrepareFixture(f.get(), times));
  times->total_s = total.ElapsedSeconds();
  return f;
}

// ---------------------------------------------------------------------------
// disk_analytics

/// events(id, grp, hk, v): clustered on id; grp has 8 values, hk about
/// rows/4. users(uid, tier, w): one row per hk value, clustered on uid.
void MakeDiskTables(std::uint64_t seed, std::int64_t rows,
                    raven::relational::Table* events,
                    raven::relational::Table* users) {
  raven::Rng rng(seed * 7919 + 17);
  const std::int64_t keys = std::max<std::int64_t>(1, rows / 4);
  std::vector<double> id, grp, hk, v;
  for (std::int64_t i = 0; i < rows; ++i) {
    id.push_back(static_cast<double>(i));
    grp.push_back(static_cast<double>(rng.NextUint(8)));
    hk.push_back(static_cast<double>(rng.NextUint(keys)));
    v.push_back(std::floor(rng.Uniform(0.0, 1000.0) * 100.0) / 100.0);
  }
  (void)events->AddNumericColumn("id", std::move(id));
  (void)events->AddNumericColumn("grp", std::move(grp));
  (void)events->AddNumericColumn("hk", std::move(hk));
  (void)events->AddNumericColumn("v", std::move(v));
  std::vector<double> uid, tier, w;
  for (std::int64_t k = 0; k < keys; ++k) {
    uid.push_back(static_cast<double>(k));
    tier.push_back(static_cast<double>(rng.NextUint(5)));
    w.push_back(std::floor(rng.Uniform(0.0, 10.0) * 100.0) / 100.0);
  }
  (void)users->AddNumericColumn("uid", std::move(uid));
  (void)users->AddNumericColumn("tier", std::move(tier));
  (void)users->AddNumericColumn("w", std::move(w));
}

Result<std::unique_ptr<EmbeddedFixture>> MakeDiskAnalytics(
    const Options& options, SetupTimes* times) {
  Timer total;
  auto f = std::make_unique<EmbeddedFixture>();
  const std::int64_t rows = Scaled(options, 50000);
  Timer datagen;
  raven::relational::Table events, users;
  MakeDiskTables(options.seed, rows, &events, &users);
  times->datagen_s = datagen.ElapsedSeconds();

  const std::string events_path = options.work_dir + "/events.rvc";
  const std::string users_path = options.work_dir + "/users.rvc";
  Timer write;
  RAVEN_RETURN_IF_ERROR(raven::storage::WriteRvc(events, events_path));
  RAVEN_RETURN_IF_ERROR(raven::storage::WriteRvc(users, users_path));
  times->write_s = write.ElapsedSeconds();
  Timer open;
  RAVEN_ASSIGN_OR_RETURN(auto events_disk,
                         raven::storage::DiskTable::Open(events_path));
  RAVEN_ASSIGN_OR_RETURN(auto users_disk,
                         raven::storage::DiskTable::Open(users_path));
  times->open_ms = open.ElapsedMillis();

  raven::RavenOptions ro;
  ro.execution.parallelism = kDop;
  f->ctx = std::make_unique<raven::RavenContext>(ro);
  RAVEN_RETURN_IF_ERROR(f->ctx->RegisterDiskTable("events", events_disk));
  RAVEN_RETURN_IF_ERROR(f->ctx->RegisterDiskTable("users", users_disk));

  // Seeded 1% id ranges: zone maps skip every block outside the range.
  std::vector<EmbeddedStatement> ranges;
  raven::Rng rng(options.seed * 31 + 5);
  const std::int64_t width = std::max<std::int64_t>(1, rows / 100);
  for (int i = 0; i < 16; ++i) {
    const auto lo = static_cast<std::int64_t>(
        rng.NextUint(static_cast<std::uint64_t>(rows - width + 1)));
    char sql[160];
    std::snprintf(sql, sizeof(sql),
                  "SELECT COUNT(*) AS n, SUM(v) AS s, MAX(hk) AS top FROM "
                  "events WHERE id >= %lld AND id < %lld",
                  static_cast<long long>(lo),
                  static_cast<long long>(lo + width));
    ranges.push_back({"range_scan#" + std::to_string(i), sql, rows});
  }
  const EmbeddedStatement low_card{
      "groupby_low",
      "SELECT grp, COUNT(*) AS n, SUM(v) AS s, MIN(v) AS lo, MAX(v) AS hi "
      "FROM events GROUP BY grp",
      rows};
  const EmbeddedStatement high_card{
      "groupby_high",
      "SELECT hk, COUNT(*) AS n, SUM(v) AS s FROM events GROUP BY hk",
      rows};
  const EmbeddedStatement join{
      "join",
      "SELECT tier, COUNT(*) AS n, SUM(v) AS sv, SUM(w) AS sw FROM events "
      "JOIN users ON hk = uid GROUP BY tier",
      rows + rows / 4};
  // Five slots (an odd count keeps the latency median inside one mode).
  f->rotation = {ranges, {low_card}, ranges, {high_card}, {join}};
  RAVEN_RETURN_IF_ERROR(PrepareFixture(f.get(), times));
  times->total_s = total.ElapsedSeconds();
  return f;
}

// ---------------------------------------------------------------------------
// Measured loops.

struct LoopResult {
  std::vector<Completion> done;  ///< statements answered correctly
  double wall_s = 0.0;
  std::vector<double> latencies_ms;
  std::vector<Timed> timed_ms;  ///< latencies by completion time
  std::vector<double> available;  ///< per window: 1 - hypervisor steal
};

bool Check(const EmbeddedFixture& f, const EmbeddedStatement& st,
           const Result<raven::relational::Table>& table, Report* report) {
  if (!table.ok()) {
    report->Count(st.key, false, table.status().ToString());
    return false;
  }
  const bool same = TableBytes(*table) == f.refs.at(st.key);
  report->Count(st.key, same, same ? "" : "result differs from reference");
  return same;
}

/// Untraced closed loop through RavenContext::Query.
LoopResult RunQueries(EmbeddedFixture* f, double seconds, Report* report) {
  LoopResult out;
  const StealSampler steal;
  Timer wall;
  for (std::int64_t i = 0; wall.ElapsedSeconds() < seconds; ++i) {
    const EmbeddedStatement& st = f->Pick(i);
    Timer timer;
    auto r = f->ctx->Query(st.sql);
    out.latencies_ms.push_back(timer.ElapsedMillis());
    out.timed_ms.push_back({wall.ElapsedSeconds(), out.latencies_ms.back()});
    Result<raven::relational::Table> table =
        r.ok() ? Result<raven::relational::Table>(std::move(r->table))
               : Result<raven::relational::Table>(r.status());
    if (Check(*f, st, table, report)) {
      out.done.push_back({wall.ElapsedSeconds(),
                          static_cast<double>(st.base_rows)});
    }
  }
  out.wall_s = wall.ElapsedSeconds();
  out.available = steal.Available(out.wall_s, kWindows);
  return out;
}

/// Traced closed loop: the same statements through the four public calls
/// Query() makes, one span around each.
LoopResult RunTraced(EmbeddedFixture* f, double seconds, SpanLog* log,
                     LayerTotals* totals, Report* report) {
  LoopResult out;
  raven::RavenContext& ctx = *f->ctx;
  ctx.optimizer_options().target_parallelism =
      ctx.execution_options().parallelism;
  Timer wall;
  for (std::int64_t i = 0; wall.ElapsedSeconds() < seconds; ++i) {
    const EmbeddedStatement& st = f->Pick(i);
    const std::int64_t stmt = log->NextStatement();
    const double t0 = log->NowUs();
    raven::frontend::AnalysisStats analysis;
    auto plan = ctx.analyzer().Analyze(st.sql, &analysis);
    const double t1 = log->NowUs();
    raven::optimizer::OptimizationReport optimization;
    Status optimized = plan.ok()
                           ? ctx.cross_optimizer().Optimize(&*plan,
                                                            &optimization)
                           : plan.status();
    const double t2 = log->NowUs();
    std::string generated;
    if (optimized.ok()) generated = raven::runtime::GenerateSql(*plan->root());
    const double t3 = log->NowUs();
    raven::runtime::ExecutionStats exec;
    Result<raven::relational::Table> table =
        optimized.ok()
            ? ctx.executor().Execute(*plan, ctx.execution_options(), &exec)
            : Result<raven::relational::Table>(optimized);
    const double t4 = log->NowUs();
    const std::int64_t root =
        log->Add({0, -1, stmt, "statement", t0, t4, false});
    log->Add({0, root, stmt, "frontend.analyze", t0, t1, false});
    log->Add({0, root, stmt, "optimizer.optimize", t1, t2, false});
    log->Add({0, root, stmt, "runtime.codegen", t2, t3, false});
    log->Add({0, root, stmt, "runtime.execute", t3, t4, false});
    out.latencies_ms.push_back((t4 - t0) / 1000.0);
    if (Check(*f, st, table, report)) {
      out.done.push_back({wall.ElapsedSeconds(),
                          static_cast<double>(st.base_rows)});
      totals->Add(1.0, 1.0, optimization, t1 - t0, t2 - t1, t3 - t2,
                  t4 - t3, exec);
    }
  }
  out.wall_s = wall.ElapsedSeconds();
  return out;
}

Status RunEmbedded(const Options& options, Report* report,
                   Result<std::unique_ptr<EmbeddedFixture>> (*make)(
                       const Options&, SetupTimes*)) {
  std::unique_ptr<EmbeddedFixture> f;
  std::vector<SetupTimes> setups;
  for (int i = 0; i < std::max(1, options.setups); ++i) {
    f.reset();  // tear the previous fixture down before timing the next
    SetupTimes times;
    RAVEN_ASSIGN_OR_RETURN(f, make(options, &times));
    setups.push_back(times);
  }
  ReportSetup(setups, report);
  report->Note("reference_hash", ReferencesHash(f->refs));

  if (!options.trace) {
    LoopResult r = RunQueries(f.get(), options.seconds, report);
    const auto n = static_cast<std::int64_t>(r.latencies_ms.size());
    ReportRates(r.done, r.wall_s, r.available, n, report);
    report->Set("latency_p50_ms",
                WindowedPercentile(r.timed_ms, r.wall_s, kWindows, 0.5,
                                   kLatencyQuantile, r.available),
                "ms", n);
    if (SamplesBeyond(r.latencies_ms, 0.99) >= 10) {
      report->Set("latency_p99_ms", Percentile(r.latencies_ms, 0.99), "ms",
                  n);
    }
    return Status::OK();
  }

  // Traced run: half untraced (the overhead baseline), half traced.
  ZeroLayerMetrics(report);
  LoopResult plain = RunQueries(f.get(), options.seconds / 2, report);
  SpanLog log;
  LayerTotals totals;
  const auto cache_before = f->ctx->session_cache().stats();
  LoopResult traced =
      RunTraced(f.get(), options.seconds / 2, &log, &totals, report);
  ReportSessionCache(cache_before, f->ctx->session_cache().stats(), report);
  totals.Fill(report);
  FinishTrace(options, log, plain.done.size() / plain.wall_s,
              traced.done.size() / traced.wall_s, report);
  return Status::OK();
}

}  // namespace

Status RunBatchScoring(const Options& options, Report* report) {
  return RunEmbedded(options, report, &MakeBatchScoring);
}

Status RunDiskAnalytics(const Options& options, Report* report) {
  Status status = RunEmbedded(options, report, &MakeDiskAnalytics);
  std::error_code ec;
  std::filesystem::remove(options.work_dir + "/events.rvc", ec);
  std::filesystem::remove(options.work_dir + "/users.rvc", ec);
  return status;
}

}  // namespace perfbench
