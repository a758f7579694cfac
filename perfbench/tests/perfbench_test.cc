// Tests of the benchmark's own code: percentile math, hashing, the seeded
// open-loop schedule, span self time and coverage, and a short smoke of
// every workload (untraced and traced) that must finish with no failures.

#include <gtest/gtest.h>

#include <filesystem>
#include <numeric>

#include "bench.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

TEST(Percentile, KnownInputs) {
  EXPECT_DOUBLE_EQ(Percentile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(Percentile({7.0}, 0.99), 7.0);
  EXPECT_DOUBLE_EQ(Percentile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Percentile({4.0, 1.0, 3.0, 2.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile({4.0, 1.0, 3.0, 2.0}, 1.0), 4.0);
  std::vector<double> hundred(100);
  std::iota(hundred.begin(), hundred.end(), 1.0);
  EXPECT_NEAR(Percentile(hundred, 0.99), 99.01, 1e-9);
  EXPECT_NEAR(Percentile(hundred, 0.25), 25.75, 1e-9);
}

TEST(Percentile, SamplesBeyondP99) {
  std::vector<double> thousand(1000);
  std::iota(thousand.begin(), thousand.end(), 1.0);
  // p99 = 990.01, so 991..1000 lie beyond it.
  EXPECT_EQ(SamplesBeyond(thousand, 0.99), 10);
  EXPECT_EQ(SamplesBeyond(std::vector<double>(50, 1.0), 0.99), 0);
}

TEST(Windows, RatesAndLatencyQuantiles) {
  // 10 windows of 1 s; window w completes w + 1 statements of 100 rows.
  std::vector<Completion> done;
  std::vector<Timed> timed;
  for (int w = 0; w < 10; ++w) {
    for (int i = 0; i <= w; ++i) {
      done.push_back({w + 0.5, 100.0});
      timed.push_back({w + 0.5, 10.0 * (w + 1)});
    }
  }
  const Rates r = WindowedRates(done, 10.0, 10, 0.9);
  EXPECT_NEAR(r.statements_per_s, 9.1, 1e-9);  // between 9 and 10
  EXPECT_NEAR(r.rows_per_s, 910.0, 1e-9);
  ASSERT_EQ(r.window_statements_per_s.size(), 10u);
  EXPECT_DOUBLE_EQ(r.window_statements_per_s[3], 4.0);
  // Halving every window's available CPU doubles the corrected rate and
  // halves the corrected latency; the raw window rates stay.
  const std::vector<double> half(10, 0.5);
  EXPECT_NEAR(WindowedRates(done, 10.0, 10, 0.9, half).statements_per_s, 18.2,
              1e-9);
  EXPECT_DOUBLE_EQ(WindowedRates(done, 10.0, 10, 0.9, half)
                       .window_statements_per_s[3],
                   4.0);
  EXPECT_NEAR(WindowedPercentile(timed, 10.0, 10, 0.5, 0.1), 19.0, 1e-9);
  EXPECT_NEAR(WindowedPercentile(timed, 10.0, 10, 0.5, 0.1, half), 9.5, 1e-9);
}

TEST(Hash, Fnv1aVectors) {
  EXPECT_EQ(Fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Fnv1a("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(ReferencesHash({{"k", "v"}}), ReferencesHash({{"k", "v"}}));
  EXPECT_NE(ReferencesHash({{"k", "v"}}), ReferencesHash({{"k", "w"}}));
}

TEST(Schedule, SameSeedSameSchedule) {
  const auto a = MakeSchedule(42, 500.0, 2.0, 5);
  const auto b = MakeSchedule(42, 500.0, 2.0, 5);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].due_s, b[i].due_s);
    EXPECT_EQ(a[i].statement, b[i].statement);
    EXPECT_EQ(a[i].draw, b[i].draw);
  }
  const auto c = MakeSchedule(43, 500.0, 2.0, 5);
  EXPECT_TRUE(c.size() != a.size() || c.front().due_s != a.front().due_s);
}

TEST(Schedule, PoissonShape) {
  const auto s = MakeSchedule(7, 1000.0, 10.0, 5);
  // 10000 expected arrivals; a Poisson count is within 5 sigma of it.
  EXPECT_NEAR(static_cast<double>(s.size()), 10000.0, 500.0);
  std::vector<int> per_slot(5);
  double last = 0.0;
  for (const Arrival& a : s) {
    EXPECT_GE(a.due_s, last);
    EXPECT_LT(a.due_s, 10.0);
    last = a.due_s;
    ++per_slot[static_cast<std::size_t>(a.statement)];
  }
  for (int n : per_slot) EXPECT_NEAR(n, 2000, 250);
  EXPECT_TRUE(MakeSchedule(7, 0.0, 10.0, 5).empty());
}

TEST(Trace, SelfTimeAndCoverage) {
  // root [0,100] with children [0,40] and [30,90] (overlapping): covered
  // 90, self 10; a second root [200,300] with one child [200,250].
  std::vector<Span> spans = {
      {0, -1, 0, "statement", 0, 100, false},
      {1, 0, 0, "a", 0, 40, false},
      {2, 0, 0, "b", 30, 90, false},
      {3, -1, 1, "statement", 200, 300, false},
      {4, 3, 1, "a", 200, 250, false},
  };
  const auto self = SelfTimeByName(spans);
  EXPECT_DOUBLE_EQ(self.at("statement"), 10.0 + 50.0);
  EXPECT_DOUBLE_EQ(self.at("a"), 40.0 + 50.0);
  EXPECT_DOUBLE_EQ(self.at("b"), 60.0);
  const Coverage c = CheckCoverage(spans, 0.2);
  EXPECT_EQ(c.statements, 2);
  EXPECT_EQ(c.over_tolerance, 1);
  EXPECT_NEAR(c.max_uncovered_frac, 0.5, 1e-12);
  EXPECT_NEAR(c.median_uncovered_frac, 0.3, 1e-12);
  const std::string json = SpansToJson(spans, c);
  EXPECT_NE(json.find("\"self_time_us\""), std::string::npos);
  EXPECT_NE(json.find("\"over_tolerance\": 1"), std::string::npos);
}

/// Runs `workload` small and short; returns the report.
std::unique_ptr<Report> Smoke(const std::string& workload, bool trace,
                              std::uint64_t seed = 3) {
  Options options;
  options.workload = workload;
  options.seed = seed;
  options.seconds = 1.0;
  options.trace = trace;
  options.setups = 1;
  options.scale = 0.1;
  options.work_dir = "perfbench_test_work";
  std::filesystem::create_directories(options.work_dir);
  auto report = std::make_unique<Report>();
  const raven::Status status = RunWorkload(options, report.get());
  EXPECT_TRUE(status.ok()) << status.ToString();
  return report;
}

class WorkloadSmoke : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadSmoke, UntracedFinishesWithoutErrors) {
  auto r = Smoke(GetParam(), /*trace=*/false);
  EXPECT_GT(r->attempted(), 0);
  EXPECT_EQ(r->failed(), 0) << r->ToJson();
  EXPECT_EQ(r->Get("error_rate"), 0.0);
  for (const char* m : {"setup_s", "throughput_qps", "rows_per_s",
                        "latency_p50_ms", "peak_rss_mb"}) {
    EXPECT_TRUE(r->Has(m)) << m;
    EXPECT_GT(r->Get(m), 0.0) << m;
  }
}

TEST_P(WorkloadSmoke, TracedFinishesWithoutErrors) {
  auto r = Smoke(GetParam(), /*trace=*/true);
  EXPECT_EQ(r->failed(), 0) << r->ToJson();
  EXPECT_TRUE(r->Has("bench.trace_overhead_frac"));
  const std::string& w = GetParam();
  if (w == "disk_analytics") {
    EXPECT_GT(r->Get("storage.blocks_skipped"), 0.0);
    EXPECT_EQ(r->Get("nnrt.share"), 0.0);
  } else {
    EXPECT_EQ(r->Get("storage.blocks_skipped"), 0.0);
  }
  if (w == "served_reads") {
    EXPECT_EQ(r->Get("server.plan_cache_hit_frac"), 1.0);
  }
  if (w == "served_churn") {
    EXPECT_LT(r->Get("server.plan_cache_hit_frac"), 1.0);
  }
}

TEST_P(WorkloadSmoke, SameSeedSameReferences) {
  auto a = Smoke(GetParam(), false, 5);
  auto b = Smoke(GetParam(), false, 5);
  auto c = Smoke(GetParam(), false, 6);
  EXPECT_FALSE(a->note("reference_hash").empty());
  EXPECT_EQ(a->note("reference_hash"), b->note("reference_hash"));
  EXPECT_NE(a->note("reference_hash"), c->note("reference_hash"));
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadSmoke,
                         ::testing::ValuesIn(WorkloadNames()));

}  // namespace
}  // namespace perfbench
