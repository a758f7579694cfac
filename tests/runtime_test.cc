#include <gtest/gtest.h>

#include "data/hospital.h"
#include "frontend/analyzer.h"
#include "optimizer/converters.h"
#include "optimizer/rules.h"
#include "runtime/codegen.h"
#include "runtime/external_runtime.h"
#include "runtime/plan_executor.h"
#include "common/timer.h"
#include "runtime/worker_protocol.h"
#include "test_util.h"

namespace raven::runtime {
namespace {

TEST(WorkerProtocolTest, RequestRoundTrip) {
  ScoreRequest request;
  request.command = WorkerCommand::kScoreGraph;
  request.model_bytes = "model-bytes-here";
  request.input = *Tensor::FromData({2, 2}, {1, 2, 3, 4});
  ScoreRequest back = *DecodeRequest(EncodeRequest(request));
  EXPECT_EQ(back.command, WorkerCommand::kScoreGraph);
  EXPECT_EQ(back.model_bytes, request.model_bytes);
  EXPECT_TRUE(back.input.Equals(request.input));
}

TEST(WorkerProtocolTest, ResponseRoundTrip) {
  ScoreResponse response;
  response.ok = false;
  response.error = "boom";
  ScoreResponse back = *DecodeResponse(EncodeResponse(response));
  EXPECT_FALSE(back.ok);
  EXPECT_EQ(back.error, "boom");
}

TEST(WorkerProtocolTest, DecodeGarbageFails) {
  EXPECT_FALSE(DecodeRequest("garbage").ok());
  EXPECT_FALSE(DecodeResponse("").ok());
}

class WorkerFixture : public ::testing::Test {
 protected:
  static ml::ModelPipeline MakePipeline() {
    ml::ModelPipeline pipeline;
    pipeline.input_columns = {"a", "b"};
    ml::LinearModel model(ml::LinearKind::kRegression);
    model.SetParams({2.0, 3.0}, 1.0);
    pipeline.predictor = std::move(model);
    return pipeline;
  }
};

TEST_F(WorkerFixture, ScorePipelineOutOfProcess) {
  WorkerClient client;
  ExternalRuntimeOptions options;
  auto start = client.Start(options);
  ASSERT_TRUE(start.ok()) << start.ToString();
  ml::ModelPipeline pipeline = MakePipeline();
  Tensor x = *Tensor::FromData({2, 2}, {1, 1, 2, 2});
  Tensor out = *client.Score(WorkerCommand::kScorePipeline,
                             pipeline.ToBytes(), x);
  EXPECT_NEAR(out.raw()[0], 6.0f, 1e-5f);
  EXPECT_NEAR(out.raw()[1], 11.0f, 1e-5f);
  client.Stop();
  EXPECT_FALSE(client.running());
}

TEST_F(WorkerFixture, ScoreGraphOutOfProcess) {
  WorkerClient client;
  ASSERT_TRUE(client.Start(ExternalRuntimeOptions()).ok());
  nnrt::Graph graph = *optimizer::PipelineToNnGraph(
      MakePipeline(), optimizer::TreeEncoding::kTreeEnsemble);
  BinaryWriter w;
  graph.Serialize(&w);
  Tensor x = *Tensor::FromData({1, 2}, {3, 4});
  Tensor out = *client.Score(WorkerCommand::kScoreGraph, w.buffer(), x);
  EXPECT_NEAR(out.raw()[0], 2 * 3 + 3 * 4 + 1, 1e-4f);
}

TEST_F(WorkerFixture, CorruptModelBytesReportError) {
  WorkerClient client;
  ASSERT_TRUE(client.Start(ExternalRuntimeOptions()).ok());
  auto result = client.Score(WorkerCommand::kScorePipeline, "corrupt",
                             Tensor::Zeros({1, 1}));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kExecutionError);
  // The worker survives a bad request.
  ml::ModelPipeline pipeline = MakePipeline();
  EXPECT_TRUE(client
                  .Score(WorkerCommand::kScorePipeline, pipeline.ToBytes(),
                         *Tensor::FromData({1, 2}, {0, 0}))
                  .ok());
}

TEST_F(WorkerFixture, BootDelayIsPaidAtStart) {
  WorkerClient client;
  ExternalRuntimeOptions options;
  options.boot_millis = 150;
  Timer timer;
  ASSERT_TRUE(client.Start(options).ok());
  EXPECT_GE(timer.ElapsedMillis(), 140.0);
}

TEST(WorkerPathTest, MissingBinaryIsNotFound) {
  auto result = ResolveWorkerPath("/nonexistent/raven_worker");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  // Auto-discovery from the test binary location works.
  EXPECT_TRUE(ResolveWorkerPath("").ok());
}

class ExecutionFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = data::MakeHospitalDataset(2000, 55);
    ASSERT_TRUE(catalog_.RegisterTable("patients", data_.joined).ok());
    pipeline_ = test_util::InsertHospitalTreeModel(&catalog_, data_, 6);
    ASSERT_FALSE(HasFailure()) << "fixture setup failed";
  }

  ir::IrPlan Analyze(const std::string& sql) {
    return test_util::AnalyzePlan(catalog_, sql);
  }

  data::HospitalDataset data_;
  relational::Catalog catalog_;
  ml::ModelPipeline pipeline_;
  nnrt::SessionCache cache_{8};
};

TEST_F(ExecutionFixture, InProcessExecution) {
  PlanExecutor executor(&catalog_, &cache_);
  auto plan = Analyze(
      "SELECT id, p FROM PREDICT(MODEL='los', DATA=patients) WITH(p float) "
      "WHERE p > 5");
  ExecutionStats stats;
  relational::Table out = *executor.Execute(plan, ExecutionOptions(), &stats);
  EXPECT_GT(out.num_rows(), 0);
  EXPECT_LT(out.num_rows(), data_.joined.num_rows());
  EXPECT_GT(stats.predict_batches, 0);
}

TEST_F(ExecutionFixture, OutOfProcessMatchesInProcess) {
  PlanExecutor executor(&catalog_, &cache_);
  auto plan = Analyze(
      "SELECT id, p FROM PREDICT(MODEL='los', DATA=patients) WITH(p float)");
  ExecutionOptions in_proc;
  relational::Table expected = *executor.Execute(plan, in_proc);
  ExecutionOptions out_proc;
  out_proc.mode = ExecutionMode::kOutOfProcess;
  relational::Table actual = *executor.Execute(plan, out_proc);
  ASSERT_EQ(expected.num_rows(), actual.num_rows());
  EXPECT_EQ((*expected.GetColumn("p"))->data, (*actual.GetColumn("p"))->data);
}

TEST_F(ExecutionFixture, ContainerModeMatchesToo) {
  PlanExecutor executor(&catalog_, &cache_);
  auto plan = Analyze(
      "SELECT id, p FROM PREDICT(MODEL='los', DATA=patients) WITH(p float) "
      "LIMIT 50");
  ExecutionOptions container;
  container.mode = ExecutionMode::kContainer;
  container.container_extra_boot_millis = 10;  // keep the test quick
  relational::Table out = *executor.Execute(plan, container);
  EXPECT_EQ(out.num_rows(), 50);
}

TEST_F(ExecutionFixture, ParallelMatchesSequential) {
  PlanExecutor executor(&catalog_, &cache_);
  auto plan = Analyze(
      "SELECT id, p FROM PREDICT(MODEL='los', DATA=patients) WITH(p float) "
      "WHERE pregnant = 1");
  ExecutionOptions sequential;
  relational::Table expected = *executor.Execute(plan, sequential);
  ExecutionOptions parallel;
  parallel.parallelism = 4;
  relational::Table actual = *executor.Execute(plan, parallel);
  ASSERT_EQ(expected.num_rows(), actual.num_rows());
  EXPECT_EQ((*expected.GetColumn("id"))->data,
            (*actual.GetColumn("id"))->data);
  EXPECT_EQ((*expected.GetColumn("p"))->data, (*actual.GetColumn("p"))->data);
}

TEST_F(ExecutionFixture, OpaquePipelineRoutesToWorker) {
  // Store a model whose script is unanalyzable; it must still execute, out
  // of process, with correct results.
  ASSERT_TRUE(catalog_.InsertModel("opaque",
                                   "import magic\nmodel_pipeline = "
                                   "Pipeline([('clf', magic.Thing())])",
                                   pipeline_.ToBytes()).ok());
  PlanExecutor executor(&catalog_, &cache_);
  auto plan = Analyze(
      "SELECT id, p FROM PREDICT(MODEL='opaque', DATA=patients) "
      "WITH(p float) LIMIT 20");
  EXPECT_EQ(plan.CountKind(ir::IrOpKind::kOpaquePipeline), 1u);
  relational::Table out = *executor.Execute(plan, ExecutionOptions());
  EXPECT_EQ(out.num_rows(), 20);

  // Same rows through the analyzable model agree.
  auto good_plan = Analyze(
      "SELECT id, p FROM PREDICT(MODEL='los', DATA=patients) "
      "WITH(p float) LIMIT 20");
  relational::Table good = *executor.Execute(good_plan, ExecutionOptions());
  EXPECT_EQ((*out.GetColumn("p"))->data, (*good.GetColumn("p"))->data);
}

TEST_F(ExecutionFixture, NnGraphInProcessViaSessionCache) {
  auto plan = Analyze(
      "SELECT id, p FROM PREDICT(MODEL='los', DATA=patients) WITH(p float)");
  // Translate to an NNRT graph node first.
  (void)*optimizer::ApplyNnTranslation(&plan.mutable_root(), catalog_,
                                       nnrt::DeviceSpec::Cpu());
  ASSERT_EQ(plan.CountKind(ir::IrOpKind::kNnGraph), 1u);
  PlanExecutor executor(&catalog_, &cache_);
  const auto misses_before = cache_.misses();
  relational::Table a = *executor.Execute(plan, ExecutionOptions());
  relational::Table b = *executor.Execute(plan, ExecutionOptions());
  EXPECT_EQ(cache_.misses(), misses_before + 1);  // second run hits cache
  EXPECT_GT(cache_.hits(), 0u);
  EXPECT_EQ((*a.GetColumn("p"))->data, (*b.GetColumn("p"))->data);
}

TEST_F(ExecutionFixture, GeneratedSqlMentionsRuntimeAndModel) {
  auto plan = Analyze(
      "SELECT id, p FROM PREDICT(MODEL='los', DATA=patients) WITH(p float) "
      "WHERE pregnant = 1");
  const std::string sql = GenerateSql(*plan.root());
  EXPECT_NE(sql.find("PREDICT(MODEL='los'"), std::string::npos);
  EXPECT_NE(sql.find("pregnant"), std::string::npos);
  EXPECT_NE(sql.find("SELECT"), std::string::npos);
}

}  // namespace
}  // namespace raven::runtime
