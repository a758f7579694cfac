// Fig 3: in-/out-of-process integration (hospital RF and MLP pipelines,
// NN-translated). The paper compares:
//   ORT       = standalone ONNX Runtime: load model + create session +
//               score per request (file-system cache only);
//   Raven     = PREDICT inside the engine with model/session caching and
//               automatic scan+PREDICT parallelization;
//   Raven Ext = out-of-process external runtime (~0.5 s boot per query).
// Observations to reproduce: (i) Raven ~ ORT in the mid range (<=15%
// overhead), (ii) Raven faster at small sizes thanks to session caching,
// (iii) Raven faster at 1M+ thanks to parallel scan+PREDICT (bounded here
// by the host's core count), (iv) Raven Ext pays a constant boot cost.

#include "bench_util.h"
#include "raven/raven.h"

namespace raven {
namespace {

ml::ModelPipeline TrainModel(const char* kind) {
  const auto& data = bench::Hospital(20000);
  if (std::string(kind) == "rf") {
    return bench::Must(data::TrainHospitalForest(data, 10, 8), "train rf");
  }
  return bench::Must(data::TrainHospitalMlp(data), "train mlp");
}

const std::string& ModelBytes(const char* kind) {
  static auto* cache = new std::map<std::string, std::string>();
  auto it = cache->find(kind);
  if (it == cache->end()) {
    // A standalone runtime scores trees natively (ONNX-ML's
    // TreeEnsembleRegressor), as the optimizer does on CPU.
    nnrt::Graph graph = bench::Must(
        optimizer::PipelineToNnGraph(TrainModel(kind),
                                     optimizer::TreeEncoding::kTreeEnsemble),
        "translate");
    BinaryWriter w;
    graph.Serialize(&w);
    it = cache->emplace(kind, w.Release()).first;
  }
  return it->second;
}

/// Standalone "ORT": deserialize + optimize + run per request, like a
/// scoring service loading the model from disk per query.
void RunOrt(benchmark::State& state, const char* kind) {
  const std::int64_t rows = state.range(0);
  const auto& data = bench::Hospital(rows);
  ml::ModelPipeline model = TrainModel(kind);
  Tensor x = bench::Must(data.joined.ToTensor(model.input_columns), "tensor");
  const std::string& bytes = ModelBytes(kind);
  for (auto _ : state) {
    auto session = nnrt::InferenceSession::FromBytes(bytes);
    if (!session.ok()) {
      state.SkipWithError("session");
      return;
    }
    auto preds = (*session)->RunSingle(x);
    benchmark::DoNotOptimize(preds);
  }
  state.counters["rows"] = static_cast<double>(rows);
}

std::unique_ptr<RavenContext> MakeRaven(std::int64_t rows, const char* kind,
                                        runtime::ExecutionMode mode,
                                        std::int64_t parallelism) {
  RavenOptions options;
  options.optimizer.model_inlining = false;  // measure the NNRT path
  options.execution.mode = mode;
  options.execution.parallelism = parallelism;
  options.execution.external.boot_millis = 400;  // paper: ~0.5 s runtime boot
  auto ctx = std::make_unique<RavenContext>(options);
  bench::MustOk(
      ctx->RegisterTable("patients", bench::Hospital(rows).joined),
      "register");
  const std::string script = std::string(kind) == "rf"
                                 ? data::HospitalForestScript()
                                 : data::HospitalMlpScript();
  bench::MustOk(ctx->InsertModel("m", script, TrainModel(kind)), "insert");
  return ctx;
}

void RunRaven(benchmark::State& state, const char* kind,
              runtime::ExecutionMode mode, std::int64_t parallelism) {
  auto ctx = MakeRaven(state.range(0), kind, mode, parallelism);
  const char* sql =
      "SELECT id, p FROM PREDICT(MODEL='m', DATA=patients) WITH(p float)";
  // Warm the session cache (the paper measures warm runs).
  if (mode == runtime::ExecutionMode::kInProcess) {
    auto warm = ctx->Query(sql);
    if (!warm.ok()) {
      state.SkipWithError(warm.status().ToString().c_str());
      return;
    }
  }
  for (auto _ : state) {
    auto result = ctx->Query(sql);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(result->table.num_rows());
  }
  state.counters["rows"] = static_cast<double>(state.range(0));
}

/// Scan+PREDICT throughput at an explicit degree of parallelism
/// (args: rows, dop). The parallelism-1 vs parallelism-8 pair is the
/// regression signal for the morsel-driven executor: BENCH_*.json tracks
/// both so a scheduling regression shows up as the ratio collapsing.
void BM_Fig3_ScanPredictParallelism(benchmark::State& state) {
  RunRaven(state, "rf", runtime::ExecutionMode::kInProcess, state.range(1));
  state.counters["dop"] = static_cast<double>(state.range(1));
}

void BM_Fig3_RF_ORT(benchmark::State& state) { RunOrt(state, "rf"); }
void BM_Fig3_RF_Raven(benchmark::State& state) {
  RunRaven(state, "rf", runtime::ExecutionMode::kInProcess, 1);
}
void BM_Fig3_RF_RavenParallel(benchmark::State& state) {
  RunRaven(state, "rf", runtime::ExecutionMode::kInProcess, 4);
}
void BM_Fig3_RF_RavenExt(benchmark::State& state) {
  RunRaven(state, "rf", runtime::ExecutionMode::kOutOfProcess, 1);
}
void BM_Fig3_MLP_ORT(benchmark::State& state) { RunOrt(state, "mlp"); }
void BM_Fig3_MLP_Raven(benchmark::State& state) {
  RunRaven(state, "mlp", runtime::ExecutionMode::kInProcess, 1);
}
void BM_Fig3_MLP_RavenExt(benchmark::State& state) {
  RunRaven(state, "mlp", runtime::ExecutionMode::kOutOfProcess, 1);
}

// Paper sweeps 1K..10M; we sweep 1K..500K (memory-bounded substrate). The
// crossovers appear at the same relative positions.
#define FIG3_SIZES ->Arg(1000)->Arg(10000)->Arg(100000)->Arg(200000)

BENCHMARK(BM_Fig3_ScanPredictParallelism)
    ->Args({20000, 1})->Args({20000, 8})
    ->Args({200000, 1})->Args({200000, 8})
    ->Iterations(2)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Fig3_RF_ORT)
    FIG3_SIZES->Iterations(2)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Fig3_RF_Raven)
    FIG3_SIZES->Iterations(2)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Fig3_RF_RavenParallel)
    ->Arg(100000)->Arg(200000)->Iterations(2)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Fig3_RF_RavenExt)
    ->Arg(1000)->Arg(100000)->Iterations(2)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Fig3_MLP_ORT)
    FIG3_SIZES->Iterations(2)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Fig3_MLP_Raven)
    FIG3_SIZES->Iterations(2)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Fig3_MLP_RavenExt)
    ->Arg(1000)->Arg(100000)->Iterations(2)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace raven
