// In-text number, §5 observation (v): batch inference gains about an order
// of magnitude over one-prediction-per-tuple scoring. We score a fixed
// 100K-row workload through the GEMM-lowered hospital forest at different
// batch sizes and report per-row cost.

#include "bench_util.h"
#include "nnrt/session.h"
#include "optimizer/converters.h"

namespace raven {
namespace {

constexpr std::int64_t kTotalRows = 100000;

void BM_BatchSize(benchmark::State& state) {
  const std::int64_t batch = state.range(0);
  static auto* session = [] {
    auto model = bench::Must(
        data::TrainHospitalForest(bench::Hospital(20000), 10, 8), "train");
    nnrt::Graph graph = bench::Must(
        optimizer::PipelineToNnGraph(model, optimizer::TreeEncoding::kGemm),
        "translate");
    return new std::unique_ptr<nnrt::InferenceSession>(bench::Must(
        nnrt::InferenceSession::Create(std::move(graph)), "session"));
  }();
  static auto* input = new Tensor(bench::Must(
      bench::Hospital(kTotalRows).joined.ToTensor(
          bench::Must(data::TrainHospitalForest(bench::Hospital(20000), 10,
                                                8),
                      "train")
              .input_columns),
      "tensor"));
  for (auto _ : state) {
    for (std::int64_t begin = 0; begin < kTotalRows; begin += batch) {
      const std::int64_t end = std::min(kTotalRows, begin + batch);
      auto slice = input->SliceRows(begin, end);
      auto preds = (*session)->RunSingle(*slice);
      benchmark::DoNotOptimize(preds);
    }
  }
  state.counters["batch"] = static_cast<double>(batch);
  state.SetItemsProcessed(state.iterations() * kTotalRows);
}

BENCHMARK(BM_BatchSize)
    ->Arg(1)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace raven
