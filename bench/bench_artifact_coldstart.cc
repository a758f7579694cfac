// Cold-start cost of NNRT session construction, the path the compiled-model
// artifact cache exists to shorten: a server restart (or raven_worker
// spawn) that finds a warm artifact directory skips deserialize-validate +
// graph optimization and reloads the already-optimized graph instead.
//
// Series:
//   FreshCompile    = InferenceSession::FromBytes — deserialize, validate,
//                     run the graph optimizer (the cold path).
//   ArtifactReload  = ArtifactCache::Load + FromArtifact — read + checksum
//                     the artifact file, validate, skip the optimizer (the
//                     warm path, including the disk read).
//   Backend_*       = steady-state inference throughput of the pluggable
//                     kernel backends on the GEMM-lowered hospital forest,
//                     and (Backend_TreeEnsemble) of the same forest as the
//                     TreeEnsemble op the optimizer picks on CPU: the
//                     numbers docs/OPERATIONS.md's backend guidance quotes.

#include <unistd.h>

#include <cstdlib>
#include <map>
#include <string>

#include "bench_util.h"
#include "nnrt/artifact_cache.h"
#include "nnrt/backend.h"
#include "nnrt/session.h"
#include "optimizer/converters.h"

namespace raven {
namespace {

const ml::ModelPipeline& Forest() {
  static auto* model = new ml::ModelPipeline(bench::Must(
      data::TrainHospitalForest(bench::Hospital(20000), 10, 8), "train rf"));
  return *model;
}

/// Serialized forest graph. The GEMM lowering (the default) is the model
/// bytes a cold server compiles here; TreeEnsemble is the encoding the
/// optimizer picks on CPU.
const std::string& ModelBytes(
    optimizer::TreeEncoding encoding = optimizer::TreeEncoding::kGemm) {
  static auto* bytes = new std::map<optimizer::TreeEncoding, std::string>();
  auto it = bytes->find(encoding);
  if (it == bytes->end()) {
    nnrt::Graph graph = bench::Must(
        optimizer::PipelineToNnGraph(Forest(), encoding), "translate");
    BinaryWriter writer;
    graph.Serialize(&writer);
    it = bytes->emplace(encoding, writer.Release()).first;
  }
  return it->second;
}

/// A shared artifact directory holding the compiled model, written once.
const nnrt::ArtifactCache& Artifacts() {
  static auto* cache = new nnrt::ArtifactCache([] {
    char tmpl[] = "/tmp/raven_bench_artifact_XXXXXX";
    const char* dir = ::mkdtemp(tmpl);
    return std::string(dir == nullptr ? "/tmp" : dir);
  }());
  static bool stored = [] {
    auto session = bench::Must(
        nnrt::InferenceSession::FromBytes(ModelBytes()), "compile");
    return cache
        ->Store(nnrt::FingerprintGraphBytes(ModelBytes()), session->graph(),
                session->optimization_stats())
        .ok();
  }();
  if (!stored) std::abort();
  return *cache;
}

void BM_ColdStart_FreshCompile(benchmark::State& state) {
  const std::string& bytes = ModelBytes();
  for (auto _ : state) {
    auto session = nnrt::InferenceSession::FromBytes(bytes);
    if (!session.ok()) state.SkipWithError("compile failed");
    benchmark::DoNotOptimize(session);
  }
  state.counters["model_bytes"] = static_cast<double>(bytes.size());
}

void BM_ColdStart_DeserializeOnly(benchmark::State& state) {
  // The optimizer-free floor of a fresh compile — the gap between this and
  // FreshCompile is what the artifact cache saves (minus the file read +
  // checksum ArtifactReload pays instead).
  const std::string& bytes = ModelBytes();
  nnrt::SessionOptions options;
  options.enable_graph_optimizations = false;
  for (auto _ : state) {
    auto session = nnrt::InferenceSession::FromBytes(bytes, options);
    if (!session.ok()) state.SkipWithError("compile failed");
    benchmark::DoNotOptimize(session);
  }
}

void BM_ColdStart_ArtifactReload(benchmark::State& state) {
  const nnrt::ArtifactCache& artifacts = Artifacts();
  const std::uint64_t fp = nnrt::FingerprintGraphBytes(ModelBytes());
  for (auto _ : state) {
    auto artifact = artifacts.Load(fp);
    if (!artifact.ok()) state.SkipWithError("load failed");
    auto session =
        nnrt::InferenceSession::FromArtifact(std::move(artifact).value());
    if (!session.ok()) state.SkipWithError("session failed");
    benchmark::DoNotOptimize(session);
  }
}

void RunBackend(benchmark::State& state, nnrt::BackendKind backend,
                const std::string& model_bytes = ModelBytes()) {
  nnrt::SessionOptions options;
  options.backend = backend;
  auto session = bench::Must(
      nnrt::InferenceSession::FromBytes(model_bytes, options), "session");
  Tensor x = bench::Must(
      bench::Hospital(state.range(0)).joined.ToTensor(Forest().input_columns),
      "tensor");
  for (auto _ : state) {
    auto preds = session->RunSingle(x);
    benchmark::DoNotOptimize(preds);
  }
  state.counters["rows"] = static_cast<double>(state.range(0));
}

void BM_Backend_Reference(benchmark::State& state) {
  RunBackend(state, nnrt::BackendKind::kReference);
}

void BM_Backend_Simd(benchmark::State& state) {
  RunBackend(state, nnrt::BackendKind::kSimd);
}

void BM_Backend_Fp16(benchmark::State& state) {
  RunBackend(state, nnrt::BackendKind::kFp16);
}

void BM_Backend_TreeEnsemble(benchmark::State& state) {
  // The same forest as one TreeEnsemble op. The kernel stays on the
  // reference implementation under every backend, so simd is what
  // reference would score.
  RunBackend(state, nnrt::BackendKind::kSimd,
             ModelBytes(optimizer::TreeEncoding::kTreeEnsemble));
}

BENCHMARK(BM_ColdStart_FreshCompile)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ColdStart_DeserializeOnly)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ColdStart_ArtifactReload)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Backend_Reference)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Backend_Simd)->Arg(1000)->Arg(10000)->Unit(
    benchmark::kMicrosecond);
BENCHMARK(BM_Backend_Fp16)->Arg(1000)->Arg(10000)->Unit(
    benchmark::kMicrosecond);
BENCHMARK(BM_Backend_TreeEnsemble)->Arg(1000)->Arg(10000)->Unit(
    benchmark::kMicrosecond);

}  // namespace
}  // namespace raven
