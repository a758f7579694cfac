#ifndef RAVEN_OPTIMIZER_CONVERTERS_H_
#define RAVEN_OPTIMIZER_CONVERTERS_H_

#include "common/status.h"
#include "ml/pipeline.h"
#include "nnrt/graph.h"
#include "relational/expression.h"

namespace raven::optimizer {

/// How NN translation encodes a tree or forest predictor (paper §4.2,
/// Fig 2(d)). The cost model picks one per model and device
/// (ChooseTreeEncoding in cost_model.h); other predictors ignore it.
enum class TreeEncoding {
  /// One native TreeEnsemble op (the ONNX-ML-style encoding): a per-row
  /// tree walk, cheapest on a CPU.
  kTreeEnsemble,
  /// Hummingbird-style dense GEMM layers (the MLD -> LA transformation):
  /// far more flops, but batch-parallel, so it pays off only on an
  /// accelerator at large batches.
  kGemm,
};

const char* TreeEncodingToString(TreeEncoding encoding);

/// Translates a trained model pipeline into an NNRT dataflow graph with a
/// single input "X" ([n, |input_columns|] raw matrix) and output "Y"
/// ([n, 1] predictions). Featurizer branches become GatherColumns /
/// Scaler / OneHot ops; predictors become Gemm stacks, Sigmoid heads, or
/// trees in `tree_encoding`. The translated graph computes exactly the
/// pipeline's Predict function (float32).
Result<nnrt::Graph> PipelineToNnGraph(const ml::ModelPipeline& pipeline,
                                      TreeEncoding tree_encoding);

/// Model inlining (paper §4.2, Fig 2(c)): compiles a decision-tree pipeline
/// into a relational scalar expression (nested CASE WHEN over raw columns),
/// the stand-in for SQL Server UDF inlining (Froid). Supported when the
/// predictor is a DecisionTree and every feature comes from an identity,
/// scaler, or one-hot branch (scaler tests are rewritten into raw-space
/// thresholds; one-hot tests into equality predicates).
Result<relational::ExprPtr> TreeToCaseExpr(const ml::ModelPipeline& pipeline);

/// True if TreeToCaseExpr supports this pipeline.
bool IsInlinable(const ml::ModelPipeline& pipeline);

}  // namespace raven::optimizer

#endif  // RAVEN_OPTIMIZER_CONVERTERS_H_
