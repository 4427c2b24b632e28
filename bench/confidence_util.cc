#include "bench/confidence_util.h"

#include "metrics/metrics.h"
#include "restore/snapshot_index.h"

namespace restore {
namespace bench {

Result<ConfidenceEval> EvaluateCountConfidence(
    const Database& complete, const Database& incomplete,
    const SchemaAnnotation& annotation, const std::vector<std::string>& path,
    const std::string& target, const std::string& column,
    const std::string& value, const PathModelConfig& config, uint64_t seed) {
  RESTORE_ASSIGN_OR_RETURN(
      auto model, PathModel::Train(incomplete, annotation, path, config));
  const SnapshotIndex index(incomplete);
  IncompletenessJoinExecutor exec(&index, &annotation);
  Rng rng(seed);
  CompletionOptions options;
  options.record_table = target;
  options.record_column = column;
  RESTORE_ASSIGN_OR_RETURN(CompletionResult completion,
                           exec.CompletePathJoin(*model, rng, options));

  RESTORE_ASSIGN_OR_RETURN(const Table* truth, complete.GetTable(target));
  RESTORE_ASSIGN_OR_RETURN(const Table* partial, incomplete.GetTable(target));
  RESTORE_ASSIGN_OR_RETURN(const Column* col, partial->GetColumn(column));
  RESTORE_ASSIGN_OR_RETURN(int64_t code, col->dictionary()->Lookup(value));
  size_t existing_with_value = 0;
  for (size_t r = 0; r < col->size(); ++r) {
    if (!col->IsNull(r) && col->GetCode(r) == code) ++existing_with_value;
  }

  const int attr = model->FindAttr(target, column);
  if (attr < 0) {
    return Status::NotFound("recorded column is not a model attribute");
  }
  ConfidenceEval eval;
  RESTORE_ASSIGN_OR_RETURN(eval.true_fraction,
                           CategoricalFraction(*truth, column, value));
  RESTORE_ASSIGN_OR_RETURN(eval.incomplete_fraction,
                           CategoricalFraction(*partial, column, value));
  eval.interval = CountFractionInterval(
      completion.recorded_probs,
      model->TrainMarginal(static_cast<size_t>(attr)),
      static_cast<size_t>(code), existing_with_value, partial->NumRows(),
      0.95);
  return eval;
}

}  // namespace bench
}  // namespace restore
