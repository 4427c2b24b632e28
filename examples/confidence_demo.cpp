// Completion-confidence demo (Section 6): how certain is ReStore about the
// data it synthesizes? The engine reports a 95% confidence interval for a
// count query over a completed table; low attribute predictability yields a
// wide interval, high predictability a tight one.
//
//   $ ./build/examples/confidence_demo

#include <cstdio>

#include "datagen/incompleteness.h"
#include "datagen/synthetic.h"
#include "metrics/metrics.h"
#include "restore/confidence.h"
#include "restore/incompleteness_join.h"
#include "restore/path_model.h"
#include "restore/snapshot_index.h"

using namespace restore;

namespace {

/// Returns false (after printing the failure) if the scenario could not run.
bool RunOne(double predictability) {
  SyntheticConfig config;
  config.num_parents = 300;
  config.predictability = predictability;
  config.seed = 51;
  auto complete = GenerateSynthetic(config);
  if (!complete.ok()) {
    std::fprintf(stderr, "generating data failed: %s\n",
                 complete.status().ToString().c_str());
    return false;
  }
  BiasedRemovalConfig removal;
  removal.table = "table_b";
  removal.column = "b";
  removal.keep_rate = 0.5;
  removal.removal_correlation = 0.4;
  removal.seed = 52;
  auto incomplete = ApplyBiasedRemoval(*complete, removal);
  if (!incomplete.ok()) {
    std::fprintf(stderr, "applying biased removal failed: %s\n",
                 incomplete.status().ToString().c_str());
    return false;
  }
  if (auto s = ThinTupleFactors(&*incomplete, 0.3, 53); !s.ok()) {
    std::fprintf(stderr, "thinning tuple factors failed: %s\n",
                 s.ToString().c_str());
    return false;
  }
  SchemaAnnotation annotation;
  annotation.MarkIncomplete("table_b");

  PathModelConfig model_config;
  auto model = PathModel::Train(*incomplete, annotation,
                                {"table_a", "table_b"}, model_config);
  if (!model.ok()) {
    std::fprintf(stderr, "training failed: %s\n",
                 model.status().ToString().c_str());
    return false;
  }

  // Complete while recording the predictive distribution of b.
  const SnapshotIndex index(*incomplete);
  IncompletenessJoinExecutor exec(&index, &annotation);
  Rng rng(54);
  CompletionOptions options;
  options.record_table = "table_b";
  options.record_column = "b";
  auto completion = exec.CompletePathJoin(**model, rng, options);
  if (!completion.ok()) {
    std::fprintf(stderr, "completion failed: %s\n",
                 completion.status().ToString().c_str());
    return false;
  }

  // Confidence interval of the fraction of value "b0".
  const Table& partial = *incomplete->GetTable("table_b").value();
  const Column* col = partial.GetColumn("b").value();
  auto code = col->dictionary()->Lookup("b0");
  if (!code.ok()) {
    std::fprintf(stderr, "value 'b0' not in dictionary: %s\n",
                 code.status().ToString().c_str());
    return false;
  }
  size_t existing_with_value = 0;
  for (size_t r = 0; r < col->size(); ++r) {
    if (col->GetCode(r) == code.value()) ++existing_with_value;
  }
  const int attr = (*model)->FindAttr("table_b", "b");
  ConfidenceInterval ci = CountFractionInterval(
      completion->recorded_probs,
      (*model)->TrainMarginal(static_cast<size_t>(attr)),
      static_cast<size_t>(code.value()), existing_with_value,
      partial.NumRows(), 0.95);
  auto true_frac =
      CategoricalFraction(*complete->GetTable("table_b").value(), "b", "b0");
  std::printf(
      "predictability %3.0f%%: true fraction %.3f, 95%% CI [%.3f, %.3f] "
      "(width %.3f, theoretical [%.3f, %.3f])\n",
      predictability * 100, *true_frac, ci.lower, ci.upper,
      ci.upper - ci.lower, ci.theoretical_min, ci.theoretical_max);
  return true;
}

}  // namespace

int main() {
  std::printf("95%% confidence intervals for COUNT(b='b0') after "
              "completion:\n\n");
  bool ok = true;
  for (double p : {0.2, 0.5, 0.8, 1.0}) ok = RunOne(p) && ok;
  if (!ok) return 1;
  std::printf("\nHigher predictability -> more certain completions -> "
              "tighter intervals.\n");
  return 0;
}
