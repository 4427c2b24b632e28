// Reproduces Figure 5: data completion on synthetic data.
//  5a (top):    bias reduction vs removal correlation x predictability
//               x keep rate
//  5a (bottom): bias reduction vs removal correlation x Zipf skew
//               (predictability fixed at 80%)
//  5b:          held-out loss vs predictability
//  5c:          SSAR-vs-AR bias-reduction improvement vs fan-out
//               predictability

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/string_util.h"
#include "datagen/incompleteness.h"
#include "datagen/synthetic.h"
#include "metrics/metrics.h"
#include "restore/incompleteness_join.h"
#include "restore/path_model.h"
#include "restore/snapshot_index.h"

namespace restore {
namespace bench {
namespace {

struct SyntheticEval {
  double bias_reduction = 0.0;
  double test_loss = 0.0;
};

/// Runs one synthetic completion scenario and measures the bias reduction of
/// the most-deviating categorical value (as in Exp. 1).
Result<SyntheticEval> RunSynthetic(double predictability, double zipf,
                                   double fanout_pred, double keep_rate,
                                   double correlation, bool ssar,
                                   uint64_t seed) {
  SyntheticConfig config;
  config.num_parents = 350;
  config.predictability = predictability;
  config.zipf_skew = zipf;
  config.fanout_predictability = fanout_pred;
  config.seed = seed;
  RESTORE_ASSIGN_OR_RETURN(Database complete, GenerateSynthetic(config));
  BiasedRemovalConfig removal;
  removal.table = "table_b";
  removal.column = "b";
  removal.keep_rate = keep_rate;
  removal.removal_correlation = correlation;
  removal.seed = seed + 1;
  RESTORE_ASSIGN_OR_RETURN(Database incomplete,
                           ApplyBiasedRemoval(complete, removal));
  RESTORE_RETURN_IF_ERROR(ThinTupleFactors(&incomplete, 0.3, seed + 2));
  SchemaAnnotation annotation;
  annotation.MarkIncomplete("table_b");

  PathModelConfig model_config;
  model_config.epochs = 10;
  model_config.hidden_dim = 40;
  model_config.embed_dim = 8;
  model_config.use_ssar = ssar;
  model_config.seed = seed + 3;
  RESTORE_ASSIGN_OR_RETURN(
      auto model, PathModel::Train(incomplete, annotation,
                                   {"table_a", "table_b"}, model_config));
  const SnapshotIndex index(incomplete);
  IncompletenessJoinExecutor exec(&index, &annotation);
  Rng rng(seed + 4);
  RESTORE_ASSIGN_OR_RETURN(CompletionResult completion,
                           exec.CompletePathJoin(*model, rng));

  // Statistic: fraction of the most biased value of b.
  RESTORE_ASSIGN_OR_RETURN(const Table* truth, complete.GetTable("table_b"));
  RESTORE_ASSIGN_OR_RETURN(const Table* partial,
                           incomplete.GetTable("table_b"));
  RESTORE_ASSIGN_OR_RETURN(const Column* truth_b, truth->GetColumn("b"));
  std::string worst;
  double worst_dev = -1.0;
  for (size_t code = 0; code < truth_b->dictionary()->size(); ++code) {
    const std::string value =
        truth_b->dictionary()->ValueOf(static_cast<int64_t>(code));
    RESTORE_ASSIGN_OR_RETURN(double tf, CategoricalFraction(*truth, "b", value));
    RESTORE_ASSIGN_OR_RETURN(double pf,
                             CategoricalFraction(*partial, "b", value));
    if (std::abs(tf - pf) > worst_dev) {
      worst_dev = std::abs(tf - pf);
      worst = value;
    }
  }
  RESTORE_ASSIGN_OR_RETURN(double true_frac,
                           CategoricalFraction(*truth, "b", worst));
  RESTORE_ASSIGN_OR_RETURN(double incomplete_frac,
                           CategoricalFraction(*partial, "b", worst));
  // Completed fraction over existing + synthesized tuples.
  const auto& synth = completion.synthesized.at("table_b");
  const Column* synth_b = nullptr;
  for (const auto& c : synth) {
    if (c.name() == "b") synth_b = &c;
  }
  RESTORE_ASSIGN_OR_RETURN(const Column* inc_b, partial->GetColumn("b"));
  RESTORE_ASSIGN_OR_RETURN(int64_t code,
                           inc_b->dictionary()->Lookup(worst));
  size_t hits = 0;
  for (size_t r = 0; r < inc_b->size(); ++r) {
    if (inc_b->GetCode(r) == code) ++hits;
  }
  for (size_t r = 0; synth_b != nullptr && r < synth_b->size(); ++r) {
    if (synth_b->GetCode(r) == code) ++hits;
  }
  const double completed_frac =
      static_cast<double>(hits) /
      static_cast<double>(inc_b->size() +
                          (synth_b != nullptr ? synth_b->size() : 0));
  SyntheticEval eval;
  eval.bias_reduction =
      BiasReduction(true_frac, incomplete_frac, completed_frac);
  eval.test_loss = model->target_test_loss();
  return eval;
}

int Run() {
  FigureJson json("fig5");
  const std::vector<double> predictabilities =
      FullGrids() ? std::vector<double>{0.2, 0.4, 0.6, 0.8, 1.0}
                  : std::vector<double>{0.2, 0.6, 1.0};
  const std::vector<double> correlations = RemovalCorrelations();
  const std::vector<double> keeps = KeepRates();

  std::printf("# Figure 5a (top): bias reduction on synthetic data\n");
  std::printf("predictability,removal_correlation,keep_rate,bias_reduction\n");
  for (double p : predictabilities) {
    for (double c : correlations) {
      for (double k : keeps) {
        auto eval = RunSynthetic(p, 0.0, 0.0, k, c, false, 500);
        if (!eval.ok()) {
          std::fprintf(stderr, "fig5a: %s\n", eval.status().ToString().c_str());
          continue;
        }
        std::printf("%.0f%%,%.0f%%,%.0f%%,%.3f\n", p * 100, c * 100, k * 100,
                    eval->bias_reduction);
        json.Add(StrFormat("5a_top/pred=%.0f/corr=%.0f/keep=%.0f", p * 100,
                           c * 100, k * 100),
                 {{"bias_reduction", eval->bias_reduction}});
      }
    }
  }

  std::printf("\n# Figure 5a (bottom): skew has little effect "
              "(predictability 80%%)\n");
  std::printf("zipf_skew,removal_correlation,keep_rate,bias_reduction\n");
  const std::vector<double> skews =
      FullGrids() ? std::vector<double>{1.0, 1.5, 2.0, 2.5, 3.0}
                  : std::vector<double>{1.0, 2.0, 3.0};
  for (double z : skews) {
    for (double c : correlations) {
      for (double k : keeps) {
        auto eval = RunSynthetic(0.8, z, 0.0, k, c, false, 600);
        if (!eval.ok()) continue;
        std::printf("%.1f,%.0f%%,%.0f%%,%.3f\n", z, c * 100, k * 100,
                    eval->bias_reduction);
        json.Add(StrFormat("5a_bottom/zipf=%.1f/corr=%.0f/keep=%.0f", z,
                           c * 100, k * 100),
                 {{"bias_reduction", eval->bias_reduction}});
      }
    }
  }

  std::printf("\n# Figure 5b: held-out loss vs predictability "
              "(model-selection criterion)\n");
  std::printf("predictability,target_test_loss\n");
  for (double p : predictabilities) {
    auto eval = RunSynthetic(p, 0.0, 0.0, 0.6, 0.4, false, 700);
    if (!eval.ok()) continue;
    std::printf("%.0f%%,%.3f\n", p * 100, eval->test_loss);
    json.Add(StrFormat("5b/pred=%.0f", p * 100),
             {{"target_test_loss", eval->test_loss}});
  }

  std::printf("\n# Figure 5c: SSAR vs AR improvement vs fan-out "
              "predictability\n");
  std::printf(
      "fanout_predictability,ar_bias_reduction,ssar_bias_reduction,"
      "improvement\n");
  const std::vector<double> fanout_preds =
      FullGrids() ? std::vector<double>{0.25, 0.5, 0.75, 1.0}
                  : std::vector<double>{0.5, 1.0};
  for (double fp : fanout_preds) {
    auto ar = RunSynthetic(0.0, 0.0, fp, 0.6, 0.4, false, 800);
    auto ssar = RunSynthetic(0.0, 0.0, fp, 0.6, 0.4, true, 800);
    if (!ar.ok() || !ssar.ok()) continue;
    std::printf("%.0f%%,%.3f,%.3f,%.3f\n", fp * 100, ar->bias_reduction,
                ssar->bias_reduction,
                ssar->bias_reduction - ar->bias_reduction);
    json.Add(StrFormat("5c/fanout_pred=%.0f", fp * 100),
             {{"ar_bias_reduction", ar->bias_reduction},
              {"ssar_bias_reduction", ssar->bias_reduction},
              {"improvement",
               ssar->bias_reduction - ar->bias_reduction}});
  }
  if (Status s = json.Write(); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace restore

int main() { return restore::bench::Run(); }
