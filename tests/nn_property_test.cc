// Parameterized property tests for the NN substrate: training convergence
// across conditional structures, optimizer option sweeps, deep-sets shapes.

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nn/adam.h"
#include "nn/deep_sets.h"
#include "nn/made.h"

namespace restore {
namespace {

/// MADE must learn b = (a * k) % Vb for several (Va, Vb, k) structures.
struct DependencyCase {
  int va;
  int vb;
  int k;
};

class MadeLearnsDependency : public ::testing::TestWithParam<DependencyCase> {
};

TEST_P(MadeLearnsDependency, ConditionalConcentratesOnTarget) {
  const DependencyCase& c = GetParam();
  Rng rng(42 + static_cast<uint64_t>(c.va * 100 + c.vb * 10 + c.k));
  MadeConfig config;
  config.vocab_sizes = {c.va, c.vb};
  config.embed_dim = 6;
  config.hidden_dim = 32;
  config.num_layers = 2;
  MadeModel made(config, rng);
  std::vector<Param*> params;
  made.CollectParams(&params);
  AdamOptimizer adam(params, AdamOptions{.learning_rate = 5e-3f});

  IntMatrix batch(64, 2);
  const Matrix ones(64, 2, 1.0f);
  for (int step = 0; step < 400; ++step) {
    for (size_t r = 0; r < 64; ++r) {
      const int32_t a =
          static_cast<int32_t>(rng.NextUint64(static_cast<uint64_t>(c.va)));
      batch.at(r, 0) = a;
      batch.at(r, 1) = (a * c.k) % c.vb;
    }
    Matrix logits;
    made.Forward(batch, Matrix(), &logits);
    Matrix dlogits;
    made.NllLossWeighted(logits, batch, 0, ones, &dlogits);
    made.Backward(dlogits, nullptr);
    adam.Step();
  }
  IntMatrix query(static_cast<size_t>(c.va), 2, 0);
  for (size_t r = 0; r < query.rows(); ++r) {
    query.at(r, 0) = static_cast<int32_t>(r);
  }
  made.FinalizeForInference();
  MadeScratch scratch;
  Matrix probs;
  made.PredictDistribution(query, Matrix(), 1, &probs, &scratch);
  for (size_t r = 0; r < query.rows(); ++r) {
    const size_t target =
        static_cast<size_t>((static_cast<int>(r) * c.k) % c.vb);
    EXPECT_GT(probs.at(r, target), 0.7f)
        << "a=" << r << " (va=" << c.va << " vb=" << c.vb << " k=" << c.k
        << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Structures, MadeLearnsDependency,
                         ::testing::Values(DependencyCase{4, 2, 1},
                                           DependencyCase{6, 3, 2},
                                           DependencyCase{8, 8, 3},
                                           DependencyCase{12, 5, 7}));

/// The unconditional marginal of the first attribute must match the training
/// frequency (the first attribute sees no inputs, only the bias + context).
TEST(MadeMarginals, FirstAttributeLearnsMarginal) {
  Rng rng(77);
  MadeConfig config;
  config.vocab_sizes = {3, 2};
  config.embed_dim = 4;
  config.hidden_dim = 16;
  config.num_layers = 2;
  MadeModel made(config, rng);
  std::vector<Param*> params;
  made.CollectParams(&params);
  AdamOptimizer adam(params, AdamOptions{.learning_rate = 5e-3f});
  // a ~ {60%, 30%, 10%}.
  IntMatrix batch(100, 2);
  const Matrix ones(100, 2, 1.0f);
  for (int step = 0; step < 300; ++step) {
    for (size_t r = 0; r < 100; ++r) {
      const double u = rng.NextDouble();
      batch.at(r, 0) = u < 0.6 ? 0 : (u < 0.9 ? 1 : 2);
      batch.at(r, 1) = static_cast<int32_t>(rng.NextUint64(2));
    }
    Matrix logits;
    made.Forward(batch, Matrix(), &logits);
    Matrix dlogits;
    made.NllLossWeighted(logits, batch, 0, ones, &dlogits);
    made.Backward(dlogits, nullptr);
    adam.Step();
  }
  IntMatrix query(1, 2, 0);
  made.FinalizeForInference();
  MadeScratch scratch;
  Matrix probs;
  made.PredictDistribution(query, Matrix(), 0, &probs, &scratch);
  EXPECT_NEAR(probs.at(0, 0), 0.6f, 0.07f);
  EXPECT_NEAR(probs.at(0, 1), 0.3f, 0.07f);
  EXPECT_NEAR(probs.at(0, 2), 0.1f, 0.05f);
}

/// Adam with weight decay shrinks unused parameters.
TEST(AdamOptions, WeightDecayShrinksParameters) {
  Param w;
  w.Init(1, 1);
  w.value.at(0, 0) = 5.0f;
  AdamOptions opts;
  opts.learning_rate = 0.05f;
  opts.weight_decay = 0.5f;
  AdamOptimizer adam({&w}, opts);
  for (int i = 0; i < 200; ++i) {
    // No data gradient; only decay acts.
    adam.Step();
  }
  EXPECT_LT(std::abs(w.value.at(0, 0)), 0.5f);
}

TEST(AdamOptions, StepCountAdvances) {
  Param w;
  w.Init(2, 2);
  AdamOptimizer adam({&w});
  EXPECT_EQ(adam.step_count(), 0);
  adam.Step();
  adam.Step();
  EXPECT_EQ(adam.step_count(), 2);
}

/// Deep-sets with two child tables and interleaved empty sets.
TEST(DeepSetsShapes, TwoTablesWithEmptySets) {
  Rng rng(88);
  DeepSetsEncoder enc(
      {DeepSetsEncoder::TableSpec{{4}}, DeepSetsEncoder::TableSpec{{3, 5}}},
      4, 8, 6, rng);
  ChildBatch t0;
  t0.codes = IntMatrix(2, 1);
  t0.codes.at(0, 0) = 1;
  t0.codes.at(1, 0) = 3;
  t0.offsets = {0, 2, 2, 2};  // row0: 2 children, rows 1-2: none
  ChildBatch t1;
  t1.codes = IntMatrix(1, 2);
  t1.codes.at(0, 0) = 2;
  t1.codes.at(0, 1) = 4;
  t1.offsets = {0, 0, 1, 1};  // only row1 has a child
  Matrix ctx;
  enc.Forward({t0, t1}, &ctx);
  EXPECT_EQ(ctx.rows(), 3u);
  EXPECT_EQ(ctx.cols(), 6u);
  // Row 2 has no children in either table: pre-activation is the pure bias,
  // so the context must equal relu(rho bias) for an all-zero pooled input —
  // the same for every empty row.
  ChildBatch e0;
  e0.codes = IntMatrix(0, 1);
  e0.offsets = {0, 0};
  ChildBatch e1;
  e1.codes = IntMatrix(0, 2);
  e1.offsets = {0, 0};
  Matrix empty_ctx;
  enc.Forward({e0, e1}, &empty_ctx);
  for (size_t c = 0; c < 6; ++c) {
    EXPECT_FLOAT_EQ(ctx.at(2, c), empty_ctx.at(0, c));
  }
}

/// Sampling from an untrained model still produces valid codes.
class SamplingValidity : public ::testing::TestWithParam<int> {};

TEST_P(SamplingValidity, CodesInRange) {
  const int n_attrs = GetParam();
  Rng rng(99 + static_cast<uint64_t>(n_attrs));
  MadeConfig config;
  for (int i = 0; i < n_attrs; ++i) config.vocab_sizes.push_back(3 + i);
  config.embed_dim = 4;
  config.hidden_dim = 24;
  config.num_layers = 2;
  MadeModel made(config, rng);
  made.FinalizeForInference();
  MadeScratch scratch;
  IntMatrix codes(32, static_cast<size_t>(n_attrs), 0);
  made.SampleRange(&codes, Matrix(), 0, codes.cols(), rng, /*record_attr=*/-1,
                   /*recorded=*/nullptr, &scratch);
  for (size_t r = 0; r < codes.rows(); ++r) {
    for (int a = 0; a < n_attrs; ++a) {
      EXPECT_GE(codes.at(r, static_cast<size_t>(a)), 0);
      EXPECT_LT(codes.at(r, static_cast<size_t>(a)),
                config.vocab_sizes[static_cast<size_t>(a)]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AttrCounts, SamplingValidity,
                         ::testing::Values(1, 2, 4, 7));

}  // namespace
}  // namespace restore
