// Unit and gradient-check tests for the neural-network substrate.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nn/adam.h"
#include "nn/deep_sets.h"
#include "nn/embedding.h"
#include "nn/layers.h"
#include "nn/made.h"
#include "nn/matrix.h"

namespace restore {
namespace {

TEST(MatrixTest, MatMulMatchesManualComputation) {
  Matrix a(2, 3);
  Matrix b(3, 2);
  float va = 1.0f;
  for (size_t i = 0; i < a.size(); ++i) a.data()[i] = va++;
  float vb = 0.5f;
  for (size_t i = 0; i < b.size(); ++i) b.data()[i] = vb++;
  Matrix out;
  MatMul(a, b, &out);
  // a = [[1,2,3],[4,5,6]], b = [[0.5,1.5],[2.5,3.5],[4.5,5.5]]
  EXPECT_FLOAT_EQ(out.at(0, 0), 1 * 0.5f + 2 * 2.5f + 3 * 4.5f);
  EXPECT_FLOAT_EQ(out.at(0, 1), 1 * 1.5f + 2 * 3.5f + 3 * 5.5f);
  EXPECT_FLOAT_EQ(out.at(1, 0), 4 * 0.5f + 5 * 2.5f + 6 * 4.5f);
  EXPECT_FLOAT_EQ(out.at(1, 1), 4 * 1.5f + 5 * 3.5f + 6 * 5.5f);
}

TEST(MatrixTest, MatMulTransBMatchesMatMul) {
  Rng rng(1);
  Matrix a(3, 4);
  Matrix b(5, 4);
  for (size_t i = 0; i < a.size(); ++i) {
    a.data()[i] = static_cast<float>(rng.NextGaussian());
  }
  for (size_t i = 0; i < b.size(); ++i) {
    b.data()[i] = static_cast<float>(rng.NextGaussian());
  }
  // b_t = transpose(b)
  Matrix b_t(4, 5);
  for (size_t r = 0; r < 5; ++r) {
    for (size_t c = 0; c < 4; ++c) b_t.at(c, r) = b.at(r, c);
  }
  Matrix expected;
  MatMul(a, b_t, &expected);
  Matrix got, pack;
  MatMulTransB(a, b, &got, &pack);
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(expected.data()[i], got.data()[i], 1e-5);
  }
}

TEST(MatrixTest, SoftmaxSliceNormalizes) {
  Matrix logits(2, 5, 1.0f);
  logits.at(0, 2) = 3.0f;
  SoftmaxSlice(&logits, 1, 4);
  for (size_t r = 0; r < 2; ++r) {
    float sum = 0.0f;
    for (size_t c = 1; c < 4; ++c) sum += logits.at(r, c);
    EXPECT_NEAR(sum, 1.0f, 1e-5);
  }
  EXPECT_GT(logits.at(0, 2), logits.at(0, 1));
  // Columns outside the slice are untouched.
  EXPECT_FLOAT_EQ(logits.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(logits.at(0, 4), 1.0f);
}

// Numeric gradient check for Dense: loss = sum(y^2)/2, dL/dy = y.
TEST(DenseTest, GradientCheck) {
  Rng rng(2);
  Dense layer(4, 3, rng);
  Matrix x(5, 4);
  for (size_t i = 0; i < x.size(); ++i) {
    x.data()[i] = static_cast<float>(rng.NextGaussian());
  }
  Matrix y;
  layer.Forward(x, &y);
  Matrix dy = y;  // dL/dy = y for L = 0.5*sum(y^2)
  Matrix dx;
  layer.Backward(dy, &dx);

  std::vector<Param*> params;
  layer.CollectParams(&params);
  const double eps = 1e-3;
  for (Param* p : params) {
    for (size_t k = 0; k < std::min<size_t>(p->value.size(), 6); ++k) {
      const float orig = p->value.data()[k];
      auto loss_at = [&](float v) {
        p->value.data()[k] = v;
        Matrix out;
        layer.Forward(x, &out);
        double loss = 0.0;
        for (size_t i = 0; i < out.size(); ++i) {
          loss += 0.5 * out.data()[i] * out.data()[i];
        }
        return loss;
      };
      const double numeric =
          (loss_at(orig + static_cast<float>(eps)) -
           loss_at(orig - static_cast<float>(eps))) /
          (2 * eps);
      p->value.data()[k] = orig;
      EXPECT_NEAR(numeric, p->grad.data()[k], 2e-2)
          << "param element " << k;
    }
  }
  // Input gradient check.
  for (size_t k = 0; k < 6; ++k) {
    const float orig = x.data()[k];
    auto loss_at = [&](float v) {
      x.data()[k] = v;
      Matrix out;
      layer.Forward(x, &out);
      double loss = 0.0;
      for (size_t i = 0; i < out.size(); ++i) {
        loss += 0.5 * out.data()[i] * out.data()[i];
      }
      return loss;
    };
    const double numeric = (loss_at(orig + static_cast<float>(eps)) -
                            loss_at(orig - static_cast<float>(eps))) /
                           (2 * eps);
    x.data()[k] = orig;
    EXPECT_NEAR(numeric, dx.data()[k], 2e-2) << "input element " << k;
  }
}

TEST(MaskedDenseTest, MaskZeroesConnections) {
  Rng rng(3);
  Matrix mask(3, 2);
  mask.at(0, 0) = 1.0f;
  mask.at(1, 1) = 1.0f;  // input 2 disconnected entirely
  MaskedDense layer(mask, rng);
  Matrix x(1, 3);
  x.at(0, 0) = 1.0f;
  x.at(0, 1) = 2.0f;
  x.at(0, 2) = 100.0f;
  Matrix y1;
  layer.Forward(x, &y1);
  x.at(0, 2) = -100.0f;  // changing a masked input must not change outputs
  Matrix y2;
  layer.Forward(x, &y2);
  EXPECT_FLOAT_EQ(y1.at(0, 0), y2.at(0, 0));
  EXPECT_FLOAT_EQ(y1.at(0, 1), y2.at(0, 1));
}

TEST(EmbeddingTest, ForwardLooksUpRowsAndBackwardScatters) {
  Rng rng(4);
  EmbeddingSet embed({3, 2}, 4, rng);
  IntMatrix codes(2, 2);
  codes.at(0, 0) = 1;
  codes.at(0, 1) = 0;
  codes.at(1, 0) = 2;
  codes.at(1, 1) = 1;
  Matrix out;
  embed.Forward(codes, &out);
  EXPECT_EQ(out.rows(), 2u);
  EXPECT_EQ(out.cols(), 8u);

  Matrix dout(2, 8, 1.0f);
  embed.Backward(dout);
  std::vector<Param*> params;
  embed.CollectParams(&params);
  // Code 1 of attr 0 was used once -> its grad row is all ones.
  for (size_t k = 0; k < 4; ++k) {
    EXPECT_FLOAT_EQ(params[0]->grad.at(1, k), 1.0f);
    EXPECT_FLOAT_EQ(params[0]->grad.at(0, k), 0.0f);
  }
}

TEST(AdamTest, ConvergesOnQuadratic) {
  // Minimize (w - 3)^2 via Adam.
  Param w;
  w.Init(1, 1);
  w.value.at(0, 0) = 0.0f;
  AdamOptions opts;
  opts.learning_rate = 0.1f;
  AdamOptimizer adam({&w}, opts);
  for (int i = 0; i < 300; ++i) {
    w.grad.at(0, 0) = 2.0f * (w.value.at(0, 0) - 3.0f);
    adam.Step();
  }
  EXPECT_NEAR(w.value.at(0, 0), 3.0f, 0.05f);
}

MadeConfig SmallMadeConfig(size_t context_dim = 0) {
  MadeConfig config;
  config.vocab_sizes = {3, 4, 2};
  config.embed_dim = 4;
  config.hidden_dim = 16;
  config.num_layers = 2;
  config.context_dim = context_dim;
  return config;
}

TEST(MadeTest, AutoregressivePropertyHolds) {
  Rng rng(5);
  MadeModel made(SmallMadeConfig(), rng);
  IntMatrix codes(1, 3);
  codes.at(0, 0) = 1;
  codes.at(0, 1) = 2;
  codes.at(0, 2) = 0;
  Matrix logits1;
  made.Forward(codes, Matrix(), &logits1);
  // Changing attribute 2 must not affect the logits of attributes 0 and 1.
  codes.at(0, 2) = 1;
  Matrix logits2;
  made.Forward(codes, Matrix(), &logits2);
  for (size_t c = 0; c < made.attr_offset(2); ++c) {
    EXPECT_FLOAT_EQ(logits1.at(0, c), logits2.at(0, c)) << "col " << c;
  }
  // Changing attribute 1 must not affect attribute 0's logits but is allowed
  // to affect attribute 2's.
  codes.at(0, 1) = 0;
  Matrix logits3;
  made.Forward(codes, Matrix(), &logits3);
  for (size_t c = 0; c < made.attr_offset(1); ++c) {
    EXPECT_FLOAT_EQ(logits2.at(0, c), logits3.at(0, c)) << "col " << c;
  }
}

TEST(MadeTest, FirstAttributeDependsOnlyOnContext) {
  Rng rng(6);
  MadeModel made(SmallMadeConfig(), rng);
  IntMatrix codes(1, 3, 0);
  Matrix logits1;
  made.Forward(codes, Matrix(), &logits1);
  codes.at(0, 0) = 2;  // its own value must not influence its own logits
  Matrix logits2;
  made.Forward(codes, Matrix(), &logits2);
  for (size_t c = 0; c < made.attr_offset(1); ++c) {
    EXPECT_FLOAT_EQ(logits1.at(0, c), logits2.at(0, c));
  }
}

// Loss weights of a [rows x 3] SmallMadeConfig batch for the gradient
// checks: all ones, or the mix PathModel::BuildTrainingData produces — 0
// for a NULL cell or an unobserved tuple factor, 1/multiplicity for the
// tuple factor (here the last attribute) of a parent its children repeat.
Matrix GradientCheckWeights(size_t rows, bool mixed) {
  Matrix weights(rows, 3, 1.0f);
  if (!mixed) return weights;
  weights.at(1, 0) = 0.0f;
  for (size_t r = 0; r < rows; ++r) {
    weights.at(r, 2) =
        r % 3 == 0 ? 0.0f : 1.0f / static_cast<float>(r % 3 + 1);
  }
  return weights;
}

TEST(MadeTest, GradientCheckOnNll) {
  Rng rng(7);
  MadeModel made(SmallMadeConfig(), rng);
  IntMatrix codes(4, 3);
  for (size_t r = 0; r < 4; ++r) {
    codes.at(r, 0) = static_cast<int32_t>(rng.NextUint64(3));
    codes.at(r, 1) = static_cast<int32_t>(rng.NextUint64(4));
    codes.at(r, 2) = static_cast<int32_t>(rng.NextUint64(2));
  }
  std::vector<Param*> params;
  made.CollectParams(&params);
  for (const bool mixed : {false, true}) {
    SCOPED_TRACE(mixed ? "mixed weights" : "all ones");
    const Matrix weights = GradientCheckWeights(codes.rows(), mixed);
    for (Param* p : params) p->ZeroGrad();
    Matrix logits;
    made.Forward(codes, Matrix(), &logits);
    Matrix dlogits;
    made.NllLossWeighted(logits, codes, 0, weights, &dlogits);
    made.Backward(dlogits, nullptr);

    const double eps = 1e-2;
    size_t checked = 0;
    for (Param* p : params) {
      for (size_t k = 0; k < p->value.size() && checked < 40; k += 7) {
        const float orig = p->value.data()[k];
        auto loss_at = [&](float v) {
          p->value.data()[k] = v;
          Matrix out;
          made.Forward(codes, Matrix(), &out);
          return static_cast<double>(
              made.NllLossWeighted(out, codes, 0, weights, nullptr));
        };
        const double numeric = (loss_at(orig + static_cast<float>(eps)) -
                                loss_at(orig - static_cast<float>(eps))) /
                               (2 * eps);
        p->value.data()[k] = orig;
        EXPECT_NEAR(numeric, p->grad.data()[k], 5e-2)
            << "param size " << p->value.size() << " elem " << k;
        ++checked;
      }
    }
    EXPECT_GT(checked, 20u);
  }
}

TEST(MadeTest, ContextGradientCheck) {
  Rng rng(8);
  MadeModel made(SmallMadeConfig(/*context_dim=*/5), rng);
  IntMatrix codes(3, 3, 0);
  Matrix context(3, 5);
  for (size_t i = 0; i < context.size(); ++i) {
    context.data()[i] = static_cast<float>(rng.NextGaussian());
  }
  for (const bool mixed : {false, true}) {
    SCOPED_TRACE(mixed ? "mixed weights" : "all ones");
    const Matrix weights = GradientCheckWeights(codes.rows(), mixed);
    Matrix logits;
    made.Forward(codes, context, &logits);
    Matrix dlogits;
    made.NllLossWeighted(logits, codes, 0, weights, &dlogits);
    Matrix dcontext;
    made.Backward(dlogits, &dcontext);

    const double eps = 1e-2;
    for (size_t k = 0; k < 10; ++k) {
      const float orig = context.data()[k];
      auto loss_at = [&](float v) {
        context.data()[k] = v;
        Matrix out;
        made.Forward(codes, context, &out);
        return static_cast<double>(
            made.NllLossWeighted(out, codes, 0, weights, nullptr));
      };
      const double numeric = (loss_at(orig + static_cast<float>(eps)) -
                              loss_at(orig - static_cast<float>(eps))) /
                             (2 * eps);
      context.data()[k] = orig;
      EXPECT_NEAR(numeric, dcontext.data()[k], 5e-2);
    }
  }
}

TEST(MadeTest, LearnsDeterministicDependency) {
  // attr1 = attr0 % 2 deterministically; after training the conditional
  // distribution must concentrate on the right value.
  Rng rng(9);
  MadeConfig config;
  config.vocab_sizes = {4, 2};
  config.embed_dim = 4;
  config.hidden_dim = 24;
  config.num_layers = 2;
  MadeModel made(config, rng);
  std::vector<Param*> params;
  made.CollectParams(&params);
  AdamOptions opts;
  opts.learning_rate = 5e-3f;
  AdamOptimizer adam(params, opts);

  IntMatrix batch(64, 2);
  const Matrix ones(64, 2, 1.0f);
  for (int step = 0; step < 250; ++step) {
    for (size_t r = 0; r < 64; ++r) {
      const int32_t a = static_cast<int32_t>(rng.NextUint64(4));
      batch.at(r, 0) = a;
      batch.at(r, 1) = a % 2;
    }
    Matrix logits;
    made.Forward(batch, Matrix(), &logits);
    Matrix dlogits;
    made.NllLossWeighted(logits, batch, 0, ones, &dlogits);
    made.Backward(dlogits, nullptr);
    adam.Step();
  }
  IntMatrix query(4, 2, 0);
  for (size_t r = 0; r < 4; ++r) query.at(r, 0) = static_cast<int32_t>(r);
  made.FinalizeForInference();
  MadeScratch scratch;
  Matrix probs;
  made.PredictDistribution(query, Matrix(), 1, &probs, &scratch);
  for (size_t r = 0; r < 4; ++r) {
    EXPECT_GT(probs.at(r, r % 2), 0.85f) << "a=" << r;
  }
}

TEST(MadeTest, SampleRangeRespectsConditioning) {
  Rng rng(10);
  MadeConfig config;
  config.vocab_sizes = {4, 2};
  config.embed_dim = 4;
  config.hidden_dim = 24;
  config.num_layers = 2;
  MadeModel made(config, rng);
  std::vector<Param*> params;
  made.CollectParams(&params);
  AdamOptimizer adam(params, AdamOptions{.learning_rate = 5e-3f});
  IntMatrix batch(64, 2);
  const Matrix ones(64, 2, 1.0f);
  for (int step = 0; step < 250; ++step) {
    for (size_t r = 0; r < 64; ++r) {
      const int32_t a = static_cast<int32_t>(rng.NextUint64(4));
      batch.at(r, 0) = a;
      batch.at(r, 1) = a % 2;
    }
    Matrix logits;
    made.Forward(batch, Matrix(), &logits);
    Matrix dlogits;
    made.NllLossWeighted(logits, batch, 0, ones, &dlogits);
    made.Backward(dlogits, nullptr);
    adam.Step();
  }
  // Conditional sampling should respect the deterministic dependency.
  IntMatrix codes(200, 2, 0);
  for (size_t r = 0; r < 200; ++r) {
    codes.at(r, 0) = static_cast<int32_t>(r % 4);
  }
  made.FinalizeForInference();
  MadeScratch scratch;
  made.SampleRange(&codes, Matrix(), 1, 2, rng, /*record_attr=*/-1,
                   /*recorded=*/nullptr, &scratch);
  size_t correct = 0;
  for (size_t r = 0; r < 200; ++r) {
    if (codes.at(r, 1) == codes.at(r, 0) % 2) ++correct;
  }
  EXPECT_GT(correct, 170u);
}

// The reference sampling algorithm: a FULL training forward pass per
// attribute (every hidden unit, every logit, all inputs with their masked
// weights), then the softmax / inverse-CDF pick over that attribute's logit
// slice (normalize-then-accumulate, stored values). The production
// SampleRange computes each hidden unit once per call and only the active
// logit block, skipping masked inputs — it must stay BIT-identical to this.
void ReferenceFullGemmSampleRange(MadeModel& made, IntMatrix* codes,
                                  const Matrix& context, size_t first_attr,
                                  size_t end_attr, Rng& rng, int record_attr,
                                  Matrix* recorded) {
  const size_t batch = codes->rows();
  Matrix logits;
  std::vector<double> u(batch);
  for (size_t a = first_attr; a < end_attr; ++a) {
    made.Forward(*codes, context, &logits);
    const size_t begin = made.attr_offset(a);
    const size_t vocab = static_cast<size_t>(made.vocab_size(a));
    const bool record = record_attr >= 0 &&
                        static_cast<size_t>(record_attr) == a &&
                        recorded != nullptr;
    if (record) recorded->Resize(batch, vocab);
    for (size_t r = 0; r < batch; ++r) u[r] = rng.NextDouble();
    for (size_t r = 0; r < batch; ++r) {
      float* probs = logits.row(r) + begin;
      float max_v = probs[0];
      for (size_t c = 0; c < vocab; ++c) max_v = std::max(max_v, probs[c]);
      float sum = 0.0f;
      for (size_t c = 0; c < vocab; ++c) {
        probs[c] = std::exp(probs[c] - max_v);
        sum += probs[c];
      }
      const float inv = 1.0f / sum;
      for (size_t c = 0; c < vocab; ++c) probs[c] *= inv;
      if (record) {
        float* dst = recorded->row(r);
        for (size_t c = 0; c < vocab; ++c) dst[c] = probs[c];
      }
      const double uu = u[r];
      double acc = 0.0;
      int32_t pick = static_cast<int32_t>(vocab) - 1;
      for (size_t c = 0; c < vocab; ++c) {
        acc += probs[c];
        if (uu < acc) {
          pick = static_cast<int32_t>(c);
          break;
        }
      }
      codes->at(r, a) = pick;
    }
  }
}

uint32_t Bits(float v) {
  uint32_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

// Every column holds a random valid code: the columns a call must not read
// (from `end` on, and the targets before they are sampled) hold garbage.
IntMatrix RandomCodes(const MadeConfig& config, size_t batch, Rng& rng) {
  IntMatrix codes(batch, config.vocab_sizes.size());
  for (size_t r = 0; r < batch; ++r) {
    for (size_t a = 0; a < config.vocab_sizes.size(); ++a) {
      codes.at(r, a) = static_cast<int32_t>(
          rng.NextUint64(static_cast<uint64_t>(config.vocab_sizes[a])));
    }
  }
  return codes;
}

// The acceptance pin of the sampling path: on frozen weights SampleRange
// (degree-incremental unit-major trunk, one logit block per attribute) and
// PredictDistribution must reproduce the full-GEMM reference bit for bit:
// sampled codes, recorded distribution, rng consumption, and the predicted
// distribution of every attribute. The ranges include mid ranges
// [first, end), the SynthesizeHop shape, where the codes from `end` on are
// garbage. The shapes hit the edges of the degree bookkeeping (D = 1 reads
// no hidden unit, D = 2 has one degree, hidden 8 < D-1 = 12 leaves degrees
// without units, hidden 24 at D = 8 gives 3 or 4 units per degree) and
// mixed logit-block widths (odd ones, since the kernel pairs outputs, and a
// wide one whose copy to row-major spans many cache lines), 1 to 3 layers
// with and without context, and batches that cross the kernel's 8- and
// 32-row lanes and the 128-row block. One scratch per model serves batches
// that grow and shrink, so stale arena contents would show.
TEST(MadeTest, SlicedSampleRangeBitIdenticalToFullGemmPath) {
  struct Shape {
    std::vector<int> vocab;
    size_t embed;
    size_t hidden;
    size_t context;  // width of the context-conditioned variant
  };
  const Shape shapes[] = {
      {{6}, 3, 16, 5},
      {{5, 9}, 3, 16, 5},
      {{7, 3, 12, 5, 9}, 3, 24, 5},
      {{7, 33, 150, 5, 20}, 6, 48, 9},
      {{4, 9, 3, 17, 6, 2, 11, 8, 5, 13, 3, 7, 10}, 3, 8, 5},
      {{12, 12, 12, 12, 12, 12, 12, 12}, 3, 24, 5}};
  const size_t batches[] = {300, 1, 129, 7, 33, 8, 31, 96};
  uint64_t seed = 1000;
  for (const Shape& shape : shapes) {
    for (const size_t layers : {size_t{1}, size_t{2}, size_t{3}}) {
      for (const bool with_context : {false, true}) {
        MadeConfig config;
        config.vocab_sizes = shape.vocab;
        config.embed_dim = shape.embed;
        config.hidden_dim = shape.hidden;
        config.num_layers = layers;
        config.context_dim = with_context ? shape.context : 0;
        Rng rng(++seed);
        MadeModel made(config, rng);
        made.FinalizeForInference();
        const size_t d = config.vocab_sizes.size();
        const std::pair<size_t, size_t> ranges[] = {
            {0, d}, {d / 3, d / 3 + std::max<size_t>(1, d / 3)}, {d - 1, d}};
        MadeScratch scratch;
        for (const size_t batch : batches) {
          Matrix context(with_context ? batch : 0, config.context_dim);
          for (size_t i = 0; i < context.size(); ++i) {
            context.data()[i] = static_cast<float>(rng.NextGaussian());
          }
          for (const auto& [first, end] : ranges) {
            const std::string where =
                "D=" + std::to_string(d) + " layers=" +
                std::to_string(layers) + " context=" +
                std::to_string(with_context) + " batch=" +
                std::to_string(batch) + " range=[" + std::to_string(first) +
                "," + std::to_string(end) + ")";
            const IntMatrix base = RandomCodes(config, batch, rng);
            const int record = static_cast<int>(first + (end - first) / 2);
            IntMatrix got = base;
            IntMatrix want = base;
            Matrix got_rec, want_rec;
            Rng rng_got(seed * 31 + batch), rng_want(seed * 31 + batch);
            made.SampleRange(&got, context, first, end, rng_got, record,
                             &got_rec, &scratch);
            ReferenceFullGemmSampleRange(made, &want, context, first, end,
                                         rng_want, record, &want_rec);
            ASSERT_EQ(rng_got.NextUint64(), rng_want.NextUint64()) << where;
            for (size_t r = 0; r < batch; ++r) {
              for (size_t a = 0; a < d; ++a) {
                ASSERT_EQ(got.at(r, a), want.at(r, a))
                    << where << " code (" << r << "," << a << ")";
              }
            }
            ASSERT_EQ(got_rec.rows(), want_rec.rows()) << where;
            ASSERT_EQ(got_rec.cols(), want_rec.cols()) << where;
            for (size_t i = 0; i < got_rec.size(); ++i) {
              ASSERT_EQ(Bits(got_rec.data()[i]), Bits(want_rec.data()[i]))
                  << where << " recorded prob " << i;
            }
            // New garbage in the columns the call must not read: the
            // targets before sampling and everything from `end` on.
            IntMatrix regarbled = RandomCodes(config, batch, rng);
            for (size_t r = 0; r < batch; ++r) {
              for (size_t a = 0; a < first; ++a) {
                regarbled.at(r, a) = base.at(r, a);
              }
            }
            Rng rng_again(seed * 31 + batch);
            Matrix again_rec;
            made.SampleRange(&regarbled, context, first, end, rng_again,
                             record, &again_rec, &scratch);
            for (size_t r = 0; r < batch; ++r) {
              for (size_t a = first; a < end; ++a) {
                ASSERT_EQ(regarbled.at(r, a), got.at(r, a))
                    << where << " garbage-dependent code (" << r << "," << a
                    << ")";
              }
            }
          }
          const IntMatrix codes = RandomCodes(config, batch, rng);
          Matrix logits;
          made.Forward(codes, context, &logits);
          for (size_t attr = 0; attr < d; ++attr) {
            Matrix probs;
            made.PredictDistribution(codes, context, attr, &probs, &scratch);
            Matrix want = logits;
            SoftmaxSlice(&want, made.attr_offset(attr),
                         made.attr_offset(attr + 1));
            ASSERT_EQ(probs.rows(), batch);
            for (size_t r = 0; r < batch; ++r) {
              for (size_t c = 0; c < probs.cols(); ++c) {
                ASSERT_EQ(Bits(probs.at(r, c)),
                          Bits(want.at(r, made.attr_offset(attr) + c)))
                    << "PredictDistribution D=" << d << " layers=" << layers
                    << " context=" << with_context << " batch=" << batch
                    << " attr " << attr << " (" << r << "," << c << ")";
              }
            }
          }
        }
      }
    }
  }
}

TEST(DeepSetsTest, PermutationInvariantAndEmptySetIsZeroInput) {
  Rng rng(11);
  DeepSetsEncoder enc({DeepSetsEncoder::TableSpec{{3, 4}}}, 4, 8, 6, rng);
  ChildBatch cb;
  cb.codes = IntMatrix(3, 2);
  cb.codes.at(0, 0) = 1;
  cb.codes.at(0, 1) = 2;
  cb.codes.at(1, 0) = 2;
  cb.codes.at(1, 1) = 0;
  cb.codes.at(2, 0) = 0;
  cb.codes.at(2, 1) = 3;
  cb.offsets = {0, 3};
  Matrix ctx1;
  enc.Forward({cb}, &ctx1);

  // Permute the children of the single evidence row.
  ChildBatch cb2;
  cb2.codes = IntMatrix(3, 2);
  for (size_t c = 0; c < 2; ++c) {
    cb2.codes.at(0, c) = cb.codes.at(2, c);
    cb2.codes.at(1, c) = cb.codes.at(0, c);
    cb2.codes.at(2, c) = cb.codes.at(1, c);
  }
  cb2.offsets = {0, 3};
  Matrix ctx2;
  enc.Forward({cb2}, &ctx2);
  for (size_t i = 0; i < ctx1.size(); ++i) {
    EXPECT_NEAR(ctx1.data()[i], ctx2.data()[i], 1e-5);
  }
}

TEST(DeepSetsTest, GradientCheckThroughEncoder) {
  Rng rng(12);
  DeepSetsEncoder enc({DeepSetsEncoder::TableSpec{{3}}}, 3, 6, 4, rng);
  ChildBatch cb;
  cb.codes = IntMatrix(4, 1);
  cb.codes.at(0, 0) = 0;
  cb.codes.at(1, 0) = 1;
  cb.codes.at(2, 0) = 2;
  cb.codes.at(3, 0) = 1;
  cb.offsets = {0, 2, 4};  // two evidence rows, two children each
  Matrix ctx;
  enc.Forward({cb}, &ctx);
  Matrix dctx = ctx;  // L = 0.5*sum(ctx^2)
  enc.Backward(dctx);

  std::vector<Param*> params;
  enc.CollectParams(&params);
  const double eps = 1e-2;
  size_t checked = 0;
  for (Param* p : params) {
    for (size_t k = 0; k < p->value.size() && checked < 20; k += 5) {
      const float orig = p->value.data()[k];
      auto loss_at = [&](float v) {
        p->value.data()[k] = v;
        Matrix out;
        enc.Forward({cb}, &out);
        double loss = 0.0;
        for (size_t i = 0; i < out.size(); ++i) {
          loss += 0.5 * out.data()[i] * out.data()[i];
        }
        return loss;
      };
      const double numeric = (loss_at(orig + static_cast<float>(eps)) -
                              loss_at(orig - static_cast<float>(eps))) /
                             (2 * eps);
      p->value.data()[k] = orig;
      EXPECT_NEAR(numeric, p->grad.data()[k], 6e-2);
      ++checked;
    }
  }
  EXPECT_GT(checked, 10u);
}

// Property sweep: the autoregressive property must hold for a variety of
// attribute counts and vocabulary shapes.
class MadeMaskPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MadeMaskPropertyTest, NoForwardLeakage) {
  const int n_attrs = GetParam();
  Rng rng(100 + static_cast<uint64_t>(n_attrs));
  MadeConfig config;
  for (int i = 0; i < n_attrs; ++i) {
    config.vocab_sizes.push_back(2 + (i % 4));
  }
  config.embed_dim = 3;
  config.hidden_dim = 19;  // deliberately not divisible by n_attrs
  config.num_layers = 3;
  MadeModel made(config, rng);
  IntMatrix codes(1, static_cast<size_t>(n_attrs), 0);
  Matrix base;
  made.Forward(codes, Matrix(), &base);
  for (int changed = 0; changed < n_attrs; ++changed) {
    IntMatrix mutated = codes;
    mutated.at(0, static_cast<size_t>(changed)) =
        config.vocab_sizes[static_cast<size_t>(changed)] - 1;
    Matrix out;
    made.Forward(mutated, Matrix(), &out);
    // Attributes <= changed must be unaffected.
    for (int a = 0; a <= changed; ++a) {
      for (size_t c = made.attr_offset(static_cast<size_t>(a));
           c < made.attr_offset(static_cast<size_t>(a) + 1); ++c) {
        ASSERT_FLOAT_EQ(base.at(0, c), out.at(0, c))
            << "attr " << a << " leaked from attr " << changed;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AttrCounts, MadeMaskPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 12));

}  // namespace
}  // namespace restore
