#include "nn/made.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/thread_pool.h"

namespace restore {

namespace {

// Gradient of logits is scaled by 1/batch so the loss is a per-row mean.
// Rows are sharded across the thread pool; each shard accumulates its own
// partial loss, and partials are reduced in shard order afterwards.
void SoftmaxCrossEntropySlice(const Matrix& logits, const IntMatrix& targets,
                              size_t attr, size_t begin, size_t end,
                              float inv_batch, float* loss_out,
                              Matrix* dlogits) {
  const size_t batch = logits.rows();
  const size_t grain = LossRowGrain(end - begin);
  const size_t shards = batch == 0 ? 0 : (batch + grain - 1) / grain;
  std::vector<float> partial(shards, 0.0f);
  ParallelFor(0, batch, grain, [&](size_t lo, size_t hi) {
    float loss = 0.0f;
    for (size_t r = lo; r < hi; ++r) {
      const float* row = logits.row(r);
      float max_v = row[begin];
      for (size_t c = begin; c < end; ++c) max_v = std::max(max_v, row[c]);
      float sum = 0.0f;
      for (size_t c = begin; c < end; ++c) sum += std::exp(row[c] - max_v);
      const float log_sum = std::log(sum) + max_v;
      const size_t target = begin + static_cast<size_t>(targets.at(r, attr));
      assert(target < end);
      loss += log_sum - row[target];
      if (dlogits != nullptr) {
        float* drow = dlogits->row(r);
        for (size_t c = begin; c < end; ++c) {
          const float p = std::exp(row[c] - log_sum);
          drow[c] = p * inv_batch;
        }
        drow[target] -= inv_batch;
      }
    }
    partial[lo / grain] = loss;
  });
  float loss = 0.0f;
  for (float p : partial) loss += p;
  *loss_out = loss * inv_batch;
}

}  // namespace

MadeModel::MadeModel(MadeConfig config, Rng& rng)
    : config_(std::move(config)) {
  assert(!config_.vocab_sizes.empty());
  assert(config_.num_layers >= 1);
  offsets_.resize(num_attrs() + 1, 0);
  for (size_t i = 0; i < num_attrs(); ++i) {
    offsets_[i + 1] = offsets_[i] + static_cast<size_t>(vocab_size(i));
  }
  embed_ = EmbeddingSet(config_.vocab_sizes, config_.embed_dim, rng);
  has_context_ = config_.context_dim > 0;

  hidden_.reserve(config_.num_layers);
  for (size_t l = 0; l < config_.num_layers; ++l) {
    hidden_.emplace_back(l == 0 ? BuildInputMask() : BuildHiddenMask(), rng);
    if (has_context_) {
      ctx_hidden_.emplace_back(config_.context_dim, config_.hidden_dim, rng);
    }
  }
  out_ = MaskedDense(BuildOutputMask(), rng);
  if (has_context_) {
    ctx_out_ = Dense(config_.context_dim, total_vocab(), rng);
  }
}

int MadeModel::HiddenDegree(size_t unit) const {
  const size_t n = num_attrs();
  if (n <= 1) return 0;
  return static_cast<int>(unit % (n - 1));
}

Matrix MadeModel::BuildInputMask() const {
  // Input unit (attr i, embed slot) -> hidden unit: allowed if
  // hidden_degree >= i.
  Matrix mask(embed_.output_dim(), config_.hidden_dim);
  for (size_t a = 0; a < num_attrs(); ++a) {
    for (size_t e = 0; e < config_.embed_dim; ++e) {
      const size_t in_unit = a * config_.embed_dim + e;
      for (size_t h = 0; h < config_.hidden_dim; ++h) {
        if (HiddenDegree(h) >= static_cast<int>(a)) {
          mask.at(in_unit, h) = 1.0f;
        }
      }
    }
  }
  return mask;
}

Matrix MadeModel::BuildHiddenMask() const {
  Matrix mask(config_.hidden_dim, config_.hidden_dim);
  for (size_t from = 0; from < config_.hidden_dim; ++from) {
    for (size_t to = 0; to < config_.hidden_dim; ++to) {
      if (HiddenDegree(to) >= HiddenDegree(from)) mask.at(from, to) = 1.0f;
    }
  }
  return mask;
}

Matrix MadeModel::BuildOutputMask() const {
  // Hidden unit -> output block of attr i: allowed if degree < i.
  Matrix mask(config_.hidden_dim, total_vocab());
  for (size_t h = 0; h < config_.hidden_dim; ++h) {
    const int deg = HiddenDegree(h);
    for (size_t a = 0; a < num_attrs(); ++a) {
      if (deg < static_cast<int>(a)) {
        for (size_t c = offsets_[a]; c < offsets_[a + 1]; ++c) {
          mask.at(h, c) = 1.0f;
        }
      }
    }
  }
  return mask;
}

void MadeModel::Forward(const IntMatrix& codes, const Matrix& context,
                        Matrix* logits, bool for_backward) {
  assert(codes.cols() == num_attrs());
  assert(!has_context_ || (context.rows() == codes.rows() &&
                           context.cols() == config_.context_dim));
  embed_.Forward(codes, &x0_, for_backward);
  if (relu_.size() != config_.num_layers) {
    relu_.assign(config_.num_layers, Matrix());
    h_.assign(config_.num_layers, Matrix());
  }

  const Matrix* prev = &x0_;
  for (size_t l = 0; l < config_.num_layers; ++l) {
    Matrix& z = relu_[l];  // activation buffers persist across calls
    hidden_[l].Forward(*prev, &z, for_backward);
    if (has_context_) {
      ctx_hidden_[l].Forward(context, &ctx_scratch_, for_backward);
      AddInPlace(ctx_scratch_, &z);
    }
    ReluInPlace(&z);
    if (l == 0) {
      // No residual into the first layer: its post-activation IS relu_[0].
      prev = &relu_[0];
    } else {
      // Residual connection (same width, same degree assignment per layer).
      h_[l] = relu_[l];
      AddInPlace(l == 1 ? relu_[0] : h_[l - 1], &h_[l]);
      prev = &h_[l];
    }
  }
  out_.Forward(*prev, logits, for_backward);
  if (has_context_) {
    ctx_out_.Forward(context, &ctx_out_scratch_, for_backward);
    AddInPlace(ctx_out_scratch_, logits);
  }
}

const Matrix* MadeModel::ForwardTrunk(const IntMatrix& codes,
                                      const Matrix& context,
                                      MadeScratch* scratch,
                                      int changed_attr) const {
  assert(codes.cols() == num_attrs());
  assert(!has_context_ || (context.rows() == codes.rows() &&
                           context.cols() == config_.context_dim));
  if (changed_attr >= 0 && scratch->x0.rows() == codes.rows() &&
      scratch->x0.cols() == embed_.output_dim()) {
    // Within one SampleRange loop only the just-sampled attribute's column
    // changed, so only its embedding block needs re-gathering — a pure copy,
    // byte-identical to the full gather.
    embed_.ForwardInferenceColumn(codes, static_cast<size_t>(changed_attr),
                                  &scratch->x0);
  } else {
    embed_.ForwardInference(codes, &scratch->x0);
  }
  if (scratch->relu.size() != config_.num_layers) {
    scratch->relu.assign(config_.num_layers, Matrix());
    scratch->h.assign(config_.num_layers, Matrix());
  }
  const Matrix* prev = &scratch->x0;
  for (size_t l = 0; l < config_.num_layers; ++l) {
    if (!has_context_) {
      // Fused epilogue: relu(gemm + bias) [+ residual] applied in the
      // kernel's store phase — bit-identical to the separate passes below
      // (see MatMulFused), minus three activation sweeps per layer. The
      // residual of layer l is its own input, so `prev` doubles as both.
      if (l == 0) {
        hidden_[0].ForwardInferenceFused(*prev, /*relu=*/true,
                                         /*residual=*/nullptr,
                                         &scratch->relu[0]);
        prev = &scratch->relu[0];
      } else {
        hidden_[l].ForwardInferenceFused(*prev, /*relu=*/true,
                                         /*residual=*/prev, &scratch->h[l]);
        prev = &scratch->h[l];
      }
      continue;
    }
    // Conditional models interleave the context projection between the GEMM
    // and the relu, so the epilogue cannot fuse past the bias; keep the
    // original op sequence.
    Matrix& z = scratch->relu[l];
    hidden_[l].ForwardInference(*prev, &z);
    ctx_hidden_[l].ForwardInference(context, &scratch->ctx);
    AddInPlace(scratch->ctx, &z);
    ReluInPlace(&z);
    if (l == 0) {
      prev = &scratch->relu[0];
    } else {
      scratch->h[l] = scratch->relu[l];
      AddInPlace(l == 1 ? scratch->relu[0] : scratch->h[l - 1],
                 &scratch->h[l]);
      prev = &scratch->h[l];
    }
  }
  return prev;
}

// Mirrors the training Forward op for op (same kernels over the same masked
// weights, so logits are bit-identical), but every buffer it writes lives in
// `scratch` and every layer call is the const inference path.
void MadeModel::Forward(const IntMatrix& codes, const Matrix& context,
                        Matrix* logits, MadeScratch* scratch) const {
  const Matrix* prev = ForwardTrunk(codes, context, scratch);
  out_.ForwardInference(*prev, logits);
  if (has_context_) {
    ctx_out_.ForwardInference(context, &scratch->ctx_out);
    AddInPlace(scratch->ctx_out, logits);
  }
}

// The sampling fast path: the hidden trunk runs in full (its activations
// feed every later attribute), but the output layer computes only the
// active attribute's logit block, plus the context projection's slice —
// column-sliced kernels over the same frozen weights produce bit-identical
// values (see MatMulColsSlice), so this IS the default and the determinism
// suites keep pinning it.
void MadeModel::ForwardLogitsSlice(const IntMatrix& codes,
                                   const Matrix& context, size_t attr,
                                   int changed_attr, Matrix* logits,
                                   MadeScratch* scratch) const {
  const Matrix* prev = ForwardTrunk(codes, context, scratch, changed_attr);
  const size_t begin = offsets_[attr];
  const size_t end = offsets_[attr + 1];
  out_.ForwardInferenceSlice(*prev, begin, end, logits);
  if (has_context_) {
    ctx_out_.ForwardInferenceSlice(context, begin, end, &scratch->ctx_out);
    AddInPlaceCols(scratch->ctx_out, begin, end, logits);
  }
}

void MadeModel::FinalizeForInference() {
  for (auto& layer : hidden_) layer.RefreshMaskedWeights();
  out_.RefreshMaskedWeights();
}

float MadeModel::NllLoss(const Matrix& logits, const IntMatrix& targets,
                         size_t first_attr, Matrix* dlogits) const {
  assert(logits.cols() == total_vocab());
  dlogits->Resize(logits.rows(), logits.cols());
  if (first_attr > 0) dlogits->Fill(0.0f);  // skipped blocks must be zero
  const float inv_batch = 1.0f / static_cast<float>(logits.rows());
  float total = 0.0f;
  for (size_t a = first_attr; a < num_attrs(); ++a) {
    float loss = 0.0f;
    SoftmaxCrossEntropySlice(logits, targets, a, offsets_[a], offsets_[a + 1],
                             inv_batch, &loss, dlogits);
    total += loss;
  }
  return total;
}

float MadeModel::NllLossOnly(const Matrix& logits, const IntMatrix& targets,
                             size_t first_attr) const {
  const float inv_batch = 1.0f / static_cast<float>(logits.rows());
  float total = 0.0f;
  for (size_t a = first_attr; a < num_attrs(); ++a) {
    float loss = 0.0f;
    SoftmaxCrossEntropySlice(logits, targets, a, offsets_[a], offsets_[a + 1],
                             inv_batch, &loss, nullptr);
    total += loss;
  }
  return total;
}

float MadeModel::NllLossWeighted(const Matrix& logits,
                                 const IntMatrix& targets, size_t first_attr,
                                 const Matrix& weights,
                                 Matrix* dlogits) const {
  assert(weights.rows() == logits.rows() && weights.cols() == num_attrs());
  if (dlogits != nullptr) {
    // Zero-weight cells and skipped blocks leave their gradient untouched.
    dlogits->Resize(logits.rows(), logits.cols());
    dlogits->Fill(0.0f);
  }
  const size_t batch = logits.rows();
  float total = 0.0f;
  for (size_t a = first_attr; a < num_attrs(); ++a) {
    const size_t begin = offsets_[a];
    const size_t end = offsets_[a + 1];
    float weight_sum = 0.0f;
    for (size_t r = 0; r < batch; ++r) weight_sum += weights.at(r, a);
    if (weight_sum <= 0.0f) continue;
    const float inv = 1.0f / weight_sum;
    const size_t grain = LossRowGrain(end - begin);
    const size_t shards = batch == 0 ? 0 : (batch + grain - 1) / grain;
    std::vector<float> partial(shards, 0.0f);
    ParallelFor(0, batch, grain, [&](size_t lo, size_t hi) {
      float loss = 0.0f;
      for (size_t r = lo; r < hi; ++r) {
        const float w = weights.at(r, a);
        if (w == 0.0f) continue;
        const float* row = logits.row(r);
        float max_v = row[begin];
        for (size_t c = begin; c < end; ++c) max_v = std::max(max_v, row[c]);
        float sum = 0.0f;
        for (size_t c = begin; c < end; ++c) sum += std::exp(row[c] - max_v);
        const float log_sum = std::log(sum) + max_v;
        const size_t target = begin + static_cast<size_t>(targets.at(r, a));
        assert(target < end);
        loss += w * (log_sum - row[target]);
        if (dlogits != nullptr) {
          float* drow = dlogits->row(r);
          const float scale = w * inv;
          for (size_t c = begin; c < end; ++c) {
            drow[c] = std::exp(row[c] - log_sum) * scale;
          }
          drow[target] -= scale;
        }
      }
      partial[lo / grain] = loss;
    });
    float loss = 0.0f;
    for (float p : partial) loss += p;
    total += loss * inv;
  }
  return total;
}

float MadeModel::AttrNll(const Matrix& logits, const IntMatrix& targets,
                         size_t attr) const {
  float loss = 0.0f;
  SoftmaxCrossEntropySlice(logits, targets, attr, offsets_[attr],
                           offsets_[attr + 1],
                           1.0f / static_cast<float>(logits.rows()), &loss,
                           nullptr);
  return loss;
}

void MadeModel::Backward(const Matrix& dlogits, Matrix* dcontext) {
  if (has_context_ && dcontext != nullptr) {
    dcontext->Resize(dlogits.rows(), config_.context_dim);
    dcontext->Fill(0.0f);  // accumulated into via AddInPlace below
  }
  Matrix& dh = dh_scratch_;
  out_.Backward(dlogits, &dh);
  if (has_context_) {
    ctx_out_.Backward(dlogits, &dctx_scratch_);
    if (dcontext != nullptr) AddInPlace(dctx_scratch_, dcontext);
  }
  for (size_t l = config_.num_layers; l-- > 0;) {
    // dh is the gradient wrt h_[l]. Through the ReLU branch:
    Matrix& dz = dz_scratch_;
    dz = dh;
    ReluBackward(relu_[l], &dz);
    if (has_context_) {
      ctx_hidden_[l].Backward(dz, &dctx_scratch_);
      if (dcontext != nullptr) AddInPlace(dctx_scratch_, dcontext);
    }
    if (l == 0) {
      hidden_[0].Backward(dz, &dprev_scratch_);
      embed_.Backward(dprev_scratch_);
    } else {
      hidden_[l].Backward(dz, &dprev_scratch_);
      // Residual passthrough: h_l = relu_l + h_{l-1}.
      AddInPlace(dh, &dprev_scratch_);
      std::swap(dh, dprev_scratch_);
    }
  }
}

void MadeModel::SampleRange(IntMatrix* codes, const Matrix& context,
                            size_t first_attr, size_t end_attr, Rng& rng,
                            int record_attr, Matrix* recorded,
                            MadeScratch* scratch,
                            const std::function<bool()>& should_stop) const {
  const size_t batch = codes->rows();
  Matrix& logits = scratch->logits;
  std::vector<double>& sample_u = scratch->u;
  // Column-sliced output layer, bit-identical to the full Forward (only the
  // active block of `logits` is written each attribute; the softmax below
  // never reads outside it).
  int changed_attr = -1;
  for (size_t a = first_attr; a < end_attr; ++a) {
    if (should_stop && should_stop()) return;
    ForwardLogitsSlice(*codes, context, a, changed_attr, &logits, scratch);
    changed_attr = static_cast<int>(a);
    const size_t begin = offsets_[a];
    const size_t vocab = static_cast<size_t>(vocab_size(a));
    const bool record = record_attr >= 0 &&
                        static_cast<size_t>(record_attr) == a &&
                        recorded != nullptr;
    if (record) recorded->Resize(batch, vocab);
    // Uniform draws are taken from the shared stream SEQUENTIALLY before the
    // parallel section, so the sampled codes are independent of the thread
    // count (and the rng consumption order matches the sequential version).
    sample_u.resize(batch);
    for (size_t r = 0; r < batch; ++r) sample_u[r] = rng.NextDouble();
    // Row blocks: softmax the attribute's logit slice and inverse-CDF pick,
    // each row independent.
    ParallelFor(0, batch, LossRowGrain(vocab), [&](size_t lo, size_t hi) {
      for (size_t r = lo; r < hi; ++r) {
        float* probs = logits.row(r) + begin;
        const float max_v = RowMax(probs, vocab);
        float sum = 0.0f;
        for (size_t c = 0; c < vocab; ++c) {
          probs[c] = std::exp(probs[c] - max_v);
          sum += probs[c];
        }
        const float inv = 1.0f / sum;
        const double u = sample_u[r];
        double acc = 0.0;
        int32_t pick = static_cast<int32_t>(vocab) - 1;
        if (record) {
          for (size_t c = 0; c < vocab; ++c) probs[c] *= inv;
          float* dst = recorded->row(r);
          for (size_t c = 0; c < vocab; ++c) dst[c] = probs[c];
          for (size_t c = 0; c < vocab; ++c) {
            acc += probs[c];
            if (u < acc) {
              pick = static_cast<int32_t>(c);
              break;
            }
          }
        } else {
          // Early-exit CDF over the unstored normalized terms: probs[c]*inv
          // is float-rounded before the double add, exactly like reading a
          // stored normalized value back — the pick is bit-identical, but
          // the normalize+store pass only runs when a recording needs it.
          for (size_t c = 0; c < vocab; ++c) {
            acc += static_cast<double>(probs[c] * inv);
            if (u < acc) {
              pick = static_cast<int32_t>(c);
              break;
            }
          }
        }
        codes->at(r, a) = pick;
      }
    });
  }
}

void MadeModel::PredictDistribution(const IntMatrix& codes,
                                    const Matrix& context, size_t attr,
                                    Matrix* probs,
                                    MadeScratch* scratch) const {
  Matrix& logits = scratch->logits;
  // Only this attribute's logit block is consumed, so only it is computed
  // (bit-identical to slicing a full Forward).
  ForwardLogitsSlice(codes, context, attr, /*changed_attr=*/-1, &logits,
                     scratch);
  SoftmaxSlice(&logits, offsets_[attr], offsets_[attr + 1]);
  const size_t vocab = static_cast<size_t>(vocab_size(attr));
  probs->Resize(codes.rows(), vocab);
  for (size_t r = 0; r < codes.rows(); ++r) {
    const float* src = logits.row(r) + offsets_[attr];
    float* dst = probs->row(r);
    for (size_t c = 0; c < vocab; ++c) dst[c] = src[c];
  }
}

void MadeModel::CollectParams(std::vector<Param*>* params) {
  embed_.CollectParams(params);
  for (auto& layer : hidden_) layer.CollectParams(params);
  for (auto& layer : ctx_hidden_) layer.CollectParams(params);
  out_.CollectParams(params);
  if (has_context_) ctx_out_.CollectParams(params);
}

size_t MadeModel::NumParameters() {
  std::vector<Param*> params;
  CollectParams(&params);
  size_t total = 0;
  for (Param* p : params) total += p->value.size();
  return total;
}

}  // namespace restore
