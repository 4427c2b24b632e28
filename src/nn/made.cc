#include "nn/made.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/thread_pool.h"

namespace restore {

namespace {

// Row-block grain of the inference path. A block runs every layer and the
// logit block while its unit-major slices stay cache-resident; the grain is
// shape-only, so shard boundaries never depend on the thread count.
constexpr size_t kSampleRowBlock = 128;

// Grow-only arena sizing: a call writes every element before reading it,
// so a buffer is never cleared, only extended when a larger batch arrives.
float* Reserve(std::vector<float>* buf, size_t n) {
  if (buf->size() < n) buf->resize(n);
  return buf->data();
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
                        Matrix* logits) {
  assert(codes.cols() == num_attrs());
  assert(!has_context_ || (context.rows() == codes.rows() &&
                           context.cols() == config_.context_dim));
  embed_.Forward(codes, &x0_);
  if (relu_.size() != config_.num_layers) {
    relu_.assign(config_.num_layers, Matrix());
    h_.assign(config_.num_layers, Matrix());
  }

  const Matrix* prev = &x0_;
  for (size_t l = 0; l < config_.num_layers; ++l) {
    Matrix& z = relu_[l];  // activation buffers persist across calls
    hidden_[l].Forward(*prev, &z);
    if (has_context_) {
      ctx_hidden_[l].Forward(context, &ctx_scratch_);
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
  out_.Forward(*prev, logits);
  if (has_context_) {
    ctx_out_.Forward(context, &ctx_out_scratch_);
    AddInPlace(ctx_out_scratch_, logits);
  }
}

void MadeModel::FinalizeForInference() {
  for (auto& layer : hidden_) layer.RefreshMaskedWeights();
  out_.RefreshMaskedWeights();
  // Packs output columns `cols` of `layer` into one panel: every column of
  // a panel depends on one degree (or attribute), so all share one mask
  // column and hence one list of unmasked inputs. Masked weights (±0) are
  // left out of the chain; see UnitPanel for why that is exact.
  const auto pack = [this](const MaskedDense& layer, Dense* ctx,
                           const std::vector<uint32_t>& cols,
                           PanelTable* t) {
    const Matrix& mask = layer.mask();
    const Matrix& w = layer.masked_weight();
    if (cols.empty()) return;
    for (size_t i = 0; i < mask.rows(); ++i) {
      if (mask.at(i, cols[0]) != 0.0f) {
        t->inputs.push_back(static_cast<uint32_t>(i));
      }
    }
    for (const uint32_t c : cols) {
      for (size_t i = 0; i < mask.rows(); ++i) {
        assert(mask.at(i, c) == mask.at(i, cols[0]));
      }
      for (const uint32_t i : t->inputs) t->weights.push_back(w.at(i, c));
      t->bias.push_back(layer.bias_value().at(0, c));
      if (ctx != nullptr) {
        for (size_t k = 0; k < config_.context_dim; ++k) {
          t->ctx_weights.push_back(ctx->weight().value.at(k, c));
        }
        t->ctx_bias.push_back(ctx->bias().value.at(0, c));
      }
    }
  };

  const size_t degrees = num_attrs() > 1 ? num_attrs() - 1 : 0;
  std::vector<std::vector<uint32_t>> units(degrees);
  for (size_t u = 0; u < config_.hidden_dim && degrees > 0; ++u) {
    units[static_cast<size_t>(HiddenDegree(u))].push_back(
        static_cast<uint32_t>(u));
  }
  hidden_panels_.assign(config_.num_layers, std::vector<PanelTable>(degrees));
  for (size_t l = 0; l < config_.num_layers; ++l) {
    for (size_t d = 0; d < degrees; ++d) {
      PanelTable& t = hidden_panels_[l][d];
      t.outputs = units[d];
      pack(hidden_[l], has_context_ ? &ctx_hidden_[l] : nullptr, units[d],
           &t);
    }
  }
  size_t max_rows = std::max(config_.hidden_dim, config_.context_dim);
  logit_panels_.assign(num_attrs(), PanelTable());
  for (size_t a = 0; a < num_attrs(); ++a) {
    PanelTable& t = logit_panels_[a];
    std::vector<uint32_t> cols;
    for (size_t c = offsets_[a]; c < offsets_[a + 1]; ++c) {
      t.outputs.push_back(static_cast<uint32_t>(c - offsets_[a]));
      cols.push_back(static_cast<uint32_t>(c));
    }
    pack(out_, has_context_ ? &ctx_out_ : nullptr, cols, &t);
    max_rows = std::max(max_rows, cols.size());
  }
  identity_rows_.resize(max_rows);
  for (size_t i = 0; i < max_rows; ++i) {
    identity_rows_[i] = static_cast<uint32_t>(i);
  }
}

void MadeModel::PrepareScratch(size_t batch, size_t vocab,
                               MadeScratch* s) const {
  assert(!logit_panels_.empty() && "FinalizeForInference() must run first");
  s->ld = (batch + 15) / 16 * 16;  // 64-byte unit rows
  Reserve(&s->embedded, embed_.output_dim() * s->ld);
  Reserve(&s->hidden, config_.num_layers * config_.hidden_dim * s->ld);
  Reserve(&s->logit_block, vocab * s->ld);
  if (has_context_) {
    Reserve(&s->context, config_.context_dim * s->ld);
    Reserve(&s->terms, std::max(config_.hidden_dim, vocab) * s->ld);
  }
}

void MadeModel::LoadContext(const Matrix& context, size_t lo, size_t hi,
                            MadeScratch* s) const {
  if (!has_context_) return;
  float* dst = s->context.data();
  for (size_t r = lo; r < hi; ++r) {
    const float* src = context.row(r);
    for (size_t k = 0; k < config_.context_dim; ++k) {
      dst[k * s->ld + r] = src[k];
    }
  }
}

void MadeModel::RunPanel(const PanelTable& t, const float* x, bool relu,
                         const float* residual, float* y, size_t lo,
                         size_t hi, MadeScratch* s) const {
  if (t.outputs.empty()) return;
  const float* context_term = nullptr;
  if (has_context_) {
    // ctx · Wc + bc for these outputs, added after the bias and before the
    // relu, where the training Forward adds it. Each output is computed
    // once per call, so its context term is too.
    UnitPanel term;
    term.x = s->context.data();
    term.in_rows = identity_rows_.data();
    term.num_in = config_.context_dim;
    term.weights = t.ctx_weights.data();
    term.bias = t.ctx_bias.data();
    term.out_rows = identity_rows_.data();
    term.num_out = t.outputs.size();
    term.y = s->terms.data();
    term.ld = s->ld;
    UnitMajorPanel(term, lo, hi);
    context_term = s->terms.data();
  }
  UnitPanel p;
  p.x = x;
  p.in_rows = t.inputs.data();
  p.num_in = t.inputs.size();
  p.weights = t.weights.data();
  p.bias = t.bias.data();
  p.addend = context_term;
  p.relu = relu;
  p.residual = residual;
  p.out_rows = t.outputs.data();
  p.num_out = t.outputs.size();
  p.y = y;
  p.ld = s->ld;
  UnitMajorPanel(p, lo, hi);
}

void MadeModel::ComputeDegrees(const IntMatrix& codes, size_t d0, size_t d1,
                               size_t lo, size_t hi, MadeScratch* s) const {
  const size_t ld = s->ld;
  const size_t embed_dim = config_.embed_dim;
  // A layer-0 unit of degree d reads attributes 0..d; attribute index and
  // degree coincide, so these are the embeddings the new units add.
  float* embedded = s->embedded.data();
  for (size_t a = d0; a < d1; ++a) {
    const Matrix& table = embed_.table(a);
    float* dst = embedded + a * embed_dim * ld;
    for (size_t r = lo; r < hi; ++r) {
      const int32_t code = codes.at(r, a);
      assert(code >= 0 && code < static_cast<int32_t>(table.rows()));
      const float* src = table.row(static_cast<size_t>(code));
      for (size_t e = 0; e < embed_dim; ++e) dst[e * ld + r] = src[e];
    }
  }
  const size_t layer_stride = config_.hidden_dim * ld;
  for (size_t l = 0; l < config_.num_layers; ++l) {
    // Layer l reads h_{l-1} (layer 0 the embeddings); layers >= 1 add
    // h_{l-1} back as the residual, unit for unit.
    const float* x =
        l == 0 ? embedded : s->hidden.data() + (l - 1) * layer_stride;
    float* y = s->hidden.data() + l * layer_stride;
    for (size_t d = d0; d < d1; ++d) {
      RunPanel(hidden_panels_[l][d], x, /*relu=*/true,
               l == 0 ? nullptr : x, y, lo, hi, s);
    }
  }
}

void MadeModel::ComputeLogits(size_t attr, size_t lo, size_t hi,
                              MadeScratch* s) const {
  const float* last = s->hidden.data() +
                      (config_.num_layers - 1) * config_.hidden_dim * s->ld;
  RunPanel(logit_panels_[attr], last, /*relu=*/false, /*residual=*/nullptr,
           s->logit_block.data(), lo, hi, s);
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
      // Layer 0's input gradient is [batch x D*E], the others [batch x H]:
      // separate buffers keep both shapes, so neither is re-zeroed per step.
      hidden_[0].Backward(dz, &dx0_scratch_);
      embed_.Backward(dx0_scratch_);
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
  assert(codes->cols() == num_attrs() && end_attr <= num_attrs());
  assert(!has_context_ || (context.rows() == codes->rows() &&
                           context.cols() == config_.context_dim));
  const size_t batch = codes->rows();
  size_t max_vocab = 0;
  for (size_t a = first_attr; a < end_attr; ++a) {
    max_vocab = std::max(max_vocab, static_cast<size_t>(vocab_size(a)));
  }
  PrepareScratch(batch, max_vocab, scratch);
  std::vector<double>& sample_u = scratch->u;
  for (size_t a = first_attr; a < end_attr; ++a) {
    if (should_stop && should_stop()) return;
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
    // Attribute a's logits read the hidden units of degree < a. Those below
    // a-1 are final from this call's earlier steps, so only degree a-1 is
    // new — except on the first step, which computes all of them.
    const size_t d0 = a == first_attr ? 0 : a - 1;
    ParallelFor(0, batch, kSampleRowBlock, [&](size_t lo, size_t hi) {
      if (a == first_attr) LoadContext(context, lo, hi, scratch);
      ComputeDegrees(*codes, d0, a, lo, hi, scratch);
      ComputeLogits(a, lo, hi, scratch);
      // Softmax and inverse-CDF pick over the block, eight rows a vector.
      SoftmaxBlock block;
      block.logits = scratch->logit_block.data();
      block.vocab = vocab;
      block.ld = scratch->ld;
      block.probs = record ? recorded->data() : nullptr;
      block.u = sample_u.data();
      block.picks = codes->row(0) + a;
      block.pick_stride = num_attrs();
      SoftmaxPanel(block, lo, hi);
    });
  }
}

void MadeModel::PredictDistribution(const IntMatrix& codes,
                                    const Matrix& context, size_t attr,
                                    Matrix* probs,
                                    MadeScratch* scratch) const {
  assert(codes.cols() == num_attrs() && attr < num_attrs());
  assert(!has_context_ || (context.rows() == codes.rows() &&
                           context.cols() == config_.context_dim));
  const size_t batch = codes.rows();
  const size_t vocab = static_cast<size_t>(vocab_size(attr));
  PrepareScratch(batch, vocab, scratch);
  probs->Resize(batch, vocab);
  ParallelFor(0, batch, kSampleRowBlock, [&](size_t lo, size_t hi) {
    LoadContext(context, lo, hi, scratch);
    ComputeDegrees(codes, 0, attr, lo, hi, scratch);
    ComputeLogits(attr, lo, hi, scratch);
    SoftmaxBlock block;
    block.logits = scratch->logit_block.data();
    block.vocab = vocab;
    block.ld = scratch->ld;
    block.probs = probs->data();
    SoftmaxPanel(block, lo, hi);
  });
}

void MadeModel::CollectParams(std::vector<Param*>* params) {
  embed_.CollectParams(params);
  for (auto& layer : hidden_) layer.CollectParams(params);
  for (auto& layer : ctx_hidden_) layer.CollectParams(params);
  out_.CollectParams(params);
  if (has_context_) ctx_out_.CollectParams(params);
}

}  // namespace restore
