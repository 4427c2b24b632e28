#include "nn/layers.h"

#include <cmath>

namespace restore {

void KaimingInit(Matrix* w, size_t fan_in, Rng& rng) {
  const float bound =
      std::sqrt(6.0f / static_cast<float>(fan_in > 0 ? fan_in : 1));
  for (size_t i = 0; i < w->size(); ++i) {
    w->data()[i] = static_cast<float>(rng.NextUniform(-bound, bound));
  }
}

Dense::Dense(size_t in_dim, size_t out_dim, Rng& rng) {
  w_.Init(in_dim, out_dim);
  b_.Init(1, out_dim);
  KaimingInit(&w_.value, in_dim, rng);
}

void Dense::Forward(const Matrix& x, Matrix* y) {
  x_cache_ = x;
  MatMul(x, w_.value, y);
  AddBiasRows(b_.value, y);
}

void Dense::ForwardInference(const Matrix& x, Matrix* y) const {
  MatMulFused(x, w_.value, &b_.value, y);
}

void Dense::Backward(const Matrix& dy, Matrix* dx) {
  MatMulTransAAccum(x_cache_, dy, &w_.grad);
  AccumBiasGrad(dy, &b_.grad);
  MatMulTransB(dy, w_.value, dx, &pack_scratch_);
}

MaskedDense::MaskedDense(Matrix mask, Rng& rng) : mask_(std::move(mask)) {
  w_.Init(mask_.rows(), mask_.cols());
  b_.Init(1, mask_.cols());
  KaimingInit(&w_.value, mask_.rows(), rng);
}

void MaskedDense::RefreshMaskedWeights() {
  masked_w_.Resize(w_.value.rows(), w_.value.cols());
  const float* __restrict__ w = w_.value.data();
  const float* __restrict__ m = mask_.data();
  float* __restrict__ out = masked_w_.data();
  for (size_t i = 0; i < w_.value.size(); ++i) out[i] = w[i] * m[i];
}

void MaskedDense::Forward(const Matrix& x, Matrix* y) {
  x_cache_ = x;
  RefreshMaskedWeights();
  MatMul(x, masked_w_, y);
  AddBiasRows(b_.value, y);
}

void MaskedDense::Backward(const Matrix& dy, Matrix* dx) {
  // dW = (x^T dy) * M  -- accumulate masked.
  dw_scratch_.Resize(w_.value.rows(), w_.value.cols());
  dw_scratch_.Fill(0.0f);
  MatMulTransAAccum(x_cache_, dy, &dw_scratch_);
  const float* __restrict__ m = mask_.data();
  float* __restrict__ g = w_.grad.data();
  const float* __restrict__ d = dw_scratch_.data();
  for (size_t i = 0; i < dw_scratch_.size(); ++i) g[i] += d[i] * m[i];
  AccumBiasGrad(dy, &b_.grad);
  MatMulTransB(dy, masked_w_, dx, &pack_scratch_);
}

}  // namespace restore
