#include "nn/adam.h"

#include <cmath>

#include "common/thread_pool.h"

namespace restore {

namespace {
// Elements per update slice: large enough to amortize pool dispatch, small
// enough to spread big embedding/output matrices across workers.
constexpr size_t kSliceElems = 16384;
}  // namespace

AdamOptimizer::AdamOptimizer(std::vector<Param*> params, Options options)
    : params_(std::move(params)), options_(options) {
  m_.resize(params_.size());
  v_.resize(params_.size());
  for (size_t i = 0; i < params_.size(); ++i) {
    const size_t n = params_[i]->value.size();
    m_[i].assign(n, 0.0f);
    v_[i].assign(n, 0.0f);
    for (size_t begin = 0; begin < n; begin += kSliceElems) {
      slices_.push_back({i, begin, std::min(n, begin + kSliceElems)});
    }
  }
}

void AdamOptimizer::Step() {
  ++t_;
  const float b1 = options_.beta1;
  const float b2 = options_.beta2;
  const float bias1 = 1.0f - std::pow(b1, static_cast<float>(t_));
  const float bias2 = 1.0f - std::pow(b2, static_cast<float>(t_));
  const float lr = options_.learning_rate;
  const float wd = options_.weight_decay;
  const float eps = options_.epsilon;
  // Fused update: both bias corrections fold into per-step scalars —
  //   value -= (lr/bias1) * m / (sqrt(v) * rsqrt(bias2) + eps)
  // is algebraically m_hat/( sqrt(v_hat) + eps ) with the two per-element
  // divisions (m/bias1, v/bias2) hoisted out of the loop, leaving one mul,
  // one sqrt, and one divide per element next to the moment updates. The
  // weight-decay fold (g = grad + wd*value) stays in the same pass, so one
  // sweep over the slice reads and writes every tensor exactly once.
  const float step_size = lr / bias1;
  const float inv_sqrt_bias2 = 1.0f / std::sqrt(bias2);
  const float c1 = 1.0f - b1;
  const float c2 = 1.0f - b2;
  ParallelFor(0, slices_.size(), 1, [&](size_t s_lo, size_t s_hi) {
    for (size_t s = s_lo; s < s_hi; ++s) {
      const Slice& slice = slices_[s];
      Param* p = params_[slice.param];
      float* __restrict__ value = p->value.data();
      float* __restrict__ grad = p->grad.data();
      float* __restrict__ m = m_[slice.param].data();
      float* __restrict__ v = v_[slice.param].data();
      for (size_t k = slice.begin; k < slice.end; ++k) {
        const float g = grad[k] + wd * value[k];
        m[k] = b1 * m[k] + c1 * g;
        v[k] = b2 * v[k] + c2 * g * g;
        value[k] -= step_size * m[k] / (std::sqrt(v[k]) * inv_sqrt_bias2 + eps);
        grad[k] = 0.0f;
      }
    }
  });
}

}  // namespace restore
