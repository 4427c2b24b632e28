#ifndef RESTORE_NN_LAYERS_H_
#define RESTORE_NN_LAYERS_H_

#include <vector>

#include "common/rng.h"
#include "nn/matrix.h"

namespace restore {

/// A learnable parameter: value plus accumulated gradient of the same shape.
struct Param {
  Matrix value;
  Matrix grad;

  void Init(size_t rows, size_t cols) {
    value.Resize(rows, cols);
    value.Fill(0.0f);
    grad.Resize(rows, cols);
    grad.Fill(0.0f);
  }
  void ZeroGrad() { grad.Fill(0.0f); }
};

/// Kaiming/He-uniform initialization suited for ReLU networks.
void KaimingInit(Matrix* w, size_t fan_in, Rng& rng);

/// Fully-connected layer: y = x W + b.
///
/// All layers in this library follow the same protocol: `Forward` caches what
/// `Backward` needs; `Backward` accumulates parameter gradients and returns
/// the input gradient. `CollectParams` exposes parameters to the optimizer.
class Dense {
 public:
  Dense() = default;
  Dense(size_t in_dim, size_t out_dim, Rng& rng);

  /// y = x W + b; keeps x for Backward.
  void Forward(const Matrix& x, Matrix* y);
  /// Reentrant inference forward: touches no member state, so any number of
  /// threads may call it concurrently on one layer.
  void ForwardInference(const Matrix& x, Matrix* y) const;
  /// Accumulates dW, db; writes dx (same shape as the cached x).
  void Backward(const Matrix& dy, Matrix* dx);

  void CollectParams(std::vector<Param*>* params) {
    params->push_back(&w_);
    params->push_back(&b_);
  }

  size_t in_dim() const { return w_.value.rows(); }
  size_t out_dim() const { return w_.value.cols(); }

  Param& weight() { return w_; }
  Param& bias() { return b_; }

 private:
  Param w_;  // [in x out]
  Param b_;  // [1 x out]
  Matrix x_cache_;
  Matrix pack_scratch_;  // packed W^T tile for the backward dx GEMM
};

/// Fully-connected layer with a fixed binary connectivity mask on the weight
/// matrix: y = x (W * M) + b. This is the building block of MADE: the mask
/// enforces the autoregressive property.
class MaskedDense {
 public:
  MaskedDense() = default;
  /// `mask` must be [in_dim x out_dim] with entries in {0, 1}.
  MaskedDense(Matrix mask, Rng& rng);

  void Forward(const Matrix& x, Matrix* y);
  void Backward(const Matrix& dy, Matrix* dx);

  /// Recomputes the cached effective weight (W * M). Must be called after
  /// the optimizer's final step (or after loading parameters) and before
  /// masked_weight() is read for inference — the optimizer mutates W
  /// through CollectParams pointers, which this layer cannot observe.
  void RefreshMaskedWeights();

  /// The effective weight W * M as of the last RefreshMaskedWeights (the
  /// training Forward refreshes it too), and the bias. MadeModel builds its
  /// inference tables from these.
  const Matrix& masked_weight() const { return masked_w_; }
  const Matrix& bias_value() const { return b_.value; }

  void CollectParams(std::vector<Param*>* params) {
    params->push_back(&w_);
    params->push_back(&b_);
  }

  const Matrix& mask() const { return mask_; }
  size_t in_dim() const { return mask_.rows(); }
  size_t out_dim() const { return mask_.cols(); }

 private:

  Param w_;
  Param b_;
  Matrix mask_;
  Matrix masked_w_;   // W * M, refreshed on every training Forward
  Matrix dw_scratch_;  // unmasked x^T dy, reused across Backward calls
  Matrix x_cache_;
  Matrix pack_scratch_;  // packed (W*M)^T tile for the backward dx GEMM
};

}  // namespace restore

#endif  // RESTORE_NN_LAYERS_H_
