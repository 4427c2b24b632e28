#ifndef RESTORE_NN_MATRIX_H_
#define RESTORE_NN_MATRIX_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace restore {

/// Dense row-major float matrix. This is the only tensor type the NN
/// substrate needs (all layers operate on [batch x features] activations).
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols, float fill = 0.0f)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& at(size_t r, size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  float at(size_t r, size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  float* row(size_t r) { return data_.data() + r * cols_; }
  const float* row(size_t r) const { return data_.data() + r * cols_; }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::vector<float>& vec() { return data_; }
  const std::vector<float>& vec() const { return data_; }

  void Fill(float v) { std::fill(data_.begin(), data_.end(), v); }

  /// Shape-preserving resize: when the shape already matches, this is a
  /// no-op (existing contents are KEPT — callers that need zeros must call
  /// Fill(0) explicitly). On a shape change the storage is zero-filled.
  /// This kills the per-call zero/realloc churn of forward/backward scratch
  /// buffers, which keep the same shape across training steps.
  void Resize(size_t rows, size_t cols) {
    if (rows == rows_ && cols == cols_) return;
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, 0.0f);
  }

 private:
  size_t rows_;
  size_t cols_;
  std::vector<float> data_;
};

/// Integer matrix used for batches of discretized attribute codes.
class IntMatrix {
 public:
  IntMatrix() : rows_(0), cols_(0) {}
  IntMatrix(size_t rows, size_t cols, int32_t fill = 0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  int32_t& at(size_t r, size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  int32_t at(size_t r, size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  const int32_t* row(size_t r) const { return data_.data() + r * cols_; }
  int32_t* row(size_t r) { return data_.data() + r * cols_; }

  /// Shape-preserving resize (same contract as Matrix::Resize): a matching
  /// shape keeps the contents, a shape change zero-fills.
  void Resize(size_t rows, size_t cols) {
    if (rows == rows_ && cols == cols_) return;
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, 0);
  }

  /// Returns a copy containing only the listed rows.
  IntMatrix GatherRows(const std::vector<size_t>& rows) const {
    IntMatrix out(rows.size(), cols_);
    GatherRowsInto(rows, &out);
    return out;
  }

  /// Allocation-free variant for hot loops: gathers into a reused buffer.
  void GatherRowsInto(const std::vector<size_t>& rows, IntMatrix* out) const {
    out->Resize(rows.size(), cols_);
    for (size_t i = 0; i < rows.size(); ++i) {
      const int32_t* src = row(rows[i]);
      int32_t* dst = out->row(i);
      for (size_t c = 0; c < cols_; ++c) dst[c] = src[c];
    }
  }

 private:
  size_t rows_;
  size_t cols_;
  std::vector<int32_t> data_;
};

// ---- BLAS-lite kernels -----------------------------------------------------

/// out = a * b            [m x k] * [k x n] -> [m x n]
void MatMul(const Matrix& a, const Matrix& b, Matrix* out);

/// Fused inference forward: out = a * b + bias, the bias add applied in the
/// kernel's store phase, so the values are BIT-identical to MatMul followed
/// by AddBiasRows minus one read+write sweep over the output. `bias` is
/// [1 x n]; nullptr makes this a plain MatMul.
void MatMulFused(const Matrix& a, const Matrix& b, const Matrix* bias,
                 Matrix* out);

/// One unit-major panel: a group of output units that share one list of
/// input units, computed over a range of batch rows. Unit-major buffers
/// store unit i's value for batch row r at `base[i * ld + r]`, so a kernel
/// vectorizes across rows. For every output j < num_out and row r:
///
///   v = sum over t = 0, 1, ..., num_in - 1 (in that order) of
///         weights[j * num_in + t] * x[in_rows[t] * ld + r]
///   v = v + bias[j]                         (if bias)
///   v = v + addend[j * ld + r]              (if addend)
///   v = relu(v)                             (if relu)
///   v = v + residual[out_rows[j] * ld + r]  (if residual)
///   y[out_rows[j] * ld + r] = v
///
/// The sum is one accumulation chain per element, with the same rounding
/// as MatMul's (fused multiply-add under the AVX2 variant, multiply then
/// add under the generic build). So when `in_rows` lists, in ascending
/// order, the inputs whose weight is not a masked ±0, the value is
/// BIT-identical to MatMul over all inputs with the masked weights plus
/// the same epilogue: a ±0 product added to an accumulator that started at
/// +0 never changes its bits. `y` must not alias any input.
struct UnitPanel {
  const float* x = nullptr;
  const uint32_t* in_rows = nullptr;
  size_t num_in = 0;
  const float* weights = nullptr;   // [num_out x num_in]
  const float* bias = nullptr;      // [num_out], or nullptr
  const float* addend = nullptr;    // rows 0..num_out-1 of stride ld, or null
  bool relu = false;
  const float* residual = nullptr;  // rows out_rows[j] of stride ld, or null
  const uint32_t* out_rows = nullptr;
  size_t num_out = 0;
  float* y = nullptr;
  size_t ld = 0;
};

/// Computes `panel` over batch rows [r0, r1) on the calling thread (callers
/// shard row blocks themselves). Writes only rows out_rows[j], columns
/// [r0, r1) of y.
void UnitMajorPanel(const UnitPanel& panel, size_t r0, size_t r1);

/// One attribute's softmax over a unit-major logit block, and what the MADE
/// sampler reads off it. `logits` is [vocab x ld] unit-major: code c's logit
/// for batch row r is logits[c * ld + r]. For each row r, in this order:
///
///   m   = left fold over c = 0, 1, ..., vocab - 1 of std::max(m, l_c)
///   e_c = std::exp(l_c - m), one scalar libm call per element, written
///         back to logits[c * ld + r]
///   sum = e_0 + e_1 + ... + e_{vocab-1} in float;  inv = 1 / sum
///   probs[r * vocab + c] = e_c * inv                          (if probs)
///   picks[r * pick_stride] = the first c with u[r] < acc_c, else vocab - 1,
///     where acc_c = sum over c' <= c, in double, of e_c' * inv  (if picks)
///
/// These are the steps of the scalar per-row softmax and early-exit
/// inverse-CDF pick, so probabilities and picks are bit-identical to it
/// whichever vector lane covers a row.
struct SoftmaxBlock {
  float* logits = nullptr;
  size_t vocab = 0;
  size_t ld = 0;
  float* probs = nullptr;     // row-major [rows x vocab], or nullptr
  const double* u = nullptr;  // per-row uniform draws; read with picks
  int32_t* picks = nullptr;   // or nullptr
  size_t pick_stride = 1;
};

/// Computes `block` over batch rows [r0, r1) on the calling thread (callers
/// shard row blocks themselves). Reads and writes only those rows of
/// logits, u, probs and picks.
void SoftmaxPanel(const SoftmaxBlock& block, size_t r0, size_t r1);

/// out = a * b^T          [m x k] * [n x k] -> [m x n]
///
/// Large products pack b^T into a [k x n] scratch tile and run the
/// rank-1-update MatMul kernel over it (~1.5x the dot-form kernel's
/// throughput); small products keep the dot-form path. The packed and dot paths
/// accumulate in different orders, so which one runs is a pure function of
/// the problem shape — results stay deterministic, but changing the
/// threshold is a numerics change for training (re-baseline the benches).
/// `pack_scratch` holds the packed tile; callers keep one per call site
/// (a layer's backward pass owns a persistent one) so it is reused.
void MatMulTransB(const Matrix& a, const Matrix& b, Matrix* out,
                  Matrix* pack_scratch);

/// out += a^T * b         [m x k]^T * [m x n] -> [k x n] (accumulating)
void MatMulTransAAccum(const Matrix& a, const Matrix& b, Matrix* out);

/// out[r] += bias for every row r. bias is [1 x n].
void AddBiasRows(const Matrix& bias, Matrix* out);

/// bias_grad += column sums of dy.
void AccumBiasGrad(const Matrix& dy, Matrix* bias_grad);

/// y += x (shapes must match).
void AddInPlace(const Matrix& x, Matrix* y);

/// In-place ReLU; returns mask-applied matrix via dy in BackwardRelu.
void ReluInPlace(Matrix* x);

/// dx = dy masked by (y > 0), where y is the post-ReLU activation.
void ReluBackward(const Matrix& y, Matrix* dy);

/// Numerically-stable in-place softmax over the column slice
/// [col_begin, col_end) of every row.
void SoftmaxSlice(Matrix* logits, size_t col_begin, size_t col_end);

/// Fixed row-shard grain for row-parallel loss/softmax/sampling loops over a
/// slice of `slice_width` columns. Depends only on the width (never the
/// thread count) so shard boundaries — and float accumulation orders — are
/// identical at any pool size.
inline size_t LossRowGrain(size_t slice_width) {
  const size_t grain = 4096 / (slice_width > 0 ? slice_width : 1);
  return grain > 16 ? grain : 16;
}

}  // namespace restore

#endif  // RESTORE_NN_MATRIX_H_
