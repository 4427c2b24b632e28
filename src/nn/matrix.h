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

/// Fused inference forward: out = relu(a * b + bias) + residual, with each
/// epilogue stage optional (pass nullptr / false to skip). The stages run in
/// exactly that order per output element inside the kernel's store phase, so
/// the values are BIT-identical to MatMul; AddBiasRows; ReluInPlace;
/// AddInPlace — only the three full read+write sweeps over the activation
/// disappear. `residual` must not alias `out` (aliasing `a` is fine; the
/// hidden-layer residual does exactly that).
void MatMulFused(const Matrix& a, const Matrix& b, const Matrix* bias,
                 bool relu, const Matrix* residual, Matrix* out);

/// Column-sliced MatMul: resizes out to [a.rows() x b.cols()] and computes
/// ONLY columns [col_begin, col_end) of `out = a * b`; all other columns are
/// left untouched. Each computed element is BIT-identical to what the full
/// MatMul would produce (same single accumulation chain over ascending k),
/// so callers that consume one column block — the sampling output layer —
/// can slice without perturbing results. Cost scales with the slice width.
void MatMulColsSlice(const Matrix& a, const Matrix& b, size_t col_begin,
                     size_t col_end, Matrix* out);

/// MatMulColsSlice with the bias add fused into the store phase (per-element
/// identical to MatMulColsSlice followed by AddBiasRowsSlice).
void MatMulColsSliceBias(const Matrix& a, const Matrix& b, const Matrix& bias,
                         size_t col_begin, size_t col_end, Matrix* out);

/// out = a * b^T          [m x k] * [n x k] -> [m x n]
///
/// Large products pack b^T into a [k x n] scratch tile and run the
/// rank-1-update MatMul kernel over it (~1.5x the dot-form kernel's
/// throughput); small products keep the dot-form path. The packed and dot paths
/// accumulate in different orders, so which one runs is a pure function of
/// the problem shape — results stay deterministic, but changing the
/// threshold is a numerics change for training (re-baseline the benches).
/// The 3-arg overload uses a thread-local pack buffer; hot callers (layer
/// backward passes) pass their own persistent `pack_scratch` instead.
void MatMulTransB(const Matrix& a, const Matrix& b, Matrix* out);
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

/// Column-sliced add: y[r, c] += x[r, c] for c in [col_begin, col_end) only
/// (shapes must match). Companion of MatMulColsSlice for the context
/// projection added into a logits slice.
void AddInPlaceCols(const Matrix& x, size_t col_begin, size_t col_end,
                    Matrix* y);

/// In-place ReLU; returns mask-applied matrix via dy in BackwardRelu.
void ReluInPlace(Matrix* x);

/// Vectorized max over p[0..n) (n > 0). Numerically identical to the scalar
/// std::max left-fold for non-NaN inputs — max is order-independent — with
/// at most the sign of a zero maximum differing, which the softmax consumers
/// are insensitive to (exp(x - ±0.0) == exp(x)).
float RowMax(const float* p, size_t n);

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
