#include "nn/matrix.h"

#include <algorithm>
#include <cmath>

#include "common/thread_pool.h"

#define RESTORE_RESTRICT __restrict__

// The portable kernel variant passes 32-byte vectors between TU-local static
// inline helpers; GCC notes the pre-AVX ABI difference, which is irrelevant
// for internal linkage.
#pragma GCC diagnostic ignored "-Wpsabi"

namespace restore {

namespace {

// ---- Kernel variants -------------------------------------------------------
// gemm_kernels.inc is included twice: `generic` compiles with the base flags
// (portable), `avx2` compiles every kernel with target("avx2,fma"). The
// runtime dispatcher below picks the AVX2 path when the CPU supports it.

namespace generic {
#define RESTORE_GEMM_TARGET
#define RESTORE_GEMM_HAVE_FMA 0
#include "nn/gemm_kernels.inc"
#undef RESTORE_GEMM_HAVE_FMA
#undef RESTORE_GEMM_TARGET
}  // namespace generic

#if defined(__x86_64__) || defined(__i386__)
#define RESTORE_HAVE_AVX2_VARIANT 1
namespace avx2 {
#define RESTORE_GEMM_TARGET __attribute__((target("avx2,fma")))
#define RESTORE_GEMM_HAVE_FMA 1
#include "nn/gemm_kernels.inc"
#undef RESTORE_GEMM_HAVE_FMA
#undef RESTORE_GEMM_TARGET
}  // namespace avx2
#endif

using MatMulRowsFn = void (*)(const float*, const float*, float*, size_t,
                              size_t, size_t, size_t);
using MatMulRowsBiasFn = void (*)(const float*, const float*, float*, size_t,
                                  size_t, size_t, size_t, const float*);
using TransBRowsFn = void (*)(const float*, const float*, float*, size_t,
                              size_t, size_t, size_t);
using TransAAccumRowsFn = void (*)(const float*, const float*, float*, size_t,
                                   size_t, size_t, size_t, size_t);
using UnitMajorFn = void (*)(const UnitPanel&, size_t, size_t);
using SoftmaxPanelFn = void (*)(const SoftmaxBlock&, size_t, size_t);

struct KernelTable {
  MatMulRowsFn matmul_rows;
  MatMulRowsBiasFn matmul_rows_bias;
  TransBRowsFn matmul_transb_rows;
  TransAAccumRowsFn matmul_transa_accum_rows;
  UnitMajorFn unit_major;
  SoftmaxPanelFn softmax_panel;
};

const KernelTable& Kernels() {
  static const KernelTable table = [] {
    KernelTable t{generic::MatMulRowsKernel, generic::MatMulRowsBiasKernel,
                  generic::MatMulTransBRowsKernel,
                  generic::MatMulTransAAccumRowsKernel,
                  generic::UnitMajorKernel, generic::SoftmaxPanelKernel};
#ifdef RESTORE_HAVE_AVX2_VARIANT
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
      t = {avx2::MatMulRowsKernel, avx2::MatMulRowsBiasKernel,
           avx2::MatMulTransBRowsKernel, avx2::MatMulTransAAccumRowsKernel,
           avx2::UnitMajorKernel, avx2::SoftmaxPanelKernel};
    }
#endif
    return t;
  }();
  return table;
}

// ---- Parallel sharding -----------------------------------------------------
// Output-row shards. The grain depends only on the problem shape (never on
// the thread count), each shard owns a disjoint row panel, and rows inside a
// shard are processed in ascending order — so results are bit-identical at
// any thread count. Small problems run inline to skip pool overhead.

constexpr size_t kMinParallelFlops = 1 << 17;

size_t RowGrain(size_t rows, size_t flops_per_row) {
  // Aim for >= ~64K flops per shard, rounded to the 4-row micro-tile.
  size_t grain = (kMinParallelFlops / 2) / (flops_per_row > 0 ? flops_per_row : 1);
  grain = std::max<size_t>(4, grain - grain % 4);
  return std::min(grain, rows > 0 ? rows : size_t{1});
}

}  // namespace

namespace {

// Shared driver of MatMul and its fused-bias variant.
void MatMulImpl(const Matrix& a, const Matrix& b, const float* bias,
                Matrix* out) {
  assert(a.cols() == b.rows());
  out->Resize(a.rows(), b.cols());
  const size_t m = a.rows();
  const size_t k = a.cols();
  const size_t n = b.cols();
  if (m == 0 || n == 0) return;
  if (k == 0) {
    // Degenerate GEMM (empty inner dim): the product is all zeros, but the
    // bias still applies — 0 + bias per element, as the separate pass would.
    for (size_t r = 0; r < m; ++r) {
      float* row = out->row(r);
      for (size_t c = 0; c < n; ++c) {
        row[c] = bias == nullptr ? 0.0f : 0.0f + bias[c];
      }
    }
    return;
  }
  if (bias == nullptr) {
    // Pure GEMM: the dedicated plain kernel keeps the bias pointer out of
    // the register allocation entirely.
    const auto fn = Kernels().matmul_rows;
    if (m * n * k < kMinParallelFlops) {
      fn(a.data(), b.data(), out->data(), 0, m, k, n);
      return;
    }
    ParallelFor(0, m, RowGrain(m, n * k), [&](size_t lo, size_t hi) {
      fn(a.data(), b.data(), out->data(), lo, hi, k, n);
    });
    return;
  }
  const auto fn = Kernels().matmul_rows_bias;
  if (m * n * k < kMinParallelFlops) {
    fn(a.data(), b.data(), out->data(), 0, m, k, n, bias);
    return;
  }
  ParallelFor(0, m, RowGrain(m, n * k), [&](size_t lo, size_t hi) {
    fn(a.data(), b.data(), out->data(), lo, hi, k, n, bias);
  });
}

}  // namespace

void MatMul(const Matrix& a, const Matrix& b, Matrix* out) {
  MatMulImpl(a, b, nullptr, out);
}

void MatMulFused(const Matrix& a, const Matrix& b, const Matrix* bias,
                 Matrix* out) {
  assert(bias == nullptr ||
         (bias->rows() == 1 && bias->cols() == b.cols()));
  MatMulImpl(a, b, bias == nullptr ? nullptr : bias->data(), out);
}

void UnitMajorPanel(const UnitPanel& panel, size_t r0, size_t r1) {
  assert(r0 <= r1 && r1 <= panel.ld);
  if (r0 == r1 || panel.num_out == 0) return;
  Kernels().unit_major(panel, r0, r1);
}

void SoftmaxPanel(const SoftmaxBlock& block, size_t r0, size_t r1) {
  assert(r0 <= r1 && r1 <= block.ld && block.vocab > 0);
  if (r0 == r1) return;
  Kernels().softmax_panel(block, r0, r1);
}

namespace {

// Pack b [n x k] into bt [k x n] (the MatMul-friendly layout). A pure
// permutation — no FP arithmetic — so any sharding is trivially
// deterministic. Row/column tiles keep one of the two sides cache-resident.
void TransposeInto(const Matrix& b, Matrix* bt) {
  const size_t rows = b.rows();
  const size_t cols = b.cols();
  bt->Resize(cols, rows);
  constexpr size_t kTile = 64;
  const size_t grain = std::max<size_t>(kTile, 4096 / (rows ? rows : 1));
  ParallelFor(0, cols, grain, [&](size_t lo, size_t hi) {
    for (size_t i0 = 0; i0 < rows; i0 += kTile) {
      const size_t i1 = std::min(rows, i0 + kTile);
      for (size_t j = lo; j < hi; ++j) {
        float* RESTORE_RESTRICT dst = bt->row(j);
        for (size_t i = i0; i < i1; ++i) dst[i] = b.at(i, j);
      }
    }
  });
}

// Packing costs O(n*k) strided moves and pays back ~half the GEMM time, so
// it needs enough output rows reusing the packed tile to amortize. Shape-
// only decision: a given problem shape always takes the same path.
bool ShouldPackTransB(size_t m, size_t k, size_t n) {
  return m >= 16 && k >= 8 && n >= 4;
}

}  // namespace

void MatMulTransB(const Matrix& a, const Matrix& b, Matrix* out,
                  Matrix* pack_scratch) {
  assert(a.cols() == b.cols());
  out->Resize(a.rows(), b.rows());
  const size_t m = a.rows();
  const size_t k = a.cols();
  const size_t n = b.rows();
  if (m == 0 || n == 0) return;
  if (k == 0) {
    out->Fill(0.0f);
    return;
  }
  if (ShouldPackTransB(m, k, n)) {
    TransposeInto(b, pack_scratch);
    const auto fn = Kernels().matmul_rows;
    if (m * n * k < kMinParallelFlops) {
      fn(a.data(), pack_scratch->data(), out->data(), 0, m, k, n);
      return;
    }
    ParallelFor(0, m, RowGrain(m, n * k), [&](size_t lo, size_t hi) {
      fn(a.data(), pack_scratch->data(), out->data(), lo, hi, k, n);
    });
    return;
  }
  const auto fn = Kernels().matmul_transb_rows;
  if (m * n * k < kMinParallelFlops) {
    fn(a.data(), b.data(), out->data(), 0, m, k, n);
    return;
  }
  ParallelFor(0, m, RowGrain(m, n * k), [&](size_t lo, size_t hi) {
    fn(a.data(), b.data(), out->data(), lo, hi, k, n);
  });
}

void MatMulTransAAccum(const Matrix& a, const Matrix& b, Matrix* out) {
  assert(a.rows() == b.rows());
  assert(out->rows() == a.cols() && out->cols() == b.cols());
  const size_t m = a.rows();
  const size_t k = a.cols();
  const size_t n = b.cols();
  if (k == 0 || n == 0 || m == 0) return;
  const auto fn = Kernels().matmul_transa_accum_rows;
  if (m * n * k < kMinParallelFlops) {
    fn(a.data(), b.data(), out->data(), 0, k, m, k, n);
    return;
  }
  // Sharded over OUTPUT rows (columns of a): each out row is accumulated by
  // exactly one shard, keeping the gradient sums deterministic.
  ParallelFor(0, k, RowGrain(k, m * n), [&](size_t lo, size_t hi) {
    fn(a.data(), b.data(), out->data(), lo, hi, m, k, n);
  });
}

void AddBiasRows(const Matrix& bias, Matrix* out) {
  assert(bias.rows() == 1 && bias.cols() == out->cols());
  const float* RESTORE_RESTRICT b = bias.row(0);
  const size_t cols = out->cols();
  for (size_t r = 0; r < out->rows(); ++r) {
    float* RESTORE_RESTRICT row = out->row(r);
    for (size_t c = 0; c < cols; ++c) row[c] += b[c];
  }
}

void AccumBiasGrad(const Matrix& dy, Matrix* bias_grad) {
  assert(bias_grad->rows() == 1 && bias_grad->cols() == dy.cols());
  float* RESTORE_RESTRICT g = bias_grad->row(0);
  const size_t cols = dy.cols();
  for (size_t r = 0; r < dy.rows(); ++r) {
    const float* RESTORE_RESTRICT row = dy.row(r);
    for (size_t c = 0; c < cols; ++c) g[c] += row[c];
  }
}

void AddInPlace(const Matrix& x, Matrix* y) {
  assert(x.rows() == y->rows() && x.cols() == y->cols());
  float* RESTORE_RESTRICT yd = y->data();
  const float* RESTORE_RESTRICT xd = x.data();
  for (size_t i = 0; i < x.size(); ++i) yd[i] += xd[i];
}

void ReluInPlace(Matrix* x) {
  float* RESTORE_RESTRICT d = x->data();
  for (size_t i = 0; i < x->size(); ++i) d[i] = std::max(0.0f, d[i]);
}

void ReluBackward(const Matrix& y, Matrix* dy) {
  assert(y.size() == dy->size());
  const float* RESTORE_RESTRICT yd = y.data();
  float* RESTORE_RESTRICT dd = dy->data();
  for (size_t i = 0; i < y.size(); ++i) {
    if (yd[i] <= 0.0f) dd[i] = 0.0f;
  }
}

void SoftmaxSlice(Matrix* logits, size_t col_begin, size_t col_end) {
  assert(col_begin < col_end && col_end <= logits->cols());
  ParallelFor(0, logits->rows(), LossRowGrain(col_end - col_begin),
              [&](size_t lo, size_t hi) {
    for (size_t r = lo; r < hi; ++r) {
      float* RESTORE_RESTRICT row = logits->row(r);
      float max_v = row[col_begin];
      for (size_t c = col_begin; c < col_end; ++c) {
        max_v = std::max(max_v, row[c]);
      }
      float sum = 0.0f;
      for (size_t c = col_begin; c < col_end; ++c) {
        row[c] = std::exp(row[c] - max_v);
        sum += row[c];
      }
      const float inv = 1.0f / sum;
      for (size_t c = col_begin; c < col_end; ++c) row[c] *= inv;
    }
  });
}

}  // namespace restore
