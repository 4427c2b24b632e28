// Conformance property tests for the blocked/vectorized GEMM kernels: the
// dispatched kernels (AVX2 or portable, threaded or inline) must match a
// naive reference implementation within tolerance across random rectangular
// shapes, including empty, 1xN, and non-multiple-of-tile sizes that exercise
// every micro-kernel edge path.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "nn/matrix.h"

namespace restore {
namespace {

constexpr float kTol = 1e-4f;

Matrix RandomMatrix(size_t rows, size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.NextGaussian());
  }
  return m;
}

void NaiveMatMul(const Matrix& a, const Matrix& b, Matrix* out) {
  out->Resize(a.rows(), b.cols());
  out->Fill(0.0f);
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t p = 0; p < a.cols(); ++p) {
      for (size_t j = 0; j < b.cols(); ++j) {
        out->at(i, j) += a.at(i, p) * b.at(p, j);
      }
    }
  }
}

void NaiveMatMulTransB(const Matrix& a, const Matrix& b, Matrix* out) {
  out->Resize(a.rows(), b.rows());
  out->Fill(0.0f);
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.rows(); ++j) {
      float acc = 0.0f;
      for (size_t p = 0; p < a.cols(); ++p) acc += a.at(i, p) * b.at(j, p);
      out->at(i, j) = acc;
    }
  }
}

void NaiveMatMulTransAAccum(const Matrix& a, const Matrix& b, Matrix* out) {
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t p = 0; p < a.cols(); ++p) {
      for (size_t j = 0; j < b.cols(); ++j) {
        out->at(p, j) += a.at(i, p) * b.at(i, j);
      }
    }
  }
}

void ExpectNear(const Matrix& got, const Matrix& want, const char* what,
                size_t m, size_t k, size_t n) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_NEAR(got.data()[i], want.data()[i], kTol)
        << what << " mismatch at flat index " << i << " for shape m=" << m
        << " k=" << k << " n=" << n;
  }
}

// Shapes chosen to hit: empty matrices, single rows/cols, sizes below one
// register tile, exact tile multiples (4 rows, 24/16/8 cols), and every
// remainder path (rows % 4, cols % 24 in {1..23}, k % 8).
const size_t kDims[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 23, 24, 25, 33, 64};

TEST(MatrixKernelConformance, MatMulMatchesNaive) {
  Rng rng(101);
  for (size_t m : kDims) {
    for (size_t k : kDims) {
      for (size_t n : kDims) {
        if (m * k * n > 30000 && (m + k + n) % 3 != 0) continue;  // subsample
        Matrix a = RandomMatrix(m, k, rng);
        Matrix b = RandomMatrix(k, n, rng);
        Matrix got, want;
        MatMul(a, b, &got);
        NaiveMatMul(a, b, &want);
        ExpectNear(got, want, "MatMul", m, k, n);
      }
    }
  }
}

TEST(MatrixKernelConformance, MatMulTransBMatchesNaive) {
  Rng rng(202);
  for (size_t m : kDims) {
    for (size_t k : kDims) {
      for (size_t n : kDims) {
        if (m * k * n > 30000 && (m + k + n) % 3 != 0) continue;
        Matrix a = RandomMatrix(m, k, rng);
        Matrix b = RandomMatrix(n, k, rng);
        Matrix got, want;
        MatMulTransB(a, b, &got);
        NaiveMatMulTransB(a, b, &want);
        ExpectNear(got, want, "MatMulTransB", m, k, n);
      }
    }
  }
}

TEST(MatrixKernelConformance, MatMulTransAAccumMatchesNaiveAndAccumulates) {
  Rng rng(303);
  for (size_t m : kDims) {
    for (size_t k : kDims) {
      for (size_t n : kDims) {
        if (m * k * n > 30000 && (m + k + n) % 3 != 0) continue;
        Matrix a = RandomMatrix(m, k, rng);
        Matrix b = RandomMatrix(m, n, rng);
        // Non-zero initial contents verify the ACCUMULATE semantics.
        Matrix got = RandomMatrix(k, n, rng);
        Matrix want = got;
        MatMulTransAAccum(a, b, &got);
        NaiveMatMulTransAAccum(a, b, &want);
        ExpectNear(got, want, "MatMulTransAAccum", m, k, n);
      }
    }
  }
}

void NaiveMatMulColsSlice(const Matrix& a, const Matrix& b, size_t c0,
                          size_t c1, Matrix* out) {
  // Slice semantics: out already sized [m x n]; only [c0, c1) written.
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = c0; j < c1; ++j) {
      float acc = 0.0f;
      for (size_t p = 0; p < a.cols(); ++p) acc += a.at(i, p) * b.at(p, j);
      out->at(i, j) = acc;
    }
  }
}

// The sliced kernel must (1) match naive within tolerance, (2) leave
// columns outside the window untouched, and (3) be BIT-identical to the
// full MatMul on every computed column — the contract MadeModel's sliced
// sampling path builds on.
TEST(MatrixKernelConformance, MatMulColsSliceMatchesFullKernelBitExact) {
  Rng rng(505);
  for (size_t m : kDims) {
    for (size_t k : kDims) {
      for (size_t n : kDims) {
        if (m * k * n > 30000 && (m + k + n) % 3 != 0) continue;
        Matrix a = RandomMatrix(m, k, rng);
        Matrix b = RandomMatrix(k, n, rng);
        Matrix full;
        MatMul(a, b, &full);
        // Windows: empty, full width, a prefix, and an inner unaligned one.
        const size_t windows[][2] = {
            {0, 0}, {0, n}, {0, n / 2}, {n / 3, n / 3 + (n - n / 3) / 2}};
        for (const auto& w : windows) {
          const size_t c0 = w[0], c1 = w[1];
          if (c0 > c1 || c1 > n) continue;
          const float sentinel = -12345.0f;
          Matrix got(m, n, sentinel);
          MatMulColsSlice(a, b, c0, c1, &got);
          Matrix want(m, n, sentinel);
          NaiveMatMulColsSlice(a, b, c0, c1, &want);
          for (size_t i = 0; i < m; ++i) {
            for (size_t j = 0; j < n; ++j) {
              if (j >= c0 && j < c1) {
                ASSERT_NEAR(got.at(i, j), want.at(i, j), kTol)
                    << "slice [" << c0 << "," << c1 << ") m=" << m
                    << " k=" << k << " n=" << n;
                // Bit-exact vs the full kernel, not just close.
                ASSERT_EQ(got.at(i, j), full.at(i, j))
                    << "slice [" << c0 << "," << c1 << ") m=" << m
                    << " k=" << k << " n=" << n;
              } else {
                ASSERT_EQ(got.at(i, j), sentinel)
                    << "outside-slice column clobbered at (" << i << "," << j
                    << ")";
              }
            }
          }
        }
      }
    }
  }
}

// The fused epilogue (bias -> relu -> residual in the store phase) must be
// bit-identical to running the separate passes — including the degenerate
// k == 0 product, where the epilogue applies to an all-zero GEMM result.
TEST(MatrixKernelConformance, MatMulFusedMatchesSeparatePassesBitExact) {
  Rng rng(606);
  const struct { size_t m, k, n; } shapes[] = {
      {1, 1, 1}, {3, 0, 7}, {3, 5, 7}, {4, 8, 24}, {17, 9, 33}, {64, 40, 64},
      {129, 65, 77}};
  for (const auto& sh : shapes) {
    Matrix a = RandomMatrix(sh.m, sh.k, rng);
    Matrix b = RandomMatrix(sh.k, sh.n, rng);
    Matrix bias = RandomMatrix(1, sh.n, rng);
    Matrix residual = RandomMatrix(sh.m, sh.n, rng);
    Matrix want;
    MatMul(a, b, &want);
    AddBiasRows(bias, &want);
    ReluInPlace(&want);
    AddInPlace(residual, &want);
    Matrix got;
    MatMulFused(a, b, &bias, /*relu=*/true, &residual, &got);
    ASSERT_EQ(got.rows(), want.rows());
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got.data()[i], want.data()[i])
          << "fused mismatch at " << i << " for m=" << sh.m << " k=" << sh.k
          << " n=" << sh.n;
    }
    // Bias-only flavor (the inference Dense/MaskedDense forward).
    Matrix want2;
    MatMul(a, b, &want2);
    AddBiasRows(bias, &want2);
    Matrix got2;
    MatMulFused(a, b, &bias, /*relu=*/false, /*residual=*/nullptr, &got2);
    for (size_t i = 0; i < got2.size(); ++i) {
      ASSERT_EQ(got2.data()[i], want2.data()[i]) << "bias-only mismatch";
    }
    // Sliced bias flavor.
    Matrix got3(sh.m, sh.n, 0.0f);
    const size_t c0 = sh.n / 3, c1 = sh.n;
    MatMulColsSliceBias(a, b, bias, c0, c1, &got3);
    for (size_t i = 0; i < sh.m; ++i) {
      for (size_t j = c0; j < c1; ++j) {
        ASSERT_EQ(got3.at(i, j), want2.at(i, j)) << "sliced-bias mismatch";
      }
    }
  }
}

// Packed-B MatMulTransB: the 3-arg overload (thread-local pack buffer) and
// the caller-scratch overload must agree bitwise, and shapes on both sides
// of the pack threshold must match naive within tolerance (covered above);
// here we pin pack-vs-scratch equivalence.
TEST(MatrixKernelConformance, PackedTransBScratchOverloadMatches) {
  Rng rng(707);
  const struct { size_t m, k, n; } shapes[] = {
      {2, 4, 3},    // below the pack threshold: dot-form path
      {16, 8, 4},   // exactly at the threshold
      {64, 40, 64}, // the training backward shape
      {129, 65, 77}};
  for (const auto& sh : shapes) {
    Matrix a = RandomMatrix(sh.m, sh.k, rng);
    Matrix b = RandomMatrix(sh.n, sh.k, rng);
    Matrix got_tl, got_scratch, pack;
    MatMulTransB(a, b, &got_tl);
    MatMulTransB(a, b, &got_scratch, &pack);
    ASSERT_EQ(got_tl.rows(), got_scratch.rows());
    for (size_t i = 0; i < got_tl.size(); ++i) {
      ASSERT_EQ(got_tl.data()[i], got_scratch.data()[i])
          << "pack-scratch mismatch at " << i;
    }
    Matrix want;
    NaiveMatMulTransB(a, b, &want);
    ExpectNear(got_scratch, want, "MatMulTransB(packed)", sh.m, sh.k, sh.n);
  }
}

TEST(MatrixKernelConformance, RowMaxMatchesScalarFold) {
  Rng rng(909);
  for (size_t n : {size_t{1}, size_t{3}, size_t{7}, size_t{8}, size_t{9},
                   size_t{16}, size_t{24}, size_t{31}, size_t{300}}) {
    std::vector<float> v(n);
    for (auto& x : v) x = static_cast<float>(rng.NextGaussian());
    float want = v[0];
    for (float x : v) want = std::max(want, x);
    EXPECT_EQ(RowMax(v.data(), n), want) << "n=" << n;
  }
}

TEST(MatrixKernelConformance, LargeShapesCrossParallelThreshold) {
  // Shapes big enough to take the ParallelFor path with several shards.
  Rng rng(404);
  const struct { size_t m, k, n; } shapes[] = {
      {129, 65, 77}, {256, 40, 256}, {100, 256, 96}, {515, 33, 17}};
  for (const auto& s : shapes) {
    Matrix a = RandomMatrix(s.m, s.k, rng);
    Matrix b = RandomMatrix(s.k, s.n, rng);
    Matrix got, want;
    MatMul(a, b, &got);
    NaiveMatMul(a, b, &want);
    ExpectNear(got, want, "MatMul(parallel)", s.m, s.k, s.n);

    Matrix bt = RandomMatrix(s.n, s.k, rng);
    Matrix got_t, want_t;
    MatMulTransB(a, bt, &got_t);
    NaiveMatMulTransB(a, bt, &want_t);
    ExpectNear(got_t, want_t, "MatMulTransB(parallel)", s.m, s.k, s.n);
  }
}

TEST(MatrixKernelConformance, ResizePreservesContentsOnSameShape) {
  Matrix m(3, 5);
  for (size_t i = 0; i < m.size(); ++i) m.data()[i] = static_cast<float>(i);
  m.Resize(3, 5);
  for (size_t i = 0; i < m.size(); ++i) {
    EXPECT_EQ(m.data()[i], static_cast<float>(i));
  }
  m.Resize(5, 3);  // shape change -> zero-filled
  for (size_t i = 0; i < m.size(); ++i) EXPECT_EQ(m.data()[i], 0.0f);
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  for (size_t width : {size_t{1}, size_t{3}}) {
    ThreadPool pool(width - 1);
    std::vector<int> hits(1000, 0);
    pool.ParallelFor(0, hits.size(), 7, [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) ++hits[i];
    });
    for (size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i], 1) << "index " << i << " at width " << width;
    }
  }
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::vector<int> outer(8, 0);
  pool.ParallelFor(0, outer.size(), 1, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      std::vector<int> inner(64, 0);
      pool.ParallelFor(0, inner.size(), 4, [&](size_t jlo, size_t jhi) {
        for (size_t j = jlo; j < jhi; ++j) ++inner[j];
      });
      int sum = 0;
      for (int v : inner) sum += v;
      outer[i] = sum;
    }
  });
  for (int v : outer) EXPECT_EQ(v, 64);
}

}  // namespace
}  // namespace restore
