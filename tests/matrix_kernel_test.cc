// Conformance property tests for the blocked/vectorized GEMM kernels: the
// dispatched kernels (AVX2 or portable, threaded or inline) must match a
// naive reference implementation within tolerance across random rectangular
// shapes, including empty, 1xN, and non-multiple-of-tile sizes that exercise
// every micro-kernel edge path. The unit-major kernel's bit-identity
// contract is checked per ISA variant: this file compiles both variants of
// gemm_kernels.inc itself, the way matrix.cc does, so the generic variant
// is checked on AVX2 machines too.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "nn/matrix.h"

#define RESTORE_RESTRICT __restrict__
#pragma GCC diagnostic ignored "-Wpsabi"
#pragma GCC diagnostic ignored "-Wunused-function"

namespace restore {
namespace {

namespace generic_variant {
#define RESTORE_GEMM_TARGET
#define RESTORE_GEMM_HAVE_FMA 0
#include "nn/gemm_kernels.inc"
#undef RESTORE_GEMM_HAVE_FMA
#undef RESTORE_GEMM_TARGET
}  // namespace generic_variant

#if defined(__x86_64__) || defined(__i386__)
#define RESTORE_TEST_AVX2_VARIANT 1
namespace avx2_variant {
#define RESTORE_GEMM_TARGET __attribute__((target("avx2,fma")))
#define RESTORE_GEMM_HAVE_FMA 1
#include "nn/gemm_kernels.inc"
#undef RESTORE_GEMM_HAVE_FMA
#undef RESTORE_GEMM_TARGET
}  // namespace avx2_variant
#endif

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
        Matrix got, want, pack;
        MatMulTransB(a, b, &got, &pack);
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

// One ISA variant's row-major and unit-major kernels.
struct KernelVariant {
  const char* name;
  void (*matmul_rows)(const float*, const float*, float*, size_t, size_t,
                      size_t, size_t);
  void (*matmul_rows_bias)(const float*, const float*, float*, size_t,
                           size_t, size_t, size_t, const float*);
  void (*unit_major)(const UnitPanel&, size_t, size_t);
  void (*softmax_panel)(const SoftmaxBlock&, size_t, size_t);
};

std::vector<KernelVariant> RunnableVariants() {
  std::vector<KernelVariant> variants = {
      {"generic", generic_variant::MatMulRowsKernel,
       generic_variant::MatMulRowsBiasKernel,
       generic_variant::UnitMajorKernel,
       generic_variant::SoftmaxPanelKernel}};
#ifdef RESTORE_TEST_AVX2_VARIANT
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    variants.push_back({"avx2", avx2_variant::MatMulRowsKernel,
                        avx2_variant::MatMulRowsBiasKernel,
                        avx2_variant::UnitMajorKernel,
                        avx2_variant::SoftmaxPanelKernel});
  }
#endif
  return variants;
}

uint32_t Bits(float v) {
  uint32_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

// The unit-major kernel against the row-major MatMul kernel of the SAME
// variant, on a masked layer: every weight outside the panel's input list
// is a masked ±0 (W * 0 keeps W's sign), which the row-major kernel
// multiplies in and the unit-major kernel skips. For each of the 16
// epilogue combinations the unit-major output must equal, bit for bit, the
// row-major chain (+ bias inside its store phase) followed by the remaining
// stages as separate per-element passes in the documented order — and it
// must write only its output rows within [r0, r1).
TEST(MatrixKernelConformance, UnitMajorMatchesRowMajorKernelBitExact) {
  Rng rng(505);
  const size_t kRowCounts[] = {1, 7, 8, 9, 31, 32, 33, 40, 77, 130};
  for (const KernelVariant& variant : RunnableVariants()) {
    for (int trial = 0; trial < 60; ++trial) {
      const size_t rows = kRowCounts[trial % 10];
      const size_t k = 1 + rng.NextUint64(40);      // all inputs
      const size_t n = 1 + rng.NextUint64(12);      // layer width
      const size_t ld = rows + rng.NextUint64(9);   // row stride >= rows
      // The panel: a random ascending subset of inputs (possibly empty)
      // and a random subset of the layer's units as its outputs.
      std::vector<uint32_t> in_rows, out_rows;
      for (uint32_t p = 0; p < k; ++p) {
        if (rng.NextUint64(3) != 0) in_rows.push_back(p);
      }
      for (uint32_t j = 0; j < n; ++j) {
        if (rng.NextUint64(2) != 0) out_rows.push_back(j);
      }
      if (out_rows.empty()) out_rows.push_back(static_cast<uint32_t>(n - 1));
      // Row-major operands: x [rows x k], masked weight [k x n].
      Matrix x = RandomMatrix(rows, k, rng);
      Matrix w = RandomMatrix(k, n, rng);
      std::vector<bool> connected(k, false);
      for (uint32_t p : in_rows) connected[p] = true;
      for (size_t p = 0; p < k; ++p) {
        if (connected[p]) continue;
        for (size_t j = 0; j < n; ++j) w.at(p, j) *= 0.0f;  // ±0
      }
      Matrix bias = RandomMatrix(1, n, rng);
      Matrix addend = RandomMatrix(rows, n, rng);
      Matrix residual = RandomMatrix(rows, n, rng);
      // Unit-major copies and packed panel weights.
      std::vector<float> xt(k * ld, 0.0f), rt(n * ld, 0.0f);
      std::vector<float> at(out_rows.size() * ld, 0.0f);
      for (size_t r = 0; r < rows; ++r) {
        for (size_t p = 0; p < k; ++p) xt[p * ld + r] = x.at(r, p);
        for (size_t j = 0; j < n; ++j) rt[j * ld + r] = residual.at(r, j);
        for (size_t j = 0; j < out_rows.size(); ++j) {
          at[j * ld + r] = addend.at(r, out_rows[j]);
        }
      }
      std::vector<float> packed, packed_bias;
      for (uint32_t j : out_rows) {
        for (uint32_t p : in_rows) packed.push_back(w.at(p, j));
        packed_bias.push_back(bias.at(0, j));
      }
      const size_t r0 = rows > 9 ? rng.NextUint64(rows / 3) : 0;
      const size_t r1 = rows - (rows > 9 ? rng.NextUint64(rows / 3) : 0);
      for (int combo = 0; combo < 16; ++combo) {
        const bool use_bias = combo & 1, use_addend = combo & 2;
        const bool relu = combo & 4, use_residual = combo & 8;
        Matrix want(rows, n);
        if (use_bias) {
          variant.matmul_rows_bias(x.data(), w.data(), want.data(), 0, rows,
                                   k, n, bias.data());
        } else {
          variant.matmul_rows(x.data(), w.data(), want.data(), 0, rows, k, n);
        }
        for (size_t r = 0; r < rows; ++r) {
          for (size_t j = 0; j < n; ++j) {
            float v = want.at(r, j);
            if (use_addend) v += addend.at(r, j);
            if (relu) v = std::max(0.0f, v);
            if (use_residual) v += residual.at(r, j);
            want.at(r, j) = v;
          }
        }
        const float sentinel = -12345.0f;
        std::vector<float> y(n * ld, sentinel);
        UnitPanel panel;
        panel.x = xt.data();
        panel.in_rows = in_rows.data();
        panel.num_in = in_rows.size();
        panel.weights = packed.data();
        panel.bias = use_bias ? packed_bias.data() : nullptr;
        panel.addend = use_addend ? at.data() : nullptr;
        panel.relu = relu;
        panel.residual = use_residual ? rt.data() : nullptr;
        panel.out_rows = out_rows.data();
        panel.num_out = out_rows.size();
        panel.y = y.data();
        panel.ld = ld;
        variant.unit_major(panel, r0, r1);
        std::vector<bool> is_out(n, false);
        for (uint32_t j : out_rows) is_out[j] = true;
        for (size_t j = 0; j < n; ++j) {
          for (size_t r = 0; r < ld; ++r) {
            const float got = y[j * ld + r];
            if (is_out[j] && r >= r0 && r < r1) {
              ASSERT_EQ(Bits(got), Bits(want.at(r, j)))
                  << variant.name << " trial " << trial << " combo " << combo
                  << " unit " << j << " row " << r << " (rows=" << rows
                  << " k=" << k << " inputs=" << in_rows.size() << ")";
            } else {
              ASSERT_EQ(Bits(got), Bits(sentinel))
                  << variant.name << " wrote outside its panel at unit " << j
                  << " row " << r;
            }
          }
        }
      }
    }
  }
}

// The per-row softmax and early-exit inverse-CDF pick that SoftmaxPanel
// runs eight rows a vector: a std::max fold, std::exp, a float sum,
// inv = 1 / sum, p = e * inv, and a double walk that stops at the first
// u < acc. `acc` gets each code's running sum.
void ScalarSoftmaxRow(const std::vector<float>& logits, double u,
                      std::vector<float>* e, std::vector<float>* p,
                      std::vector<double>* acc, int32_t* pick) {
  const size_t vocab = logits.size();
  float max_v = logits[0];
  for (float l : logits) max_v = std::max(max_v, l);
  float sum = 0.0f;
  for (size_t c = 0; c < vocab; ++c) {
    (*e)[c] = std::exp(logits[c] - max_v);
    sum += (*e)[c];
  }
  const float inv = 1.0f / sum;
  for (size_t c = 0; c < vocab; ++c) (*p)[c] = (*e)[c] * inv;
  double running = 0.0;
  for (size_t c = 0; c < vocab; ++c) {
    running += (*p)[c];
    (*acc)[c] = running;
  }
  *pick = static_cast<int32_t>(vocab) - 1;
  for (size_t c = 0; c < vocab; ++c) {
    if (u < (*acc)[c]) {
      *pick = static_cast<int32_t>(c);
      break;
    }
  }
}

// SoftmaxPanel against the scalar row softmax, per ISA variant, bit for
// bit: the exp terms written back into the block, the row-major
// probabilities and the picks, in its three modes (probabilities, picks,
// both), over row ranges with tails of every length, tied maxima (integer
// logits), uniforms equal to a running sum and above the last one. Nothing
// outside rows [r0, r1) of the block, the probabilities and the picks may
// change.
TEST(MatrixKernelConformance, SoftmaxPanelMatchesScalarSoftmaxBitExact) {
  Rng rng(707);
  const size_t kVocabs[] = {1, 2, 5, 8, 9, 12, 33, 150, 300};
  const size_t kPickStride = 3;
  size_t equal_u = 0, above_u = 0;
  for (const KernelVariant& variant : RunnableVariants()) {
    for (const size_t vocab : kVocabs) {
      for (int trial = 0; trial < 8; ++trial) {
        const size_t rows = 1 + rng.NextUint64(41);
        const size_t ld = rows + rng.NextUint64(9);
        const size_t r0 = rng.NextUint64(rows / 3 + 1);
        const size_t r1 = rows - rng.NextUint64((rows - r0) / 3 + 1);
        const bool ties = trial % 2 == 1;
        std::vector<float> block(vocab * ld);
        for (float& l : block) {
          const double g = rng.NextGaussian() * 3.0;
          l = static_cast<float>(ties ? std::floor(g) : g);
        }
        // References, then uniforms placed on a running sum or past the
        // last one; the reference pick reads the final uniform.
        std::vector<double> u(ld, 0.0);
        std::vector<std::vector<float>> e(ld), p(ld);
        std::vector<int32_t> pick(ld, 0);
        for (size_t r = r0; r < r1; ++r) {
          std::vector<float> logits(vocab);
          for (size_t c = 0; c < vocab; ++c) logits[c] = block[c * ld + r];
          e[r].resize(vocab);
          p[r].resize(vocab);
          std::vector<double> acc(vocab);
          ScalarSoftmaxRow(logits, 0.0, &e[r], &p[r], &acc, &pick[r]);
          switch (rng.NextUint64(4)) {
            case 0:
              u[r] = acc[rng.NextUint64(vocab)];
              ++equal_u;
              break;
            case 1:
              u[r] = std::nextafter(acc[vocab - 1], 2.0);
              ++above_u;
              break;
            default:
              u[r] = rng.NextDouble();
          }
          ScalarSoftmaxRow(logits, u[r], &e[r], &p[r], &acc, &pick[r]);
        }
        for (int mode = 1; mode <= 3; ++mode) {
          const bool want_probs = mode & 1, want_picks = mode & 2;
          const float sentinel = -12345.0f;
          std::vector<float> got_block = block;
          std::vector<float> probs(ld * vocab, sentinel);
          std::vector<int32_t> picks(ld * kPickStride, -7);
          SoftmaxBlock sb;
          sb.logits = got_block.data();
          sb.vocab = vocab;
          sb.ld = ld;
          sb.probs = want_probs ? probs.data() : nullptr;
          sb.u = u.data();
          sb.picks = want_picks ? picks.data() : nullptr;
          sb.pick_stride = kPickStride;
          variant.softmax_panel(sb, r0, r1);
          const auto where = [&](size_t r) {
            return std::string(variant.name) + " vocab " +
                   std::to_string(vocab) + " mode " + std::to_string(mode) +
                   " row " + std::to_string(r) + " of [" +
                   std::to_string(r0) + ", " + std::to_string(r1) + ")";
          };
          for (size_t r = 0; r < ld; ++r) {
            const bool in = r >= r0 && r < r1;
            for (size_t c = 0; c < vocab; ++c) {
              ASSERT_EQ(Bits(got_block[c * ld + r]),
                        Bits(in ? e[r][c] : block[c * ld + r]))
                  << where(r) << " code " << c;
              ASSERT_EQ(Bits(probs[r * vocab + c]),
                        Bits(in && want_probs ? p[r][c] : sentinel))
                  << where(r) << " code " << c;
            }
            for (size_t k = 0; k < kPickStride; ++k) {
              const int32_t want =
                  in && want_picks && k == 0 ? pick[r] : -7;
              ASSERT_EQ(picks[r * kPickStride + k], want) << where(r);
            }
          }
        }
      }
    }
  }
  EXPECT_GT(equal_u, 0u);
  EXPECT_GT(above_u, 0u);
}

// The fused bias (added in the store phase) must be bit-identical to the
// separate MatMul + AddBiasRows passes — including the degenerate k == 0
// product, where the bias applies to an all-zero GEMM result.
TEST(MatrixKernelConformance, MatMulFusedMatchesSeparatePassesBitExact) {
  Rng rng(606);
  const struct { size_t m, k, n; } shapes[] = {
      {1, 1, 1}, {3, 0, 7}, {3, 5, 7}, {4, 8, 24}, {17, 9, 33}, {64, 40, 64},
      {129, 65, 77}};
  for (const auto& sh : shapes) {
    Matrix a = RandomMatrix(sh.m, sh.k, rng);
    Matrix b = RandomMatrix(sh.k, sh.n, rng);
    Matrix bias = RandomMatrix(1, sh.n, rng);
    Matrix want;
    MatMul(a, b, &want);
    AddBiasRows(bias, &want);
    Matrix got;
    MatMulFused(a, b, &bias, &got);
    ASSERT_EQ(got.rows(), want.rows());
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got.data()[i], want.data()[i])
          << "fused mismatch at " << i << " for m=" << sh.m << " k=" << sh.k
          << " n=" << sh.n;
    }
  }
}

// Packed-B MatMulTransB: a pack tile reused across shapes (as a layer's
// backward pass reuses its own for the short tail batch) must give the bits
// of a fresh one, and shapes on both sides of the pack threshold must match
// naive within tolerance.
TEST(MatrixKernelConformance, PackedTransBReusedScratchMatchesFresh) {
  Rng rng(707);
  const struct { size_t m, k, n; } shapes[] = {
      {129, 65, 77},
      {2, 4, 3},    // below the pack threshold: dot-form path
      {16, 8, 4},   // exactly at the threshold
      {64, 40, 64}, // the training backward shape
      {20, 9, 5}};
  Matrix reused;
  for (const auto& sh : shapes) {
    Matrix a = RandomMatrix(sh.m, sh.k, rng);
    Matrix b = RandomMatrix(sh.n, sh.k, rng);
    Matrix got_fresh, got_scratch, fresh;
    MatMulTransB(a, b, &got_fresh, &fresh);
    MatMulTransB(a, b, &got_scratch, &reused);
    ASSERT_EQ(got_fresh.rows(), got_scratch.rows());
    for (size_t i = 0; i < got_fresh.size(); ++i) {
      ASSERT_EQ(got_fresh.data()[i], got_scratch.data()[i])
          << "reused pack tile mismatch at " << i;
    }
    Matrix want;
    NaiveMatMulTransB(a, b, &want);
    ExpectNear(got_scratch, want, "MatMulTransB(packed)", sh.m, sh.k, sh.n);
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
    Matrix got_t, want_t, pack;
    MatMulTransB(a, bt, &got_t, &pack);
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
