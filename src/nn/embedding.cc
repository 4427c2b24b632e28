#include "nn/embedding.h"

#include <cassert>
#include <cstring>

#include "common/thread_pool.h"

namespace restore {

EmbeddingSet::EmbeddingSet(const std::vector<int>& vocab_sizes,
                           size_t embed_dim, Rng& rng)
    : embed_dim_(embed_dim) {
  tables_.resize(vocab_sizes.size());
  for (size_t i = 0; i < vocab_sizes.size(); ++i) {
    tables_[i].Init(static_cast<size_t>(vocab_sizes[i]), embed_dim);
    // Small gaussian init as usual for embeddings.
    for (size_t k = 0; k < tables_[i].value.size(); ++k) {
      tables_[i].value.data()[k] =
          static_cast<float>(rng.NextGaussian(0.0, 0.1));
    }
  }
}

void EmbeddingSet::Forward(const IntMatrix& codes, Matrix* out) {
  codes_cache_ = codes;
  ForwardInference(codes, out);
}

void EmbeddingSet::ForwardInference(const IntMatrix& codes,
                                    Matrix* out) const {
  assert(codes.cols() == tables_.size());
  out->Resize(codes.rows(), output_dim());
  const size_t row_bytes = embed_dim_ * sizeof(float);
  // Gather rows are independent: shard them across the pool (fixed grain).
  ParallelFor(0, codes.rows(), 64, [&](size_t lo, size_t hi) {
    for (size_t r = lo; r < hi; ++r) {
      float* orow = out->row(r);
      for (size_t a = 0; a < tables_.size(); ++a) {
        const int32_t code = codes.at(r, a);
        assert(code >= 0 &&
               code < static_cast<int32_t>(tables_[a].value.rows()));
        std::memcpy(orow + a * embed_dim_,
                    tables_[a].value.row(static_cast<size_t>(code)),
                    row_bytes);
      }
    }
  });
}

void EmbeddingSet::Backward(const Matrix& dout) {
  assert(dout.rows() == codes_cache_.rows());
  assert(dout.cols() == output_dim());
  // Scatter-adds into the same table row can collide ACROSS batch rows, so
  // rows cannot be sharded — but different ATTRIBUTES write disjoint tables.
  // Each shard walks the batch in ascending order, so per-table accumulation
  // order is fixed regardless of thread count.
  ParallelFor(0, tables_.size(), 1, [&](size_t a_lo, size_t a_hi) {
    for (size_t a = a_lo; a < a_hi; ++a) {
      Param& table = tables_[a];
      for (size_t r = 0; r < codes_cache_.rows(); ++r) {
        const int32_t code = codes_cache_.at(r, a);
        float* grad = table.grad.row(static_cast<size_t>(code));
        const float* src = dout.row(r) + a * embed_dim_;
        for (size_t k = 0; k < embed_dim_; ++k) grad[k] += src[k];
      }
    }
  });
}

}  // namespace restore
