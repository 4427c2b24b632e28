#ifndef RESTORE_NN_EMBEDDING_H_
#define RESTORE_NN_EMBEDDING_H_

#include <vector>

#include "common/rng.h"
#include "nn/layers.h"
#include "nn/matrix.h"

namespace restore {

/// Per-attribute learned embeddings: attribute i with vocabulary size V_i is
/// represented by a [V_i x embed_dim] table; a batch of code rows
/// [batch x n_attrs] is embedded to [batch x (n_attrs * embed_dim)]
/// (concatenation in attribute order).
class EmbeddingSet {
 public:
  EmbeddingSet() = default;
  EmbeddingSet(const std::vector<int>& vocab_sizes, size_t embed_dim,
               Rng& rng);

  size_t num_attrs() const { return tables_.size(); }
  size_t embed_dim() const { return embed_dim_; }
  size_t output_dim() const { return tables_.size() * embed_dim_; }
  int vocab_size(size_t attr) const {
    return static_cast<int>(tables_[attr].value.rows());
  }

  /// Embeds `codes` ([batch x n_attrs]) into `out`
  /// ([batch x n_attrs*embed_dim]) and keeps the codes for Backward. Codes
  /// must be in range per attribute.
  void Forward(const IntMatrix& codes, Matrix* out);

  /// Reentrant inference gather: touches no member state, so any number of
  /// threads may embed batches through one table set concurrently.
  void ForwardInference(const IntMatrix& codes, Matrix* out) const;

  /// Attribute `attr`'s [vocab x embed_dim] table (read-only; the MADE
  /// sampling path gathers from it directly into its unit-major input).
  const Matrix& table(size_t attr) const { return tables_[attr].value; }

  /// Scatter-adds `dout` into the embedding-table gradients (uses the codes
  /// from the last Forward call).
  void Backward(const Matrix& dout);

  void CollectParams(std::vector<Param*>* params) {
    for (auto& t : tables_) params->push_back(&t);
  }

 private:
  size_t embed_dim_ = 0;
  std::vector<Param> tables_;  // one [V_i x embed_dim] per attribute
  IntMatrix codes_cache_;
};

}  // namespace restore

#endif  // RESTORE_NN_EMBEDDING_H_
