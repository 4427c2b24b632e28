#ifndef RESTORE_RESTORE_NN_REPLACE_H_
#define RESTORE_RESTORE_NN_REPLACE_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "storage/table.h"

namespace restore {

/// Euclidean replacement (Figure 3 / Algorithm 1 line 18): maps synthesized
/// tuples of a table onto the most similar EXISTING tuples, so that joins
/// with complete tables never surface invented rows and the synthesized
/// tuples obtain valid keys.
///
/// Both the real table and the synthesized columns are embedded into a
/// standardized numeric space (numeric columns are z-scored, categorical
/// columns one-hot-weighted by code match via their code value — adequate
/// because both sides share dictionaries). Search uses an approximate
/// k-d-tree lookup bounded by `max_leaves`.
class EuclideanReplacer {
 public:
  /// Builds a replacer over the attribute columns `attr_columns` of `table`
  /// (names must exist in `table`).
  static Result<EuclideanReplacer> Build(
      const Table& table, const std::vector<std::string>& attr_columns,
      size_t max_leaves = 8);

  /// For every row of the synthesized columns (one Column per attribute, in
  /// the same order as `attr_columns`), returns the index of the most
  /// similar row of the real table.
  Result<std::vector<size_t>> FindReplacements(
      const std::vector<Column>& synthesized) const;

  /// Bytes held by the standardization and the k-d tree.
  size_t MemoryBytes() const;

 private:
  EuclideanReplacer() = default;

  std::vector<std::string> attr_columns_;
  std::vector<double> means_;
  std::vector<double> inv_stddevs_;
  size_t dim_ = 0;
  size_t max_leaves_ = 8;
  std::shared_ptr<class KdTree> tree_;
};

}  // namespace restore

#endif  // RESTORE_RESTORE_NN_REPLACE_H_
