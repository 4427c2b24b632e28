#include "restore/nn_replace.h"

#include <cmath>

#include "common/string_util.h"
#include "restore/kd_tree.h"

namespace restore {

Result<EuclideanReplacer> EuclideanReplacer::Build(
    const Table& table, const std::vector<std::string>& attr_columns,
    size_t max_leaves) {
  if (table.NumRows() == 0) {
    return Status::FailedPrecondition(
        StrFormat("cannot build replacer over empty table '%s'",
                  table.name().c_str()));
  }
  EuclideanReplacer rep;
  rep.attr_columns_ = attr_columns;
  rep.max_leaves_ = max_leaves;
  rep.dim_ = attr_columns.size();
  rep.means_.assign(rep.dim_, 0.0);
  rep.inv_stddevs_.assign(rep.dim_, 1.0);

  std::vector<const Column*> cols;
  for (const auto& name : attr_columns) {
    RESTORE_ASSIGN_OR_RETURN(const Column* col, table.GetColumn(name));
    cols.push_back(col);
  }
  // Column statistics for standardization (categorical codes are treated as
  // numeric; shared dictionaries make codes comparable across sides).
  for (size_t d = 0; d < rep.dim_; ++d) {
    double sum = 0.0;
    double sq = 0.0;
    size_t n = 0;
    for (size_t r = 0; r < table.NumRows(); ++r) {
      if (cols[d]->IsNull(r)) continue;
      const double v = cols[d]->GetNumeric(r);
      sum += v;
      sq += v * v;
      ++n;
    }
    if (n > 0) {
      const double mean = sum / static_cast<double>(n);
      const double var = sq / static_cast<double>(n) - mean * mean;
      rep.means_[d] = mean;
      rep.inv_stddevs_[d] = var > 1e-12 ? 1.0 / std::sqrt(var) : 1.0;
    }
  }
  // Standardized real tuples; the tree keeps the only copy.
  std::vector<float> points(table.NumRows() * rep.dim_, 0.0f);
  for (size_t r = 0; r < table.NumRows(); ++r) {
    for (size_t d = 0; d < rep.dim_; ++d) {
      const double v = cols[d]->IsNull(r) ? rep.means_[d]
                                          : cols[d]->GetNumeric(r);
      points[r * rep.dim_ + d] =
          static_cast<float>((v - rep.means_[d]) * rep.inv_stddevs_[d]);
    }
  }
  rep.tree_ = std::make_shared<KdTree>(std::move(points), table.NumRows(),
                                       std::max<size_t>(1, rep.dim_));
  return rep;
}

size_t EuclideanReplacer::MemoryBytes() const {
  return (means_.capacity() + inv_stddevs_.capacity()) * sizeof(double) +
         tree_->MemoryBytes();
}

Result<std::vector<size_t>> EuclideanReplacer::FindReplacements(
    const std::vector<Column>& synthesized) const {
  if (synthesized.size() != dim_) {
    return Status::InvalidArgument(
        StrFormat("expected %zu synthesized columns, got %zu", dim_,
                  synthesized.size()));
  }
  const size_t n = synthesized.empty() ? 0 : synthesized[0].size();
  std::vector<size_t> out(n);
  std::vector<float> query(std::max<size_t>(1, dim_), 0.0f);
  for (size_t r = 0; r < n; ++r) {
    for (size_t d = 0; d < dim_; ++d) {
      const double v = synthesized[d].IsNull(r)
                           ? means_[d]
                           : synthesized[d].GetNumeric(r);
      query[d] = static_cast<float>((v - means_[d]) * inv_stddevs_[d]);
    }
    out[r] = tree_->ApproxNearestNeighbor(query.data(), max_leaves_);
  }
  return out;
}

}  // namespace restore
