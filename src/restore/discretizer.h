#ifndef RESTORE_RESTORE_DISCRETIZER_H_
#define RESTORE_RESTORE_DISCRETIZER_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "storage/column.h"

namespace restore {

/// Maps one column to a finite code domain for the autoregressive models and
/// back:
///  * categorical columns: identity over dictionary codes;
///  * numeric columns (int64/double): equi-depth bins over the observed
///    values; decoding samples uniformly within the bin's observed range
///    (rounded for int64 columns).
///
/// The discretizer is fitted on the AVAILABLE (incomplete) data; codes are
/// the vocabulary the MADE models are trained on.
class ColumnDiscretizer {
 public:
  ColumnDiscretizer() = default;

  /// Fits a discretizer to the non-null values of `column`.
  /// `max_bins` bounds the code domain for numeric columns.
  static Result<ColumnDiscretizer> Fit(const Column& column, int max_bins);

  ColumnType column_type() const { return type_; }
  int vocab_size() const { return vocab_size_; }

  /// Encodes row `row` of `column` (which must have the same type; typically
  /// the fitted column or a joined copy of it). Null cells return -1; other
  /// cells return EncodeCode of their dictionary code (categorical) or
  /// EncodeNumeric of their value (numeric).
  int32_t EncodeCell(const Column& column, size_t row) const;

  /// Encodes a raw numeric value (numeric discretizers only): the first bin
  /// whose upper edge is >= value, or the last bin above every edge. That
  /// is the count of edges below `value` (std::lower_bound's index on the
  /// sorted edges), taken without branches; NaN counts none, so it lands in
  /// bin 0.
  int32_t EncodeNumeric(double value) const {
    size_t below = 0;
    for (const double edge : upper_edges_) below += edge < value;
    return static_cast<int32_t>(below) -
           static_cast<int32_t>(below == upper_edges_.size());
  }

  /// Encodes a dictionary code (categorical discretizers only). Codes beyond
  /// the fitted vocabulary (possible if the dictionary grew after fitting)
  /// are clamped to the last known code.
  int32_t EncodeCode(int64_t code) const {
    return static_cast<int32_t>(std::min<int64_t>(code, vocab_size_ - 1));
  }

  /// Decodes `code` into a cell value appended to `out`. Numeric codes are
  /// jittered uniformly inside the bin; categorical codes append directly.
  void DecodeInto(int32_t code, Column* out, Rng& rng) const;

  /// Representative (expected) numeric value of a code: the bin mean for
  /// numeric columns, the code itself for categorical ones. Used by the
  /// confidence-interval machinery for AVG queries.
  double CodeMean(int32_t code) const;

  /// Serializes the fitted bins (model persistence). Load restores a
  /// discretizer that encodes/decodes bit-identically to the saved one.
  void Save(BinaryWriter* w) const;
  static Result<ColumnDiscretizer> Load(BinaryReader* r);

 private:
  ColumnType type_ = ColumnType::kInt64;
  int vocab_size_ = 0;
  // Numeric bins: value v falls in bin b iff upper_edges_[b-1] < v <=
  // upper_edges_[b] (bin 0 has no lower bound). lo/hi/mean describe the
  // observed values per bin for decoding.
  std::vector<double> upper_edges_;
  std::vector<double> bin_lo_;
  std::vector<double> bin_hi_;
  std::vector<double> bin_mean_;
};

/// Discretizers for a set of columns of one (joined) table, in a fixed
/// attribute order.
class RowEncoder {
 public:
  RowEncoder() = default;

  void Add(std::string qualified_name, ColumnDiscretizer disc) {
    names_.push_back(std::move(qualified_name));
    discs_.push_back(std::move(disc));
  }

  size_t num_attrs() const { return discs_.size(); }
  const std::string& name(size_t i) const { return names_[i]; }
  const ColumnDiscretizer& discretizer(size_t i) const { return discs_[i]; }

  std::vector<int> VocabSizes() const {
    std::vector<int> out;
    out.reserve(discs_.size());
    for (const auto& d : discs_) out.push_back(d.vocab_size());
    return out;
  }

 private:
  std::vector<std::string> names_;
  std::vector<ColumnDiscretizer> discs_;
};

}  // namespace restore

#endif  // RESTORE_RESTORE_DISCRETIZER_H_
