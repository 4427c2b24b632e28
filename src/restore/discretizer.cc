#include "restore/discretizer.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace restore {

Result<ColumnDiscretizer> ColumnDiscretizer::Fit(const Column& column,
                                                 int max_bins) {
  ColumnDiscretizer disc;
  disc.type_ = column.type();

  if (column.type() == ColumnType::kCategorical) {
    disc.vocab_size_ = static_cast<int>(column.dictionary()->size());
    if (disc.vocab_size_ == 0) {
      return Status::InvalidArgument(
          StrFormat("categorical column '%s' has an empty dictionary",
                    column.name().c_str()));
    }
    return disc;
  }

  // Numeric: gather non-null values, sort, cut into equi-depth bins.
  std::vector<double> values;
  values.reserve(column.size());
  for (size_t r = 0; r < column.size(); ++r) {
    if (!column.IsNull(r)) values.push_back(column.GetNumeric(r));
  }
  if (values.empty()) {
    return Status::InvalidArgument(
        StrFormat("column '%s' has no non-null values to fit",
                  column.name().c_str()));
  }
  std::sort(values.begin(), values.end());

  // Distinct-aware equi-depth binning: bin edges are distinct values, so a
  // low-cardinality int column (e.g. years) gets one bin per value.
  const size_t n = values.size();
  const int bins = std::max(1, max_bins);
  std::vector<double> edges;  // upper edge per bin (inclusive)
  size_t start = 0;
  while (start < n && static_cast<int>(edges.size()) < bins) {
    const int remaining_bins = bins - static_cast<int>(edges.size());
    const size_t target = start + (n - start) / remaining_bins;
    size_t idx = std::min(target == start ? start : target - 1, n - 1);
    double edge = values[idx];
    // Extend to the end of the run of equal values so bins are well defined.
    while (idx + 1 < n && values[idx + 1] == edge) ++idx;
    // Last bin must absorb the maximum.
    if (static_cast<int>(edges.size()) == bins - 1) {
      idx = n - 1;
      edge = values[idx];
    }
    edges.push_back(edge);
    start = idx + 1;
  }
  if (edges.empty() || edges.back() < values.back()) {
    edges.push_back(values.back());
  }

  disc.upper_edges_ = edges;
  disc.vocab_size_ = static_cast<int>(edges.size());
  disc.bin_lo_.assign(edges.size(), 0.0);
  disc.bin_hi_.assign(edges.size(), 0.0);
  disc.bin_mean_.assign(edges.size(), 0.0);
  std::vector<size_t> counts(edges.size(), 0);
  size_t b = 0;
  for (size_t i = 0; i < n; ++i) {
    while (values[i] > edges[b]) ++b;
    if (counts[b] == 0) disc.bin_lo_[b] = values[i];
    disc.bin_hi_[b] = values[i];
    disc.bin_mean_[b] += values[i];
    ++counts[b];
  }
  for (size_t k = 0; k < edges.size(); ++k) {
    if (counts[k] > 0) {
      disc.bin_mean_[k] /= static_cast<double>(counts[k]);
    } else {
      // Empty bin (possible only via duplicate edges); use the edge value.
      disc.bin_lo_[k] = disc.bin_hi_[k] = disc.bin_mean_[k] = edges[k];
    }
  }
  return disc;
}

int32_t ColumnDiscretizer::EncodeCell(const Column& column, size_t row) const {
  if (column.IsNull(row)) return -1;
  if (type_ == ColumnType::kCategorical) return EncodeCode(column.GetCode(row));
  return EncodeNumeric(column.GetNumeric(row));
}

void ColumnDiscretizer::DecodeInto(int32_t code, Column* out,
                                   Rng& rng) const {
  if (code < 0) {
    out->AppendNull();
    return;
  }
  if (type_ == ColumnType::kCategorical) {
    out->AppendCode(code);
    return;
  }
  const size_t b = static_cast<size_t>(code);
  const double lo = bin_lo_[b];
  const double hi = bin_hi_[b];
  const double v = lo == hi ? lo : rng.NextUniform(lo, hi);
  if (type_ == ColumnType::kInt64) {
    out->AppendInt64(static_cast<int64_t>(std::llround(v)));
  } else {
    out->AppendDouble(v);
  }
}

double ColumnDiscretizer::CodeMean(int32_t code) const {
  if (code < 0) return 0.0;
  if (type_ == ColumnType::kCategorical) return static_cast<double>(code);
  return bin_mean_[static_cast<size_t>(code)];
}

void ColumnDiscretizer::Save(BinaryWriter* w) const {
  w->U32(static_cast<uint32_t>(type_));
  w->I32(vocab_size_);
  w->VecF64(upper_edges_);
  w->VecF64(bin_lo_);
  w->VecF64(bin_hi_);
  w->VecF64(bin_mean_);
}

Result<ColumnDiscretizer> ColumnDiscretizer::Load(BinaryReader* r) {
  ColumnDiscretizer disc;
  const uint32_t type = r->U32();
  if (type > static_cast<uint32_t>(ColumnType::kCategorical)) {
    return Status::InvalidArgument("invalid column type in discretizer");
  }
  disc.type_ = static_cast<ColumnType>(type);
  disc.vocab_size_ = r->I32();
  disc.upper_edges_ = r->VecF64();
  disc.bin_lo_ = r->VecF64();
  disc.bin_hi_ = r->VecF64();
  disc.bin_mean_ = r->VecF64();
  RESTORE_RETURN_IF_ERROR(r->status());
  if (disc.vocab_size_ < 0) {
    return Status::InvalidArgument("negative vocab size in discretizer");
  }
  if (disc.type_ != ColumnType::kCategorical) {
    const size_t bins = static_cast<size_t>(disc.vocab_size_);
    if (disc.upper_edges_.size() != bins || disc.bin_lo_.size() != bins ||
        disc.bin_hi_.size() != bins || disc.bin_mean_.size() != bins) {
      return Status::InvalidArgument(
          "discretizer bin arrays do not match its vocab size");
    }
  }
  return disc;
}

}  // namespace restore
