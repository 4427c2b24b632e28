#include "exec/result_set.h"

#include <sstream>
#include <utility>

#include "common/string_util.h"

namespace restore {

ResultSet ResultSet::Build(const Query& query, QueryResult grouped,
                           ExecStats stats, size_t batch_rows) {
  ResultSet rs;
  rs.key_names_ = query.group_by;
  for (const auto& agg : query.aggregates) {
    rs.value_names_.push_back(
        agg.column.empty()
            ? StrFormat("%s(*)", AggregateFuncName(agg.func))
            : StrFormat("%s(%s)", AggregateFuncName(agg.func),
                        agg.column.c_str()));
  }
  rs.num_rows_ = grouped.groups.size();
  rs.key_cols_.assign(rs.key_names_.size(), {});
  for (auto& col : rs.key_cols_) col.reserve(rs.num_rows_);
  rs.value_cols_.assign(rs.value_names_.size(), {});
  for (auto& col : rs.value_cols_) col.reserve(rs.num_rows_);
  // std::map iterates in key order — the row order of the old surface.
  for (auto& [key, values] : grouped.groups) {
    for (size_t c = 0; c < rs.key_cols_.size(); ++c) {
      rs.key_cols_[c].push_back(c < key.size() ? key[c] : "");
    }
    for (size_t c = 0; c < rs.value_cols_.size(); ++c) {
      rs.value_cols_[c].push_back(c < values.size() ? values[c] : 0.0);
    }
  }
  rs.batch_rows_ = batch_rows == 0 ? 1 : batch_rows;
  rs.stats_ = std::move(stats);
  return rs;
}

bool ResultSet::NextBatch(ResultBatch* batch) {
  if (cursor_ >= num_rows_) return false;
  batch->set = this;
  batch->begin = cursor_;
  batch->rows = std::min(batch_rows_, num_rows_ - cursor_);
  cursor_ += batch->rows;
  return true;
}

int64_t ResultSet::FindRow(const std::vector<std::string>& key) const {
  if (key.size() != key_cols_.size()) return -1;
  for (size_t r = 0; r < num_rows_; ++r) {
    bool match = true;
    for (size_t c = 0; c < key_cols_.size(); ++c) {
      if (key_cols_[c][r] != key[c]) {
        match = false;
        break;
      }
    }
    if (match) return static_cast<int64_t>(r);
  }
  return -1;
}

double ResultSet::ValueOr(const std::vector<std::string>& key, size_t col,
                          double fallback) const {
  const int64_t row = FindRow(key);
  return row < 0 ? fallback : value(static_cast<size_t>(row), col);
}

std::string ResultSet::ToString() const {
  std::ostringstream os;
  for (size_t r = 0; r < num_rows_; ++r) {
    os << "(";
    for (size_t c = 0; c < key_cols_.size(); ++c) {
      if (c > 0) os << ", ";
      os << key_cols_[c][r];
    }
    os << ") -> [";
    for (size_t c = 0; c < value_cols_.size(); ++c) {
      if (c > 0) os << ", ";
      os << StrFormat("%.6g", value_cols_[c][r]);
    }
    os << "]\n";
  }
  return os.str();
}

}  // namespace restore
