#ifndef RESTORE_STORAGE_COLUMN_H_
#define RESTORE_STORAGE_COLUMN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/value.h"

namespace restore {

/// Dictionary for categorical columns: bidirectional mapping between string
/// values and dense int64 codes. Shared (by shared_ptr) between columns that
/// were derived from the same source column, so codes stay comparable across
/// projections/joins of the same table.
class Dictionary {
 public:
  Dictionary() = default;

  /// Returns the code of `value`, inserting it if unseen.
  int64_t GetOrInsert(const std::string& value);

  /// Returns the code of `value` or an error if it is not present.
  Result<int64_t> Lookup(const std::string& value) const;

  /// Returns the string for `code`. `code` must be in [0, size()).
  const std::string& ValueOf(int64_t code) const {
    return values_[static_cast<size_t>(code)];
  }

  size_t size() const { return values_.size(); }

 private:
  std::vector<std::string> values_;
  std::unordered_map<std::string, int64_t> code_of_;
};

/// A typed column. Storage is a flat vector:
///  * kInt64        -> ints_ holds raw values (kNullInt64 = NULL)
///  * kCategorical  -> ints_ holds dictionary codes (kNullInt64 = NULL)
///  * kDouble       -> doubles_ holds raw values (NaN = NULL)
class Column {
 public:
  Column(std::string name, ColumnType type);

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }
  ColumnType type() const { return type_; }
  size_t size() const {
    return type_ == ColumnType::kDouble ? doubles_.size() : ints_.size();
  }

  bool is_numeric() const { return type_ != ColumnType::kCategorical; }

  // ---- Appends ----------------------------------------------------------
  void AppendInt64(int64_t v) { ints_.push_back(v); }
  void AppendDouble(double v) { doubles_.push_back(v); }
  /// Appends a categorical value through the dictionary.
  void AppendCategorical(const std::string& v) {
    ints_.push_back(dictionary_->GetOrInsert(v));
  }
  /// Appends an already-encoded categorical code (must be valid or NULL).
  void AppendCode(int64_t code) { ints_.push_back(code); }
  void AppendNull();
  /// Appends a dynamically-typed value; checks type compatibility.
  Status AppendValue(const Value& v);

  // ---- Cell access ------------------------------------------------------
  int64_t GetInt64(size_t row) const { return ints_[row]; }
  double GetDouble(size_t row) const { return doubles_[row]; }
  /// Dictionary code for categorical cells.
  int64_t GetCode(size_t row) const { return ints_[row]; }
  bool IsNull(size_t row) const {
    return type_ == ColumnType::kDouble ? IsNullDouble(doubles_[row])
                                        : ints_[row] == kNullInt64;
  }
  /// Numeric view of a cell: int64 and double as double; categorical cells
  /// are returned as their code (useful for distance computations).
  double GetNumeric(size_t row) const {
    return type_ == ColumnType::kDouble ? doubles_[row]
                                        : static_cast<double>(ints_[row]);
  }
  /// Generic cell accessor (materializes a Value; not for hot loops).
  Value GetValue(size_t row) const;

  void SetInt64(size_t row, int64_t v) { ints_[row] = v; }
  void SetDouble(size_t row, double v) { doubles_[row] = v; }

  // ---- Bulk access ------------------------------------------------------
  const std::vector<int64_t>& ints() const { return ints_; }
  const std::vector<double>& doubles() const { return doubles_; }

  const std::shared_ptr<Dictionary>& dictionary() const {
    return dictionary_;
  }
  void set_dictionary(std::shared_ptr<Dictionary> dict) {
    dictionary_ = std::move(dict);
  }

  /// Returns an empty column of the same name/type sharing this column's
  /// dictionary.
  Column CloneEmpty() const;

  /// Returns a column with the rows listed in `rows` (gather).
  Column Gather(const std::vector<size_t>& rows) const;

  /// Appends the cells of `src` at `rows`, in that order. `src` must store
  /// the same kind of cells (double vs. int64/categorical codes); codes are
  /// copied verbatim, so categorical columns should share a dictionary.
  void AppendGather(const Column& src, const std::vector<size_t>& rows);

  void Reserve(size_t n) {
    if (type_ == ColumnType::kDouble)
      doubles_.reserve(n);
    else
      ints_.reserve(n);
  }

 private:
  std::string name_;
  ColumnType type_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::shared_ptr<Dictionary> dictionary_;  // only for kCategorical
};

}  // namespace restore

#endif  // RESTORE_STORAGE_COLUMN_H_
