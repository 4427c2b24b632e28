#ifndef RESTORE_STORAGE_VALUE_H_
#define RESTORE_STORAGE_VALUE_H_

#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>

namespace restore {

/// Physical column types supported by the storage layer.
///
/// Categorical columns are dictionary-encoded: cell values are int64 codes
/// into a per-column dictionary of strings (see Column::dictionary()).
enum class ColumnType {
  kInt64,
  kDouble,
  kCategorical,
};

const char* ColumnTypeName(ColumnType type);

/// Sentinel used to represent NULL in int64/categorical cells (e.g. foreign
/// keys of synthesized tuples, which completion models do not generate).
inline constexpr int64_t kNullInt64 = std::numeric_limits<int64_t>::min();

/// NULL for double cells.
inline double NullDouble() {
  return std::numeric_limits<double>::quiet_NaN();
}

inline bool IsNullDouble(double v) { return std::isnan(v); }

/// A dynamically-typed cell value used at API boundaries (row appends,
/// literals in SQL predicates). Columnar storage itself never materializes
/// Value objects per cell.
///
/// A tagged struct: `kind_` says which member holds the value, and the
/// others stay at their defaults. Every member is always initialized, so
/// copies read no indeterminate bytes.
class Value {
 public:
  Value() = default;

  static Value Null() { return Value(); }
  static Value Int64(int64_t v) {
    Value out(Kind::kInt64);
    out.int64_ = v;
    return out;
  }
  static Value Double(double v) {
    Value out(Kind::kDouble);
    out.double_ = v;
    return out;
  }
  static Value Categorical(std::string v) {
    Value out(Kind::kString);
    out.string_ = std::move(v);
    return out;
  }

  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_int64() const { return kind_ == Kind::kInt64; }
  bool is_double() const { return kind_ == Kind::kDouble; }
  bool is_string() const { return kind_ == Kind::kString; }

  int64_t int64() const {
    assert(is_int64());
    return int64_;
  }
  double double_value() const {
    assert(is_double());
    return double_;
  }
  const std::string& string_value() const {
    assert(is_string());
    return string_;
  }

  /// Numeric view: int64 and double cells as double (used by predicates and
  /// aggregates). Must not be called on string/null values.
  double AsDouble() const {
    if (is_int64()) return static_cast<double>(int64());
    return double_value();
  }

  /// Same kind and equal held member (a NaN double is unequal to itself).
  bool operator==(const Value& other) const {
    if (kind_ != other.kind_) return false;
    switch (kind_) {
      case Kind::kNull:
        return true;
      case Kind::kInt64:
        return int64_ == other.int64_;
      case Kind::kDouble:
        return double_ == other.double_;
      case Kind::kString:
        return string_ == other.string_;
    }
    return false;
  }

  std::string ToString() const;

 private:
  enum class Kind : uint8_t { kNull, kInt64, kDouble, kString };
  explicit Value(Kind kind) : kind_(kind) {}

  Kind kind_ = Kind::kNull;
  int64_t int64_ = 0;
  double double_ = 0.0;
  std::string string_;
};

}  // namespace restore

#endif  // RESTORE_STORAGE_VALUE_H_
