#include "storage/column.h"

#include <cassert>

#include "common/string_util.h"

namespace restore {

int64_t Dictionary::GetOrInsert(const std::string& value) {
  auto it = code_of_.find(value);
  if (it != code_of_.end()) return it->second;
  const int64_t code = static_cast<int64_t>(values_.size());
  values_.push_back(value);
  code_of_.emplace(value, code);
  return code;
}

Result<int64_t> Dictionary::Lookup(const std::string& value) const {
  auto it = code_of_.find(value);
  if (it == code_of_.end()) {
    return Status::NotFound(
        StrFormat("categorical value '%s' not in dictionary", value.c_str()));
  }
  return it->second;
}

Column::Column(std::string name, ColumnType type)
    : Column(std::move(name), type,
             type == ColumnType::kCategorical ? std::make_shared<Dictionary>()
                                              : nullptr) {}

Column::Column(std::string name, ColumnType type,
               std::shared_ptr<Dictionary> dictionary)
    : name_(std::move(name)), type_(type), dictionary_(std::move(dictionary)) {}

void Column::AppendNull() {
  if (type_ == ColumnType::kDouble) {
    doubles_.push_back(NullDouble());
  } else {
    ints_.push_back(kNullInt64);
  }
}

void Column::AppendNulls(size_t n) {
  if (type_ == ColumnType::kDouble) {
    doubles_.resize(doubles_.size() + n, NullDouble());
  } else {
    ints_.resize(ints_.size() + n, kNullInt64);
  }
}

Status Column::AppendValue(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return Status::OK();
  }
  switch (type_) {
    case ColumnType::kInt64:
      if (!v.is_int64()) {
        return Status::InvalidArgument(
            StrFormat("column '%s' expects int64, got %s", name_.c_str(),
                      v.ToString().c_str()));
      }
      AppendInt64(v.int64());
      return Status::OK();
    case ColumnType::kDouble:
      if (v.is_double()) {
        AppendDouble(v.double_value());
      } else if (v.is_int64()) {
        AppendDouble(static_cast<double>(v.int64()));
      } else {
        return Status::InvalidArgument(
            StrFormat("column '%s' expects double, got %s", name_.c_str(),
                      v.ToString().c_str()));
      }
      return Status::OK();
    case ColumnType::kCategorical:
      if (!v.is_string()) {
        return Status::InvalidArgument(
            StrFormat("column '%s' expects categorical, got %s",
                      name_.c_str(), v.ToString().c_str()));
      }
      AppendCategorical(v.string_value());
      return Status::OK();
  }
  return Status::Internal("unreachable column type");
}

Value Column::GetValue(size_t row) const {
  if (IsNull(row)) return Value::Null();
  switch (type_) {
    case ColumnType::kInt64:
      return Value::Int64(ints_[row]);
    case ColumnType::kDouble:
      return Value::Double(doubles_[row]);
    case ColumnType::kCategorical:
      return Value::Categorical(dictionary_->ValueOf(ints_[row]));
  }
  return Value::Null();
}

Column Column::CloneEmpty() const {
  return Column(name_, type_, dictionary_);
}

Column Column::Gather(const std::vector<size_t>& rows) const {
  Column out = CloneEmpty();
  out.AppendGather(*this, rows);
  return out;
}

namespace {

/// Appends `src[rows[i]]` for every i: one resize, then indexed writes.
template <typename T>
void GatherCells(const std::vector<T>& src, const std::vector<size_t>& rows,
                 std::vector<T>* out) {
  const size_t at = out->size();
  out->resize(at + rows.size());
  T* dst = out->data() + at;
  for (size_t i = 0; i < rows.size(); ++i) dst[i] = src[rows[i]];
}

/// GatherCells over `src` followed by `more`.
template <typename T>
void GatherCells(const std::vector<T>& src, const std::vector<T>& more,
                 const std::vector<size_t>& ids, std::vector<T>* out) {
  const size_t at = out->size();
  out->resize(at + ids.size());
  T* dst = out->data() + at;
  const size_t split = src.size();
  for (size_t i = 0; i < ids.size(); ++i) {
    const size_t id = ids[i];
    dst[i] = id < split ? src[id] : more[id - split];
  }
}

}  // namespace

void Column::AppendGather(const Column& src, const std::vector<size_t>& rows) {
  assert((type_ == ColumnType::kDouble) == (src.type_ == ColumnType::kDouble));
  if (type_ == ColumnType::kDouble) {
    GatherCells(src.doubles_, rows, &doubles_);
  } else {
    GatherCells(src.ints_, rows, &ints_);
  }
}

void Column::AppendGather(const Column& src, const Column& more,
                          const std::vector<size_t>& ids) {
  assert((type_ == ColumnType::kDouble) == (src.type_ == ColumnType::kDouble));
  assert((type_ == ColumnType::kDouble) == (more.type_ == ColumnType::kDouble));
  if (type_ == ColumnType::kDouble) {
    GatherCells(src.doubles_, more.doubles_, ids, &doubles_);
  } else {
    GatherCells(src.ints_, more.ints_, ids, &ints_);
  }
}

}  // namespace restore
