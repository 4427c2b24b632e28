#include "exec/join.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/string_util.h"

namespace restore {

Result<size_t> ResolveColumn(const Table& table, const std::string& name) {
  // Pass 1: exact match.
  for (size_t i = 0; i < table.NumColumns(); ++i) {
    if (table.column(i).name() == name) return i;
  }
  // Pass 2: unique ".<name>" suffix match.
  const std::string suffix = "." + name;
  size_t found = table.NumColumns();
  size_t matches = 0;
  for (size_t i = 0; i < table.NumColumns(); ++i) {
    const std::string& cname = table.column(i).name();
    if (cname.size() > suffix.size() &&
        cname.compare(cname.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      found = i;
      ++matches;
    }
  }
  if (matches == 1) return found;
  if (matches > 1) {
    return Status::InvalidArgument(
        StrFormat("column reference '%s' is ambiguous", name.c_str()));
  }
  return Status::NotFound(StrFormat("column '%s' not found in '%s'",
                                    name.c_str(), table.name().c_str()));
}

namespace {

/// Rows between cooperative cancellation checks in join scans. Large enough
/// that the clock read disappears in the noise, small enough that a
/// runaway join aborts promptly.
constexpr size_t kJoinCheckStride = 4096;

/// Marks a NULL-key row while an index is built.
constexpr size_t kNoKey = static_cast<size_t>(-1);

Status CheckKeyType(const Column& keys) {
  if (keys.type() == ColumnType::kDouble) {
    return Status::InvalidArgument(
        "join keys must be int64 or categorical columns");
  }
  return Status::OK();
}

}  // namespace

FlatKeyMap::FlatKeyMap()
    : keys_(16, kNullInt64), values_(16, 0), shift_(64 - 4) {}

size_t FlatKeyMap::SlotOf(int64_t key) const {
  // Fibonacci hashing: dense ids spread over the high bits.
  return static_cast<size_t>(
      (static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ULL) >> shift_);
}

std::pair<size_t, bool> FlatKeyMap::Emplace(int64_t key, size_t value) {
  assert(key != kNullInt64);
  size_t mask = keys_.size() - 1;
  size_t s = SlotOf(key);
  for (; keys_[s] != kNullInt64; s = (s + 1) & mask) {
    if (keys_[s] == key) return {values_[s], false};
  }
  // Linear probing stays short below half load.
  if (2 * (size_ + 1) > keys_.size()) {
    Grow();
    mask = keys_.size() - 1;
    for (s = SlotOf(key); keys_[s] != kNullInt64; s = (s + 1) & mask) {
    }
  }
  keys_[s] = key;
  values_[s] = value;
  ++size_;
  return {value, true};
}

const size_t* FlatKeyMap::Find(int64_t key) const {
  if (key == kNullInt64) return nullptr;
  const size_t mask = keys_.size() - 1;
  for (size_t s = SlotOf(key);; s = (s + 1) & mask) {
    if (keys_[s] == key) return &values_[s];
    if (keys_[s] == kNullInt64) return nullptr;
  }
}

size_t FlatKeyMap::MemoryBytes() const {
  return keys_.capacity() * sizeof(int64_t) +
         values_.capacity() * sizeof(size_t);
}

void FlatKeyMap::Grow() {
  std::vector<int64_t> old_keys = std::move(keys_);
  std::vector<size_t> old_values = std::move(values_);
  keys_.assign(2 * old_keys.size(), kNullInt64);
  values_.assign(2 * old_keys.size(), 0);
  --shift_;
  const size_t mask = keys_.size() - 1;
  for (size_t i = 0; i < old_keys.size(); ++i) {
    if (old_keys[i] == kNullInt64) continue;
    size_t s = SlotOf(old_keys[i]);
    while (keys_[s] != kNullInt64) s = (s + 1) & mask;
    keys_[s] = old_keys[i];
    values_[s] = old_values[i];
  }
}

Result<KeyIndex> KeyIndex::Build(const Column& keys) {
  RESTORE_RETURN_IF_ERROR(CheckKeyType(keys));
  const std::vector<int64_t>& cells = keys.ints();
  KeyIndex index;
  // Pass 1: dense ids in first-seen order and rows per id.
  std::vector<size_t> id_of_row(cells.size(), kNoKey);
  std::vector<size_t> counts;
  for (size_t r = 0; r < cells.size(); ++r) {
    if (cells[r] == kNullInt64) continue;
    const size_t id = index.ids_.Emplace(cells[r], counts.size()).first;
    if (id == counts.size()) counts.push_back(0);
    ++counts[id];
    id_of_row[r] = id;
  }
  // Pass 2: scatter rows into their id's range; a forward scan keeps every
  // range ascending.
  index.offsets_.assign(counts.size() + 1, 0);
  for (size_t id = 0; id < counts.size(); ++id) {
    index.offsets_[id + 1] = index.offsets_[id] + counts[id];
  }
  std::vector<size_t> next(index.offsets_.begin(), index.offsets_.end() - 1);
  index.rows_.resize(index.offsets_.back());
  for (size_t r = 0; r < cells.size(); ++r) {
    if (id_of_row[r] != kNoKey) index.rows_[next[id_of_row[r]]++] = r;
  }
  return index;
}

KeyIndex::Rows KeyIndex::Find(int64_t key) const {
  const size_t* id = ids_.Find(key);
  if (id == nullptr) return Rows(nullptr, nullptr);
  return Rows(rows_.data() + offsets_[*id], rows_.data() + offsets_[*id + 1]);
}

size_t KeyIndex::RowsPerKey() const {
  if (distinct_keys() == 0) return 1;
  return std::max<size_t>(
      1, static_cast<size_t>(std::llround(
             static_cast<double>(non_null_rows()) /
             static_cast<double>(distinct_keys()))));
}

size_t KeyIndex::MemoryBytes() const {
  return ids_.MemoryBytes() +
         (offsets_.capacity() + rows_.capacity()) * sizeof(size_t);
}

Result<JoinRows> ProbeJoin(const Column& left_key, const KeyIndex& right,
                           const ExecContext* ctx) {
  RESTORE_RETURN_IF_ERROR(CheckKeyType(left_key));
  const std::vector<int64_t>& keys = left_key.ints();
  JoinRows out;
  for (size_t l = 0; l < keys.size(); ++l) {
    if (l % kJoinCheckStride == 0) {
      RESTORE_RETURN_IF_ERROR(ExecContext::Check(ctx));
    }
    for (size_t r : right.Find(keys[l])) {
      out.left.push_back(l);
      out.right.push_back(r);
    }
  }
  return out;
}

Result<Table> GatherJoin(const Table& left, const Table& right,
                         const std::string& qualifier, const JoinRows& rows,
                         size_t extra_rows) {
  const size_t capacity = rows.left.size() + extra_rows;
  Table out(left.name() + "_x_" + right.name());
  for (const auto& col : left.columns()) {
    Column gathered = col.CloneEmpty();
    gathered.Reserve(capacity);
    gathered.AppendGather(col, rows.left);
    RESTORE_RETURN_IF_ERROR(out.AddColumn(std::move(gathered)));
  }
  for (const auto& col : right.columns()) {
    Column gathered = col.CloneEmpty();
    gathered.Reserve(capacity);
    gathered.AppendGather(col, rows.right);
    if (!qualifier.empty() && col.name().find('.') == std::string::npos) {
      gathered.set_name(qualifier + "." + col.name());
    }
    if (out.HasColumn(gathered.name())) {
      gathered.set_name(right.name() + "." + gathered.name());
    }
    RESTORE_RETURN_IF_ERROR(out.AddColumn(std::move(gathered)));
  }
  return out;
}

Result<Table> HashJoin(const Table& left, const Table& right,
                       const std::string& left_col,
                       const std::string& right_col,
                       const ExecContext* ctx) {
  RESTORE_ASSIGN_OR_RETURN(size_t li, ResolveColumn(left, left_col));
  RESTORE_ASSIGN_OR_RETURN(size_t ri, ResolveColumn(right, right_col));
  RESTORE_ASSIGN_OR_RETURN(KeyIndex index, KeyIndex::Build(right.column(ri)));
  RESTORE_ASSIGN_OR_RETURN(JoinRows rows,
                           ProbeJoin(left.column(li), index, ctx));
  return GatherJoin(left, right, "", rows);
}

Result<Table> NaturalJoinTables(const Database& db,
                                const std::vector<std::string>& tables,
                                const ExecContext* ctx) {
  RESTORE_ASSIGN_OR_RETURN(std::vector<std::string> ordered,
                           db.OrderJoinTables(tables));
  RESTORE_ASSIGN_OR_RETURN(const Table* first, db.GetTable(ordered[0]));
  Table joined = *first;
  joined.QualifyColumnNames(ordered[0]);
  std::vector<std::string> placed{ordered[0]};
  for (size_t i = 1; i < ordered.size(); ++i) {
    RESTORE_RETURN_IF_ERROR(ExecContext::Check(ctx));
    const std::string& next = ordered[i];
    // Find which placed table `next` connects to.
    ForeignKey fk;
    bool found = false;
    for (const auto& done : placed) {
      auto fk_result = db.FindForeignKey(next, done);
      if (fk_result.ok()) {
        fk = std::move(fk_result).value();
        found = true;
        break;
      }
    }
    if (!found) {
      return Status::InvalidArgument(
          StrFormat("table '%s' not connected to previous join tables",
                    next.c_str()));
    }
    RESTORE_ASSIGN_OR_RETURN(const Table* next_table, db.GetTable(next));
    const bool next_is_child = (fk.child_table == next);
    const std::string left_key =
        next_is_child ? fk.parent_table + "." + fk.parent_column
                      : fk.child_table + "." + fk.child_column;
    RESTORE_ASSIGN_OR_RETURN(size_t li, ResolveColumn(joined, left_key));
    RESTORE_ASSIGN_OR_RETURN(
        const Column* right_key,
        next_table->GetColumn(next_is_child ? fk.child_column
                                            : fk.parent_column));
    RESTORE_ASSIGN_OR_RETURN(KeyIndex index, KeyIndex::Build(*right_key));
    RESTORE_ASSIGN_OR_RETURN(JoinRows rows,
                             ProbeJoin(joined.column(li), index, ctx));
    RESTORE_ASSIGN_OR_RETURN(joined,
                             GatherJoin(joined, *next_table, next, rows));
    placed.push_back(next);
  }
  joined.set_name(Join(ordered, "_"));
  return joined;
}

}  // namespace restore
