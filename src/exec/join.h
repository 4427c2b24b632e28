#ifndef RESTORE_EXEC_JOIN_H_
#define RESTORE_EXEC_JOIN_H_

#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "exec/exec_control.h"
#include "storage/database.h"
#include "storage/table.h"

namespace restore {

/// Resolves a (possibly unqualified) column reference against a table whose
/// columns may be qualified ("table.column"). Matching rules:
///  1. exact name match, else
///  2. unique suffix match on ".<name>".
/// Errors if no column or more than one column matches.
Result<size_t> ResolveColumn(const Table& table, const std::string& name);

/// Open-addressing hash map from non-NULL int64 keys to size_t values.
/// Insert-only; the hash join's key index and per-query key grouping both
/// run on it, so one hashing scheme serves every equi-join.
class FlatKeyMap {
 public:
  FlatKeyMap();

  /// Maps `key` to `value` unless it is present already. Returns the value
  /// stored for `key` and whether this call inserted it. `key` must not be
  /// kNullInt64.
  std::pair<size_t, bool> Emplace(int64_t key, size_t value);

  /// The value stored for `key`, or nullptr (always for kNullInt64).
  const size_t* Find(int64_t key) const;

  size_t size() const { return size_; }
  size_t MemoryBytes() const;

 private:
  size_t SlotOf(int64_t key) const;
  void Grow();

  std::vector<int64_t> keys_;  // kNullInt64 marks an empty slot
  std::vector<size_t> values_;
  size_t size_ = 0;
  int shift_;  // 64 - log2(slots)
};

/// Equality index over one int64 or categorical key column: each non-NULL
/// key maps to the rows holding it, in ascending row order. It is the build
/// side of every hash join. Immutable once built, so threads may share it.
class KeyIndex {
 public:
  /// Rows holding one key, ascending.
  class Rows {
   public:
    Rows(const size_t* begin, const size_t* end) : begin_(begin), end_(end) {}
    const size_t* begin() const { return begin_; }
    const size_t* end() const { return end_; }
    size_t size() const { return static_cast<size_t>(end_ - begin_); }
    bool empty() const { return begin_ == end_; }

   private:
    const size_t* begin_;
    const size_t* end_;
  };

  KeyIndex() = default;

  /// Indexes every non-NULL cell of `keys`. InvalidArgument for a double
  /// column.
  static Result<KeyIndex> Build(const Column& keys);

  /// The rows holding `key`; empty for NULL and absent keys.
  Rows Find(int64_t key) const;
  /// Number of rows holding `key` (0 for NULL and absent keys).
  size_t Count(int64_t key) const { return Find(key).size(); }
  /// True if some row holds `key` (never for NULL).
  bool Contains(int64_t key) const { return ids_.Find(key) != nullptr; }

  /// Rows with a non-NULL key.
  size_t non_null_rows() const { return rows_.size(); }
  /// Distinct non-NULL keys.
  size_t distinct_keys() const { return ids_.size(); }
  /// Mean rows per distinct key, rounded, at least 1 (1 when no row has a
  /// key): the fan-in of the n:1 relationship this column references.
  size_t RowsPerKey() const;

  size_t MemoryBytes() const;

 private:
  FlatKeyMap ids_;               // key -> dense id, first-seen order
  std::vector<size_t> offsets_;  // id -> [offsets_[id], offsets_[id + 1])
  std::vector<size_t> rows_;     // row numbers grouped by id, ascending
};

/// Matching row pairs of an equi-join: left row `left[i]` joins right row
/// `right[i]`.
struct JoinRows {
  std::vector<size_t> left;
  std::vector<size_t> right;
};

/// Probes `right` with every cell of `left_key`, in row order: each left
/// row pairs with the rows of its key in ascending order. NULL keys never
/// match. `ctx` (optional) is checked at row-block boundaries: a cancelled
/// or expired query aborts mid-probe with the corresponding status.
Result<JoinRows> ProbeJoin(const Column& left_key, const KeyIndex& right,
                           const ExecContext* ctx = nullptr);

/// Materializes the join `rows` of `left` and `right`: left columns
/// followed by right columns, named as in the inputs. With a non-empty
/// `qualifier`, unqualified right names become "<qualifier>.<name>"; a right
/// name that collides with a left one becomes "<right.name()>.<name>". The
/// output table is "<left.name()>_x_<right.name()>", and every column has
/// room reserved for `extra_rows` more cells, which the caller appends.
Result<Table> GatherJoin(const Table& left, const Table& right,
                         const std::string& qualifier, const JoinRows& rows,
                         size_t extra_rows = 0);

/// Inner hash equi-join of `left` and `right` on left[left_col] ==
/// right[right_col]: indexes the right key, probes it with the left key and
/// gathers (ProbeJoin, GatherJoin). NULL keys never match. Output columns
/// are left columns followed by right columns; the join key appears once
/// per side (as in the inputs).
///
/// `ctx` (optional) is checked at row-block boundaries of the probe loop: a
/// cancelled/expired query aborts mid-join with the corresponding status
/// instead of finishing the scan.
Result<Table> HashJoin(const Table& left, const Table& right,
                       const std::string& left_col,
                       const std::string& right_col,
                       const ExecContext* ctx = nullptr);

/// Joins base tables of `db` along foreign keys: `tables` must be orderable
/// such that each table shares an FK with a previously joined one (the
/// function performs that ordering). All output columns are qualified as
/// "table.column". `ctx` is checked per hop and inside each hash join.
Result<Table> NaturalJoinTables(const Database& db,
                                const std::vector<std::string>& tables,
                                const ExecContext* ctx = nullptr);

}  // namespace restore

#endif  // RESTORE_EXEC_JOIN_H_
