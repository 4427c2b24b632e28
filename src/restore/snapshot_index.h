#ifndef RESTORE_RESTORE_SNAPSHOT_INDEX_H_
#define RESTORE_RESTORE_SNAPSHOT_INDEX_H_

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/once_latch.h"
#include "common/result.h"
#include "exec/join.h"
#include "restore/nn_replace.h"
#include "storage/database.h"

namespace restore {

/// The structures of the incompleteness join (Section 4) that depend only
/// on one frozen data snapshot, so that a completion never rebuilds them:
///  - one KeyIndex per FK endpoint column: the build side of each hop's
///    existing-tuple join, the children per key of fan-out hops, the
///    parent keys present for n:1 hops, and the orphan fan-in;
///  - one EuclideanReplacer per table and attribute list, for the
///    replacement of tuples synthesized for complete tables (Figure 3).
///
/// The slots are fixed at construction from the FK graph and the table
/// list; each is filled on first use, exactly once, through a OnceLatch:
/// concurrent first touches wait for the one build. A build never looks at
/// a query's ExecContext, so one query's cancellation cannot poison a slot
/// for everyone else on the snapshot. Filled slots are immutable.
///
/// Db publishes one index with every data snapshot and frees it with the
/// snapshot's last pin. Callers without a Db build a call-local index over
/// the database they complete.
class SnapshotIndex {
 public:
  /// Indexes `db`, which must outlive the index and not change while it
  /// lives.
  explicit SnapshotIndex(const Database& db);
  /// Indexes the snapshot `db` and keeps it alive as long as the index.
  explicit SnapshotIndex(std::shared_ptr<const Database> db);

  SnapshotIndex(const SnapshotIndex&) = delete;
  SnapshotIndex& operator=(const SnapshotIndex&) = delete;

  const Database& database() const { return *db_; }

  /// Key index of the FK endpoint `table`.`column`; NotFound when no
  /// foreign key of the database has that endpoint.
  Result<const KeyIndex*> Keys(const std::string& table,
                               const std::string& column) const;

  /// Euclidean replacer over the columns `attrs` of `table` (the errors of
  /// EuclideanReplacer::Build, e.g. for an empty table).
  Result<const EuclideanReplacer*> Replacer(
      const std::string& table, const std::vector<std::string>& attrs) const;

  /// Bytes held by the slots filled so far.
  size_t MemoryBytes() const;

 private:
  struct KeySlot {
    OnceLatch latch;
    KeyIndex index;
  };
  struct ReplacerSlot {
    std::vector<std::string> attrs;
    OnceLatch latch;
    std::optional<EuclideanReplacer> replacer;
  };
  /// One table's replacers, one per attribute list asked for.
  struct TableReplacers {
    std::mutex mu;  // guards the list, not the slots' contents
    std::vector<std::unique_ptr<ReplacerSlot>> slots;
  };

  std::shared_ptr<const Database> owned_;  // null for a borrowed database
  const Database* db_;
  std::map<std::pair<std::string, std::string>, std::unique_ptr<KeySlot>>
      keys_;
  std::map<std::string, std::unique_ptr<TableReplacers>> replacers_;
};

}  // namespace restore

#endif  // RESTORE_RESTORE_SNAPSHOT_INDEX_H_
