#include "restore/snapshot_index.h"

#include "common/string_util.h"

namespace restore {

SnapshotIndex::SnapshotIndex(std::shared_ptr<const Database> db)
    : SnapshotIndex(*db) {
  owned_ = std::move(db);
}

SnapshotIndex::SnapshotIndex(const Database& db) : db_(&db) {
  for (const ForeignKey& fk : db.foreign_keys()) {
    for (auto endpoint : {std::make_pair(fk.child_table, fk.child_column),
                          std::make_pair(fk.parent_table, fk.parent_column)}) {
      std::unique_ptr<KeySlot>& slot = keys_[std::move(endpoint)];
      if (slot == nullptr) slot = std::make_unique<KeySlot>();
    }
  }
  for (const std::string& table : db.TableNames()) {
    replacers_[table] = std::make_unique<TableReplacers>();
  }
}

Result<const KeyIndex*> SnapshotIndex::Keys(const std::string& table,
                                            const std::string& column) const {
  auto it = keys_.find({table, column});
  if (it == keys_.end()) {
    return Status::NotFound(StrFormat("'%s.%s' is not a foreign-key column",
                                      table.c_str(), column.c_str()));
  }
  KeySlot* slot = it->second.get();
  RESTORE_RETURN_IF_ERROR(slot->latch.RunOnce([&]() -> Status {
    RESTORE_ASSIGN_OR_RETURN(const Table* t, db_->GetTable(table));
    RESTORE_ASSIGN_OR_RETURN(const Column* keys, t->GetColumn(column));
    RESTORE_ASSIGN_OR_RETURN(slot->index, KeyIndex::Build(*keys));
    return Status::OK();
  }));
  return &slot->index;
}

Result<const EuclideanReplacer*> SnapshotIndex::Replacer(
    const std::string& table, const std::vector<std::string>& attrs) const {
  auto it = replacers_.find(table);
  if (it == replacers_.end()) {
    return Status::NotFound(
        StrFormat("table '%s' not found", table.c_str()));
  }
  TableReplacers& per_table = *it->second;
  ReplacerSlot* slot = nullptr;
  {
    std::lock_guard<std::mutex> lock(per_table.mu);
    for (const auto& s : per_table.slots) {
      if (s->attrs == attrs) slot = s.get();
    }
    if (slot == nullptr) {
      per_table.slots.push_back(std::make_unique<ReplacerSlot>());
      slot = per_table.slots.back().get();
      slot->attrs = attrs;
    }
  }
  RESTORE_RETURN_IF_ERROR(slot->latch.RunOnce([&]() -> Status {
    RESTORE_ASSIGN_OR_RETURN(const Table* t, db_->GetTable(table));
    RESTORE_ASSIGN_OR_RETURN(EuclideanReplacer built,
                             EuclideanReplacer::Build(*t, attrs));
    slot->replacer.emplace(std::move(built));
    return Status::OK();
  }));
  return &*slot->replacer;
}

size_t SnapshotIndex::MemoryBytes() const {
  size_t bytes = 0;
  for (const auto& [endpoint, slot] : keys_) {
    (void)endpoint;
    if (slot->latch.done_ok()) bytes += slot->index.MemoryBytes();
  }
  for (const auto& [table, per_table] : replacers_) {
    (void)table;
    std::lock_guard<std::mutex> lock(per_table->mu);
    for (const auto& slot : per_table->slots) {
      if (slot->latch.done_ok()) bytes += slot->replacer->MemoryBytes();
    }
  }
  return bytes;
}

}  // namespace restore
