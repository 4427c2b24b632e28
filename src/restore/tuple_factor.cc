#include "restore/tuple_factor.h"

#include "common/string_util.h"
#include "exec/join.h"

namespace restore {

namespace {
constexpr const char kTfPrefix[] = "__tf_";
}  // namespace

std::string TupleFactorColumnName(const std::string& child_table) {
  return std::string(kTfPrefix) + child_table;
}

bool IsTupleFactorColumn(const std::string& column) {
  // The column may be qualified ("parent.__tf_child").
  const size_t dot = column.rfind('.');
  const std::string_view tail =
      dot == std::string::npos
          ? std::string_view(column)
          : std::string_view(column).substr(dot + 1);
  return StartsWith(tail, kTfPrefix);
}

Result<std::vector<int64_t>> CountChildMatches(const Database& db,
                                               const ForeignKey& fk) {
  RESTORE_ASSIGN_OR_RETURN(const Table* parent, db.GetTable(fk.parent_table));
  RESTORE_ASSIGN_OR_RETURN(const Table* child, db.GetTable(fk.child_table));
  RESTORE_ASSIGN_OR_RETURN(const Column* pk,
                           parent->GetColumn(fk.parent_column));
  RESTORE_ASSIGN_OR_RETURN(const Column* fkcol,
                           child->GetColumn(fk.child_column));

  RESTORE_ASSIGN_OR_RETURN(KeyIndex children, KeyIndex::Build(*fkcol));
  std::vector<int64_t> out(parent->NumRows());
  for (size_t r = 0; r < parent->NumRows(); ++r) {
    out[r] = static_cast<int64_t>(children.Count(pk->GetInt64(r)));
  }
  return out;
}

Status AttachTupleFactors(Database* db, const ForeignKey& fk) {
  RESTORE_ASSIGN_OR_RETURN(std::vector<int64_t> tf,
                           CountChildMatches(*db, fk));
  RESTORE_ASSIGN_OR_RETURN(Table* parent,
                           db->GetMutableTable(fk.parent_table));
  const std::string col_name = TupleFactorColumnName(fk.child_table);
  if (parent->HasColumn(col_name)) {
    RESTORE_ASSIGN_OR_RETURN(Column * existing,
                             parent->GetMutableColumn(col_name));
    for (size_t r = 0; r < tf.size(); ++r) existing->SetInt64(r, tf[r]);
    return Status::OK();
  }
  Column col(col_name, ColumnType::kInt64);
  col.Reserve(tf.size());
  for (int64_t v : tf) col.AppendInt64(v);
  return parent->AddColumn(std::move(col));
}

}  // namespace restore
