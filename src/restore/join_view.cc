#include "restore/join_view.h"

#include "common/string_util.h"
#include "exec/join.h"

namespace restore {

Column JoinColumn::Materialize() const {
  Column out = ids_ == nullptr ? *base_ : base_->CloneEmpty();
  if (ids_ != nullptr && synthesized_ == nullptr) {
    out.AppendGather(*base_, *ids_);
  } else if (ids_ != nullptr) {
    out.AppendGather(*base_, *synthesized_, *ids_);
  }
  out.set_name(*name_);
  return out;
}

JoinView::JoinView(const Table& table)
    : name_(&table.name()), num_rows_(table.NumRows()) {
  columns_.reserve(table.NumColumns());
  for (const Column& col : table.columns()) {
    columns_.emplace_back(&col.name(), &col, nullptr, nullptr);
  }
}

JoinView::JoinView(const std::vector<JoinPart>& parts, const std::string& name)
    : name_(&name), num_rows_(parts.empty() ? 0 : parts[0].ids.size()) {
  for (const JoinPart& part : parts) {
    const bool has_synthesized = part.synthesized.NumColumns() > 0;
    for (size_t c = 0; c < part.base->NumColumns(); ++c) {
      columns_.emplace_back(
          &part.names[c], &part.base->column(c),
          has_synthesized ? &part.synthesized.column(c) : nullptr, &part.ids);
    }
  }
}

Result<JoinColumn> JoinView::Resolve(const std::string& name) const {
  RESTORE_ASSIGN_OR_RETURN(
      size_t c, ResolveName(
                    columns_.size(),
                    [this](size_t i) -> const std::string& {
                      return columns_[i].name();
                    },
                    name, *name_));
  return columns_[c];
}

bool JoinView::JoinsTable(const std::string& table) const {
  const std::string prefix = table + ".";
  for (const JoinColumn& col : columns_) {
    if (StartsWith(col.name(), prefix)) return true;
  }
  return false;
}

}  // namespace restore
