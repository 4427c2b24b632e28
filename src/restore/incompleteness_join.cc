#include "restore/incompleteness_join.h"

#include <algorithm>

#include "common/string_util.h"
#include "exec/join.h"

namespace restore {

Result<CompletionResult> IncompletenessJoinExecutor::CompletePathJoin(
    const PathModel& model, Rng& rng, const CompletionOptions& options,
    const ExecContext* ctx) {
  RESTORE_RETURN_IF_ERROR(ExecContext::Check(ctx));
  const std::vector<std::string>& path = model.path();
  if (annotation_->IsIncomplete(path[0])) {
    return Status::FailedPrecondition(
        StrFormat("completion path must start at a complete table, got '%s'",
                  path[0].c_str()));
  }
  CompletionResult result;
  const Database& db = index_->database();

  RESTORE_ASSIGN_OR_RETURN(const Table* root, db.GetTable(path[0]));
  Table joined = *root;
  joined.QualifyColumnNames(path[0]);

  for (size_t hop = 0; hop + 1 < path.size(); ++hop) {
    RESTORE_RETURN_IF_ERROR(ExecContext::Check(ctx));
    const std::string& target = path[hop + 1];
    RESTORE_ASSIGN_OR_RETURN(ForeignKey fk,
                             db.FindForeignKey(path[hop], target));
    RESTORE_ASSIGN_OR_RETURN(const Table* target_base, db.GetTable(target));

    const bool fanout = model.HopIsFanOut(hop);
    const std::string left_key =
        fanout ? fk.parent_table + "." + fk.parent_column
               : fk.child_table + "." + fk.child_column;
    RESTORE_ASSIGN_OR_RETURN(size_t lk_idx, ResolveColumn(joined, left_key));
    const Column& lk_col = joined.column(lk_idx);
    // The build side: the target's children per parent key (fan-out) or
    // its rows per primary key (n:1).
    RESTORE_ASSIGN_OR_RETURN(
        const KeyIndex* target_keys,
        index_->Keys(target, fanout ? fk.child_column : fk.parent_column));

    // 1. Join the existing tuples (rows with NULL keys drop out here).
    RESTORE_ASSIGN_OR_RETURN(JoinRows existing,
                             ProbeJoin(lk_col, *target_keys, ctx));

    // 2. Determine what to synthesize.
    const size_t num_rows = joined.NumRows();
    std::vector<size_t> synth_rows;      // J row per synthesized tuple
    std::vector<size_t> synth_group;     // unique-tuple index per J row
    size_t unique_synth = 0;
    std::vector<size_t> rep_rows;        // representative J row per unique
    // Fan-out hops: encoded prefix + predicted TF of each distinct parent.
    IntMatrix parent_codes;
    std::vector<size_t> rep_parent;      // row of parent_codes per unique

    if (fanout) {
      // Children are synthesized once per DISTINCT parent key and attached
      // to every J row carrying that key — J may contain a parent several
      // times when earlier hops fanned out, and synthesizing independently
      // per row would compound the duplication. So only the first J row of
      // each key (and every NULL-key row) is encoded and predicted.
      std::vector<size_t> parent_rows;      // first J row per parent
      std::vector<size_t> parent_of_row(num_rows);
      FlatKeyMap parent_of_key;
      for (size_t r = 0; r < num_rows; ++r) {
        const int64_t key = lk_col.GetInt64(r);
        if (key == kNullInt64) {
          parent_of_row[r] = parent_rows.size();
          parent_rows.push_back(r);
          continue;
        }
        const auto [p, inserted] =
            parent_of_key.Emplace(key, parent_rows.size());
        if (inserted) parent_rows.push_back(r);
        parent_of_row[r] = p;
      }
      // Current join partners of each parent in the available target.
      std::vector<int64_t> have_counts(parent_rows.size());
      for (size_t p = 0; p < parent_rows.size(); ++p) {
        have_counts[p] = static_cast<int64_t>(
            target_keys->Count(lk_col.GetInt64(parent_rows[p])));
      }
      RESTORE_ASSIGN_OR_RETURN(
          parent_codes,
          model.EncodeEvidencePrefix(db, joined, hop, parent_rows, index_));
      RESTORE_ASSIGN_OR_RETURN(
          std::vector<int64_t> tfs,
          model.SampleTupleFactors(db, joined, &parent_codes, parent_rows,
                                   hop, rng, &have_counts, ctx));
      std::vector<size_t> first_group(parent_rows.size());
      for (size_t r = 0; r < num_rows; ++r) {
        const size_t p = parent_of_row[r];
        const size_t need =
            static_cast<size_t>(std::max<int64_t>(0, tfs[p] - have_counts[p]));
        if (parent_rows[p] == r) {
          first_group[p] = unique_synth;
          for (size_t c = 0; c < need; ++c) {
            rep_rows.push_back(r);
            rep_parent.push_back(p);
          }
          unique_synth += need;
        }
        for (size_t c = 0; c < need; ++c) {
          synth_rows.push_back(r);
          synth_group.push_back(first_group[p] + c);
        }
      }
    } else {
      // n:1 hop: every J row without a join partner needs one parent tuple.
      // Rows sharing the same (known) missing key share one synthesized
      // parent. NULL-key rows (children synthesized on earlier hops, whose
      // FKs are not generated) are grouped into clusters of the target's
      // estimated average fan-out — otherwise every orphan would mint its
      // own parent and the completed table would overshoot (the
      // over-synthesis correction of Section 4.3).
      RESTORE_ASSIGN_OR_RETURN(const KeyIndex* child_keys,
                               index_->Keys(fk.child_table, fk.child_column));
      const size_t orphan_group_size = child_keys->RowsPerKey();
      // Orphan identity: J rows belonging to the same child tuple (possible
      // after earlier fan-out duplication) must share one synthesized
      // parent. The child's primary key serves as the identity.
      const Column* ident_col = nullptr;
      {
        auto ident_idx = ResolveColumn(joined, fk.child_table + ".id");
        if (ident_idx.ok()) ident_col = &joined.column(ident_idx.value());
      }
      FlatKeyMap group_of_key;
      FlatKeyMap group_of_ident;
      size_t null_orphans = 0;
      size_t null_group = 0;
      for (size_t r = 0; r < num_rows; ++r) {
        const int64_t key = lk_col.GetInt64(r);
        if (target_keys->Contains(key)) continue;
        size_t group;
        if (key == kNullInt64) {
          const int64_t ident =
              ident_col != nullptr ? ident_col->GetInt64(r) : kNullInt64;
          const size_t* known = group_of_ident.Find(ident);
          if (known != nullptr) {
            group = *known;
          } else {
            if (null_orphans % orphan_group_size == 0) {
              null_group = unique_synth++;
              rep_rows.push_back(r);
            }
            ++null_orphans;
            group = null_group;
            if (ident != kNullInt64) group_of_ident.Emplace(ident, group);
          }
        } else {
          const auto [g, inserted] = group_of_key.Emplace(key, unique_synth);
          if (inserted) {
            ++unique_synth;
            rep_rows.push_back(r);
          }
          group = g;
        }
        synth_rows.push_back(r);
        synth_group.push_back(group);
      }
    }

    // 3. Synthesize the target attributes for the unique missing tuples.
    // The budget is charged BEFORE the expensive sampling: a query whose cap
    // is already blown fails without paying for the synthesis.
    if (ctx != nullptr) {
      RESTORE_RETURN_IF_ERROR(ctx->AddCompletedTuples(unique_synth));
    }
    std::vector<Column> synth_attrs;
    if (unique_synth > 0) {
      // A row's encoded prefix and predicted tuple factor depend on that row
      // alone (and SampleTupleFactors draws no randomness), so a fan-out
      // hop's representatives reuse their parent's codes from above: the
      // target attributes are sampled conditioned on the same TFs.
      IntMatrix codes;
      if (fanout) {
        codes = parent_codes.GatherRows(rep_parent);
      } else {
        RESTORE_ASSIGN_OR_RETURN(
            codes,
            model.EncodeEvidencePrefix(db, joined, hop, rep_rows, index_));
      }
      int record_attr = -1;
      Matrix recorded;
      if (!options.record_table.empty() && options.record_table == target) {
        record_attr = model.FindAttr(target, options.record_column);
      }
      RESTORE_ASSIGN_OR_RETURN(
          synth_attrs,
          model.SynthesizeHop(db, joined, &codes, rep_rows, hop, rng,
                              record_attr, &recorded, ctx));
      if (record_attr >= 0) {
        for (size_t i = 0; i < recorded.rows(); ++i) {
          result.recorded_probs.emplace_back(
              recorded.row(i), recorded.row(i) + recorded.cols());
        }
      }
    }

    // 4. Euclidean replacement: tuples synthesized for a COMPLETE table are
    // replaced by their most similar existing tuples (Figure 3).
    std::vector<size_t> replacement_rows;  // into target_base, per unique
    const bool replace = annotation_->IsComplete(target) && unique_synth > 0;
    if (replace) {
      std::vector<std::string> attr_names;
      for (const auto& col : synth_attrs) attr_names.push_back(col.name());
      if (!attr_names.empty()) {
        RESTORE_ASSIGN_OR_RETURN(const EuclideanReplacer* replacer,
                                 index_->Replacer(target, attr_names));
        RESTORE_ASSIGN_OR_RETURN(replacement_rows,
                                 replacer->FindReplacements(synth_attrs));
      } else {
        replacement_rows.assign(unique_synth, 0);
      }
    }

    // 5. Write the hop's output once: the existing rows, then the
    // synthesized rows — the old J columns followed by the target columns.
    RESTORE_ASSIGN_OR_RETURN(
        Table next, GatherJoin(joined, *target_base, target, existing,
                               synth_rows.size()));
    for (size_t c = 0; c < joined.NumColumns(); ++c) {
      next.column(c).AppendGather(joined.column(c), synth_rows);
    }
    std::vector<size_t> replaced;  // target_base row per synthesized row
    if (replace) {
      replaced.reserve(synth_rows.size());
      for (size_t g : synth_group) replaced.push_back(replacement_rows[g]);
    }
    for (size_t c = 0; c < target_base->NumColumns(); ++c) {
      const Column& rcol = target_base->column(c);
      const std::string& base_name = rcol.name();
      Column& out = next.column(joined.NumColumns() + c);

      if (replace) {
        // Copy every column (attributes AND keys) from the replacement row.
        out.AppendGather(rcol, replaced);
        continue;
      }

      const Column* synth_col = nullptr;
      for (const auto& sc : synth_attrs) {
        if (sc.name() == base_name) {
          synth_col = &sc;
          break;
        }
      }
      if (synth_col != nullptr) {
        out.AppendGather(*synth_col, synth_group);
      } else if (base_name == fk.child_column && fanout) {
        // FK back to the evidence table: the evidence row's key.
        out.AppendGather(lk_col, synth_rows);
      } else if (base_name == fk.parent_column && !fanout) {
        // The missing parent's key, when the child row knew it.
        std::vector<int64_t> group_key(unique_synth, kNullInt64);
        for (size_t i = 0; i < synth_rows.size(); ++i) {
          const int64_t key = lk_col.GetInt64(synth_rows[i]);
          if (key != kNullInt64) group_key[synth_group[i]] = key;
        }
        for (size_t i = 0; i < synth_rows.size(); ++i) {
          int64_t key = group_key[synth_group[i]];
          if (key == kNullInt64) key = next_synthetic_id_--;
          out.AppendInt64(key);
        }
      } else if (fanout && [&] {
                   // Primary key of the target: either referenced by other
                   // FKs or the conventional "id" column. Synthesized tuples
                   // get fresh negative ids so later hops can identify them.
                   if (base_name == "id") return true;
                   for (const auto& other : db.foreign_keys()) {
                     if (other.parent_table == target &&
                         other.parent_column == base_name) {
                       return true;
                     }
                   }
                   return false;
                 }()) {
        // Fresh synthetic ids that never collide with real keys.
        std::vector<int64_t> group_id(unique_synth, 0);
        for (size_t g = 0; g < unique_synth; ++g) {
          group_id[g] = next_synthetic_id_--;
        }
        for (size_t g : synth_group) out.AppendInt64(group_id[g]);
      } else {
        // Unknown keys / unmodeled columns / tuple factors: NULL.
        for (size_t i = 0; i < synth_rows.size(); ++i) out.AppendNull();
      }
    }

    // 6. Bookkeeping for incomplete tables (bias-reduction metrics).
    if (annotation_->IsIncomplete(target) && unique_synth > 0) {
      auto& store = result.synthesized[target];
      if (store.empty()) {
        store = std::move(synth_attrs);
      } else {
        std::vector<size_t> all(unique_synth);
        for (size_t g = 0; g < unique_synth; ++g) all[g] = g;
        for (size_t a = 0; a < store.size(); ++a) {
          store[a].AppendGather(synth_attrs[a], all);
        }
      }
      result.synthesized_counts[target] += unique_synth;
    }

    result.existing_join_rows = existing.left.size();
    result.synthesized_join_rows = synth_rows.size();
    joined = std::move(next);
  }

  result.joined = std::move(joined);
  return result;
}

}  // namespace restore
