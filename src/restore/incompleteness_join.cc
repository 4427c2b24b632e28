#include "restore/incompleteness_join.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/string_util.h"
#include "exec/join.h"
#include "restore/nn_replace.h"
#include "restore/tuple_factor.h"

namespace restore {

namespace {

/// Strips the "table." qualification from a column name.
std::string Unqualify(const std::string& name) {
  const size_t dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(dot + 1);
}

}  // namespace

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

  RESTORE_ASSIGN_OR_RETURN(const Table* root, db_->GetTable(path[0]));
  Table joined = *root;
  joined.QualifyColumnNames(path[0]);

  for (size_t hop = 0; hop + 1 < path.size(); ++hop) {
    RESTORE_RETURN_IF_ERROR(ExecContext::Check(ctx));
    const std::string& target = path[hop + 1];
    RESTORE_ASSIGN_OR_RETURN(ForeignKey fk,
                             db_->FindForeignKey(path[hop], target));
    RESTORE_ASSIGN_OR_RETURN(const Table* target_base, db_->GetTable(target));
    Table right = *target_base;
    right.QualifyColumnNames(target);

    const bool fanout = model.HopIsFanOut(hop);
    const std::string left_key =
        fanout ? fk.parent_table + "." + fk.parent_column
               : fk.child_table + "." + fk.child_column;
    const std::string right_key = fanout
                                      ? target + "." + fk.child_column
                                      : target + "." + fk.parent_column;

    // 1. Join the existing tuples (rows with NULL keys drop out here).
    RESTORE_ASSIGN_OR_RETURN(
        Table j_existing, HashJoin(joined, right, left_key, right_key, ctx));

    // 2. Determine what to synthesize.
    RESTORE_ASSIGN_OR_RETURN(size_t lk_idx, ResolveColumn(joined, left_key));
    const Column& lk_col = joined.column(lk_idx);
    std::vector<size_t> all_rows(joined.NumRows());
    for (size_t r = 0; r < all_rows.size(); ++r) all_rows[r] = r;

    std::vector<size_t> synth_rows;      // J row per synthesized tuple
    std::vector<size_t> synth_group;     // for n:1 dedup: unique-tuple index
    size_t unique_synth = 0;
    std::vector<size_t> rep_rows;        // representative J row per unique
    // Fan-out hops: encoded prefix + predicted TF of every J row.
    IntMatrix all_codes;

    if (fanout) {
      // Count current join partners per key in the available target table.
      RESTORE_ASSIGN_OR_RETURN(const Column* rk_base,
                               target_base->GetColumn(fk.child_column));
      std::unordered_map<int64_t, int64_t> matches;
      for (size_t r = 0; r < target_base->NumRows(); ++r) {
        const int64_t key = rk_base->GetInt64(r);
        if (key != kNullInt64) ++matches[key];
      }
      std::vector<int64_t> have_counts(all_rows.size(), 0);
      for (size_t r = 0; r < all_rows.size(); ++r) {
        const int64_t key = lk_col.GetInt64(r);
        if (key != kNullInt64) {
          auto it = matches.find(key);
          have_counts[r] = it == matches.end() ? 0 : it->second;
        }
      }
      RESTORE_ASSIGN_OR_RETURN(
          all_codes, model.EncodeEvidencePrefix(*db_, joined, hop, all_rows));
      RESTORE_ASSIGN_OR_RETURN(
          std::vector<int64_t> tfs,
          model.SampleTupleFactors(*db_, joined, &all_codes, all_rows, hop,
                                   rng, &have_counts, ctx));
      // Children are synthesized once per DISTINCT parent key and attached
      // to every J row carrying that key — J may contain a parent several
      // times when earlier hops fanned out, and synthesizing independently
      // per row would compound the duplication.
      std::unordered_map<int64_t, std::vector<size_t>> groups_of_key;
      for (size_t r = 0; r < all_rows.size(); ++r) {
        const int64_t key = lk_col.GetInt64(r);
        const bool first_for_key =
            key == kNullInt64 || groups_of_key.count(key) == 0;
        if (first_for_key) {
          const int64_t need = std::max<int64_t>(0, tfs[r] - have_counts[r]);
          std::vector<size_t> groups;
          for (int64_t c = 0; c < need; ++c) {
            groups.push_back(unique_synth++);
            rep_rows.push_back(r);
          }
          if (key != kNullInt64) groups_of_key[key] = groups;
          for (size_t g : groups) {
            synth_rows.push_back(r);
            synth_group.push_back(g);
          }
        } else {
          for (size_t g : groups_of_key[key]) {
            synth_rows.push_back(r);
            synth_group.push_back(g);
          }
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
      RESTORE_ASSIGN_OR_RETURN(const Column* rk_base,
                               target_base->GetColumn(fk.parent_column));
      std::unordered_set<int64_t> present;
      for (size_t r = 0; r < target_base->NumRows(); ++r) {
        present.insert(rk_base->GetInt64(r));
      }
      // Average children per parent in the available data.
      size_t orphan_group_size = 1;
      {
        RESTORE_ASSIGN_OR_RETURN(const Table* child_base,
                                 db_->GetTable(fk.child_table));
        RESTORE_ASSIGN_OR_RETURN(const Column* child_fk,
                                 child_base->GetColumn(fk.child_column));
        std::unordered_set<int64_t> distinct;
        size_t with_key = 0;
        for (size_t r = 0; r < child_base->NumRows(); ++r) {
          const int64_t key = child_fk->GetInt64(r);
          if (key == kNullInt64) continue;
          distinct.insert(key);
          ++with_key;
        }
        if (!distinct.empty()) {
          orphan_group_size = std::max<size_t>(
              1, static_cast<size_t>(std::llround(
                     static_cast<double>(with_key) /
                     static_cast<double>(distinct.size()))));
        }
      }
      // Orphan identity: J rows belonging to the same child tuple (possible
      // after earlier fan-out duplication) must share one synthesized
      // parent. The child's primary key serves as the identity.
      const Column* ident_col = nullptr;
      {
        auto ident_idx = ResolveColumn(joined, fk.child_table + ".id");
        if (ident_idx.ok()) ident_col = &joined.column(ident_idx.value());
      }
      std::unordered_map<int64_t, size_t> group_of_key;
      std::unordered_map<int64_t, size_t> group_of_ident;
      size_t null_orphans = 0;
      size_t null_group = 0;
      for (size_t r = 0; r < all_rows.size(); ++r) {
        const int64_t key = lk_col.GetInt64(r);
        if (key != kNullInt64 && present.count(key) > 0) continue;
        size_t group;
        if (key == kNullInt64) {
          const int64_t ident =
              ident_col != nullptr ? ident_col->GetInt64(r) : kNullInt64;
          if (ident != kNullInt64) {
            auto it = group_of_ident.find(ident);
            if (it != group_of_ident.end()) {
              group = it->second;
            } else {
              if (null_orphans % orphan_group_size == 0) {
                null_group = unique_synth++;
                rep_rows.push_back(r);
              }
              ++null_orphans;
              group = null_group;
              group_of_ident.emplace(ident, group);
            }
          } else {
            if (null_orphans % orphan_group_size == 0) {
              null_group = unique_synth++;
              rep_rows.push_back(r);
            }
            ++null_orphans;
            group = null_group;
          }
        } else {
          auto it = group_of_key.find(key);
          if (it == group_of_key.end()) {
            group = unique_synth++;
            rep_rows.push_back(r);
            group_of_key.emplace(key, group);
          } else {
            group = it->second;
          }
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
      // hop's representatives reuse the codes computed for all rows above:
      // the target attributes are sampled conditioned on the same TFs.
      IntMatrix codes;
      if (fanout) {
        codes = all_codes.GatherRows(rep_rows);
      } else {
        RESTORE_ASSIGN_OR_RETURN(
            codes, model.EncodeEvidencePrefix(*db_, joined, hop, rep_rows));
      }
      int record_attr = -1;
      Matrix recorded;
      if (!options.record_table.empty() && options.record_table == target) {
        record_attr = model.FindAttr(target, options.record_column);
      }
      RESTORE_ASSIGN_OR_RETURN(
          synth_attrs,
          model.SynthesizeHop(*db_, joined, &codes, rep_rows, hop, rng,
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
        RESTORE_ASSIGN_OR_RETURN(
            EuclideanReplacer replacer,
            EuclideanReplacer::Build(*target_base, attr_names));
        RESTORE_ASSIGN_OR_RETURN(replacement_rows,
                                 replacer.FindReplacements(synth_attrs));
      } else {
        replacement_rows.assign(unique_synth, 0);
      }
    }

    // 5. Assemble the synthesized row block with the same schema as
    // j_existing: first the old J columns, then the target columns.
    Table j_synth(j_existing.name());
    for (size_t c = 0; c < joined.NumColumns(); ++c) {
      RESTORE_RETURN_IF_ERROR(
          j_synth.AddColumn(joined.column(c).Gather(synth_rows)));
    }
    for (size_t c = 0; c < right.NumColumns(); ++c) {
      const Column& rcol = right.column(c);
      const std::string base_name = Unqualify(rcol.name());
      Column out = rcol.CloneEmpty();
      out.Reserve(synth_rows.size());

      if (replace) {
        // Copy every column (attributes AND keys) from the replacement row.
        for (size_t i = 0; i < synth_rows.size(); ++i) {
          const size_t src = replacement_rows[synth_group[i]];
          if (rcol.type() == ColumnType::kDouble) {
            out.AppendDouble(rcol.GetDouble(src));
          } else {
            out.AppendInt64(rcol.GetInt64(src));
          }
        }
        RESTORE_RETURN_IF_ERROR(j_synth.AddColumn(std::move(out)));
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
        for (size_t i = 0; i < synth_rows.size(); ++i) {
          const size_t g = synth_group[i];
          if (synth_col->type() == ColumnType::kDouble) {
            out.AppendDouble(synth_col->GetDouble(g));
          } else {
            out.AppendInt64(synth_col->GetInt64(g));
          }
        }
      } else if (base_name == fk.child_column && fanout) {
        // FK back to the evidence table: the evidence row's key.
        for (size_t r : synth_rows) out.AppendInt64(lk_col.GetInt64(r));
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
                   for (const auto& other : db_->foreign_keys()) {
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
        for (size_t i = 0; i < synth_rows.size(); ++i) {
          out.AppendInt64(group_id[synth_group[i]]);
        }
      } else {
        // Unknown keys / unmodeled columns / tuple factors: NULL.
        for (size_t i = 0; i < synth_rows.size(); ++i) out.AppendNull();
      }
      RESTORE_RETURN_IF_ERROR(j_synth.AddColumn(std::move(out)));
    }

    // 6. Bookkeeping for incomplete tables (bias-reduction metrics).
    if (annotation_->IsIncomplete(target) && unique_synth > 0) {
      auto& store = result.synthesized[target];
      if (store.empty()) {
        for (const auto& sc : synth_attrs) store.push_back(sc.CloneEmpty());
      }
      for (size_t a = 0; a < synth_attrs.size(); ++a) {
        Column tmp = store[a];
        // Append unique synthesized tuples.
        for (size_t g = 0; g < unique_synth; ++g) {
          if (synth_attrs[a].type() == ColumnType::kDouble) {
            tmp.AppendDouble(synth_attrs[a].GetDouble(g));
          } else {
            tmp.AppendInt64(synth_attrs[a].GetInt64(g));
          }
        }
        store[a] = std::move(tmp);
      }
      result.synthesized_counts[target] += unique_synth;
    }

    result.existing_join_rows = j_existing.NumRows();
    result.synthesized_join_rows = j_synth.NumRows();
    RESTORE_RETURN_IF_ERROR(j_existing.AppendTable(j_synth));
    joined = std::move(j_existing);
  }

  result.joined = std::move(joined);
  return result;
}

}  // namespace restore
