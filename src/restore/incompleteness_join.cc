#include "restore/incompleteness_join.h"

#include <algorithm>
#include <numeric>

#include "common/string_util.h"
#include "exec/join.h"

namespace restore {

namespace {

/// The part of path table `table`, with its columns' join names: qualified
/// by the table unless already qualified, and prefixed once more by the
/// table's name when an earlier part took the name (GatherJoin's rules).
JoinPart NewPart(const Table* base, const std::string& table,
                 const std::vector<JoinPart>& earlier) {
  JoinPart part;
  part.base = base;
  part.names.reserve(base->NumColumns());
  for (const Column& col : base->columns()) {
    std::string name = col.name().find('.') == std::string::npos
                           ? table + "." + col.name()
                           : col.name();
    const auto taken = [&name](const std::vector<std::string>& names) {
      return std::find(names.begin(), names.end(), name) != names.end();
    };
    if (taken(part.names) ||
        std::any_of(earlier.begin(), earlier.end(),
                    [&](const JoinPart& p) { return taken(p.names); })) {
      name = base->name() + "." + name;
    }
    part.names.push_back(std::move(name));
  }
  return part;
}

/// `ids` at the hop's existing join rows `left`, then at its synthesized
/// join rows `synth_rows`.
std::vector<size_t> NextIds(const std::vector<size_t>& ids,
                            const std::vector<size_t>& left,
                            const std::vector<size_t>& synth_rows) {
  std::vector<size_t> next(left.size() + synth_rows.size());
  size_t* out = next.data();
  for (size_t r : left) *out++ = ids[r];
  for (size_t r : synth_rows) *out++ = ids[r];
  return next;
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
  const Database& db = index_->database();

  // The join J so far: one part (row ids) per path table reached.
  RESTORE_ASSIGN_OR_RETURN(const Table* root, db.GetTable(path[0]));
  std::vector<JoinPart> parts;
  parts.reserve(path.size());
  parts.push_back(NewPart(root, path[0], parts));
  parts[0].ids.resize(root->NumRows());
  std::iota(parts[0].ids.begin(), parts[0].ids.end(), size_t{0});
  std::string joined_name = root->name();
  const std::optional<std::vector<std::string>>& wanted = options.join_columns;
  const bool writes_join = !wanted.has_value() || !wanted->empty();

  for (size_t hop = 0; hop + 1 < path.size(); ++hop) {
    RESTORE_RETURN_IF_ERROR(ExecContext::Check(ctx));
    const std::string& target = path[hop + 1];
    RESTORE_ASSIGN_OR_RETURN(ForeignKey fk,
                             db.FindForeignKey(path[hop], target));
    RESTORE_ASSIGN_OR_RETURN(const Table* target_base, db.GetTable(target));
    const JoinView joined(parts, joined_name);

    const bool fanout = model.HopIsFanOut(hop);
    const std::string left_key =
        fanout ? fk.parent_table + "." + fk.parent_column
               : fk.child_table + "." + fk.child_column;
    RESTORE_ASSIGN_OR_RETURN(JoinColumn lk_ref, joined.Resolve(left_key));
    const Column lk_col = lk_ref.Materialize();
    // The build side: the target's children per parent key (fan-out) or
    // its rows per primary key (n:1).
    RESTORE_ASSIGN_OR_RETURN(
        const KeyIndex* target_keys,
        index_->Keys(target, fanout ? fk.child_column : fk.parent_column));

    // 1. Join the existing tuples (rows with NULL keys drop out here).
    RESTORE_ASSIGN_OR_RETURN(JoinRows existing,
                             ProbeJoin(lk_col, *target_keys, ctx));

    // 2. Determine what to synthesize. The probe's pairs give each J row's
    // number of join partners: a fan-out parent's available children, and
    // an n:1 row's orphan test, without a second key lookup.
    const size_t num_rows = joined.NumRows();
    std::vector<size_t> partners(num_rows, 0);
    for (size_t l : existing.left) ++partners[l];
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
      FlatKeyMap parent_of_key(num_rows);
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
        have_counts[p] = static_cast<int64_t>(partners[parent_rows[p]]);
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
      const Result<JoinColumn> ident = joined.Resolve(fk.child_table + ".id");
      // Only orphans (rows without a join partner) enter the maps.
      const size_t orphans = static_cast<size_t>(
          std::count(partners.begin(), partners.end(), size_t{0}));
      FlatKeyMap group_of_key(orphans);
      FlatKeyMap group_of_ident(orphans);
      size_t null_orphans = 0;
      size_t null_group = 0;
      for (size_t r = 0; r < num_rows; ++r) {
        if (partners[r] > 0) continue;
        const int64_t key = lk_col.GetInt64(r);
        size_t group;
        if (key == kNullInt64) {
          const int64_t id = ident.ok() ? ident->GetInt64(r) : kNullInt64;
          const size_t* known = group_of_ident.Find(id);
          if (known != nullptr) {
            group = *known;
          } else {
            if (null_orphans % orphan_group_size == 0) {
              null_group = unique_synth++;
              rep_rows.push_back(r);
            }
            ++null_orphans;
            group = null_group;
            if (id != kNullInt64) group_of_ident.Emplace(id, group);
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

    // 5. The hop's output as ids: the existing rows, then the synthesized
    // rows. Earlier tables keep the ids of the J rows each output row came
    // from; the target's ids point at its base rows, at the replacement
    // rows, or past the base rows into the block synthesized here — one
    // block row per unique tuple on a fan-out hop, and per join row on an
    // n:1 hop, whose parents may get a fresh key per row. A completion that
    // writes no join column never reads the last hop's ids or block, so it
    // only draws the block's fresh ids: a reused executor's later ids stay
    // the same.
    const bool write = writes_join || hop + 2 < path.size();
    JoinPart next = NewPart(target_base, target, parts);
    if (write) {
      for (JoinPart& part : parts) {
        part.ids = NextIds(part.ids, existing.left, synth_rows);
      }
      next.ids = std::move(existing.right);
      next.ids.resize(existing.left.size() + synth_rows.size());
      size_t* synth_ids = next.ids.data() + existing.left.size();
      const size_t base_rows = target_base->NumRows();
      for (size_t i = 0; i < synth_rows.size(); ++i) {
        const size_t g = synth_group[i];
        synth_ids[i] = replace ? replacement_rows[g]
                               : base_rows + (fanout ? g : i);
      }
    }
    if (!replace && unique_synth > 0) {
      const size_t block_rows = fanout ? unique_synth : synth_rows.size();
      for (const Column& rcol : target_base->columns()) {
        const std::string& base_name = rcol.name();
        Column out = rcol.CloneEmpty();
        const Column* synth_col = nullptr;
        for (const auto& sc : synth_attrs) {
          if (sc.name() == base_name) {
            synth_col = &sc;
            break;
          }
        }
        if (synth_col != nullptr) {
          if (!write) continue;
          if (fanout) {
            out = *synth_col;
          } else {
            out.AppendGather(*synth_col, synth_group);
          }
        } else if (base_name == fk.child_column && fanout) {
          // FK back to the evidence table: the parent's key.
          if (!write) continue;
          out.AppendGather(lk_col, rep_rows);
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
                     // FKs or the conventional "id" column. Synthesized
                     // tuples get fresh negative ids so later hops can
                     // identify them.
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
          for (size_t g = 0; g < unique_synth; ++g) {
            out.AppendInt64(next_synthetic_id_--);
          }
        } else {
          // Unknown keys / unmodeled columns / tuple factors: NULL.
          if (!write) continue;
          out.AppendNulls(block_rows);
        }
        if (write) {
          RESTORE_RETURN_IF_ERROR(
              next.synthesized.AddColumn(std::move(out)));
        }
      }
    }
    parts.push_back(std::move(next));
    joined_name += "_x_" + target_base->name();

    // 6. Bookkeeping for incomplete tables (bias-reduction metrics).
    if (annotation_->IsIncomplete(target) && unique_synth > 0) {
      auto& store = result.synthesized[target];
      if (store.empty()) {
        store = std::move(synth_attrs);
      } else {
        std::vector<size_t> all(unique_synth);
        std::iota(all.begin(), all.end(), size_t{0});
        for (size_t a = 0; a < store.size(); ++a) {
          store[a].AppendGather(synth_attrs[a], all);
        }
      }
      result.synthesized_counts[target] += unique_synth;
    }

    result.existing_join_rows = existing.left.size();
    result.synthesized_join_rows = synth_rows.size();
  }

  // Write the join once, with the columns the caller reads.
  const JoinView view(parts, joined_name);
  Table joined(joined_name);
  for (const JoinColumn& col : view.columns()) {
    if (wanted.has_value() &&
        std::find(wanted->begin(), wanted->end(), col.name()) ==
            wanted->end()) {
      continue;
    }
    RESTORE_RETURN_IF_ERROR(joined.AddColumn(col.Materialize()));
  }
  result.joined = std::move(joined);
  return result;
}

}  // namespace restore
