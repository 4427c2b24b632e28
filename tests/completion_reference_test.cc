// A naive reference for the incompleteness join (Section 4, Algorithm 1),
// and the check that the production executor matches it byte for byte.
//
// The reference walks a completion path the plain way: every hop joins
// with nested loops over a std::map of the target's keys, and writes the
// full join of every path table before the next hop reads it. It uses no
// KeyIndex, SnapshotIndex or FlatKeyMap, and calls the same PathModel
// methods (EncodeEvidencePrefix, SampleTupleFactors, SynthesizeHop) on the
// same row sets in the same order as IncompletenessJoinExecutor, so both
// consume the completion rng identically. Any difference in the output --
// joined name, column names and types, cells (NaN bits included), the
// synthesized columns and counts, the join-row counts or the recorded
// distributions -- is a bug in the executor's relational half.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/serialize.h"
#include "common/string_util.h"
#include "datagen/setups.h"
#include "exec/join.h"
#include "restore/db.h"
#include "restore/incompleteness_join.h"
#include "restore/nn_replace.h"
#include "restore/path_model.h"
#include "restore/snapshot_index.h"

namespace restore {
namespace {

/// Rows of `col` per non-NULL key, ascending.
std::map<int64_t, std::vector<size_t>> RowsByKey(const Column& col) {
  std::map<int64_t, std::vector<size_t>> rows;
  for (size_t r = 0; r < col.size(); ++r) {
    if (!col.IsNull(r)) rows[col.GetInt64(r)].push_back(r);
  }
  return rows;
}

/// Appends cell `row` of `src` to `out`, bits unchanged.
void AppendCell(Column* out, const Column& src, size_t row) {
  if (src.type() == ColumnType::kDouble) {
    out->AppendDouble(src.GetDouble(row));
  } else {
    out->AppendInt64(src.GetInt64(row));
  }
}

/// True if `column` of `table` is its primary key: "id", or referenced by a
/// foreign key.
bool IsPrimaryKey(const Database& db, const std::string& table,
                  const std::string& column) {
  if (column == "id") return true;
  for (const auto& fk : db.foreign_keys()) {
    if (fk.parent_table == table && fk.parent_column == column) return true;
  }
  return false;
}

/// The reference completion of `model`'s path over `db`.
Result<CompletionResult> ReferenceCompletePathJoin(
    const Database& db, const SchemaAnnotation& annotation,
    const PathModel& model, Rng& rng, const CompletionOptions& options) {
  const std::vector<std::string>& path = model.path();
  CompletionResult result;
  int64_t next_id = -1;
  RESTORE_ASSIGN_OR_RETURN(const Table* root, db.GetTable(path[0]));
  Table joined = *root;
  joined.QualifyColumnNames(path[0]);

  for (size_t hop = 0; hop + 1 < path.size(); ++hop) {
    const std::string& target = path[hop + 1];
    RESTORE_ASSIGN_OR_RETURN(ForeignKey fk,
                             db.FindForeignKey(path[hop], target));
    RESTORE_ASSIGN_OR_RETURN(const Table* target_base, db.GetTable(target));
    const bool fanout = model.HopIsFanOut(hop);
    RESTORE_ASSIGN_OR_RETURN(
        size_t lk_idx,
        ResolveColumn(joined, fanout ? fk.parent_table + "." + fk.parent_column
                                     : fk.child_table + "." + fk.child_column));
    const Column& lk = joined.column(lk_idx);
    RESTORE_ASSIGN_OR_RETURN(
        const Column* target_key,
        target_base->GetColumn(fanout ? fk.child_column : fk.parent_column));
    const std::map<int64_t, std::vector<size_t>> target_rows =
        RowsByKey(*target_key);
    const auto rows_of = [&target_rows](int64_t key) {
      auto it = target_rows.find(key);
      return it == target_rows.end() ? std::vector<size_t>() : it->second;
    };

    // Existing tuples: every J row with every target row of its key.
    std::vector<size_t> existing_left;
    std::vector<size_t> existing_right;
    for (size_t l = 0; l < joined.NumRows(); ++l) {
      if (lk.IsNull(l)) continue;
      for (size_t r : rows_of(lk.GetInt64(l))) {
        existing_left.push_back(l);
        existing_right.push_back(r);
      }
    }

    std::vector<size_t> synth_rows;   // J row per synthesized join row
    std::vector<size_t> synth_group;  // its tuple
    std::vector<size_t> rep_rows;     // J row per tuple
    std::vector<size_t> rep_parent;   // fan-out: parent per tuple
    size_t unique_synth = 0;
    IntMatrix parent_codes;
    if (fanout) {
      // One parent per distinct key (its first J row) and per NULL-key row.
      std::map<int64_t, size_t> parent_of_key;
      std::vector<size_t> parent_rows;
      std::vector<size_t> parent_of_row;
      for (size_t r = 0; r < joined.NumRows(); ++r) {
        if (!lk.IsNull(r)) {
          auto it = parent_of_key.find(lk.GetInt64(r));
          if (it != parent_of_key.end()) {
            parent_of_row.push_back(it->second);
            continue;
          }
          parent_of_key[lk.GetInt64(r)] = parent_rows.size();
        }
        parent_of_row.push_back(parent_rows.size());
        parent_rows.push_back(r);
      }
      std::vector<int64_t> have(parent_rows.size());
      for (size_t p = 0; p < parent_rows.size(); ++p) {
        have[p] = static_cast<int64_t>(
            lk.IsNull(parent_rows[p])
                ? 0
                : rows_of(lk.GetInt64(parent_rows[p])).size());
      }
      RESTORE_ASSIGN_OR_RETURN(
          parent_codes,
          model.EncodeEvidencePrefix(db, joined, hop, parent_rows));
      RESTORE_ASSIGN_OR_RETURN(
          std::vector<int64_t> tfs,
          model.SampleTupleFactors(db, joined, &parent_codes, parent_rows, hop,
                                   rng, &have));
      std::vector<size_t> first_tuple(parent_rows.size());
      for (size_t r = 0; r < joined.NumRows(); ++r) {
        const size_t p = parent_of_row[r];
        const size_t need =
            static_cast<size_t>(std::max<int64_t>(0, tfs[p] - have[p]));
        if (parent_rows[p] == r) {
          first_tuple[p] = unique_synth;
          for (size_t c = 0; c < need; ++c) {
            rep_rows.push_back(r);
            rep_parent.push_back(p);
          }
          unique_synth += need;
        }
        for (size_t c = 0; c < need; ++c) {
          synth_rows.push_back(r);
          synth_group.push_back(first_tuple[p] + c);
        }
      }
    } else {
      // Orphans: one parent per missing key, and NULL-key rows in clusters
      // of the child FK's mean fan-in (one cluster slot per child id).
      RESTORE_ASSIGN_OR_RETURN(const Table* child_base,
                               db.GetTable(fk.child_table));
      RESTORE_ASSIGN_OR_RETURN(const Column* child_fk,
                               child_base->GetColumn(fk.child_column));
      const std::map<int64_t, std::vector<size_t>> child_rows =
          RowsByKey(*child_fk);
      size_t non_null = 0;
      for (const auto& [key, rows] : child_rows) non_null += rows.size();
      const size_t cluster =
          child_rows.empty()
              ? 1
              : std::max<size_t>(
                    1, static_cast<size_t>(std::llround(
                           static_cast<double>(non_null) /
                           static_cast<double>(child_rows.size()))));
      auto ident_idx = ResolveColumn(joined, fk.child_table + ".id");
      const Column* ident =
          ident_idx.ok() ? &joined.column(ident_idx.value()) : nullptr;
      std::map<int64_t, size_t> group_of_key;
      std::map<int64_t, size_t> group_of_ident;
      size_t null_orphans = 0;
      size_t null_group = 0;
      for (size_t r = 0; r < joined.NumRows(); ++r) {
        if (!lk.IsNull(r) && target_rows.count(lk.GetInt64(r)) > 0) continue;
        size_t group;
        if (lk.IsNull(r)) {
          const bool has_ident = ident != nullptr && !ident->IsNull(r);
          auto known = has_ident ? group_of_ident.find(ident->GetInt64(r))
                                 : group_of_ident.end();
          if (known != group_of_ident.end()) {
            group = known->second;
          } else {
            if (null_orphans % cluster == 0) {
              null_group = unique_synth++;
              rep_rows.push_back(r);
            }
            ++null_orphans;
            group = null_group;
            if (has_ident) group_of_ident[ident->GetInt64(r)] = group;
          }
        } else {
          auto it = group_of_key.find(lk.GetInt64(r));
          if (it == group_of_key.end()) {
            it = group_of_key.emplace(lk.GetInt64(r), unique_synth++).first;
            rep_rows.push_back(r);
          }
          group = it->second;
        }
        synth_rows.push_back(r);
        synth_group.push_back(group);
      }
    }

    std::vector<Column> synth_attrs;
    if (unique_synth > 0) {
      IntMatrix codes;
      if (fanout) {
        codes = parent_codes.GatherRows(rep_parent);
      } else {
        RESTORE_ASSIGN_OR_RETURN(
            codes, model.EncodeEvidencePrefix(db, joined, hop, rep_rows));
      }
      int record_attr = -1;
      Matrix recorded;
      if (!options.record_table.empty() && options.record_table == target) {
        record_attr = model.FindAttr(target, options.record_column);
      }
      RESTORE_ASSIGN_OR_RETURN(
          synth_attrs, model.SynthesizeHop(db, joined, &codes, rep_rows, hop,
                                           rng, record_attr, &recorded));
      for (size_t i = 0; i < recorded.rows(); ++i) {
        result.recorded_probs.emplace_back(
            recorded.row(i), recorded.row(i) + recorded.cols());
      }
    }

    // Tuples synthesized for a complete table become their nearest
    // existing tuples.
    const bool replace = annotation.IsComplete(target) && unique_synth > 0;
    std::vector<size_t> replacement(unique_synth, 0);
    if (replace && !synth_attrs.empty()) {
      std::vector<std::string> names;
      for (const auto& col : synth_attrs) names.push_back(col.name());
      RESTORE_ASSIGN_OR_RETURN(EuclideanReplacer replacer,
                               EuclideanReplacer::Build(*target_base, names));
      RESTORE_ASSIGN_OR_RETURN(replacement,
                               replacer.FindReplacements(synth_attrs));
    }

    // The full join: existing rows, then synthesized rows; the earlier
    // tables' columns, then the target's.
    Table next(joined.name() + "_x_" + target_base->name());
    for (const auto& col : joined.columns()) {
      Column out = col.CloneEmpty();
      for (size_t l : existing_left) AppendCell(&out, col, l);
      for (size_t r : synth_rows) AppendCell(&out, col, r);
      RESTORE_RETURN_IF_ERROR(next.AddColumn(std::move(out)));
    }
    for (const auto& col : target_base->columns()) {
      Column out = col.CloneEmpty();
      std::string name = col.name().find('.') == std::string::npos
                             ? target + "." + col.name()
                             : col.name();
      if (next.HasColumn(name)) name = target_base->name() + "." + name;
      out.set_name(name);
      for (size_t r : existing_right) AppendCell(&out, col, r);
      const Column* synth = nullptr;
      for (const auto& sc : synth_attrs) {
        if (sc.name() == col.name()) synth = &sc;
      }
      if (replace) {
        for (size_t g : synth_group) AppendCell(&out, col, replacement[g]);
      } else if (synth != nullptr) {
        for (size_t g : synth_group) AppendCell(&out, *synth, g);
      } else if (fanout && col.name() == fk.child_column) {
        for (size_t r : synth_rows) AppendCell(&out, lk, r);
      } else if (!fanout && col.name() == fk.parent_column) {
        // The missing parent's key when a child knew it, else a fresh id per
        // join row.
        std::vector<int64_t> known(unique_synth, kNullInt64);
        for (size_t i = 0; i < synth_rows.size(); ++i) {
          if (!lk.IsNull(synth_rows[i])) {
            known[synth_group[i]] = lk.GetInt64(synth_rows[i]);
          }
        }
        for (size_t g : synth_group) {
          out.AppendInt64(known[g] != kNullInt64 ? known[g] : next_id--);
        }
      } else if (fanout && IsPrimaryKey(db, target, col.name())) {
        std::vector<int64_t> fresh(unique_synth);
        for (auto& id : fresh) id = next_id--;
        for (size_t g : synth_group) out.AppendInt64(fresh[g]);
      } else {
        for (size_t i = 0; i < synth_rows.size(); ++i) out.AppendNull();
      }
      RESTORE_RETURN_IF_ERROR(next.AddColumn(std::move(out)));
    }

    if (annotation.IsIncomplete(target) && unique_synth > 0) {
      auto& store = result.synthesized[target];
      if (store.empty()) {
        store = std::move(synth_attrs);
      } else {
        for (size_t a = 0; a < store.size(); ++a) {
          for (size_t g = 0; g < unique_synth; ++g) {
            AppendCell(&store[a], synth_attrs[a], g);
          }
        }
      }
      result.synthesized_counts[target] += unique_synth;
    }
    result.existing_join_rows = existing_left.size();
    result.synthesized_join_rows = synth_rows.size();
    joined = std::move(next);
  }
  result.joined = std::move(joined);
  return result;
}

/// The first difference between two columns, or "" when they are the same
/// bits.
std::string ColumnDifference(const Column& a, const Column& b) {
  if (a.name() != b.name()) return "name " + a.name() + " vs " + b.name();
  if (a.type() != b.type()) return a.name() + ": type";
  if (a.size() != b.size()) {
    return StrFormat("%s: %zu vs %zu cells", a.name().c_str(), a.size(),
                     b.size());
  }
  for (size_t r = 0; r < a.size(); ++r) {
    uint64_t x = 0;
    uint64_t y = 0;
    if (a.type() == ColumnType::kDouble) {
      const double da = a.GetDouble(r);
      const double db = b.GetDouble(r);
      std::memcpy(&x, &da, sizeof(x));
      std::memcpy(&y, &db, sizeof(y));
    } else {
      x = static_cast<uint64_t>(a.GetInt64(r));
      y = static_cast<uint64_t>(b.GetInt64(r));
    }
    if (x != y) return StrFormat("%s: row %zu", a.name().c_str(), r);
  }
  return "";
}

std::string TableDifference(const Table& a, const Table& b) {
  if (a.name() != b.name()) return "table name " + a.name() + " vs " + b.name();
  if (a.NumColumns() != b.NumColumns()) {
    return StrFormat("%zu vs %zu columns", a.NumColumns(), b.NumColumns());
  }
  for (size_t c = 0; c < a.NumColumns(); ++c) {
    std::string diff = ColumnDifference(a.column(c), b.column(c));
    if (!diff.empty()) return diff;
  }
  return "";
}

std::string CompletionDifference(const CompletionResult& a,
                                 const CompletionResult& b) {
  std::string diff = TableDifference(a.joined, b.joined);
  if (!diff.empty()) return "joined: " + diff;
  if (a.synthesized.size() != b.synthesized.size()) return "synthesized tables";
  for (const auto& [table, cols] : a.synthesized) {
    auto it = b.synthesized.find(table);
    if (it == b.synthesized.end() || it->second.size() != cols.size()) {
      return "synthesized " + table;
    }
    for (size_t c = 0; c < cols.size(); ++c) {
      diff = ColumnDifference(cols[c], it->second[c]);
      if (!diff.empty()) return "synthesized " + table + ": " + diff;
    }
  }
  if (a.synthesized_counts != b.synthesized_counts) {
    return "synthesized_counts";
  }
  if (a.existing_join_rows != b.existing_join_rows) {
    return "existing_join_rows";
  }
  if (a.synthesized_join_rows != b.synthesized_join_rows) {
    return "synthesized_join_rows";
  }
  if (a.recorded_probs.size() != b.recorded_probs.size()) {
    return "recorded_probs rows";
  }
  for (size_t i = 0; i < a.recorded_probs.size(); ++i) {
    const auto& x = a.recorded_probs[i];
    const auto& y = b.recorded_probs[i];
    if (x.size() != y.size() ||
        std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) != 0) {
      return StrFormat("recorded_probs row %zu", i);
    }
  }
  return "";
}

/// The completed table `target` as the reference sees it: the base table,
/// then one row per synthesized cell of its attribute columns (NULL in the
/// columns that were not modeled).
Result<Table> ReferenceCompletedTable(const Database& db,
                                      const CompletionResult& reference,
                                      const std::string& target) {
  RESTORE_ASSIGN_OR_RETURN(const Table* base, db.GetTable(target));
  Table out = *base;
  auto it = reference.synthesized.find(target);
  if (it == reference.synthesized.end() || it->second.empty()) return out;
  for (size_t c = 0; c < out.NumColumns(); ++c) {
    Column& col = out.column(c);
    const Column* synth = nullptr;
    for (const auto& sc : it->second) {
      if (sc.name() == col.name()) synth = &sc;
    }
    for (size_t g = 0; g < it->second.front().size(); ++g) {
      if (synth == nullptr) {
        col.AppendNull();
      } else {
        AppendCell(&col, *synth, g);
      }
    }
  }
  return out;
}

/// Small, fast models: the test pins the relational half, not model
/// quality.
EngineConfig ReferenceEngineConfig(bool ssar) {
  EngineConfig config;
  config.model.epochs = 2;
  config.model.hidden_dim = 16;
  config.model.embed_dim = 4;
  config.model.max_bins = 12;
  config.model.min_train_steps = 40;
  config.model.use_ssar = ssar;
  return config;
}

/// The completion rng seed Db derives from a path (Db::CompletionSeed).
uint64_t CompletionSeedOf(const EngineConfig& config,
                          const std::vector<std::string>& path) {
  return config.seed ^ (Fnv1a64(Join(path, "->")) | 1ull);
}

struct SweepCase {
  std::string setup;
  bool ssar;
};

void PrintTo(const SweepCase& c, std::ostream* os) {
  *os << c.setup << (c.ssar ? " SSAR" : " AR");
}

class CompletionReference : public ::testing::TestWithParam<SweepCase> {};

TEST_P(CompletionReference, ExecutorMatchesNaiveReferenceOnEveryCandidate) {
  const SweepCase& param = GetParam();
  auto setup = SetupByName(param.setup);
  ASSERT_TRUE(setup.ok());
  // setup_sweep_test's scale and seeds.
  const double scale = setup->dataset == "housing" ? 0.12 : 0.08;
  auto complete = BuildCompleteDatabase(setup->dataset, 300, scale);
  ASSERT_TRUE(complete.ok()) << complete.status();
  auto incomplete = ApplySetup(*complete, *setup, 0.5, 0.5, 301);
  ASSERT_TRUE(incomplete.ok()) << incomplete.status();
  const SchemaAnnotation annotation = AnnotationFor(*setup);
  const EngineConfig config = ReferenceEngineConfig(param.ssar);
  auto db = Db::Open(&*incomplete, annotation, DbOptions().WithEngine(config));
  ASSERT_TRUE(db.ok()) << db.status();
  const std::shared_ptr<const Database> data = (*db)->data();

  CompletionOptions record;
  record.record_table = setup->removed_table;
  record.record_column = setup->biased_column;
  size_t paths = 0;
  size_t synthesized = 0;
  size_t recorded = 0;
  size_t ids_drawn = 0;
  const SnapshotIndex index(*data);
  for (const std::string& target : annotation.incomplete_tables()) {
    auto candidates = (*db)->CandidatesFor(target);
    ASSERT_TRUE(candidates.ok()) << target << ": " << candidates.status();
    for (const auto& candidate : *candidates) {
      const std::string where = Join(candidate.path, ">");
      const uint64_t seed = CompletionSeedOf(config, candidate.path);
      for (const CompletionOptions& options : {CompletionOptions(), record}) {
        auto produced = (*db)->CompleteViaPath(candidate.path, options);
        ASSERT_TRUE(produced.ok()) << where << ": " << produced.status();
        Rng rng(seed);
        auto expected = ReferenceCompletePathJoin(
            *data, annotation, *candidate.model, rng, options);
        ASSERT_TRUE(expected.ok()) << where << ": " << expected.status();
        EXPECT_EQ(CompletionDifference(*produced, *expected), "") << where;
        synthesized += produced->synthesized_join_rows;
        recorded += produced->recorded_probs.size();
      }
      // A reused executor continues its fresh synthetic ids. A completion
      // that writes no join column skips its last hop's block but still
      // draws the block's ids, so the next completion is the one that
      // follows a full completion.
      CompletionOptions no_join;
      no_join.join_columns.emplace();
      std::vector<CompletionResult> next;
      for (const CompletionOptions& first : {no_join, CompletionOptions()}) {
        IncompletenessJoinExecutor reused(&index, &annotation);
        Rng first_rng(seed);
        ASSERT_TRUE(
            reused.CompletePathJoin(*candidate.model, first_rng, first).ok());
        Rng next_rng(seed);
        auto completed = reused.CompletePathJoin(*candidate.model, next_rng);
        ASSERT_TRUE(completed.ok()) << where << ": " << completed.status();
        next.push_back(std::move(completed).value());
      }
      EXPECT_EQ(CompletionDifference(next[0], next[1]), "") << where;
      Rng fresh_rng(seed);
      auto fresh = IncompletenessJoinExecutor(&index, &annotation)
                       .CompletePathJoin(*candidate.model, fresh_rng);
      ASSERT_TRUE(fresh.ok()) << where << ": " << fresh.status();
      if (CompletionDifference(next[1], *fresh) != "") ++ids_drawn;
      ++paths;
    }
  }
  EXPECT_GT(paths, 0u);
  EXPECT_GT(synthesized, 0u);
  EXPECT_GT(recorded, 0u);
  // Movies paths hop into tables whose keys other tables reference, so
  // their synthesized tuples draw fresh ids; housing paths draw none.
  if (setup->dataset == "movies") {
    EXPECT_GT(ids_drawn, 0u);
  }

  // The completed table: the base table plus the synthesized rows of the
  // selected path's completion.
  auto selected = (*db)->SelectedPathFor(setup->removed_table);
  ASSERT_TRUE(selected.ok()) << selected.status();
  auto model = (*db)->ModelForPath(*selected);
  ASSERT_TRUE(model.ok()) << model.status();
  Rng rng(CompletionSeedOf(config, *selected));
  auto reference = ReferenceCompletePathJoin(*data, annotation, **model, rng,
                                             CompletionOptions());
  ASSERT_TRUE(reference.ok()) << reference.status();
  auto expected_table =
      ReferenceCompletedTable(*data, *reference, setup->removed_table);
  ASSERT_TRUE(expected_table.ok()) << expected_table.status();
  auto completed = (*db)->CompleteTable(setup->removed_table);
  ASSERT_TRUE(completed.ok()) << completed.status();
  EXPECT_EQ(TableDifference(*completed, *expected_table), "");
}

std::vector<SweepCase> AllCases() {
  std::vector<SweepCase> cases;
  for (const char* setup :
       {"H1", "H2", "H3", "H4", "H5", "M1", "M2", "M3", "M4", "M5"}) {
    cases.push_back({setup, false});
    cases.push_back({setup, true});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllSetups, CompletionReference, ::testing::ValuesIn(AllCases()),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      return info.param.setup + (info.param.ssar ? "_SSAR" : "_AR");
    });

}  // namespace
}  // namespace restore
