#include "restore/path_selection.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "common/string_util.h"
#include "restore/incompleteness_join.h"
#include "restore/snapshot_index.h"

namespace restore {

namespace {

void EnumerateRecursive(const Database& db, const SchemaAnnotation& annotation,
                        std::vector<std::string>* current,
                        std::set<std::string>* visited, size_t max_len,
                        std::vector<std::vector<std::string>>* out) {
  // `current` is a reversed path: [target, ..., frontier].
  const std::string& frontier = current->back();
  if (current->size() >= 2 && annotation.IsComplete(frontier)) {
    // A valid completion path starts at the complete frontier.
    out->emplace_back(current->rbegin(), current->rend());
  }
  if (current->size() >= max_len) return;
  for (const auto& next : db.Neighbors(frontier)) {
    if (visited->count(next) > 0) continue;
    visited->insert(next);
    current->push_back(next);
    EnumerateRecursive(db, annotation, current, visited, max_len, out);
    current->pop_back();
    visited->erase(next);
  }
}

/// Mean of the first numeric non-key attribute of `table` (used as the
/// reconstruction target statistic).
Result<double> TableAttrMean(const Database& db, const Table& table,
                             const std::string& column) {
  RESTORE_ASSIGN_OR_RETURN(const Column* col, table.GetColumn(column));
  double sum = 0.0;
  size_t n = 0;
  for (size_t r = 0; r < table.NumRows(); ++r) {
    if (col->IsNull(r)) continue;
    sum += col->GetNumeric(r);
    ++n;
  }
  (void)db;
  if (n == 0) return Status::FailedPrecondition("empty column");
  return sum / static_cast<double>(n);
}

/// Picks the statistic column for the derived-scenario evaluation: the
/// suspected-bias column if provided, else the first numeric non-key
/// attribute found.
Result<std::string> StatisticColumn(const Database& db,
                                    const SchemaAnnotation& annotation,
                                    const std::string& target) {
  for (const auto& [key, bias] : annotation.suspected_biases()) {
    (void)key;
    if (bias.table == target) return bias.column;
  }
  RESTORE_ASSIGN_OR_RETURN(const Table* table, db.GetTable(target));
  std::set<std::string> keys;
  for (const auto& fk : db.foreign_keys()) {
    if (fk.child_table == target) keys.insert(fk.child_column);
    if (fk.parent_table == target) keys.insert(fk.parent_column);
  }
  for (const auto& col : table->columns()) {
    if (keys.count(col.name()) > 0) continue;
    if (StartsWith(col.name(), "__tf")) continue;
    if (col.is_numeric()) return col.name();
  }
  return Status::NotFound("no numeric attribute for reconstruction scoring");
}

}  // namespace

std::vector<std::vector<std::string>> EnumerateCompletionPaths(
    const Database& db, const SchemaAnnotation& annotation,
    const std::string& target, size_t max_len) {
  std::vector<std::vector<std::string>> out;
  std::vector<std::string> current{target};
  std::set<std::string> visited{target};
  EnumerateRecursive(db, annotation, &current, &visited, max_len, &out);
  // Short paths first: cheaper models are preferred on ties.
  std::stable_sort(out.begin(), out.end(),
                   [](const auto& a, const auto& b) {
                     return a.size() < b.size();
                   });
  return out;
}

Result<size_t> SelectPath(
    const Database& db, const SchemaAnnotation& annotation,
    const std::string& target,
    const std::vector<std::vector<std::string>>& candidates,
    const std::vector<const PathModel*>& models, SelectionStrategy strategy,
    const PathModelConfig& probe_config, double holdout_fraction,
    uint64_t seed) {
  if (candidates.empty()) {
    return Status::InvalidArgument("no candidate completion paths");
  }
  if (models.size() != candidates.size()) {
    return Status::InvalidArgument("one model per candidate required");
  }
  if (strategy == SelectionStrategy::kFirst) return size_t{0};

  if (strategy == SelectionStrategy::kBestTestLoss) {
    size_t best = 0;
    double best_loss = std::numeric_limits<double>::max();
    for (size_t i = 0; i < models.size(); ++i) {
      if (models[i]->target_test_loss() < best_loss) {
        best_loss = models[i]->target_test_loss();
        best = i;
      }
    }
    return best;
  }

  // Reconstruction-based strategies: derive a further-incomplete scenario
  // with the current incomplete database as ground truth.
  RESTORE_ASSIGN_OR_RETURN(std::string stat_col,
                           StatisticColumn(db, annotation, target));
  RESTORE_ASSIGN_OR_RETURN(const Table* truth_table, db.GetTable(target));
  RESTORE_ASSIGN_OR_RETURN(double truth_mean,
                           TableAttrMean(db, *truth_table, stat_col));

  // Remove a biased holdout: drop rows preferentially from one side of the
  // statistic column, mimicking the real missing-data mechanism.
  Rng rng(seed);
  Database derived = db.Clone();
  {
    RESTORE_ASSIGN_OR_RETURN(Table * table, derived.GetMutableTable(target));
    RESTORE_ASSIGN_OR_RETURN(const Column* col, table->GetColumn(stat_col));
    std::vector<std::pair<double, size_t>> ranked;
    for (size_t r = 0; r < table->NumRows(); ++r) {
      ranked.emplace_back(col->IsNull(r) ? 0.0 : col->GetNumeric(r), r);
    }
    std::sort(ranked.begin(), ranked.end());
    std::vector<size_t> keep;
    const size_t n = ranked.size();
    for (size_t i = 0; i < n; ++i) {
      const double rank = static_cast<double>(i) / std::max<size_t>(1, n - 1);
      const double p_remove = holdout_fraction * (0.5 + rank);  // biased
      if (!rng.NextBernoulli(std::min(1.0, p_remove))) {
        keep.push_back(ranked[i].second);
      }
    }
    std::sort(keep.begin(), keep.end());
    Table reduced = table->GatherRows(keep);
    reduced.set_name(target);
    RESTORE_RETURN_IF_ERROR(derived.ReplaceTable(std::move(reduced)));
  }

  const SuspectedBias* bias = nullptr;
  if (strategy == SelectionStrategy::kSuspectedBias) {
    for (const auto& [key, b] : annotation.suspected_biases()) {
      (void)key;
      if (b.table == target) bias = &b;
    }
  }

  RESTORE_ASSIGN_OR_RETURN(const Table* derived_table,
                           derived.GetTable(target));
  RESTORE_ASSIGN_OR_RETURN(double derived_mean,
                           TableAttrMean(derived, *derived_table, stat_col));

  size_t best = 0;
  double best_score = std::numeric_limits<double>::max();
  const SnapshotIndex index(derived);
  for (size_t i = 0; i < candidates.size(); ++i) {
    // Train a cheap probe model on the derived scenario and reconstruct.
    PathModelConfig cfg = probe_config;
    cfg.use_ssar = models[i]->is_ssar();
    auto probe = PathModel::Train(derived, annotation, candidates[i], cfg);
    if (!probe.ok()) continue;
    IncompletenessJoinExecutor exec(&index, &annotation);
    Rng crng(seed + 1);
    CompletionOptions synthesized_only;  // the score reads no join column
    synthesized_only.join_columns.emplace();
    auto completion = exec.CompletePathJoin(**probe, crng, synthesized_only);
    if (!completion.ok()) continue;
    // Reconstructed mean of the statistic over existing + synthesized rows.
    double sum = 0.0;
    size_t n = 0;
    {
      RESTORE_ASSIGN_OR_RETURN(const Column* col,
                               derived_table->GetColumn(stat_col));
      for (size_t r = 0; r < derived_table->NumRows(); ++r) {
        if (col->IsNull(r)) continue;
        sum += col->GetNumeric(r);
        ++n;
      }
    }
    auto it = completion->synthesized.find(target);
    if (it != completion->synthesized.end()) {
      for (const auto& col : it->second) {
        if (col.name() != stat_col) continue;
        for (size_t r = 0; r < col.size(); ++r) {
          if (col.IsNull(r)) continue;
          sum += col.GetNumeric(r);
          ++n;
        }
      }
    }
    if (n == 0) continue;
    const double completed_mean = sum / static_cast<double>(n);
    double score = std::abs(completed_mean - truth_mean);
    if (bias != nullptr) {
      // Penalize candidates that move the statistic the wrong way.
      const double correction = completed_mean - derived_mean;
      const bool should_increase =
          bias->direction == BiasDirection::kUnderestimated;
      if ((should_increase && correction < 0.0) ||
          (!should_increase && correction > 0.0)) {
        score += std::abs(truth_mean) + 1.0;
      }
    }
    if (score < best_score) {
      best_score = score;
      best = i;
    }
  }
  return best;
}

}  // namespace restore
