#ifndef RESTORE_RESTORE_INCOMPLETENESS_JOIN_H_
#define RESTORE_RESTORE_INCOMPLETENESS_JOIN_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "exec/exec_control.h"
#include "restore/annotation.h"
#include "restore/path_model.h"
#include "restore/snapshot_index.h"
#include "storage/database.h"

namespace restore {

/// Optional hooks of a completion run.
struct CompletionOptions {
  /// If set, the predictive distribution of `record_table`.`record_column`
  /// is recorded for every tuple synthesized for that table (confidence
  /// intervals, Section 6).
  std::string record_table;
  std::string record_column;
  /// The columns of CompletionResult::joined to write, by their qualified
  /// names ("table.column"); unset writes every column. Each caller asks for
  /// what it reads: Db::CompleteViaPath and cached joins every column, an
  /// uncached query join the query's columns, and callers that read only
  /// CompletionResult::synthesized (Db::CompleteTable, the selection
  /// probes) none, which also skips the last hop's row ids and block of
  /// synthesized tuples.
  std::optional<std::vector<std::string>> join_columns;
};

/// Output of a completed path join.
struct CompletionResult {
  /// The approximated complete join of all path tables, named
  /// "<path[0]>_x_<path[1]>_x_..."; columns are qualified as
  /// "table.column", in path order, and only those that
  /// CompletionOptions::join_columns asked for are written. A join written
  /// with no columns has no rows either: existing_join_rows +
  /// synthesized_join_rows count them.
  Table joined;
  /// Per incomplete table: the synthesized attribute columns (one Column per
  /// modeled attribute of that table, unqualified names).
  std::map<std::string, std::vector<Column>> synthesized;
  /// Per incomplete table: the number of synthesized tuples.
  std::map<std::string, size_t> synthesized_counts;
  /// Number of existing (non-synthesized) rows in the final join.
  size_t existing_join_rows = 0;
  /// Number of synthesized rows in the final join.
  size_t synthesized_join_rows = 0;
  /// Recorded predictive distributions (one row per synthesized tuple of the
  /// recorded table), when CompletionOptions requested recording.
  std::vector<std::vector<float>> recorded_probs;
};

/// Executes the incompleteness join of Section 4 / Algorithm 1: walks the
/// completion path of `model` from its (complete) root table, joining
/// existing tuples normally and synthesizing the missing ones — predicting
/// tuple factors on fan-out hops, generating one parent per orphaned row on
/// n:1 hops, and applying Euclidean nearest-neighbor replacement whenever
/// tuples were synthesized for a table annotated as complete.
///
/// The join is late-materialized. A hop carries one row-id vector per path
/// table (a JoinPart), not that table's columns: an id points into the
/// snapshot's base table or into the block of tuples the hop that reached
/// the table synthesized for it, and a tuple replaced by its nearest
/// neighbor is just that base row's id. Whatever a hop reads — its left
/// key, the evidence that EncodeEvidencePrefix encodes (prefix attributes
/// and observed tuple factors), the SSAR root key and the n:1 child id — it
/// reads through the ids, with a JoinView. The joined Table is written once,
/// after the last hop, with only the columns CompletionOptions::join_columns
/// asks for.
///
/// Invariants, which keep every output bit of the full-column executor:
///  - Id order: each hop lists the existing join rows first (left rows in
///    order, each with its target rows ascending), then the synthesized
///    ones, in left-row order.
///  - Rng order: per hop, tuple factors are predicted for the distinct
///    parents, then the target attributes are sampled for the unique
///    missing tuples, in row order; fresh synthetic ids are drawn column by
///    column of the target, per tuple on fan-out hops and per join row on
///    n:1 hops.
class IncompletenessJoinExecutor {
 public:
  /// Completes over the snapshot that `index` indexes. Both pointers must
  /// outlive the executor.
  IncompletenessJoinExecutor(const SnapshotIndex* index,
                             const SchemaAnnotation* annotation)
      : index_(index), annotation_(annotation) {}

  /// Walks the full path of `model`, producing the completed join.
  ///
  /// Every structure that depends only on the snapshot comes from the
  /// index, built at most once per snapshot: each hop's existing-tuple join
  /// probes the target's key index (its pairs also give a fan-out hop's
  /// available child counts and an n:1 hop's orphans), n:1 hops read the
  /// orphan fan-in from it, the tuple-factor fallback of
  /// EncodeEvidencePrefix reads it, and the Euclidean replacer of a complete
  /// table is cached in it. A fan-out hop encodes and predicts tuple factors once per distinct
  /// parent key — for the first J row holding the key, and for every
  /// NULL-key row — and attaches that parent's synthesized children to
  /// every J row holding the key.
  ///
  /// `ctx` (optional) is the owning query's execution context: it is
  /// checked at every hop and inside the model sampling loops, newly
  /// synthesized tuples are charged against its max_completed_rows budget
  /// (Status::ResourceExhausted on overflow), and its ExecStats record the
  /// tuples completed and arenas leased.
  Result<CompletionResult> CompletePathJoin(
      const PathModel& model, Rng& rng,
      const CompletionOptions& options = CompletionOptions(),
      const ExecContext* ctx = nullptr);

 private:
  const SnapshotIndex* index_;
  const SchemaAnnotation* annotation_;
  int64_t next_synthetic_id_ = -1;
};

}  // namespace restore

#endif  // RESTORE_RESTORE_INCOMPLETENESS_JOIN_H_
