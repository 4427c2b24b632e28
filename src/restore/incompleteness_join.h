#ifndef RESTORE_RESTORE_INCOMPLETENESS_JOIN_H_
#define RESTORE_RESTORE_INCOMPLETENESS_JOIN_H_

#include <map>
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
};

/// Output of a completed path join.
struct CompletionResult {
  /// The approximated complete join of all path tables; columns are
  /// qualified as "table.column".
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
  /// probes the target's key index, fan-out hops read the available child
  /// counts from it, n:1 hops read the parent keys present and the orphan
  /// fan-in from it, the tuple-factor fallback of EncodeEvidencePrefix
  /// reads it, and the Euclidean replacer of a complete table is cached in
  /// it. A fan-out hop encodes and predicts tuple factors once per distinct
  /// parent key — for the first J row holding the key, and for every
  /// NULL-key row — and attaches that parent's synthesized children to
  /// every J row holding the key. Each hop writes its output once: the
  /// existing rows, then the synthesized rows.
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
