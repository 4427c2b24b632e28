#ifndef RESTORE_RESTORE_PATH_MODEL_H_
#define RESTORE_RESTORE_PATH_MODEL_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "exec/exec_control.h"
#include "nn/deep_sets.h"
#include "nn/inference_scratch.h"
#include "nn/made.h"
#include "restore/annotation.h"
#include "restore/discretizer.h"
#include "storage/database.h"

namespace restore {

class SnapshotIndex;

/// Hyperparameters of a completion model (AR or SSAR) over one completion
/// path.
struct PathModelConfig {
  // Encoding.
  int max_bins = 24;  // numeric-column bin count
  int tf_cap = 31;    // tuple factors clamped to [0, tf_cap]

  // MADE architecture.
  size_t embed_dim = 8;
  size_t hidden_dim = 48;
  size_t num_layers = 2;

  // SSAR: deep-sets tree embedding of fan-out / self evidence (Section 3.3).
  bool use_ssar = false;
  size_t phi_dim = 32;
  size_t context_dim = 24;
  size_t max_children = 16;  // children per evidence tuple fed to the encoder

  // Training.
  size_t epochs = 20;
  size_t batch_size = 64;
  float learning_rate = 3e-3f;
  /// Lower bound on total optimizer steps: small training joins repeat
  /// epochs until at least this many minibatch updates ran.
  size_t min_train_steps = 400;
  double test_fraction = 0.1;
  size_t max_train_rows = 60000;
  uint64_t seed = 17;

  // Serving. Max idle inference scratch arenas pooled per model (excess
  // leases allocate-and-free); 0 = unbounded. Does not affect training or
  // results, so it participates in neither the engine fingerprint nor the
  // persisted model payload.
  size_t max_pooled_scratch_arenas = 8;
};

/// One attribute of the autoregressive ordering.
struct PathAttr {
  std::string table;      // owning base table
  std::string column;     // unqualified column name
  std::string qualified;  // "table.column" (name in joined training data)
  bool is_tuple_factor = false;
  ColumnDiscretizer disc;
};

/// A completion model over an ordered table path [T_1, ..., T_n]:
/// a (SS)AR network trained on the join T_1 |><| ... |><| T_n of the
/// available data, whose attribute ordering follows the path. Because the
/// factorization is autoregressive per table block, one PathModel provides
/// the conditional p(T_{k+1} | T_1..T_k) for EVERY hop k of the path — this
/// is exactly the model-merging property of Section 3.4.
///
/// Tuple factors: for each fan-out hop T_k -> T_{k+1} the parent's observed
/// tuple-factor column (TupleFactorColumnName) is inserted as an extra
/// attribute after T_k's attributes; unobserved cells fall back to the
/// currently-available child count as input and are masked out of the loss.
class PathModel {
 public:
  /// Builds and trains a model for `path` (ordered: evidence first, the
  /// table(s) to complete last) over the available data in `db`.
  ///
  /// `warm_start` (optional) fine-tunes instead of training from scratch:
  /// when the old model's parameter shapes match the new layout (same
  /// attribute set and vocabulary sizes — appends of in-vocabulary rows),
  /// its learned parameters seed the optimizer and `config.epochs` is the
  /// number of REFINEMENT epochs. A shape mismatch (new categorical values,
  /// schema drift) silently falls back to cold-start training under the
  /// same config, so the call never fails just because warm starting is
  /// impossible. Deterministic either way: the result is a pure function of
  /// (data, config, warm-start parameters).
  ///
  /// Serving callers should prefer Db::ModelForPath, which adds exactly-once
  /// lazy training, generation tracking, and RCU hot-swap; direct Train is
  /// for offline evaluation harnesses that measure training itself.
  static Result<std::unique_ptr<PathModel>> Train(
      const Database& db, const SchemaAnnotation& annotation,
      const std::vector<std::string>& path, const PathModelConfig& config,
      const PathModel* warm_start = nullptr);

  /// Serializes the trained model: config, attribute layout, discretizer
  /// bins, training marginals, and every learned parameter (embedding
  /// tables, MADE layers, deep-sets encoder). The payload is framed and
  /// checksummed by the caller (see Db::SaveModels).
  void Save(BinaryWriter* w) const;

  /// Restores a model saved by Save. `db` must be the incomplete database
  /// the model was trained on: SSAR child-evidence indexes are rebuilt from
  /// it, and mismatching schemas (child tables, vocabulary sizes, parameter
  /// shapes) are rejected. A loaded model produces bit-identical
  /// completions to the one that was saved; train_seconds() is 0.
  static Result<std::unique_ptr<PathModel>> Load(
      const Database& db, const SchemaAnnotation& annotation,
      BinaryReader* r);

  const std::vector<std::string>& path() const { return path_; }
  const PathModelConfig& config() const { return config_; }
  bool is_ssar() const { return config_.use_ssar && ssar_enabled_; }

  /// Held-out NLL over all attributes (Fig 5b's "training loss" criterion).
  double test_loss() const { return test_loss_; }
  /// Held-out NLL restricted to the final table's attributes (+ its TF):
  /// the predictability of what the model must synthesize. Used by the
  /// Basic model-selection strategy (Section 5).
  double target_test_loss() const { return target_test_loss_; }
  /// Wall-clock training time (Fig 11).
  double train_seconds() const { return train_seconds_; }
  size_t num_parameters() const { return num_parameters_; }

  // ---- Attribute layout ---------------------------------------------------
  const std::vector<PathAttr>& attrs() const { return attrs_; }
  /// [first, end) attribute range of table `path()[table_idx]` (excluding
  /// its TF attribute).
  size_t FirstAttrOfTable(size_t table_idx) const {
    return table_attr_begin_[table_idx];
  }
  size_t EndAttrOfTable(size_t table_idx) const {
    return table_attr_end_[table_idx];
  }
  /// Attribute index of the tuple factor of hop `hop` (path[hop] ->
  /// path[hop+1]), or -1 if that hop is n:1.
  int TfAttrIndex(size_t hop) const { return tf_attr_of_hop_[hop]; }
  /// True if hop `hop` goes from a parent to a child table (1:n).
  bool HopIsFanOut(size_t hop) const { return hop_is_fanout_[hop]; }
  /// Attribute index of `table`.`column`, or -1 if not modeled.
  int FindAttr(const std::string& table, const std::string& column) const {
    for (size_t a = 0; a < attrs_.size(); ++a) {
      if (attrs_[a].table == table && attrs_[a].column == column) {
        return static_cast<int>(a);
      }
    }
    return -1;
  }

  // ---- Completion-time inference -------------------------------------------
  /// Encodes the attributes of tables path[0..upto_table] from the rows
  /// `rows` of a joined table `joined` whose columns are qualified
  /// ("table.column"). Attributes beyond the prefix are zero-filled.
  ///
  /// An unobserved (NULL) tuple factor in the prefix encodes to its
  /// available-count fallback: the number of child rows in `db` whose FK
  /// holds the evidence row's parent key, or 0 when the key is NULL or not
  /// present in the parent table. Both counts come from the key indexes of
  /// `index`, which must index `db` (the epoch's index for Db callers);
  /// without one the call builds a call-local index.
  Result<IntMatrix> EncodeEvidencePrefix(
      const Database& db, const Table& joined, size_t upto_table,
      const std::vector<size_t>& rows,
      const SnapshotIndex* index = nullptr) const;

  /// Predicts the tuple factor of hop `hop` for the given evidence rows.
  /// `codes` must contain the encoded prefix up to table `hop` (from
  /// EncodeEvidencePrefix); the predicted TF codes are also written into it.
  ///
  /// If `available_counts` is provided (one entry per row: the number of
  /// child tuples currently available for that evidence row), the model
  /// posterior is refined with a binomial missingness model
  ///   P(TF = t | have = h) ~ P_model(t) * C(t, h) rho^h (1-rho)^(t-h),
  /// where rho is the child keep ratio estimated from parents whose true
  /// tuple factor is observed. This couples the prediction to the observed
  /// count and avoids systematic over-synthesis. The likelihood factor is
  /// tabulated per hop over every (h, t) pair when the model is trained or
  /// loaded, so the query path never calls lgamma/exp: it costs one
  /// multiply-add per TF code and row. Counts are clamped into [0, tf_cap].
  ///
  /// `codes` must have one row per entry of `rows` and, if given,
  /// `available_counts` one entry per row; otherwise InvalidArgument.
  ///
  /// `ctx` (optional, like every inference entry point below) is the
  /// query's execution context: it is checked cooperatively before each
  /// model batch, and leased scratch arenas are counted into its ExecStats.
  Result<std::vector<int64_t>> SampleTupleFactors(
      const Database& db, const Table& joined, IntMatrix* codes,
      const std::vector<size_t>& rows, size_t hop, Rng& rng,
      const std::vector<int64_t>* available_counts = nullptr,
      const ExecContext* ctx = nullptr) const;

  /// Estimated child keep ratio of hop `hop` (1.0 when unknown).
  double TfKeepRatio(size_t hop) const { return tf_keep_ratio_[hop]; }

  /// Synthesizes the attribute columns of table path[hop+1] for the given
  /// (already encoded) evidence rows. Returns one column per attribute of
  /// the target table, with unqualified names, `rows.size()` cells each.
  /// If `record_attr` is a valid attr index of the target table, the
  /// predictive distribution of that attribute is appended per row to
  /// `recorded` (for confidence intervals).
  Result<std::vector<Column>> SynthesizeHop(
      const Database& db, const Table& joined, IntMatrix* codes,
      const std::vector<size_t>& rows, size_t hop, Rng& rng,
      int record_attr = -1, Matrix* recorded = nullptr,
      const ExecContext* ctx = nullptr) const;

  /// Predictive distribution of a single attribute given the encoded prefix
  /// (used by the confidence machinery and tests).
  Result<Matrix> PredictAttrDistribution(const Database& db,
                                         const Table& joined,
                                         const IntMatrix& codes,
                                         const std::vector<size_t>& rows,
                                         size_t attr,
                                         const ExecContext* ctx = nullptr)
      const;

  /// Reconfigures the inference scratch pool's idle-arena retention cap
  /// (EngineConfig::model.max_pooled_scratch_arenas; applied by the Db at
  /// train/load time). Excess leases still succeed, they just don't pool.
  void set_scratch_pool_max_idle(size_t max_idle) const {
    scratch_pool_.set_max_idle(max_idle);
  }
  /// The model's scratch pool (introspection: idle/total_leases/dropped).
  const InferenceScratchPool& scratch_pool() const { return scratch_pool_; }

  /// Marginal distribution of attribute `attr` in the training data
  /// (the P_incomplete of Section 6).
  const std::vector<double>& TrainMarginal(size_t attr) const {
    return train_marginals_[attr];
  }

  /// Test-only: adds seeded Gaussian noise of standard deviation `stddev`
  /// to every learned parameter (MADE layers, embeddings, deep-sets
  /// encoder) and re-freezes the masked-weight inference caches. The
  /// distribution-equivalence harness (stats/equivalence.h) uses this as
  /// its deliberately broken model; no serving path calls it. Not safe
  /// while inference is running on this model.
  void PerturbParametersForTest(float stddev, uint64_t seed);

 private:
  PathModel() = default;

  Status BuildLayout(const Database& db, const SchemaAnnotation& annotation);
  Status BuildTrainingData(const Database& db);
  Status SetupSsar(const Database& db);
  /// Runs the optimizer loop. `warm_start` (may be null) seeds parameters
  /// from a previous generation when shapes match; see Train.
  Status RunTraining(const PathModel* warm_start);

  /// Builds deep-sets child batches for evidence key values. During
  /// training, `exclude_child_pk[i]` (if non-null) removes the child row with
  /// that primary key from row i's set (leave-one-out for self-evidence).
  Result<std::vector<ChildBatch>> BuildChildBatches(
      const std::vector<int64_t>& evidence_keys,
      const std::vector<int64_t>* exclude_child_pk) const;

  /// Computes the SSAR context for completion-time evidence rows into
  /// `scratch->context` (resized to empty for plain AR models). All
  /// workspace comes from `scratch`, keeping the path reentrant.
  Status ComputeContext(const Table& joined, const std::vector<size_t>& rows,
                        InferenceScratch* scratch) const;

  /// Tabulates tf_posterior_ from the TF discretizers and keep ratios.
  /// Called at the end of Train and Load; the table is never persisted.
  void BuildTfPosteriorTables();

  std::vector<std::string> path_;
  PathModelConfig config_;
  SchemaAnnotation annotation_;
  mutable Rng rng_;

  // Inference is reentrant: the networks are immutable after training (the
  // masked-weight caches are frozen by FinalizeForInference), and every
  // per-call buffer lives in an InferenceScratch arena leased from this
  // pool. N concurrent sessions hitting this ONE model run N truly parallel
  // forward passes — the pool mutex is held only for the arena pop/push.
  // Arenas are shaped on first use and reused, so steady-state inference
  // stays allocation-free (see src/nn/README.md "Consumers").
  mutable InferenceScratchPool scratch_pool_;

  // Attribute layout.
  std::vector<PathAttr> attrs_;
  std::vector<size_t> table_attr_begin_;
  std::vector<size_t> table_attr_end_;
  std::vector<int> tf_attr_of_hop_;
  std::vector<bool> hop_is_fanout_;
  std::vector<double> tf_keep_ratio_;  // per hop; 1.0 = complete

  // Binomial missingness likelihood of one fan-out hop (see
  // SampleTupleFactors): likelihood[h * vocab + k] =
  // C(t_k, h) rho^h (1-rho)^(t_k-h) for available count h in [0, tf_cap]
  // and TF code k with mean t_k (0 where t_k < h, never read). Empty when
  // rho >= 1, where the plain expectation applies.
  struct TfPosteriorTable {
    std::vector<double> code_mean;   // t_k per TF code
    std::vector<double> likelihood;  // (tf_cap + 1) x vocab, row-major
  };
  std::vector<TfPosteriorTable> tf_posterior_;  // per hop; empty for n:1

  // Training data.
  IntMatrix train_codes_;
  Matrix train_weights_;
  IntMatrix test_codes_;
  Matrix test_weights_;
  std::vector<int64_t> train_evidence_keys_;  // SSAR root keys per row
  std::vector<int64_t> test_evidence_keys_;
  std::vector<int64_t> train_exclude_pk_;  // self-evidence leave-one-out
  std::vector<int64_t> test_exclude_pk_;
  std::vector<std::vector<double>> train_marginals_;

  // SSAR wiring.
  bool ssar_enabled_ = false;
  std::string ssar_root_table_;      // evidence table owning the children
  std::string ssar_root_key_;        // its primary-key column
  std::vector<std::string> ssar_child_tables_;
  std::vector<RowEncoder> ssar_child_encoders_;
  // Per child table: encoded child rows + parent-key -> child row index map
  // and child pk per row (for exclusion).
  std::vector<IntMatrix> child_codes_;
  std::vector<std::map<int64_t, std::vector<size_t>>> children_of_key_;
  std::vector<std::vector<int64_t>> child_pks_;
  std::unique_ptr<DeepSetsEncoder> deep_sets_;

  std::unique_ptr<MadeModel> made_;
  double test_loss_ = 0.0;
  double target_test_loss_ = 0.0;
  double train_seconds_ = 0.0;
  size_t num_parameters_ = 0;
};

}  // namespace restore

#endif  // RESTORE_RESTORE_PATH_MODEL_H_
