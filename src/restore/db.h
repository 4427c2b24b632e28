#ifndef RESTORE_RESTORE_DB_H_
#define RESTORE_RESTORE_DB_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/future.h"
#include "common/once_latch.h"
#include "common/result.h"
#include "exec/aggregate.h"
#include "exec/exec_control.h"
#include "exec/prepared.h"
#include "exec/query.h"
#include "exec/result_set.h"
#include "restore/annotation.h"
#include "restore/cache.h"
#include "restore/incompleteness_join.h"
#include "restore/path_model.h"
#include "restore/path_selection.h"
#include "restore/snapshot_index.h"
#include "stats/stat_test.h"
#include "storage/database.h"

namespace restore {

/// Engine-level configuration.
/// If you add a field that changes what models are trained or how, include
/// it in EngineConfigFingerprint — the fingerprint guards persisted models
/// against being loaded under a different configuration.
struct EngineConfig {
  PathModelConfig model;
  SelectionStrategy selection = SelectionStrategy::kBestTestLoss;
  /// Maximum completion-path length explored during candidate enumeration.
  size_t max_path_len = 5;
  /// Maximum candidate paths trained per incomplete table.
  size_t max_candidates = 4;
  /// Reuse completed joins across queries (Section 4.5).
  bool enable_cache = true;
  /// LRU byte budget of the completion cache; 0 = unbounded.
  size_t cache_budget_bytes = 0;
  uint64_t seed = 1234;
};

/// When and how the Db retrains models that fell behind ingested data.
struct RefreshPolicy {
  enum class Mode {
    /// Retrain the model from scratch on the current data (full epochs).
    kRetrain,
    /// Warm-start from the previous generation's parameters and run only
    /// `finetune_epochs` refinement epochs. Falls back to a cold start when
    /// the ingested data changed the model architecture (new categorical
    /// values); see PathModel::Train.
    kFinetune,
  };

  /// What decides that a model fell behind its data.
  enum class Trigger {
    /// Row counting: refresh once staleness_rows_threshold rows were
    /// ingested into the path's tables. Cheap, but a crude proxy — a bulk
    /// load drawn from the SAME distribution retrains models that are still
    /// perfectly calibrated.
    kRowCount,
    /// Measured distribution drift: each trained generation snapshots
    /// per-column reference summaries (bounded histograms, see
    /// stats/histogram.h) and a refresh fires only when the live snapshot
    /// diverges from them past drift_ks_threshold / drift_psi_threshold.
    /// A no-drift bulk append (e.g. duplicated rows) never retrains.
    kDrift,
  };

  /// A model whose path accumulated at least this many ingested rows since
  /// it was (re)trained is scheduled for background refresh. 0 disables the
  /// background refresher entirely (models still swap via the synchronous
  /// Db::RefreshStaleModels). Ignored under Trigger::kDrift.
  uint64_t staleness_rows_threshold = 0;
  Mode mode = Mode::kRetrain;
  /// Refinement epochs of a kFinetune refresh.
  size_t finetune_epochs = 2;
  /// Background refresher threads == maximum concurrently retraining
  /// models. Queries are never scheduled on these threads.
  size_t max_concurrent_retrains = 1;

  Trigger trigger = Trigger::kRowCount;
  /// kDrift: refresh when any path column's two-sample KS statistic against
  /// the training-time reference reaches this (numeric columns on the
  /// reference grid; categorical columns as ordinal CDFs over the reference
  /// label order). <= 0 disables the KS gate.
  double drift_ks_threshold = 0.1;
  /// kDrift: refresh when any path column's PSI reaches this. <= 0
  /// disables the PSI gate.
  double drift_psi_threshold = 0.25;

  /// A failed background refresh is retried up to this many times before
  /// the worker gives up on the pass (the circuit breaker below tracks the
  /// failures across passes). 0 keeps the old single-shot behavior.
  size_t max_retries = 3;
  /// Backoff before retry k is `min(backoff_initial_ms << (k-1),
  /// backoff_max_ms)` plus a deterministic jitter in [0, delay/2] derived
  /// from the path seed and attempt number — no two paths thundering-herd
  /// in lockstep, yet every run of the same path backs off identically.
  uint64_t backoff_initial_ms = 50;
  uint64_t backoff_max_ms = 2000;

  /// Circuit breaker: this many CONSECUTIVE training/refresh failures of
  /// one path opens its breaker. While open, the path serves its last good
  /// generation (or fails fast with kUnavailable when it never trained) and
  /// no training is attempted until breaker_open_ms elapses — then a single
  /// half-open probe may train; success closes the breaker, failure re-arms
  /// the open window. 0 disables the breaker. Applies to first-touch
  /// training too, so the breaker works even with refresh disabled.
  size_t breaker_failure_threshold = 5;
  uint64_t breaker_open_ms = 5000;

  /// True when this policy can ever schedule background refreshes (gates
  /// the refresher threads at Db::Open).
  bool enabled() const {
    if (max_concurrent_retrains == 0) return false;
    if (trigger == Trigger::kDrift) {
      return drift_ks_threshold > 0.0 || drift_psi_threshold > 0.0;
    }
    return staleness_rows_threshold > 0;
  }
};

/// Options of Db::Open beyond the engine configuration. Plain aggregate —
/// `{engine, "/path"}` keeps working — with chainable setters for readable
/// call sites:
///   Db::Open(&db, ann, DbOptions{}
///                          .WithEngine(config)
///                          .WithModelDir("/var/lib/restore")
///                          .WithRefreshPolicy({.staleness_rows_threshold =
///                                              1000}));
struct DbOptions {
  EngineConfig engine;
  /// If non-empty, trained models previously written by Db::SaveModels are
  /// restored from this directory at open, so the first query is answered
  /// without any training (total_train_seconds() stays 0 until a query
  /// needs a path that was never trained).
  std::string model_dir;
  /// Which persisted generation to load: 0 loads CURRENT (with fallback to
  /// the newest readable generation if CURRENT is missing or points at a
  /// damaged one); a non-zero value pins that exact generation — rollback —
  /// and fails if it cannot be loaded.
  uint64_t model_generation = 0;
  /// How many generations SaveModels leaves on disk (the new one included).
  /// Older generation directories are deleted after the CURRENT swap.
  size_t keep_generations = 3;
  RefreshPolicy refresh;

  DbOptions& WithEngine(EngineConfig e) {
    engine = std::move(e);
    return *this;
  }
  DbOptions& WithModelDir(std::string dir) {
    model_dir = std::move(dir);
    return *this;
  }
  DbOptions& WithModelGeneration(uint64_t generation) {
    model_generation = generation;
    return *this;
  }
  DbOptions& WithKeepGenerations(size_t n) {
    keep_generations = n;
    return *this;
  }
  DbOptions& WithRefreshPolicy(RefreshPolicy policy) {
    refresh = policy;
    return *this;
  }
};

class Session;

/// Stable hash of every model hyperparameter of `config` (architecture,
/// discretization, training schedule, engine seed). Persisted in the model
/// manifest by Db::SaveModels and validated at Db::Open: loading models into
/// a Db configured differently fails with a clear Status instead of a
/// parameter-shape surprise (or, worse, silently different models for paths
/// trained after the reopen).
uint64_t EngineConfigFingerprint(const EngineConfig& config);

/// Resolves the generation directory a fresh Db::Open of `model_dir` would
/// load: CURRENT's target if readable, else the newest gen-* directory.
/// NotFound when the directory holds no generational snapshot.
Result<std::string> CurrentModelGenerationDir(const std::string& model_dir);

/// Framing of the persisted model manifest (`restore_models.manifest` inside
/// a generation directory; see the README's "Model persistence format").
/// Exported so tests and tools derive their parsing bounds from the values
/// the writer actually uses instead of hardcoding them — a version bump
/// then updates every reader in one place.
inline constexpr uint32_t kManifestMagic = 0x4d545352;  // "RSTM"
inline constexpr uint32_t kManifestVersion = 4;

/// Per-path model freshness, as reported by Db::Freshness().
struct ModelInfo {
  std::vector<std::string> path;
  /// 1 for the first training of a path; +1 per completed refresh.
  uint64_t generation = 0;
  /// Total rows of the path's tables in the data snapshot the model was
  /// trained on (0 when unknown — models restored from a pre-generational
  /// manifest).
  uint64_t trained_rows = 0;
  /// Total rows of the path's tables right now.
  uint64_t current_rows = 0;
  /// Rows ingested into the path's tables since the model was (re)trained —
  /// the staleness measure RefreshPolicy::staleness_rows_threshold gates on.
  uint64_t staleness_rows = 0;
  double train_seconds = 0.0;
  /// True while a background refresh of this path is in flight.
  bool refreshing = false;
  /// True when this generation was restored from disk rather than trained
  /// by this process.
  bool loaded_from_disk = false;
  /// Drift of the live snapshot against this generation's training-time
  /// reference summaries. Unavailable (false, scores 0) for models restored
  /// from a pre-v4 manifest — those never fire the drift trigger.
  bool drift_available = false;
  /// Worst per-column two-sample KS statistic.
  double drift_ks = 0.0;
  /// Worst per-column population stability index.
  double drift_psi = 0.0;
  /// "table.column" attaining the worst KS statistic.
  std::string drift_column;
  /// Circuit-breaker state of the path: true while consecutive
  /// training/refresh failures keep the breaker open (the path serves this
  /// — stale — generation and refuses new training until the half-open
  /// probe).
  bool breaker_open = false;
  /// Consecutive training/refresh failures since the last success.
  uint64_t consecutive_failures = 0;
};

/// A future holding the asynchronous result of a completed-query execution.
/// Cancellation of the underlying query goes through the QueryOptions token
/// it was started with; the future itself only observes the outcome.
using ResultSetFuture = Future<Result<ResultSet>>;

/// The service-grade facade of ReStore: owns the trained completion models,
/// the completion cache, and the candidate/selection registries for one
/// annotated incomplete database, and answers aggregate queries as if the
/// database were complete.
///
/// Thread safety: a Db is safe for concurrent use from any number of
/// sessions/threads. Lazily-trained PathModels are guarded by per-path
/// once-training latches — concurrent queries needing the same path train
/// it exactly once and share the result; model seeds are a stable function
/// of the path (never of request order), so concurrent execution returns
/// bit-identical results to sequential execution.
///
/// Live data: Append/UpdateTable mutate the base relations under an RCU
/// discipline — writers build a new Database snapshot and publish it
/// atomically; in-flight queries keep the snapshot (and the model
/// generations) they started with, so no query ever mixes two epochs.
/// A background refresher (see RefreshPolicy) retrains models whose paths
/// accumulated enough ingested rows and hot-swaps the new generation in
/// without pausing traffic. A Db that never ingests behaves bit-identically
/// to the historical frozen-database engine.
///
/// Execution control: every execution entry point accepts a QueryOptions —
/// a cooperative CancellationToken, an absolute deadline, a synthesized-
/// tuple budget (max_completed_rows), the per-query cache policy, and the
/// ResultSet batch size. Results stream as a schema-carrying columnar
/// ResultSet whose ExecStats record parse/plan/sample/aggregate timings,
/// tuples completed, models consulted, cache hits/misses, and scratch
/// arenas leased; Db::stats() aggregates them across queries for scraping.
///
/// Typical usage:
///   RESTORE_ASSIGN_OR_RETURN(auto db, Db::Open(&database, annotation, {}));
///   Session session = db->CreateSession();
///   RESTORE_ASSIGN_OR_RETURN(auto avg_rent, session.Prepare(
///       "SELECT AVG(rent) FROM apartment WHERE accommodates >= ?;"));
///   QueryOptions options;
///   options.cancel = CancellationToken::Cancellable();
///   options.WithTimeout(std::chrono::seconds(5));
///   auto r2 = avg_rent.Run({Value::Int64(2)}, options);
///   auto r4 = avg_rent.RunAsync({Value::Int64(4)});
///   ...
///   RESTORE_RETURN_IF_ERROR(db->SaveModels("/var/lib/restore/models"));
class Db : public std::enable_shared_from_this<Db> {
 public:
  /// Validates the annotation, enumerates candidate completion paths for
  /// every incomplete table (failing early if one has none), and — when
  /// `options.model_dir` is set — restores persisted models so queries run
  /// training-free. `database` must outlive the returned Db (it stays the
  /// schema reference; ingested data lives in internal snapshots).
  static Result<std::shared_ptr<Db>> Open(const Database* database,
                                          SchemaAnnotation annotation,
                                          DbOptions options = DbOptions());

  ~Db();

  /// Creates a lightweight session handle bound to this Db.
  Session CreateSession();

  /// Executes `query` over the completed database (incompleteness joins for
  /// incomplete tables, normal execution otherwise), honoring the
  /// cancellation/deadline/budget knobs of `options`.
  Result<ResultSet> ExecuteCompleted(const Query& query,
                                     const QueryOptions& options = {});
  Result<ResultSet> ExecuteCompletedSql(const std::string& sql,
                                        const QueryOptions& options = {});

  // ---- Live-data ingestion -------------------------------------------------

  /// Appends `rows` (one vector<Value> per row, positional against the
  /// table's columns) to base table `table`. The writer path clones the
  /// current snapshot, validates and applies every row, and publishes the
  /// new snapshot atomically — in-flight readers keep the old one and are
  /// never blocked; a validation failure publishes nothing. Completion-cache
  /// entries of the old epoch become unreachable, per-path staleness
  /// advances, and stale models are scheduled for background refresh per
  /// the RefreshPolicy. Serialized against other writers.
  Status Append(const std::string& table,
                const std::vector<std::vector<Value>>& rows);

  /// Replaces base table `replacement.name()` wholesale with `replacement`,
  /// which must match the existing schema (column names and types, in
  /// order). Same RCU publication semantics as Append; staleness advances
  /// by the replacement's row count (a rewrite invalidates at least that
  /// much training data).
  Status UpdateTable(Table replacement);

  /// Per-path model freshness: one entry per trained path, in key order.
  std::vector<ModelInfo> Freshness() const;

  /// Synchronously retrains every model whose staleness reached the policy
  /// threshold (any staleness at all when the threshold is 0) and swaps the
  /// new generations in. Returns the first training error; models keep
  /// serving their previous generation on failure. Mostly for tests and
  /// offline tools — servers should rely on the background refresher.
  Status RefreshStaleModels();

  /// Blocks until the background refresher has no queued or running work.
  void WaitForRefreshIdle();

  /// Test-only hook of the distribution-equivalence harness (see
  /// stats/equivalence.h): replaces every trained model with a copy whose
  /// parameters carry seeded Gaussian noise of standard deviation `stddev`,
  /// published like a hot swap (the epoch bumps, so completion-cache
  /// entries of the intact models become unreachable). The harness proves
  /// its gate has teeth against exactly this deliberately broken Db.
  /// Never called by any serving path.
  Status PerturbModelsForTest(float stddev, uint64_t seed);

  /// Returns the completed version of one incomplete table: its existing
  /// tuples plus the synthesized attribute columns (keys are not
  /// synthesized). Used by the bias-reduction experiments. `ctx` (optional,
  /// also on the methods below) threads an owning query's cancellation and
  /// accounting through the completion.
  Result<Table> CompleteTable(const std::string& target,
                              const ExecContext* ctx = nullptr);

  /// Completes via a specific (already trained or new) path — used by the
  /// evaluation harness to score individual models. Deterministic: the
  /// synthesis RNG is derived from the path, not from call order.
  Result<CompletionResult> CompleteViaPath(
      const std::vector<std::string>& path,
      const CompletionOptions& options = CompletionOptions(),
      const ExecContext* ctx = nullptr);

  /// Candidates for `target` (path -> model). Paths are enumerated at Open;
  /// missing models are trained (in parallel, each exactly once) here.
  struct Candidate {
    std::vector<std::string> path;
    std::shared_ptr<const PathModel> model;
  };
  Result<std::vector<Candidate>> CandidatesFor(const std::string& target,
                                               const ExecContext* ctx =
                                                   nullptr);

  /// The path selected for `target` by the configured strategy (computed
  /// once per target, under a latch).
  Result<std::vector<std::string>> SelectedPathFor(
      const std::string& target, const ExecContext* ctx = nullptr);

  /// Access to a trained model by its path (trains lazily if absent;
  /// concurrent callers block until the single training run finishes).
  /// Cancellation is honored BEFORE training starts, never mid-training:
  /// models are shared across queries, so one caller's cancel must not
  /// poison the latch for everyone else. A caller with a deadline stops
  /// WAITING once it expires (DeadlineExceeded) while the shared training
  /// run itself continues and stays available to later callers.
  ///
  /// Under live ingestion models are generational: the returned shared_ptr
  /// leases the generation visible at the query's pinned epoch, stays valid
  /// however long the caller holds it, and repeat lookups under the same
  /// `ctx` return the same generation even across a concurrent hot swap.
  Result<std::shared_ptr<const PathModel>> ModelForPath(
      const std::vector<std::string>& path, const ExecContext* ctx = nullptr);

  /// Persists every trained model plus the per-target path selections to
  /// `dir` (created if missing) as a NEW numbered generation:
  /// `dir/gen-NNNNNN/` is populated tmp-then-rename with per-file
  /// checksums, then `dir/CURRENT` is atomically swapped to point at it.
  /// A crash at any point leaves the previous generation loadable; the last
  /// `keep_generations` generations are retained for rollback
  /// (DbOptions::model_generation). Safe to call while queries are running
  /// and concurrently with other SaveModels calls (saves are serialized
  /// internally, each committing its own generation); models trained after
  /// the snapshot was taken are not included.
  Status SaveModels(const std::string& dir) const;

  /// The schema-reference database this Db was opened over. Under live
  /// ingestion this is the ORIGINAL, pre-ingestion data — query execution
  /// uses data() snapshots instead.
  const Database& database() const { return *database_; }
  /// The current published data snapshot (ingested rows included). Holding
  /// the returned shared_ptr keeps the snapshot alive across later ingests.
  std::shared_ptr<const Database> data() const;
  /// Monotone epoch counter: +1 per published ingest and per model
  /// hot-swap. 0 means the Db is still bit-identical to a frozen open.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  const SchemaAnnotation& annotation() const { return annotation_; }
  const EngineConfig& config() const { return config_; }
  const RefreshPolicy& refresh_policy() const { return refresh_policy_; }
  CompletionCache& cache() { return cache_; }

  /// Total wall-clock seconds spent training models so far (Fig 11).
  /// Models restored from disk contribute nothing.
  double total_train_seconds() const;
  /// Number of PathModel::Train runs this Db executed (restored models do
  /// not count; background refreshes do). Under concurrency this equals the
  /// number of distinct trained (path, generation) pairs — the once-latches
  /// make duplicate training impossible.
  size_t models_trained() const {
    return models_trained_.load(std::memory_order_relaxed);
  }
  /// Number of models restored from `model_dir` at Open.
  size_t models_loaded() const { return models_loaded_; }

  /// Aggregated per-query accounting of this Db, for scraping/monitoring.
  /// Totals are updated once per finished query (success or failure), so a
  /// scrape is cheap and never blocks query execution.
  struct Stats {
    uint64_t queries_ok = 0;
    uint64_t queries_cancelled = 0;
    uint64_t queries_deadline_exceeded = 0;
    uint64_t queries_failed = 0;  // any other non-OK outcome
    /// Live-data accounting.
    uint64_t rows_ingested = 0;       // rows accepted by Append
    uint64_t tables_updated = 0;      // UpdateTable publications
    uint64_t models_refreshed = 0;    // completed background/sync refreshes
    uint64_t refresh_failures = 0;    // refresh trainings that failed
    uint64_t refresh_retries = 0;     // backoff retries after failures
    uint64_t generations_retired = 0; // generations displaced by a swap
    uint64_t epoch = 0;               // current Db::epoch()
    /// Degradation accounting (see RefreshPolicy breaker knobs).
    uint64_t breaker_open_total = 0;   // times any path breaker opened
    uint64_t breakers_open = 0;        // paths currently open (gauge)
    uint64_t refresh_failure_streak = 0;  // consecutive failed refreshes
    uint64_t save_failures = 0;           // SaveModels calls that failed
    uint64_t save_failure_streak = 0;     // consecutive failed saves
    /// Field-wise sums of every finished query's ExecStats (partial stats
    /// of cancelled/failed queries included).
    ExecStats totals;
  };
  Stats stats() const;

  /// Cheap degraded-health signals (single atomic loads — safe to poll per
  /// request, e.g. from the server's /healthz handler).
  uint64_t breakers_open() const {
    return breakers_open_.load(std::memory_order_relaxed);
  }
  uint64_t refresh_failure_streak() const {
    return refresh_failure_streak_.load(std::memory_order_relaxed);
  }
  uint64_t save_failure_streak() const {
    return save_failure_streak_.load(std::memory_order_relaxed);
  }

  /// Test hook: replaces the real backoff sleep of the background refresher
  /// (a fake clock — the hook observes the computed delay, the worker
  /// continues immediately). Must be installed before refresh activity
  /// starts; pass nullptr to restore real sleeping.
  void SetRefreshBackoffHookForTest(std::function<void(uint64_t)> hook);

 private:
  // Run/RunAsync record bind failures into the per-Db stats themselves
  // (binding happens before ExecuteCompleted is ever reached).
  friend class PreparedQuery;

  /// One trained generation of one path. Entries are immutable once their
  /// latch is done — with ONE exception: `prev`. A refresh REPLACES the
  /// registry slot with a new entry whose `prev` links to this one, so
  /// queries pinned at older epochs can still resolve their generation, and
  /// capping that chain (kMaxChainedGens) rewrites the `prev` of a node that
  /// is still reachable from the published head. `prev` is therefore read
  /// and written only under registry_mu_.
  struct ModelEntry {
    OnceLatch latch;
    std::shared_ptr<const PathModel> model;
    std::vector<std::string> path;
    uint64_t generation = 1;
    /// Db::epoch() value from which this generation is visible. 0 for
    /// first trainings and loaded models (visible to every query).
    uint64_t publish_epoch = 0;
    /// Cumulative per-path ingest counter at training time (staleness
    /// baseline) and total path rows of the training snapshot.
    uint64_t ingest_mark = 0;
    uint64_t rows_at_train = 0;
    /// Staleness carried over from before a restart (rows the on-disk
    /// generation was already missing when it was loaded).
    uint64_t stale_base = 0;
    double train_seconds = 0.0;
    bool loaded_from_disk = false;
    /// Per-column reference summaries of the training snapshot (bounded
    /// histograms, not raw rows), captured under the latch — immutable
    /// after — and persisted in manifest v4. Empty for models restored from
    /// a pre-v4 manifest: drift reads as unavailable rather than failing.
    std::vector<ColumnSummary> drift_ref;
    std::atomic<bool> refreshing{false};
    /// Previous generation. Guarded by registry_mu_ (see struct comment).
    std::shared_ptr<ModelEntry> prev;
  };
  /// Shared (not unique) so a failed selection can be swapped for a fresh
  /// entry while waiters still parked on the old latch drain safely — the
  /// same revive-by-replacement idiom ModelEntry uses. Map keys are fixed at
  /// Open; the VALUE swap is guarded by registry_mu_.
  struct SelectionEntry {
    OnceLatch latch;
    std::vector<std::string> path;
  };
  /// Everything one query must agree on, pinned at first touch: the data
  /// snapshot, its index, and the epoch that gates model-generation
  /// visibility and keys completion-cache entries.
  struct EpochPin {
    std::shared_ptr<const Database> data;
    std::shared_ptr<const SnapshotIndex> index;
    uint64_t epoch = 0;
  };

  Db(const Database* database, SchemaAnnotation annotation,
     EngineConfig config);

  static std::string PathKey(const std::vector<std::string>& path);
  /// Stable training seed for a path: candidate paths get compact indices
  /// assigned in enumeration order at Open (matching what sequential
  /// training produced historically); ad-hoc paths hash their key.
  uint64_t SeedForPath(const std::string& key) const;
  /// Training seed of generation `generation` of a path. Generation 1 is
  /// exactly SeedForPath (frozen-database reproducibility); later
  /// generations mix the generation in so a refresh is not a bit-identical
  /// rerun, while staying a pure function of (path, generation).
  uint64_t GenerationSeed(const std::string& key, uint64_t generation) const;
  /// RNG seed of a completion run over `key` — a pure function of the path
  /// so completions are independent of request interleaving and process
  /// restarts.
  uint64_t CompletionSeed(const std::string& key) const;

  /// Returns (creating if needed) the registry HEAD entry for `key`.
  std::shared_ptr<ModelEntry> EntryFor(const std::string& key,
                                       const std::vector<std::string>& path);

  /// The query's pinned epoch (pins the current one on first touch).
  std::shared_ptr<const EpochPin> PinnedEpoch(const ExecContext* ctx) const;

  /// Cumulative ingested rows across `path`'s tables. Caller holds
  /// data_mu_.
  uint64_t IngestMarkLocked(const std::vector<std::string>& path) const;

  /// Publishes `next` as the current snapshot (+1 epoch), advances the
  /// per-table ingest counter, revives failed model entries touching
  /// `table`, and schedules refreshes. Caller holds ingest_mu_.
  void PublishData(std::shared_ptr<const Database> next,
                   const std::string& table, uint64_t delta_rows);

  /// Replaces failed (done, not ok) registry entries whose path contains
  /// `table` with fresh latches: new data invalidates a cached training
  /// failure, so the next query retries against the new snapshot.
  void ReviveFailedModels(const std::string& table);

  /// Queues every stale-enough trained path for background refresh.
  void ScheduleStaleRefreshes();
  /// Staleness of a head entry right now (0 for untrained/failed entries).
  uint64_t StalenessOf(const ModelEntry& entry) const;
  /// Drift of the current snapshot against `entry`'s training reference
  /// (unavailable when the entry carries no reference summaries).
  DriftScore DriftOf(const ModelEntry& entry) const;
  /// True when `entry` is due for refresh under the policy's trigger.
  /// `any_staleness_when_unset` reproduces the synchronous
  /// RefreshStaleModels contract for the row-count trigger: any staleness
  /// at all counts when the threshold is 0.
  bool DueForRefresh(const ModelEntry& entry,
                     bool any_staleness_when_unset) const;

  /// Retrains `key` on the current snapshot and hot-swaps the new
  /// generation in. No-op (OK) when the entry vanished or is already
  /// refreshing; the previous generation keeps serving on failure.
  /// kUnavailable (without a training attempt) while `key`'s breaker is
  /// open and the half-open probe is not yet due.
  Status RefreshModelNow(const std::string& key);

  /// RefreshModelNow plus the policy's bounded retry loop: a failed attempt
  /// backs off exponentially (deterministic jitter from the path seed) and
  /// retries, up to max_retries times, stopping early on shutdown or when
  /// the path's breaker opens.
  Status RefreshWithRetry(const std::string& key);

  /// Backoff before retry `attempt` (1-based) of `key` — exponential with
  /// cap plus deterministic jitter; see RefreshPolicy::backoff_initial_ms.
  uint64_t BackoffDelayMs(const std::string& key, size_t attempt) const;
  /// Sleeps `ms` interruptibly (refresh_stop_ cuts it short), or reports
  /// the delay to the test hook and returns immediately.
  void BackoffWait(uint64_t ms);

  /// Circuit breaker (guarded by breaker_mu_, a leaf mutex).
  enum class BreakerDecision {
    kClosed,    // breaker closed: train/serve as normal
    kFailFast,  // open, probe not due: fail with kUnavailable, no training
    kProbe,     // open, probe due: one training attempt may run
  };
  BreakerDecision DecideBreaker(const std::string& key) const;
  /// Folds one REAL training outcome into `key`'s breaker (cooperative
  /// aborts — cancel/deadline — are not model-health signals and must not
  /// be reported). Opens the breaker at the policy threshold, re-arms the
  /// open window on probe failure, closes it on success.
  void RecordTrainingResult(const std::string& key, const Status& status);

  void RefreshWorkerLoop();
  void StopRefresher();

  /// Builds the completed join used to answer a query over `tables`,
  /// applying the cache per the context's cache policy and recording
  /// hit/miss accounting into its stats.
  Result<std::shared_ptr<const Table>> CompletedJoinFor(
      const std::vector<std::string>& tables, const ExecContext* ctx);

  /// Shared body of the two Execute entry points: runs plan -> completion
  /// -> aggregation under one ExecContext bound to `stats` (which already
  /// carries the parse timing for the SQL path) and folds the outcome into
  /// the per-Db totals.
  Result<ResultSet> ExecuteCompletedImpl(const Query& query,
                                         const QueryOptions& options,
                                         ExecStats stats);
  /// Folds one finished query's stats + outcome into the per-Db totals.
  void RecordQuery(const ExecStats& stats, const Status& status);

  /// SaveModels body; the public wrapper folds the outcome into the save
  /// failure counters.
  Status SaveModelsImpl(const std::string& dir) const;

  Status LoadModels(const std::string& dir, uint64_t generation_override);
  /// Loads one generation directory into staging maps (committed by the
  /// caller only on full success, so a half-loaded generation never leaks
  /// into the registry).
  Status LoadGenerationInto(
      const std::string& gen_dir,
      std::map<std::string, std::shared_ptr<ModelEntry>>* entries,
      std::map<std::string, std::vector<std::string>>* selections);

  const Database* database_;
  SchemaAnnotation annotation_;
  EngineConfig config_;
  RefreshPolicy refresh_policy_;
  size_t keep_generations_ = 3;
  CompletionCache cache_;

  // Immutable after Open.
  std::map<std::string, std::vector<std::vector<std::string>>>
      candidates_;  // target -> candidate paths
  std::map<std::string, uint64_t> path_seeds_;  // PathKey -> training seed
  std::map<std::string, std::shared_ptr<SelectionEntry>> selected_;
  size_t models_loaded_ = 0;

  // RCU data plane. data_ is the published snapshot; writers clone-and-swap
  // under ingest_mu_ (writer serialization) + data_mu_ (the brief publish
  // critical section readers also take). epoch_ is additionally an atomic
  // for lock-free scraping. Lock order: ingest_mu_ > data_mu_;
  // ingest_mu_ > registry_mu_; ingest_mu_ > refresh_mu_. data_mu_,
  // registry_mu_ and refresh_mu_ are leaves (never nested in each other).
  mutable std::mutex ingest_mu_;
  mutable std::mutex data_mu_;
  std::shared_ptr<const Database> data_;
  // Published with data_ and pinned with it: the epoch's join indexes and
  // replacers, filled lazily and freed with the snapshot's last pin.
  std::shared_ptr<const SnapshotIndex> index_;
  std::map<std::string, uint64_t> ingested_rows_by_table_;
  std::atomic<uint64_t> epoch_{0};

  // Model registry: the map structure is guarded by registry_mu_; each
  // entry's model is guarded by its latch (immutable once trained) and
  // swapped wholesale on refresh.
  mutable std::mutex registry_mu_;
  std::map<std::string, std::shared_ptr<ModelEntry>> models_;

  // Serializes SaveModels: two concurrent saves would compute the same next
  // generation number and fight over the same gen-N.tmp staging directory.
  // Held across file I/O; takes registry_mu_ inside (save_mu_ > registry_mu_)
  // and is never taken while holding any other Db mutex.
  mutable std::mutex save_mu_;

  // Background refresher (started only when the policy enables it).
  std::mutex refresh_mu_;
  std::condition_variable refresh_cv_;
  std::condition_variable refresh_idle_cv_;
  std::deque<std::string> refresh_queue_;
  std::set<std::string> refresh_pending_;  // queued or running
  size_t refresh_active_ = 0;
  bool refresh_stop_ = false;
  std::vector<std::thread> refresh_threads_;
  // Fake clock for backoff tests; read/written under refresh_mu_.
  std::function<void(uint64_t)> refresh_backoff_hook_;

  // Per-path circuit breakers. breaker_mu_ is a leaf mutex (never held
  // while taking any other Db mutex); breakers_open_ mirrors the map's
  // open count as an atomic so health checks stay lock-free.
  mutable std::mutex breaker_mu_;
  struct BreakerState {
    uint64_t consecutive_failures = 0;
    bool open = false;
    std::chrono::steady_clock::time_point open_until{};
  };
  std::map<std::string, BreakerState> breakers_;

  mutable std::mutex stats_mu_;
  double total_train_seconds_ = 0.0;
  std::atomic<size_t> models_trained_{0};
  std::atomic<uint64_t> rows_ingested_{0};
  std::atomic<uint64_t> tables_updated_{0};
  std::atomic<uint64_t> models_refreshed_{0};
  std::atomic<uint64_t> refresh_failures_{0};
  std::atomic<uint64_t> refresh_retries_{0};
  std::atomic<uint64_t> generations_retired_{0};
  std::atomic<uint64_t> breaker_open_total_{0};
  std::atomic<uint64_t> breakers_open_{0};
  std::atomic<uint64_t> refresh_failure_streak_{0};
  // SaveModels is const; the failure accounting is observational state.
  mutable std::atomic<uint64_t> save_failures_{0};
  mutable std::atomic<uint64_t> save_failure_streak_{0};

  // Aggregated query accounting (guarded by query_stats_mu_; queries touch
  // it exactly once, at completion).
  mutable std::mutex query_stats_mu_;
  Stats query_stats_;
};

/// A prepared completed-query: parsed and column-qualified once, runnable
/// many times with different positional parameters. Cheap to copy; keeps the
/// Db alive.
class PreparedQuery {
 public:
  PreparedQuery() = default;

  const Query& query() const { return stmt_.query(); }
  size_t num_params() const { return stmt_.num_params(); }

  /// Binds `params` to the `?` placeholders and runs over the completed
  /// database under `options` (cancellation, deadline, budgets).
  Result<ResultSet> Run(const std::vector<Value>& params = {},
                        const QueryOptions& options = {}) const;

  /// Asynchronous variant running on the shared ThreadPool. Cancel via the
  /// options token; a task cancelled while still queued returns
  /// Status::Cancelled as soon as a worker picks it up.
  ResultSetFuture RunAsync(const std::vector<Value>& params = {},
                           const QueryOptions& options = {}) const;

 private:
  friend class Session;
  PreparedQuery(std::shared_ptr<Db> db, PreparedStatement stmt)
      : db_(std::move(db)), stmt_(std::move(stmt)) {}

  std::shared_ptr<Db> db_;
  PreparedStatement stmt_;
};

/// A lightweight handle through which one client talks to a shared Db.
/// Sessions are cheap to create/copy and may live on any thread; all
/// heavyweight state (models, cache) lives in the Db.
class Session {
 public:
  explicit Session(std::shared_ptr<Db> db) : db_(std::move(db)) {}

  /// Parses and qualifies `sql` once, returning a bind-and-run-many handle.
  Result<PreparedQuery> Prepare(const std::string& sql) const;

  /// One-shot execution over the completed database. A pre-cancelled token
  /// (or an already-expired deadline) fails BEFORE the SQL is even parsed.
  Result<ResultSet> Execute(const std::string& sql,
                            const QueryOptions& options = {}) const;
  Result<ResultSet> Execute(const Query& query,
                            const QueryOptions& options = {}) const;

  /// Schedules the query on the shared ThreadPool and returns immediately.
  /// The options (token included) travel with the task.
  ResultSetFuture ExecuteAsync(const std::string& sql,
                               const QueryOptions& options = {}) const;

  const std::shared_ptr<Db>& db() const { return db_; }

 private:
  std::shared_ptr<Db> db_;
};

}  // namespace restore

#endif  // RESTORE_RESTORE_DB_H_
