#include "restore/db.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <set>

#include "common/fault_injection.h"
#include "common/serialize.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "exec/executor.h"
#include "exec/join.h"
#include "exec/sql_parser.h"

namespace restore {

namespace {

// Model-persistence framing (see common/serialize.h). Bump the version of
// whichever payload layout changes; readers reject other versions. The
// manifest (v4) holds the engine-config fingerprint, then per model its
// generation metadata (generation number, rows at training time, training
// seconds) and training-time drift reference summaries (per-column bounded
// histograms). Older manifests are rejected at open.
// kManifestMagic / kManifestVersion are exported from db.h (tests derive
// their parsing bounds from them); the rest stays private to this file.
constexpr uint32_t kModelMagic = 0x4f545352;     // "RSTO"
constexpr uint32_t kCurrentMagic = 0x43545352;   // "RSTC"
constexpr uint32_t kModelVersion = 1;
constexpr uint32_t kCurrentVersion = 1;
constexpr const char kManifestName[] = "restore_models.manifest";
constexpr const char kCurrentName[] = "CURRENT";

std::string ModelFileName(const std::string& path_key) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(Fnv1a64(path_key)));
  return StrFormat("model_%s.rsm", buf);
}

std::string GenDirName(uint64_t generation) {
  return StrFormat("gen-%06llu",
                   static_cast<unsigned long long>(generation));
}

Status MakeDirectory(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST) return Status::OK();
  return Status::InvalidArgument(
      StrFormat("cannot create model directory '%s'", dir.c_str()));
}

/// Best-effort recursive delete (retiring old generations / crashed tmp
/// dirs must never fail a save that already published its data).
void RemoveDirRecursive(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return;
  while (struct dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name == "." || name == "..") continue;
    const std::string path = dir + "/" + name;
    struct stat st;
    if (::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode)) {
      RemoveDirRecursive(path);
    } else {
      std::remove(path.c_str());
    }
  }
  ::closedir(d);
  ::rmdir(dir.c_str());
}

/// Generation numbers present as complete `gen-NNNNNN` directories (tmp
/// staging dirs excluded), sorted ascending.
std::vector<uint64_t> ListGenerations(const std::string& dir) {
  std::vector<uint64_t> gens;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return gens;
  while (struct dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    unsigned long long gen = 0;
    if (std::sscanf(name.c_str(), "gen-%llu", &gen) != 1) continue;
    if (name != GenDirName(gen)) continue;  // rejects gen-*.tmp and padding
    gens.push_back(gen);
  }
  ::closedir(d);
  std::sort(gens.begin(), gens.end());
  return gens;
}

/// Removes staging directories a crashed save left behind.
void RemoveStaleTmpDirs(const std::string& dir) {
  std::vector<std::string> stale;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return;
  while (struct dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name.size() > 8 && name.compare(0, 4, "gen-") == 0 &&
        name.compare(name.size() - 4, 4, ".tmp") == 0) {
      stale.push_back(dir + "/" + name);
    }
  }
  ::closedir(d);
  for (const auto& path : stale) RemoveDirRecursive(path);
}

Result<uint64_t> ReadCurrentGeneration(const std::string& dir) {
  RESTORE_ASSIGN_OR_RETURN(
      std::string payload,
      ReadChecksummedFile(dir + "/" + kCurrentName, kCurrentMagic,
                          kCurrentVersion));
  BinaryReader r(std::move(payload));
  const uint64_t gen = r.U64();
  RESTORE_RETURN_IF_ERROR(r.status());
  if (!r.AtEnd() || gen == 0) {
    return Status::InvalidArgument(
        StrFormat("'%s/%s' is malformed", dir.c_str(), kCurrentName));
  }
  return gen;
}

uint64_t TotalPathRows(const Database& db, const std::vector<std::string>& path) {
  uint64_t rows = 0;
  for (const auto& t : path) {
    Result<const Table*> table = db.GetTable(t);
    if (table.ok()) rows += (*table)->NumRows();
  }
  return rows;
}

}  // namespace

uint64_t EngineConfigFingerprint(const EngineConfig& config) {
  // Serialize every model hyperparameter in a fixed order and hash the
  // bytes. The per-path training seeds are derived from config.seed, so the
  // engine seed participates, and the selection strategy does too (the
  // manifest persists per-target path selections, which are that strategy's
  // output). Cache settings do not change what is persisted and stay out.
  BinaryWriter w;
  WritePathModelConfig(config.model, &w);
  w.U64(config.max_path_len);
  w.U64(config.max_candidates);
  w.U64(static_cast<uint64_t>(config.selection));
  w.U64(config.seed);
  return Fnv1a64(w.buffer());
}

/// The qualified columns `query` reads. A query that reads none (a bare
/// COUNT(*)) keeps the first column of its first table, which carries the
/// rows.
Result<std::vector<std::string>> QueryColumns(const Database& db,
                                              const Query& query) {
  std::vector<std::string> columns;
  for (const auto& agg : query.aggregates) {
    if (!agg.column.empty()) columns.push_back(agg.column);
  }
  for (const auto& pred : query.predicates) columns.push_back(pred.column);
  columns.insert(columns.end(), query.group_by.begin(), query.group_by.end());
  if (columns.empty()) {
    RESTORE_ASSIGN_OR_RETURN(const Table* first, db.GetTable(query.tables[0]));
    columns.push_back(query.tables[0] + "." + first->column(0).name());
  }
  return columns;
}

Result<std::string> CurrentModelGenerationDir(const std::string& model_dir) {
  Result<uint64_t> current = ReadCurrentGeneration(model_dir);
  if (current.ok()) return model_dir + "/" + GenDirName(current.value());
  const std::vector<uint64_t> gens = ListGenerations(model_dir);
  if (gens.empty()) {
    return Status::NotFound(StrFormat(
        "'%s' holds no generational model snapshot", model_dir.c_str()));
  }
  return model_dir + "/" + GenDirName(gens.back());
}

Db::Db(const Database* database, SchemaAnnotation annotation,
       EngineConfig config)
    : database_(database),
      annotation_(std::move(annotation)),
      config_(std::move(config)),
      cache_(config_.cache_budget_bytes) {
  auto pin = std::make_shared<EpochPin>();
  // Non-owning alias: until the first Append, the published snapshot IS
  // the caller's database — the frozen path copies nothing.
  pin->data = std::shared_ptr<const Database>(std::shared_ptr<const Database>(),
                                              database);
  pin->index = std::make_shared<const SnapshotIndex>(pin->data);
  current_ = std::move(pin);
}

Db::~Db() { StopRefresher(); }

std::string Db::PathKey(const std::vector<std::string>& path) {
  return Join(path, "->");
}

Result<std::shared_ptr<Db>> Db::Open(const Database* database,
                                     SchemaAnnotation annotation,
                                     DbOptions options) {
  RESTORE_RETURN_IF_ERROR(annotation.Validate(*database));
  std::shared_ptr<Db> db(
      new Db(database, std::move(annotation), std::move(options.engine)));
  db->refresh_policy_ = options.refresh;
  db->keep_generations_ =
      options.keep_generations == 0 ? 1 : options.keep_generations;
  for (const auto& target : db->annotation_.incomplete_tables()) {
    std::vector<std::vector<std::string>> paths = EnumerateCompletionPaths(
        *database, db->annotation_, target, db->config_.max_path_len);
    if (paths.empty()) {
      return Status::FailedPrecondition(
          StrFormat("no completion path for incomplete table '%s'",
                    target.c_str()));
    }
    if (paths.size() > db->config_.max_candidates) {
      paths.resize(db->config_.max_candidates);
    }
    db->candidates_[target] = std::move(paths);
    db->selected_[target] = std::make_shared<SelectionEntry>();
  }
  // Stable per-path training seeds, assigned in enumeration order. These
  // reproduce the seeds sequential training historically used, but are a
  // pure function of the schema — never of request order — so concurrent
  // and restarted servers train identical models.
  uint64_t next = 1;
  for (const auto& [target, paths] : db->candidates_) {
    (void)target;
    for (const auto& path : paths) {
      const std::string key = PathKey(path);
      if (db->path_seeds_.count(key) == 0) {
        db->path_seeds_[key] = db->config_.seed + next++;
      }
    }
  }
  if (!options.model_dir.empty()) {
    RESTORE_RETURN_IF_ERROR(
        db->LoadModels(options.model_dir, options.model_generation));
  }
  if (db->refresh_policy_.enabled()) {
    // Dedicated threads, NOT the shared ThreadPool: at pool width 1 the
    // pool runs tasks inline on the submitter, which would stall queries
    // behind retraining — the exact thing background refresh must avoid.
    db->refresh_threads_.reserve(db->refresh_policy_.max_concurrent_retrains);
    for (size_t i = 0; i < db->refresh_policy_.max_concurrent_retrains; ++i) {
      db->refresh_threads_.emplace_back(
          [raw = db.get()] { raw->RefreshWorkerLoop(); });
    }
  }
  return db;
}

Session Db::CreateSession() { return Session(shared_from_this()); }

std::shared_ptr<const Database> Db::data() const {
  return PinnedEpoch(nullptr)->data;
}

uint64_t Db::epoch() const { return PinnedEpoch(nullptr)->epoch; }

uint64_t Db::SeedForPath(const std::string& key) const {
  auto it = path_seeds_.find(key);
  if (it != path_seeds_.end()) return it->second;
  // Ad-hoc path outside the candidate registry: hash the key into a seed
  // disjoint from the compact candidate indices.
  return config_.seed + 1000003 + (Fnv1a64(key) % 1000000007ull);
}

uint64_t Db::GenerationSeed(const std::string& key,
                            uint64_t generation) const {
  // Generation 1 must be EXACTLY the historical seed (frozen-database
  // bit-reproducibility); later generations fold the generation number in
  // so a refresh explores a fresh optimization trajectory while remaining a
  // pure function of (path, generation).
  return SeedForPath(key) ^ ((generation - 1) * 0x9e3779b97f4a7c15ull);
}

uint64_t Db::CompletionSeed(const std::string& key) const {
  return config_.seed ^ (Fnv1a64(key) | 1ull);
}

std::shared_ptr<Db::ModelEntry> Db::EntryFor(
    const std::string& key, const std::vector<std::string>& path) {
  std::lock_guard<std::mutex> lock(registry_mu_);
  std::shared_ptr<ModelEntry>& slot = models_[key];
  if (slot == nullptr) {
    slot = std::make_shared<ModelEntry>();
    slot->path = path;
  }
  return slot;
}

uint64_t Db::EpochPin::IngestMark(const std::vector<std::string>& path) const {
  uint64_t mark = 0;
  for (const auto& t : path) {
    auto it = ingested_rows.find(t);
    if (it != ingested_rows.end()) mark += it->second;
  }
  return mark;
}

std::shared_ptr<Db::ModelEntry> Db::HeadOf(const EpochPin& pin,
                                           const std::string& key) const {
  auto swapped = pin.swapped.find(key);
  if (swapped != pin.swapped.end()) return swapped->second;
  std::lock_guard<std::mutex> lock(registry_mu_);
  auto it = models_.find(key);
  return it == models_.end() ? nullptr : it->second;
}

std::vector<std::pair<std::string, std::shared_ptr<Db::ModelEntry>>>
Db::TrainedHeads(const EpochPin& pin) const {
  std::vector<std::pair<std::string, std::shared_ptr<ModelEntry>>> heads;
  std::lock_guard<std::mutex> lock(registry_mu_);
  for (const auto& [key, first] : models_) {
    auto swapped = pin.swapped.find(key);
    const std::shared_ptr<ModelEntry>& entry =
        swapped != pin.swapped.end() ? swapped->second : first;
    if (entry->latch.done_ok() && entry->model != nullptr) {
      heads.emplace_back(key, entry);
    }
  }
  return heads;
}

bool Db::PublishHead(const std::string& key,
                     const std::shared_ptr<ModelEntry>& expected,
                     const std::shared_ptr<ModelEntry>& fresh) {
  // The replaced pin is released after every lock: it may hold the last
  // reference to a snapshot or to a generation no query pins any more.
  std::shared_ptr<const EpochPin> retired;
  std::lock_guard<std::mutex> writer(ingest_mu_);
  retired = PinnedEpoch(nullptr);
  if (HeadOf(*retired, key) != expected) return false;
  // Queries pinned before keep resolving their generation through their
  // own pin; only queries that pin after the swap see `fresh`.
  auto next = std::make_shared<EpochPin>(*retired);
  next->swapped[key] = fresh;
  ++next->epoch;
  std::lock_guard<std::mutex> lock(data_mu_);
  current_ = std::move(next);
  return true;
}

std::shared_ptr<const Db::EpochPin> Db::PinnedEpoch(
    const ExecContext* ctx) const {
  if (ctx != nullptr && ctx->pin() != nullptr) {
    return std::static_pointer_cast<const EpochPin>(ctx->pin());
  }
  std::shared_ptr<const EpochPin> pin;
  {
    std::lock_guard<std::mutex> lock(data_mu_);
    pin = current_;
  }
  if (ctx != nullptr) ctx->set_pin(pin);
  return pin;
}

Result<std::shared_ptr<const PathModel>> Db::ModelForPath(
    const std::vector<std::string>& path, const ExecContext* ctx) {
  // Cancellation is honored BEFORE the latch, never inside it: the latch
  // caches a failure permanently, so letting one caller's cancel fail the
  // training run would poison the model for every other session.
  RESTORE_RETURN_IF_ERROR(ExecContext::Check(ctx));
  if (ctx != nullptr && ctx->stats() != nullptr) {
    ++ctx->stats()->models_consulted;
  }
  const std::string key = PathKey(path);
  // A generation hot-swapped in at or before the query's pin serves it;
  // otherwise the registry's first generation does (a swap published after
  // the pin stays invisible to this query).
  const std::shared_ptr<const EpochPin> pin = PinnedEpoch(ctx);
  auto swapped = pin->swapped.find(key);
  if (swapped != pin->swapped.end()) return swapped->second->model;
  std::shared_ptr<ModelEntry> entry = EntryFor(key, path);
  // Circuit breaker — consulted only when this path has no good generation
  // to serve (untrained, training, or a cached failure): while open, fail
  // fast with kUnavailable instead of replaying the cached error or piling
  // onto a failing training path; once the half-open window is reached, a
  // cached failure gets a FRESH latch so the probe actually retrains (the
  // latch still collapses a probe herd to exactly one training run).
  if (!entry->latch.done_ok()) {
    switch (DecideBreaker(key)) {
      case BreakerDecision::kClosed:
        break;
      case BreakerDecision::kFailFast:
        return Status::Unavailable(StrFormat(
            "circuit breaker open for path '%s' (no good generation to "
            "serve)",
            key.c_str()));
      case BreakerDecision::kProbe: {
        std::lock_guard<std::mutex> lock(registry_mu_);
        auto it = models_.find(key);
        if (it != models_.end()) {
          if (it->second->latch.done() && !it->second->latch.done_ok()) {
            auto probe = std::make_shared<ModelEntry>();
            probe->path = it->second->path;
            probe->generation = it->second->generation;  // retry, not refresh
            it->second = probe;
          }
          entry = it->second;
        }
        break;
      }
    }
  }
  // A deadline-carrying WAITER may abandon the wait with DeadlineExceeded;
  // the first-touch training itself always runs to completion and stays
  // shareable (one caller's deadline must never poison the model).
  const auto deadline = ctx != nullptr
                            ? ctx->deadline()
                            : std::chrono::steady_clock::time_point::max();
  Status s = entry->latch.RunOnceWithDeadline([&]() -> Status {
    // First touch trains on the NEWEST snapshot, not the caller's pin: the
    // run defines this generation for every session, so it uses the freshest
    // data and records the staleness baseline it was trained against.
    RESTORE_RETURN_IF_ERROR(TrainGeneration(key, *PinnedEpoch(nullptr),
                                            "train.path", entry.get()));
    CountTrained(*entry);
    return Status::OK();
  }, deadline);
  if (!s.ok()) return s;
  return entry->model;
}

Status Db::TrainGeneration(const std::string& key, const EpochPin& pin,
                           const char* fault_point, ModelEntry* entry) {
  Status fault = Status::OK();
  if (FaultInjection::Enabled()) fault = FaultInjection::Fire(fault_point);
  const Database& snapshot = *pin.data;
  PathModelConfig cfg = config_.model;
  cfg.seed = GenerationSeed(key, entry->generation);
  Result<std::unique_ptr<PathModel>> trained =
      fault.ok() ? PathModel::Train(snapshot, annotation_, entry->path, cfg)
                 : Result<std::unique_ptr<PathModel>>(fault);
  RecordTrainingResult(key, trained.status());
  if (!trained.ok()) return trained.status();
  entry->model = std::shared_ptr<const PathModel>(std::move(trained).value());
  entry->ingest_mark = pin.IngestMark(entry->path);
  entry->rows_at_train = TotalPathRows(snapshot, entry->path);
  // Drift reference: bounded per-column summaries of the snapshot this
  // generation was trained on, taken while the training data is already
  // hot in cache. Scoring happens only in the refresher/Freshness paths,
  // so the frozen query path stays bit-identical.
  entry->drift_ref = SummarizeTables(snapshot, entry->path);
  entry->train_seconds = entry->model->train_seconds();
  return Status::OK();
}

void Db::CountTrained(const ModelEntry& entry) {
  models_trained_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(stats_mu_);
  total_train_seconds_ += entry.train_seconds;
}

double Db::total_train_seconds() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return total_train_seconds_;
}

Result<std::vector<Db::Candidate>> Db::CandidatesFor(
    const std::string& target, const ExecContext* ctx) {
  RESTORE_RETURN_IF_ERROR(ExecContext::Check(ctx));
  auto it = candidates_.find(target);
  if (it == candidates_.end()) {
    return Status::NotFound(StrFormat(
        "no candidates for '%s' (not an incomplete table of this Db)",
        target.c_str()));
  }
  const std::vector<std::vector<std::string>>& paths = it->second;
  // Candidate models are independent: train the missing ones concurrently on
  // the shared pool. Each path's once-latch guarantees a single training run
  // even if another session races us on the same candidate. The ctx is NOT
  // threaded into the shards (its stats/progress are single-threaded by
  // contract); instead the query's cancel flag skips still-unclaimed
  // training shards, and the check below turns that into Cancelled.
  std::vector<Status> errors(paths.size(), Status::OK());
  ThreadPool::Global().ParallelFor(
      0, paths.size(), 1,
      [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) {
          errors[i] = ModelForPath(paths[i]).status();
        }
      },
      ctx != nullptr ? ctx->cancel_flag() : nullptr);
  RESTORE_RETURN_IF_ERROR(ExecContext::Check(ctx));
  for (const Status& s : errors) {
    if (!s.ok()) return s;
  }
  std::vector<Candidate> out;
  out.reserve(paths.size());
  for (const auto& path : paths) {
    RESTORE_ASSIGN_OR_RETURN(std::shared_ptr<const PathModel> model,
                             ModelForPath(path, ctx));
    out.push_back({path, std::move(model)});
  }
  return out;
}

Result<std::vector<std::string>> Db::SelectedPathFor(
    const std::string& target, const ExecContext* ctx) {
  // Path-selection cost is accounted separately from sampling: the caller's
  // sample timer (ExecuteCompletedImpl) subtracts what accrues here, so
  // ExecStats.selection_seconds vs sample_seconds cleanly split the
  // completion pipeline. First touch pays candidate training + the probe
  // sweep behind the shared latch; later queries only the map lookup.
  Timer selection_timer;
  ExecStats* stats = ctx != nullptr ? ctx->stats() : nullptr;
  struct SelectionTimerGuard {
    Timer& timer;
    ExecStats* stats;
    ~SelectionTimerGuard() {
      if (stats != nullptr) {
        stats->selection_seconds += timer.ElapsedSeconds();
      }
    }
  } guard{selection_timer, stats};
  // Selection (like training) runs under a shared once-latch, so it is
  // checked before but never aborted inside — a cancelled caller must not
  // cache a Cancelled selection for everyone else.
  RESTORE_RETURN_IF_ERROR(ExecContext::Check(ctx));
  std::shared_ptr<SelectionEntry> entry;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    auto it = selected_.find(target);
    if (it == selected_.end()) {
      return Status::NotFound(StrFormat(
          "no selection for '%s' (not an incomplete table of this Db)",
          target.c_str()));
    }
    entry = it->second;
  }
  // As with model training: only the WAIT is deadline-bounded; the shared
  // selection run itself completes and stays cached for everyone.
  const auto deadline = ctx != nullptr
                            ? ctx->deadline()
                            : std::chrono::steady_clock::time_point::max();
  Status s = entry->latch.RunOnceWithDeadline([&]() -> Status {
    Result<std::vector<Candidate>> cands = CandidatesFor(target);
    if (!cands.ok()) return cands.status();
    if (cands->empty()) {
      return Status::FailedPrecondition(
          StrFormat("no trained candidates for '%s'", target.c_str()));
    }
    std::vector<std::vector<std::string>> paths;
    std::vector<const PathModel*> models;
    for (const auto& c : *cands) {
      paths.push_back(c.path);
      models.push_back(c.model.get());
    }
    const std::shared_ptr<const Database> snapshot = data();
    PathModelConfig probe = config_.model;
    probe.epochs = std::max<size_t>(2, probe.epochs / 3);
    Result<size_t> best =
        SelectPath(*snapshot, annotation_, target, paths, models,
                   config_.selection, probe, /*holdout_fraction=*/0.3,
                   config_.seed + 7);
    if (!best.ok()) return best.status();
    entry->path = paths[best.value()];
    return Status::OK();
  }, deadline);
  if (!s.ok()) {
    // Unlike training failures (cached per-path, gated by the circuit
    // breaker), a failed selection is never cached: swap in a fresh entry so
    // the next query retries. The retry is cheap — it re-walks the cached
    // per-path outcomes, so it fails fast (or fail-fasts on an open breaker
    // with kUnavailable) until a candidate actually recovers. Deadline and
    // cancel are the caller abandoning the WAIT, not a selection outcome:
    // the shared run is still in flight, so the entry must stay.
    if (!s.IsDeadlineExceeded() && !s.IsCancelled()) {
      std::lock_guard<std::mutex> lock(registry_mu_);
      auto it = selected_.find(target);
      if (it != selected_.end() && it->second == entry) {
        it->second = std::make_shared<SelectionEntry>();
      }
    }
    return s;
  }
  return entry->path;
}

Result<CompletionResult> Db::CompleteViaPath(
    const std::vector<std::string>& path, const CompletionOptions& options,
    const ExecContext* ctx) {
  // External callers without a context still get a consistent epoch: every
  // resource of this ONE completion resolves through the same local pin.
  ExecContext local(nullptr, nullptr);
  const ExecContext* use = ctx != nullptr ? ctx : &local;
  RESTORE_ASSIGN_OR_RETURN(std::shared_ptr<const PathModel> model,
                           ModelForPath(path, use));
  const std::shared_ptr<const EpochPin> pin = PinnedEpoch(use);
  // The synthesis RNG is derived from the path so a completion is a pure
  // function of (db, models, path) — concurrent sessions and restarted
  // processes produce bit-identical synthesized data.
  Rng rng(CompletionSeed(PathKey(path)));
  IncompletenessJoinExecutor exec(pin->index.get(), &annotation_);
  return exec.CompletePathJoin(*model, rng, options, ctx);
}

Result<Table> Db::CompleteTable(const std::string& target,
                                const ExecContext* ctx) {
  return CompleteTableColumns(target, std::nullopt, ctx);
}

Result<Table> Db::CompleteTableColumns(
    const std::string& target,
    const std::optional<std::vector<std::string>>& columns,
    const ExecContext* ctx) {
  ExecContext local(nullptr, nullptr);
  const ExecContext* use = ctx != nullptr ? ctx : &local;
  RESTORE_ASSIGN_OR_RETURN(std::vector<std::string> path,
                           SelectedPathFor(target, use));
  // Only the synthesized tuples are read: the join is not written.
  CompletionOptions options;
  options.join_columns.emplace();
  RESTORE_ASSIGN_OR_RETURN(CompletionResult completion,
                           CompleteViaPath(path, options, use));
  const std::shared_ptr<const EpochPin> pin = PinnedEpoch(use);
  RESTORE_ASSIGN_OR_RETURN(const Table* base, pin->data->GetTable(target));

  // Completed table = existing tuples + synthesized tuples (attr columns;
  // key columns of synthesized tuples are NULL).
  const std::vector<Column>& synthesized = completion.synthesized[target];
  std::vector<size_t> tuples(synthesized.empty() ? 0
                                                 : synthesized.front().size());
  std::iota(tuples.begin(), tuples.end(), size_t{0});
  Table out(target);
  for (const auto& col : base->columns()) {
    const std::string qualified = col.name().find('.') == std::string::npos
                                      ? target + "." + col.name()
                                      : col.name();
    if (columns.has_value() &&
        std::find(columns->begin(), columns->end(), qualified) ==
            columns->end()) {
      continue;
    }
    Column merged = col;
    auto synth = std::find_if(
        synthesized.begin(), synthesized.end(),
        [&col](const Column& sc) { return sc.name() == col.name(); });
    if (synth != synthesized.end()) {
      merged.AppendGather(*synth, tuples);
    } else {
      merged.AppendNulls(tuples.size());
    }
    RESTORE_RETURN_IF_ERROR(out.AddColumn(std::move(merged)));
  }
  return out;
}

Result<std::shared_ptr<const Table>> Db::CompletedJoinFor(
    const Query& query, const ExecContext* ctx) {
  const std::vector<std::string>& tables = query.tables;
  ExecStats* stats = ctx != nullptr ? ctx->stats() : nullptr;
  const auto note_lookup = [stats](bool hit) {
    if (stats == nullptr) return;
    if (hit) {
      ++stats->cache_hits;
    } else {
      ++stats->cache_misses;
    }
  };
  // Cache lookups and writes carry the pinned epoch. The cache holds only
  // the newest epoch it has seen: after a hot swap (ingest or model refresh)
  // the first post-swap write drops every pre-swap completion, and a query
  // still pinned at an older epoch misses and stores nothing. A frozen Db
  // stays at epoch 0.
  const std::shared_ptr<const EpochPin> pin = PinnedEpoch(ctx);
  const uint64_t epoch = pin->epoch;
  const Database& snapshot = *pin->data;

  // Single incomplete table: answer from the completed TABLE rather than a
  // completed path join — the path necessarily enters through a fan-out
  // (e.g. a link table), which would count each target tuple once per link.
  if (tables.size() == 1 && annotation_.IsIncomplete(tables[0])) {
    // Exact-match caching only: projecting a cached superset join would
    // change tuple multiplicities.
    const std::set<std::string> key{tables[0]};
    std::optional<std::vector<std::string>> columns;
    if (config_.enable_cache) {
      std::shared_ptr<const Table> cached = cache_.GetExact(key, epoch);
      note_lookup(cached != nullptr);
      if (cached != nullptr) return cached;
    } else {
      RESTORE_ASSIGN_OR_RETURN(columns, QueryColumns(snapshot, query));
    }
    RESTORE_ASSIGN_OR_RETURN(Table completed,
                             CompleteTableColumns(tables[0], columns, ctx));
    completed.QualifyColumnNames(tables[0]);
    auto result = std::make_shared<const Table>(std::move(completed));
    if (config_.enable_cache) cache_.Put(key, result, epoch);
    return result;
  }
  // Incomplete tables among the requested join. A query over complete
  // tables only is answered classically, never from a cached completed
  // join: a covering join repeats each of its tuples per joined child.
  std::vector<std::string> incomplete;
  for (const auto& t : tables) {
    if (annotation_.IsIncomplete(t)) incomplete.push_back(t);
  }
  if (incomplete.empty()) {
    RESTORE_ASSIGN_OR_RETURN(Table joined,
                             NaturalJoinTables(snapshot, tables, ctx));
    return std::make_shared<const Table>(std::move(joined));
  }
  std::set<std::string> table_set(tables.begin(), tables.end());
  if (config_.enable_cache) {
    std::shared_ptr<const Table> cached =
        cache_.GetCovering(table_set, epoch);
    note_lookup(cached != nullptr);
    if (cached != nullptr) return cached;
  }

  // Build the extended completion path: a completion path for the primary
  // incomplete table, then any remaining query tables appended in FK-
  // connected order. The walk completes every incomplete table it crosses.
  //
  // Path choice is query-aware: a fan-out hop into a table OUTSIDE the query
  // multiplies the join rows of the answer (Section 4.4 would require
  // reweighting), so candidates are ranked first by how few off-query
  // fan-out hops they introduce, then by the configured selection strategy.
  RESTORE_ASSIGN_OR_RETURN(std::vector<std::string> selected,
                           SelectedPathFor(incomplete[0], ctx));
  // The query-aware re-ranking below is selection work too (it can override
  // the cached per-table choice), so it lands in selection_seconds. It reads
  // only the candidate paths, never their models: the completion below
  // resolves (and, if need be, trains) the one model of the chosen path.
  Timer ranking_timer;
  auto fanout_penalty = [&](const std::vector<std::string>& p) {
    size_t penalty = 0;
    for (size_t k = 0; k + 1 < p.size(); ++k) {
      auto fan = snapshot.IsFanOut(p[k], p[k + 1]);
      const bool off_query =
          std::find(tables.begin(), tables.end(), p[k + 1]) == tables.end();
      if (fan.ok() && fan.value() && off_query) ++penalty;
    }
    return penalty;
  };
  std::vector<std::string> path = selected;
  size_t best_penalty = fanout_penalty(selected);
  for (const auto& cand : candidates_.at(incomplete[0])) {
    const size_t penalty = fanout_penalty(cand);
    if (penalty < best_penalty) {
      best_penalty = penalty;
      path = cand;
    }
  }
  if (stats != nullptr) {
    stats->selection_seconds += ranking_timer.ElapsedSeconds();
  }
  std::vector<std::string> extended = path;
  std::set<std::string> placed(path.begin(), path.end());
  std::set<std::string> remaining;
  for (const auto& t : tables) {
    if (placed.count(t) == 0) remaining.insert(t);
  }
  while (!remaining.empty()) {
    bool progress = false;
    // Prefer a table connected to the LAST path table (a proper walk), else
    // any connected table.
    for (const auto& cand : remaining) {
      if (snapshot.FindForeignKey(extended.back(), cand).ok()) {
        extended.push_back(cand);
        placed.insert(cand);
        remaining.erase(cand);
        progress = true;
        break;
      }
    }
    if (progress) continue;
    for (const auto& cand : remaining) {
      bool connected = false;
      for (const auto& done : placed) {
        if (snapshot.FindForeignKey(cand, done).ok()) {
          connected = true;
          break;
        }
      }
      if (connected) {
        return Status::Unimplemented(
            StrFormat("query table '%s' is not FK-adjacent to the completion "
                      "path tail; bushy completion plans are not supported",
                      cand.c_str()));
      }
      return Status::InvalidArgument(
          StrFormat("query table '%s' is not connected", cand.c_str()));
    }
  }

  // A cached join may answer later queries over other columns, so it is
  // written whole; otherwise only this query's columns are.
  CompletionOptions options;
  if (!config_.enable_cache) {
    RESTORE_ASSIGN_OR_RETURN(options.join_columns,
                             QueryColumns(snapshot, query));
  }
  RESTORE_ASSIGN_OR_RETURN(CompletionResult completion,
                           CompleteViaPath(extended, options, ctx));
  auto result = std::make_shared<const Table>(std::move(completion.joined));
  if (config_.enable_cache) {
    std::set<std::string> covered(extended.begin(), extended.end());
    cache_.Put(covered, result, epoch);
  }
  return result;
}

Result<ResultSet> Db::ExecuteCompletedImpl(const Query& query,
                                           const QueryOptions& options,
                                           ExecStats stats) {
  ExecContext ctx(&options, &stats);
  Result<ResultSet> result = [&]() -> Result<ResultSet> {
    RESTORE_RETURN_IF_ERROR(ctx.Check());
    if (query.tables.empty() || query.aggregates.empty()) {
      return Status::InvalidArgument("malformed query");
    }
    RESTORE_RETURN_IF_ERROR(CheckFullyBound(query));
    // Pin the epoch before the first data touch: everything this query
    // reads — base tables, models, cache entries — resolves against this
    // one snapshot even if ingestion or a model swap lands mid-flight.
    const std::shared_ptr<const EpochPin> pin = PinnedEpoch(&ctx);
    // Rewrite column references to be table-qualified w.r.t. the query
    // tables so that evidence tables pulled in by the completion path cannot
    // make them ambiguous. Idempotent for pre-qualified prepared queries.
    Timer plan_timer;
    Query rewritten = query;
    RESTORE_RETURN_IF_ERROR(QualifyQueryColumns(*pin->data, &rewritten));
    stats.plan_seconds += plan_timer.ElapsedSeconds();
    // The sample timer brackets the whole completed-join build; whatever
    // path-selection time accrued inside (SelectedPathFor + the query-aware
    // re-ranking) is subtracted so selection_seconds and sample_seconds
    // partition the pipeline instead of double-counting.
    const double selection_before = stats.selection_seconds;
    Timer sample_timer;
    RESTORE_ASSIGN_OR_RETURN(std::shared_ptr<const Table> joined,
                             CompletedJoinFor(rewritten, &ctx));
    const double sampled = sample_timer.ElapsedSeconds() -
                           (stats.selection_seconds - selection_before);
    stats.sample_seconds += sampled > 0.0 ? sampled : 0.0;
    Timer agg_timer;
    RESTORE_ASSIGN_OR_RETURN(QueryResult grouped,
                             FilterAndAggregate(*joined, rewritten, &ctx));
    stats.aggregate_seconds += agg_timer.ElapsedSeconds();
    // Schema names come from the ORIGINAL query, so prepared and ad-hoc
    // runs of the same SQL carry identical column names.
    return ResultSet::Build(query, std::move(grouped), stats,
                            ctx.batch_rows());
  }();
  RecordQuery(stats, result.status());
  return result;
}

Result<ResultSet> Db::ExecuteCompleted(const Query& query,
                                       const QueryOptions& options) {
  return ExecuteCompletedImpl(query, options, ExecStats());
}

Result<ResultSet> Db::ExecuteCompletedSql(const std::string& sql,
                                          const QueryOptions& options) {
  ExecStats stats;
  {
    // Cancel-before-parse: a dead query never pays for parsing.
    ExecContext ctx(&options, &stats);
    Status s = ctx.Check();
    if (!s.ok()) {
      RecordQuery(stats, s);
      return s;
    }
  }
  Timer parse_timer;
  Result<Query> query = ParseSql(sql);
  stats.parse_seconds = parse_timer.ElapsedSeconds();
  if (!query.ok()) {
    RecordQuery(stats, query.status());
    return query.status();
  }
  return ExecuteCompletedImpl(*query, options, std::move(stats));
}

void Db::RecordQuery(const ExecStats& stats, const Status& status) {
  std::lock_guard<std::mutex> lock(query_stats_mu_);
  if (status.ok()) {
    ++query_stats_.queries_ok;
  } else if (status.IsCancelled()) {
    ++query_stats_.queries_cancelled;
  } else if (status.IsDeadlineExceeded()) {
    ++query_stats_.queries_deadline_exceeded;
  } else {
    ++query_stats_.queries_failed;
  }
  ExecStats& t = query_stats_.totals;
  t.parse_seconds += stats.parse_seconds;
  t.plan_seconds += stats.plan_seconds;
  t.selection_seconds += stats.selection_seconds;
  t.sample_seconds += stats.sample_seconds;
  t.aggregate_seconds += stats.aggregate_seconds;
  t.tuples_completed += stats.tuples_completed;
  t.models_consulted += stats.models_consulted;
  t.cache_hits += stats.cache_hits;
  t.cache_misses += stats.cache_misses;
  t.arenas_leased += stats.arenas_leased;
}

Db::Stats Db::stats() const {
  Stats out;
  {
    std::lock_guard<std::mutex> lock(query_stats_mu_);
    out = query_stats_;
  }
  out.rows_ingested = rows_ingested_.load(std::memory_order_relaxed);
  out.tables_updated = tables_updated_.load(std::memory_order_relaxed);
  out.models_refreshed = models_refreshed_.load(std::memory_order_relaxed);
  out.refresh_failures = refresh_failures_.load(std::memory_order_relaxed);
  out.generations_retired =
      generations_retired_.load(std::memory_order_relaxed);
  out.refresh_retries = refresh_retries_.load(std::memory_order_relaxed);
  out.breaker_open_total =
      breaker_open_total_.load(std::memory_order_relaxed);
  out.breakers_open = breakers_open_.load(std::memory_order_relaxed);
  out.refresh_failure_streak =
      refresh_failure_streak_.load(std::memory_order_relaxed);
  out.save_failures = save_failures_.load(std::memory_order_relaxed);
  out.save_failure_streak =
      save_failure_streak_.load(std::memory_order_relaxed);
  out.epoch = epoch();
  return out;
}

// ---- Live-data ingestion ---------------------------------------------------

Status Db::Append(const std::string& table,
                  const std::vector<std::vector<Value>>& rows) {
  if (rows.empty()) return Status::OK();
  RESTORE_FAULT_POINT("ingest.validate");
  std::lock_guard<std::mutex> writer(ingest_mu_);
  const std::shared_ptr<const Database> cur = data();
  RESTORE_ASSIGN_OR_RETURN(const Table* existing, cur->GetTable(table));
  (void)existing;
  auto next = std::make_shared<Database>(cur->Clone());
  RESTORE_ASSIGN_OR_RETURN(Table* target, next->GetMutableTable(table));
  // Clone() shares dictionaries with the source snapshot, and appending an
  // unseen categorical value mutates the dictionary (GetOrInsert) — which
  // concurrent readers of the OLD snapshot are decoding through. Give the
  // mutated table private dictionary copies before touching it; codes are
  // copied verbatim, so they stay comparable within the new snapshot.
  for (const auto& col : target->columns()) {
    if (col.type() != ColumnType::kCategorical) continue;
    RESTORE_ASSIGN_OR_RETURN(Column * mut,
                             target->GetMutableColumn(col.name()));
    mut->set_dictionary(std::make_shared<Dictionary>(*mut->dictionary()));
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    Status s = target->AppendRow(rows[i]);
    if (!s.ok()) {
      // Nothing was published: the failed clone is simply dropped and
      // readers never observe a partial append.
      return Status::InvalidArgument(StrFormat(
          "append to '%s' rejected at row %zu: %s", table.c_str(), i,
          s.message().c_str()));
    }
  }
  PublishData(std::move(next), table, rows.size());
  rows_ingested_.fetch_add(rows.size(), std::memory_order_relaxed);
  return Status::OK();
}

Status Db::UpdateTable(Table replacement) {
  const std::string table = replacement.name();
  RESTORE_FAULT_POINT("ingest.validate");
  std::lock_guard<std::mutex> writer(ingest_mu_);
  const std::shared_ptr<const Database> cur = data();
  RESTORE_ASSIGN_OR_RETURN(const Table* existing, cur->GetTable(table));
  if (existing->NumColumns() != replacement.NumColumns()) {
    return Status::InvalidArgument(StrFormat(
        "replacement for '%s' has %zu columns, expected %zu", table.c_str(),
        replacement.NumColumns(), existing->NumColumns()));
  }
  for (size_t i = 0; i < replacement.NumColumns(); ++i) {
    const Column& a = existing->columns()[i];
    const Column& b = replacement.columns()[i];
    if (a.name() != b.name() || a.type() != b.type()) {
      return Status::InvalidArgument(StrFormat(
          "replacement for '%s' column %zu is '%s'/%s, expected '%s'/%s",
          table.c_str(), i, b.name().c_str(), ColumnTypeName(b.type()),
          a.name().c_str(), ColumnTypeName(a.type())));
    }
  }
  // A rewrite invalidates at least its own row count worth of training
  // data; count at least 1 so even an empty replacement advances staleness.
  const uint64_t delta = std::max<uint64_t>(1, replacement.NumRows());
  auto next = std::make_shared<Database>(cur->Clone());
  RESTORE_RETURN_IF_ERROR(next->ReplaceTable(std::move(replacement)));
  PublishData(std::move(next), table, delta);
  tables_updated_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

void Db::PublishData(std::shared_ptr<const Database> next,
                     const std::string& table, uint64_t delta_rows) {
  auto pin = std::make_shared<EpochPin>(*PinnedEpoch(nullptr));
  pin->index = std::make_shared<const SnapshotIndex>(next);
  pin->data = std::move(next);
  pin->ingested_rows[table] += delta_rows;
  ++pin->epoch;
  // The replaced pin is released outside data_mu_.
  std::shared_ptr<const EpochPin> retired = pin;
  {
    std::lock_guard<std::mutex> lock(data_mu_);
    current_.swap(retired);
  }
  ReviveFailedModels(table);
  ScheduleStaleRefreshes(*pin);
}

void Db::ReviveFailedModels(const std::string& table) {
  // A once-latch caches its outcome permanently — including failures. New
  // data is new information, so a path that failed to train and touches the
  // ingested table gets a FRESH latch (a whole new entry): the next query
  // retries against the new snapshot instead of replaying a stale error.
  // Waiters still parked on the old entry see the old failure; that is the
  // answer for the data they pinned.
  std::lock_guard<std::mutex> lock(registry_mu_);
  for (auto& [key, entry] : models_) {
    (void)key;
    if (!entry->latch.done() || entry->latch.done_ok()) continue;
    if (std::find(entry->path.begin(), entry->path.end(), table) ==
        entry->path.end()) {
      continue;
    }
    auto fresh = std::make_shared<ModelEntry>();
    fresh->path = entry->path;
    fresh->generation = entry->generation;  // same seed: retry, not refresh
    entry = fresh;
  }
}

uint64_t Db::StalenessOf(const EpochPin& pin, const ModelEntry& entry) const {
  // A first generation may have trained on a newer snapshot than `pin`
  // (it trains on the newest one); it is not stale at `pin`.
  const uint64_t mark = pin.IngestMark(entry.path);
  return (mark > entry.ingest_mark ? mark - entry.ingest_mark : 0) +
         entry.stale_base;
}

DriftScore Db::DriftOf(const EpochPin& pin, const ModelEntry& entry) const {
  if (entry.drift_ref.empty()) return DriftScore();  // unavailable
  return ScoreDrift(entry.drift_ref, *pin.data);
}

bool Db::DueForRefresh(const EpochPin& pin, const ModelEntry& entry,
                       bool any_staleness_when_unset) const {
  if (refresh_policy_.trigger == RefreshPolicy::Trigger::kDrift) {
    // Nothing was ingested into the path since training — the snapshot IS
    // the training data, so skip the O(rows) scoring pass outright.
    if (StalenessOf(pin, entry) == 0) return false;
    const DriftScore drift = DriftOf(pin, entry);
    if (!drift.available) return false;
    return (refresh_policy_.drift_ks_threshold > 0.0 &&
            drift.ks >= refresh_policy_.drift_ks_threshold) ||
           (refresh_policy_.drift_psi_threshold > 0.0 &&
            drift.psi >= refresh_policy_.drift_psi_threshold);
  }
  const uint64_t threshold =
      any_staleness_when_unset
          ? std::max<uint64_t>(1, refresh_policy_.staleness_rows_threshold)
          : refresh_policy_.staleness_rows_threshold;
  return StalenessOf(pin, entry) >= threshold;
}

std::vector<ModelInfo> Db::Freshness() const {
  const std::shared_ptr<const EpochPin> pin = PinnedEpoch(nullptr);
  std::vector<ModelInfo> out;
  for (const auto& [key, entry] : TrainedHeads(*pin)) {
    ModelInfo info;
    info.path = entry->path;
    info.generation = entry->generation;
    info.trained_rows = entry->rows_at_train;
    info.current_rows = TotalPathRows(*pin->data, entry->path);
    info.staleness_rows = StalenessOf(*pin, *entry);
    info.train_seconds = entry->train_seconds;
    info.refreshing = entry->refreshing.load(std::memory_order_relaxed);
    info.loaded_from_disk = entry->loaded_from_disk;
    const DriftScore drift = DriftOf(*pin, *entry);
    info.drift_available = drift.available;
    info.drift_ks = drift.ks;
    info.drift_psi = drift.psi;
    info.drift_column = drift.worst_column;
    {
      std::lock_guard<std::mutex> lock(breaker_mu_);
      auto bit = breakers_.find(key);
      if (bit != breakers_.end()) {
        info.breaker_open = bit->second.open;
        info.consecutive_failures = bit->second.consecutive_failures;
      }
    }
    out.push_back(std::move(info));
  }
  return out;
}

// ---- Background refresh ----------------------------------------------------

void Db::ScheduleStaleRefreshes(const EpochPin& pin) {
  if (refresh_threads_.empty() || !refresh_policy_.enabled()) return;
  std::vector<std::string> due;
  for (const auto& [key, entry] : TrainedHeads(pin)) {
    // An open breaker means this path just burned through its retry budget;
    // don't re-queue it until the half-open window lets a probe through.
    if (DecideBreaker(key) == BreakerDecision::kFailFast) continue;
    if (DueForRefresh(pin, *entry, /*any_staleness_when_unset=*/false)) {
      due.push_back(key);
    }
  }
  if (due.empty()) return;
  std::lock_guard<std::mutex> lock(refresh_mu_);
  for (const auto& key : due) {
    if (refresh_pending_.insert(key).second) refresh_queue_.push_back(key);
  }
  refresh_cv_.notify_all();
}

void Db::RefreshWorkerLoop() {
  for (;;) {
    std::string key;
    {
      std::unique_lock<std::mutex> lock(refresh_mu_);
      refresh_cv_.wait(lock, [&] {
        return refresh_stop_ || !refresh_queue_.empty();
      });
      if (refresh_stop_) return;
      key = refresh_queue_.front();
      refresh_queue_.pop_front();
      ++refresh_active_;
    }
    // A failed retrain keeps the previous generation serving. Transient
    // failures are retried with exponential backoff + deterministic jitter;
    // a path that exhausts its budget keeps failing opens its circuit
    // breaker, which gates re-queueing until the half-open window.
    const Status refreshed = RefreshWithRetry(key);
    // An ingest that landed mid-retrain found `key` still pending and
    // skipped it — re-check so its staleness is not silently dropped. Only a
    // SUCCESSFUL pass re-queues: after a failed one, the next ingest (or
    // breaker probe) re-schedules, so a permanently broken path cannot spin.
    bool still_stale = false;
    if (refreshed.ok()) {
      const std::shared_ptr<const EpochPin> pin = PinnedEpoch(nullptr);
      const std::shared_ptr<ModelEntry> head = HeadOf(*pin, key);
      still_stale =
          head != nullptr && head->latch.done_ok() &&
          DueForRefresh(*pin, *head, /*any_staleness_when_unset=*/false);
    }
    {
      std::unique_lock<std::mutex> lock(refresh_mu_);
      --refresh_active_;
      refresh_pending_.erase(key);
      if (still_stale && !refresh_stop_ &&
          refresh_pending_.insert(key).second) {
        refresh_queue_.push_back(key);
        refresh_cv_.notify_one();
      }
      if (refresh_queue_.empty() && refresh_active_ == 0) {
        refresh_idle_cv_.notify_all();
      }
    }
  }
}

Status Db::RefreshModelNow(const std::string& key) {
  const std::shared_ptr<const EpochPin> pin = PinnedEpoch(nullptr);
  const std::shared_ptr<ModelEntry> entry = HeadOf(*pin, key);
  if (entry == nullptr || !entry->latch.done_ok() || entry->model == nullptr) {
    return Status::OK();
  }
  // An open breaker fails the refresh fast — the last good generation keeps
  // serving queries untouched. A due probe falls through and retrains.
  if (DecideBreaker(key) == BreakerDecision::kFailFast) {
    return Status::Unavailable(StrFormat(
        "circuit breaker open for path '%s' — serving generation %llu",
        key.c_str(), static_cast<unsigned long long>(entry->generation)));
  }
  bool expected = false;
  if (!entry->refreshing.compare_exchange_strong(expected, true)) {
    return Status::OK();  // another refresh of this path is already running
  }
  // The flag holds until the publish attempt is over, on every path: a
  // second refresh of this head in between would train a generation that
  // PublishHead then refuses.
  struct RefreshingGuard {
    std::atomic<bool>& flag;
    ~RefreshingGuard() { flag.store(false, std::memory_order_release); }
  } guard{entry->refreshing};
  auto fresh = std::make_shared<ModelEntry>();
  fresh->path = entry->path;
  fresh->generation = entry->generation + 1;
  const Status trained =
      TrainGeneration(key, *pin, "refresh.train", fresh.get());
  if (!trained.ok()) {
    refresh_failures_.fetch_add(1, std::memory_order_relaxed);
    refresh_failure_streak_.fetch_add(1, std::memory_order_relaxed);
    return trained;  // previous generation keeps serving
  }
  refresh_failure_streak_.store(0, std::memory_order_relaxed);
  // Between training and the publish; a failure drops the trained model.
  RESTORE_FAULT_POINT("refresh.publish");
  fresh->latch.SetDone(Status::OK());
  // Superseded while we trained (another swap landed first): drop ours.
  if (!PublishHead(key, entry, fresh)) return Status::OK();
  models_refreshed_.fetch_add(1, std::memory_order_relaxed);
  generations_retired_.fetch_add(1, std::memory_order_relaxed);
  CountTrained(*fresh);
  return Status::OK();
}

Status Db::RefreshWithRetry(const std::string& key) {
  Status s = RefreshModelNow(key);
  size_t attempt = 0;
  // kUnavailable means the breaker opened — retrying would just hammer a
  // path that already burned its failure budget, so stop immediately.
  while (!s.ok() && !s.IsUnavailable() &&
         attempt < refresh_policy_.max_retries &&
         DecideBreaker(key) != BreakerDecision::kFailFast) {
    ++attempt;
    refresh_retries_.fetch_add(1, std::memory_order_relaxed);
    BackoffWait(BackoffDelayMs(key, attempt));
    {
      std::lock_guard<std::mutex> lock(refresh_mu_);
      if (refresh_stop_) return s;
    }
    s = RefreshModelNow(key);
  }
  return s;
}

uint64_t Db::BackoffDelayMs(const std::string& key, size_t attempt) const {
  // Exponential base, capped: initial << (attempt - 1), up to backoff_max_ms.
  uint64_t base = refresh_policy_.backoff_initial_ms;
  const uint64_t cap = std::max(refresh_policy_.backoff_max_ms, base);
  for (size_t i = 1; i < attempt && base < cap; ++i) {
    base = std::min(cap, base * 2);
  }
  if (base == 0) return 0;
  // Jitter in [0, base/2], a pure function of (path, attempt): two runs of
  // the same failure sequence back off identically, but distinct paths (and
  // successive attempts) de-synchronize instead of thundering together.
  const uint64_t h =
      SeedForPath(key) ^ (0x9e3779b97f4a7c15ull * static_cast<uint64_t>(attempt));
  return base + h % (base / 2 + 1);
}

void Db::BackoffWait(uint64_t ms) {
  std::function<void(uint64_t)> hook;
  {
    std::lock_guard<std::mutex> lock(refresh_mu_);
    hook = refresh_backoff_hook_;
  }
  if (hook != nullptr) {
    hook(ms);  // fake clock for tests: record the delay, return immediately
    return;
  }
  if (ms == 0) return;
  std::unique_lock<std::mutex> lock(refresh_mu_);
  refresh_cv_.wait_for(lock, std::chrono::milliseconds(ms),
                       [&] { return refresh_stop_; });
}

void Db::SetRefreshBackoffHookForTest(std::function<void(uint64_t)> hook) {
  std::lock_guard<std::mutex> lock(refresh_mu_);
  refresh_backoff_hook_ = std::move(hook);
}

Db::BreakerDecision Db::DecideBreaker(const std::string& key) const {
  if (refresh_policy_.breaker_failure_threshold == 0) {
    return BreakerDecision::kClosed;  // breaker disabled
  }
  std::lock_guard<std::mutex> lock(breaker_mu_);
  auto it = breakers_.find(key);
  if (it == breakers_.end() || !it->second.open) {
    return BreakerDecision::kClosed;
  }
  return std::chrono::steady_clock::now() >= it->second.open_until
             ? BreakerDecision::kProbe
             : BreakerDecision::kFailFast;
}

void Db::RecordTrainingResult(const std::string& key, const Status& status) {
  if (refresh_policy_.breaker_failure_threshold == 0) return;
  // Cooperative aborts say nothing about model health: a caller's deadline
  // or cancel must never push a healthy path toward an open breaker.
  if (status.IsCancelled() || status.IsDeadlineExceeded()) return;
  std::lock_guard<std::mutex> lock(breaker_mu_);
  if (status.ok()) {
    auto it = breakers_.find(key);
    if (it != breakers_.end()) {
      if (it->second.open) {
        breakers_open_.fetch_sub(1, std::memory_order_relaxed);
      }
      breakers_.erase(it);  // success closes the breaker outright
    }
    return;
  }
  BreakerState& b = breakers_[key];
  ++b.consecutive_failures;
  if (b.consecutive_failures < refresh_policy_.breaker_failure_threshold) {
    return;
  }
  if (!b.open) {
    b.open = true;
    breaker_open_total_.fetch_add(1, std::memory_order_relaxed);
    breakers_open_.fetch_add(1, std::memory_order_relaxed);
  }
  // A failed half-open probe lands here too: re-arm the full open window.
  b.open_until = std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(refresh_policy_.breaker_open_ms);
}

Status Db::RefreshStaleModels() {
  Status first = Status::OK();
  const std::shared_ptr<const EpochPin> pin = PinnedEpoch(nullptr);
  for (const auto& [key, entry] : TrainedHeads(*pin)) {
    if (!DueForRefresh(*pin, *entry, /*any_staleness_when_unset=*/true)) {
      continue;
    }
    Status s = RefreshModelNow(key);
    if (!s.ok() && first.ok()) first = s;
  }
  return first;
}

void Db::WaitForRefreshIdle() {
  std::unique_lock<std::mutex> lock(refresh_mu_);
  refresh_idle_cv_.wait(lock, [&] {
    return refresh_stop_ || (refresh_queue_.empty() && refresh_active_ == 0);
  });
}

void Db::StopRefresher() {
  {
    std::lock_guard<std::mutex> lock(refresh_mu_);
    refresh_stop_ = true;
  }
  refresh_cv_.notify_all();
  refresh_idle_cv_.notify_all();
  for (auto& t : refresh_threads_) {
    if (t.joinable()) t.join();
  }
  refresh_threads_.clear();
}

Status Db::PerturbModelsForTest(float stddev, uint64_t seed) {
  for (const auto& [key, entry] : TrainedHeads(*PinnedEpoch(nullptr))) {
    // PathModel is not copyable: a Save -> Load roundtrip clones it, then
    // the clone's parameters take the seeded noise (per-path seed so every
    // model is perturbed differently but reproducibly).
    BinaryWriter w;
    entry->model->Save(&w);
    BinaryReader r(w.buffer());
    RESTORE_ASSIGN_OR_RETURN(std::unique_ptr<PathModel> clone,
                             PathModel::Load(*database_, annotation_, &r));
    clone->PerturbParametersForTest(stddev, seed ^ Fnv1a64(key));
    auto fresh = std::make_shared<ModelEntry>();
    fresh->model = std::shared_ptr<const PathModel>(std::move(clone));
    fresh->path = entry->path;
    fresh->generation = entry->generation;
    fresh->ingest_mark = entry->ingest_mark;
    fresh->rows_at_train = entry->rows_at_train;
    fresh->stale_base = entry->stale_base;
    fresh->train_seconds = entry->train_seconds;
    fresh->loaded_from_disk = entry->loaded_from_disk;
    fresh->drift_ref = entry->drift_ref;
    fresh->latch.SetDone(Status::OK());
    // Published exactly like a refresh hot swap: pinned in-flight queries
    // keep the intact generation through their own pin.
    PublishHead(key, entry, fresh);
  }
  return Status::OK();
}

// ---- Persistence -----------------------------------------------------------

Status Db::SaveModels(const std::string& dir) const {
  Status s = SaveModelsImpl(dir);
  if (s.ok()) {
    save_failure_streak_.store(0, std::memory_order_relaxed);
  } else {
    save_failures_.fetch_add(1, std::memory_order_relaxed);
    save_failure_streak_.fetch_add(1, std::memory_order_relaxed);
  }
  return s;
}

Status Db::SaveModelsImpl(const std::string& dir) const {
  // One save at a time: concurrent saves would read the same next_gen and
  // clobber each other's gen-N.tmp staging directory mid-write. Serialized,
  // each save commits its own distinct generation.
  std::lock_guard<std::mutex> save_lock(save_mu_);
  RESTORE_RETURN_IF_ERROR(MakeDirectory(dir));

  // Next generation number: one past everything on disk (CURRENT may lag
  // the newest directory after a crash between rename and CURRENT swap).
  uint64_t next_gen = 1;
  {
    Result<uint64_t> current = ReadCurrentGeneration(dir);
    if (current.ok()) next_gen = std::max(next_gen, current.value() + 1);
    const std::vector<uint64_t> gens = ListGenerations(dir);
    if (!gens.empty()) next_gen = std::max(next_gen, gens.back() + 1);
  }

  // Snapshot the successfully-trained heads at the current pin; training
  // that completes after this point is simply not part of the snapshot.
  // Models are immutable once their latch is done, so serialization needs
  // no further locking.
  const auto snapshot = TrainedHeads(*PinnedEpoch(nullptr));

  // Stage the whole generation in a tmp directory, fsync it, then rename —
  // a crash anywhere in here leaves at worst a gen-N.tmp that the next save
  // sweeps away, never a half-written generation a reopen could load.
  const std::string gen_dir = dir + "/" + GenDirName(next_gen);
  const std::string tmp_dir = gen_dir + ".tmp";
  RemoveDirRecursive(tmp_dir);
  RESTORE_RETURN_IF_ERROR(MakeDirectory(tmp_dir));

  BinaryWriter manifest;
  manifest.U64(EngineConfigFingerprint(config_));
  manifest.U64(snapshot.size());
  for (const auto& [key, entry] : snapshot) {
    BinaryWriter w;
    entry->model->Save(&w);
    const std::string filename = ModelFileName(key);
    RESTORE_FAULT_POINT("persist.write");
    RESTORE_RETURN_IF_ERROR(WriteChecksummedFileAtomic(
        tmp_dir + "/" + filename, kModelMagic, kModelVersion, w.buffer()));
    manifest.Str(key);
    manifest.Str(filename);
    manifest.U64(entry->generation);
    manifest.U64(entry->rows_at_train);
    manifest.F64(entry->train_seconds);
    // v4: the generation's drift reference summaries ride along, so a
    // reopened Db scores drift against the ORIGINAL training snapshot
    // instead of silently resetting the baseline to whatever it loads over.
    manifest.U64(entry->drift_ref.size());
    for (const ColumnSummary& s : entry->drift_ref) s.Save(&manifest);
  }

  // Persist completed path selections so a reopened Db answers without
  // re-running (and possibly re-training for) the selection procedure.
  std::vector<std::pair<std::string, std::vector<std::string>>> selections;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    for (const auto& [target, entry] : selected_) {
      if (entry->latch.done_ok()) selections.emplace_back(target, entry->path);
    }
  }
  manifest.U64(selections.size());
  for (const auto& [target, path] : selections) {
    manifest.Str(target);
    manifest.VecStr(path);
  }
  RESTORE_FAULT_POINT("persist.write");
  RESTORE_RETURN_IF_ERROR(
      WriteChecksummedFileAtomic(tmp_dir + "/" + kManifestName,
                                 kManifestMagic, kManifestVersion,
                                 manifest.buffer()));
  RESTORE_RETURN_IF_ERROR(FsyncDirectory(tmp_dir));
  if (std::rename(tmp_dir.c_str(), gen_dir.c_str()) != 0) {
    return Status::Internal(StrFormat("rename '%s' -> '%s': %s",
                                      tmp_dir.c_str(), gen_dir.c_str(),
                                      std::strerror(errno)));
  }
  RESTORE_RETURN_IF_ERROR(FsyncDirectory(dir));

  // The atomic CURRENT swap is the commit point of the save.
  BinaryWriter current;
  current.U64(next_gen);
  RESTORE_FAULT_POINT("persist.write");
  RESTORE_RETURN_IF_ERROR(WriteChecksummedFileAtomic(
      dir + "/" + kCurrentName, kCurrentMagic, kCurrentVersion,
      current.buffer()));

  // Retire generations beyond the rollback window + crashed staging dirs.
  // Best-effort: the new generation is already committed.
  for (uint64_t gen : ListGenerations(dir)) {
    if (gen + keep_generations_ <= next_gen) {
      RemoveDirRecursive(dir + "/" + GenDirName(gen));
    }
  }
  RemoveStaleTmpDirs(dir);
  return Status::OK();
}

Status Db::LoadGenerationInto(
    const std::string& gen_dir,
    std::map<std::string, std::shared_ptr<ModelEntry>>* entries,
    std::map<std::string, std::vector<std::string>>* selections) {
  uint32_t version = 0;
  RESTORE_ASSIGN_OR_RETURN(
      std::string payload,
      ReadChecksummedFile(gen_dir + "/" + kManifestName, kManifestMagic,
                          kManifestVersion, &version));
  if (version != kManifestVersion) {
    return Status::FailedPrecondition(StrFormat(
        "'%s/%s' has manifest version %u, but only version %u loads — "
        "retrain and save the models again",
        gen_dir.c_str(), kManifestName, version, kManifestVersion));
  }
  BinaryReader manifest(std::move(payload));
  const uint64_t fingerprint = manifest.U64();
  const uint64_t expected = EngineConfigFingerprint(config_);
  RESTORE_RETURN_IF_ERROR(manifest.status());
  if (fingerprint != expected) {
    return Status::FailedPrecondition(StrFormat(
        "model directory '%s' was saved under a different engine "
        "configuration (fingerprint %016llx, this Db %016llx) — model "
        "hyperparameters must match the ones the models were trained with",
        gen_dir.c_str(), static_cast<unsigned long long>(fingerprint),
        static_cast<unsigned long long>(expected)));
  }
  const uint64_t num_models = manifest.U64();
  RESTORE_RETURN_IF_ERROR(manifest.status());
  for (uint64_t i = 0; i < num_models; ++i) {
    const std::string key = manifest.Str();
    const std::string filename = manifest.Str();
    const uint64_t generation = manifest.U64();
    const uint64_t trained_rows = manifest.U64();
    const double train_seconds = manifest.F64();
    const uint64_t num_summaries = manifest.U64();
    RESTORE_RETURN_IF_ERROR(manifest.status());
    std::vector<ColumnSummary> drift_ref;
    drift_ref.reserve(num_summaries);
    for (uint64_t s = 0; s < num_summaries; ++s) {
      RESTORE_ASSIGN_OR_RETURN(ColumnSummary summary,
                               ColumnSummary::Load(&manifest));
      drift_ref.push_back(std::move(summary));
    }
    RESTORE_RETURN_IF_ERROR(manifest.status());
    RESTORE_ASSIGN_OR_RETURN(
        std::string model_payload,
        ReadChecksummedFile(gen_dir + "/" + filename, kModelMagic,
                            kModelVersion));
    BinaryReader r(std::move(model_payload));
    RESTORE_ASSIGN_OR_RETURN(std::unique_ptr<PathModel> model,
                             PathModel::Load(*database_, annotation_, &r));
    if (!r.AtEnd()) {
      return Status::InvalidArgument(
          StrFormat("'%s' has %zu trailing bytes", filename.c_str(),
                    r.remaining()));
    }
    if (PathKey(model->path()) != key) {
      return Status::InvalidArgument(
          StrFormat("'%s' stores path '%s' but the manifest says '%s'",
                    filename.c_str(), PathKey(model->path()).c_str(),
                    key.c_str()));
    }
    auto entry = std::make_shared<ModelEntry>();
    entry->path = model->path();
    entry->model = std::shared_ptr<const PathModel>(std::move(model));
    entry->generation = generation;
    entry->rows_at_train = trained_rows;
    entry->train_seconds = train_seconds;
    entry->drift_ref = std::move(drift_ref);
    entry->loaded_from_disk = true;
    // Staleness the snapshot was already carrying: rows that exist now but
    // did not when the model was trained.
    const uint64_t now_rows = TotalPathRows(*database_, entry->path);
    entry->stale_base = now_rows > trained_rows ? now_rows - trained_rows : 0;
    entry->latch.SetDone(Status::OK());
    (*entries)[key] = std::move(entry);
  }
  const uint64_t num_selections = manifest.U64();
  RESTORE_RETURN_IF_ERROR(manifest.status());
  for (uint64_t i = 0; i < num_selections; ++i) {
    const std::string target = manifest.Str();
    std::vector<std::string> path = manifest.VecStr();
    RESTORE_RETURN_IF_ERROR(manifest.status());
    (*selections)[target] = std::move(path);
  }
  if (!manifest.AtEnd()) {
    return Status::InvalidArgument("manifest has trailing bytes");
  }
  return Status::OK();
}

Status Db::LoadModels(const std::string& dir, uint64_t generation_override) {
  const auto commit =
      [this](std::map<std::string, std::shared_ptr<ModelEntry>>* entries,
             std::map<std::string, std::vector<std::string>>* selections) {
        for (auto& [key, entry] : *entries) {
          models_[key] = std::move(entry);
          ++models_loaded_;
        }
        for (auto& [target, path] : *selections) {
          auto it = selected_.find(target);
          if (it == selected_.end()) continue;  // target no longer incomplete
          it->second->path = std::move(path);
          it->second->latch.SetDone(Status::OK());
        }
      };
  const auto try_generation = [&](uint64_t gen) -> Status {
    std::map<std::string, std::shared_ptr<ModelEntry>> entries;
    std::map<std::string, std::vector<std::string>> selections;
    RESTORE_RETURN_IF_ERROR(LoadGenerationInto(dir + "/" + GenDirName(gen),
                                               &entries, &selections));
    commit(&entries, &selections);
    return Status::OK();
  };

  if (generation_override != 0) {
    // Pinned rollback: that exact generation or nothing.
    return try_generation(generation_override);
  }

  uint64_t current = 0;
  {
    Result<uint64_t> cur = ReadCurrentGeneration(dir);
    if (cur.ok()) current = cur.value();
  }
  // CURRENT's target first, then every other generation newest-first: a
  // crash-corrupted (or half-deleted) newest generation must not strand the
  // readable ones behind it. The FIRST failure is what gets reported if
  // nothing loads — it names the generation the directory claims to be at.
  std::vector<uint64_t> order;
  if (current != 0) order.push_back(current);
  const std::vector<uint64_t> gens = ListGenerations(dir);
  for (auto it = gens.rbegin(); it != gens.rend(); ++it) {
    if (*it != current) order.push_back(*it);
  }
  Status first_error = Status::OK();
  for (uint64_t gen : order) {
    Status s = try_generation(gen);
    if (s.ok()) return Status::OK();
    if (first_error.ok()) first_error = s;
  }
  if (!order.empty()) return first_error;
  return Status::NotFound(
      StrFormat("model directory '%s' holds no saved generation (gen-*)",
                dir.c_str()));
}

// ---- Session / PreparedQuery -----------------------------------------------

Result<PreparedQuery> Session::Prepare(const std::string& sql) const {
  RESTORE_ASSIGN_OR_RETURN(PreparedStatement stmt,
                           PreparedStatement::Prepare(db_->database(), sql));
  return PreparedQuery(db_, std::move(stmt));
}

Result<ResultSet> Session::Execute(const std::string& sql,
                                   const QueryOptions& options) const {
  return db_->ExecuteCompletedSql(sql, options);
}

Result<ResultSet> Session::Execute(const Query& query,
                                   const QueryOptions& options) const {
  return db_->ExecuteCompleted(query, options);
}

ResultSetFuture Session::ExecuteAsync(const std::string& sql,
                                      const QueryOptions& options) const {
  std::shared_ptr<Db> db = db_;
  return ResultSetFuture::Async(ThreadPool::Global(), [db, sql, options]() {
    return db->ExecuteCompletedSql(sql, options);
  });
}

Result<ResultSet> PreparedQuery::Run(const std::vector<Value>& params,
                                     const QueryOptions& options) const {
  if (db_ == nullptr) {
    return Status::FailedPrecondition("PreparedQuery is not bound to a Db");
  }
  Result<Query> bound = stmt_.Bind(params);
  if (!bound.ok()) {
    // Bind failures count as finished (failed) queries too, so the per-Db
    // outcome counters always sum to the number of queries issued.
    db_->RecordQuery(ExecStats(), bound.status());
    return bound.status();
  }
  return db_->ExecuteCompleted(*bound, options);
}

ResultSetFuture PreparedQuery::RunAsync(const std::vector<Value>& params,
                                        const QueryOptions& options) const {
  if (db_ == nullptr) {
    return ResultSetFuture::MakeReady(
        Status::FailedPrecondition("PreparedQuery is not bound to a Db"));
  }
  std::shared_ptr<Db> db = db_;
  PreparedStatement stmt = stmt_;
  return ResultSetFuture::Async(
      ThreadPool::Global(), [db, stmt, params, options]() -> Result<ResultSet> {
        Result<Query> bound = stmt.Bind(params);
        if (!bound.ok()) {
          db->RecordQuery(ExecStats(), bound.status());
          return bound.status();
        }
        return db->ExecuteCompleted(*bound, options);
      });
}

}  // namespace restore
