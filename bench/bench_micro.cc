// Microbenchmarks (google-benchmark) for the performance-critical substrate
// components: GEMM kernels, MADE forward/sampling, path completion, hash
// join, k-d tree lookups, and discretizer encoding.
//
// Besides the console table, results are written to BENCH_micro.json (via
// bench_util's WriteBenchJson) so future PRs can track the perf trajectory
// mechanically.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <cstring>
#include <mutex>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "datagen/incompleteness.h"
#include "datagen/setups.h"
#include "datagen/synthetic.h"
#include "exec/join.h"
#include "nn/inference_scratch.h"
#include "nn/made.h"
#include "nn/matrix.h"
#include "restore/db.h"
#include "restore/discretizer.h"
#include "restore/kd_tree.h"
#include "stats/histogram.h"
#include "stats/stat_test.h"
#include "storage/table.h"

namespace restore {
namespace {

void FillRandom(Matrix* m, Rng& rng) {
  for (size_t i = 0; i < m->size(); ++i) {
    m->data()[i] = static_cast<float>(rng.NextGaussian());
  }
}

// The three BLAS-lite kernels at square sizes: op 0 = MatMul,
// 1 = MatMulTransB, 2 = MatMulTransAAccum.
void BM_GemmKernels(benchmark::State& state) {
  Rng rng(7);
  const size_t dim = static_cast<size_t>(state.range(0));
  const int op = static_cast<int>(state.range(1));
  Matrix a(dim, dim), b(dim, dim), out(dim, dim), pack;
  FillRandom(&a, rng);
  FillRandom(&b, rng);
  for (auto _ : state) {
    switch (op) {
      case 0:
        MatMul(a, b, &out);
        break;
      case 1:
        MatMulTransB(a, b, &out, &pack);
        break;
      default:
        // Reset between iterations or the accumulation overflows to inf and
        // the kernel gets timed on degenerate inputs. The O(n^2) fill is
        // noise next to the O(n^3) kernel.
        out.Fill(0.0f);
        MatMulTransAAccum(a, b, &out);
        break;
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * dim * dim * dim);
  state.SetLabel(op == 0 ? "MatMul" : op == 1 ? "TransB" : "TransAAccum");
}
BENCHMARK(BM_GemmKernels)
    ->ArgsProduct({{64, 256}, {0, 1, 2}})
    ->ArgNames({"dim", "op"});

void BM_MadeForward(benchmark::State& state) {
  Rng rng(1);
  MadeConfig config;
  config.vocab_sizes = {16, 16, 32, 8, 24};
  config.embed_dim = 8;
  config.hidden_dim = static_cast<size_t>(state.range(0));
  config.num_layers = 2;
  MadeModel made(config, rng);
  IntMatrix codes(256, 5);
  for (size_t r = 0; r < codes.rows(); ++r) {
    for (size_t a = 0; a < 5; ++a) {
      codes.at(r, a) = static_cast<int32_t>(
          rng.NextUint64(static_cast<uint64_t>(config.vocab_sizes[a])));
    }
  }
  Matrix logits;
  for (auto _ : state) {
    made.Forward(codes, Matrix(), &logits);
    benchmark::DoNotOptimize(logits.data());
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_MadeForward)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_MadeSample(benchmark::State& state) {
  Rng rng(2);
  MadeConfig config;
  config.vocab_sizes = {16, 16, 32, 8, 24};
  config.embed_dim = 8;
  config.hidden_dim = 64;
  config.num_layers = 2;
  MadeModel made(config, rng);
  made.FinalizeForInference();
  MadeScratch scratch;
  IntMatrix codes(static_cast<size_t>(state.range(0)), 5, 0);
  for (auto _ : state) {
    made.SampleRange(&codes, Matrix(), 1, 5, rng, /*record_attr=*/-1,
                     /*recorded=*/nullptr, &scratch);
    benchmark::DoNotOptimize(codes.row(0));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MadeSample)->Arg(64)->Arg(512);

// Sampling on a WIDE-output model (total_vocab = 1024 vs the active block's
// 64-512): each attribute computes only its own logit block, never the
// whole vocabulary, so this shape is dominated by the logit block and the
// softmax/pick over it rather than by the hidden units (each computed once
// per call). Gated by check_bench_json.py.
void BM_MadeSampleSliced(benchmark::State& state) {
  Rng rng(6);
  MadeConfig config;
  config.vocab_sizes = {64, 256, 512, 128, 64};
  config.embed_dim = 8;
  config.hidden_dim = 64;
  config.num_layers = 2;
  MadeModel made(config, rng);
  made.FinalizeForInference();
  MadeScratch scratch;
  IntMatrix codes(static_cast<size_t>(state.range(0)), 5, 0);
  for (auto _ : state) {
    made.SampleRange(&codes, Matrix(), 1, 5, rng, /*record_attr=*/-1,
                     /*recorded=*/nullptr, &scratch);
    benchmark::DoNotOptimize(codes.row(0));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MadeSampleSliced)->Arg(64)->Arg(512);

// A one-attribute SampleRange call (the hidden units of degree < attr, that
// attribute's logit block, softmax + inverse-CDF pick), per attribute index
// of the BM_MadeSample model. A call that starts at attr pays for every
// unit below it at once; a multi-attribute call adds one degree per step.
void BM_MadeSampleAttr(benchmark::State& state) {
  Rng rng(8);
  MadeConfig config;
  config.vocab_sizes = {16, 16, 32, 8, 24};
  config.embed_dim = 8;
  config.hidden_dim = 64;
  config.num_layers = 2;
  MadeModel made(config, rng);
  made.FinalizeForInference();
  MadeScratch scratch;
  const size_t attr = static_cast<size_t>(state.range(0));
  IntMatrix codes(256, 5, 0);
  for (auto _ : state) {
    made.SampleRange(&codes, Matrix(), attr, attr + 1, rng,
                     /*record_attr=*/-1, /*recorded=*/nullptr, &scratch);
    benchmark::DoNotOptimize(codes.row(0));
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_MadeSampleAttr)->Arg(1)->Arg(4)->ArgName("attr");

// The served shape: perfbench's engine config (embed 4, hidden 24, 2
// layers) at D = 12, the width most of its SampleRange calls see, with
// vocab 12 per attribute and 768 rows (a typical hop). BM_MadeSampleHop
// samples the hop's target attributes [8, 12) as SynthesizeHop does;
// BM_MadePredictTf predicts attribute 7, the tuple factor before them, as
// SampleTupleFactors does. Gated by check_bench_json.py.
MadeModel ServedShapeModel(Rng& rng) {
  MadeConfig config;
  config.vocab_sizes.assign(12, 12);
  config.embed_dim = 4;
  config.hidden_dim = 24;
  config.num_layers = 2;
  MadeModel made(config, rng);
  made.FinalizeForInference();
  return made;
}

IntMatrix ServedShapeEvidence(size_t rows, Rng& rng) {
  IntMatrix codes(rows, 12, 0);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t a = 0; a < 8; ++a) {
      codes.at(r, a) = static_cast<int32_t>(rng.NextUint64(12));
    }
  }
  return codes;
}

void BM_MadeSampleHop(benchmark::State& state) {
  Rng rng(12);
  const MadeModel made = ServedShapeModel(rng);
  IntMatrix codes = ServedShapeEvidence(768, rng);
  MadeScratch scratch;
  for (auto _ : state) {
    made.SampleRange(&codes, Matrix(), 8, 12, rng, /*record_attr=*/-1,
                     /*recorded=*/nullptr, &scratch);
    benchmark::DoNotOptimize(codes.row(0));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 768);
}
BENCHMARK(BM_MadeSampleHop);

void BM_MadePredictTf(benchmark::State& state) {
  Rng rng(13);
  const MadeModel made = ServedShapeModel(rng);
  const IntMatrix codes = ServedShapeEvidence(768, rng);
  MadeScratch scratch;
  Matrix probs;
  for (auto _ : state) {
    made.PredictDistribution(codes, Matrix(), 7, &probs, &scratch);
    benchmark::DoNotOptimize(probs.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 768);
}
BENCHMARK(BM_MadePredictTf);

// One fused Adam step over a realistic parameter set (the BM_MadeForward/64
// model, ~13.8k scalars): weight decay and both bias corrections fold into
// per-step scalars, leaving one sqrt + one divide per element. Gradients
// are refilled from a snapshot every iteration (~2% of the step): Step()
// zeroes them, and pure-weight-decay iterations drive value/m/v into
// DENORMAL floats whose ~100x-slower arithmetic would swamp the
// measurement — real training always steps on fresh gradients.
void BM_AdamStep(benchmark::State& state) {
  Rng rng(9);
  MadeConfig config;
  config.vocab_sizes = {16, 16, 32, 8, 24};
  config.embed_dim = 8;
  config.hidden_dim = 64;
  config.num_layers = 2;
  MadeModel made(config, rng);
  std::vector<Param*> params;
  made.CollectParams(&params);
  size_t total = 0;
  std::vector<std::vector<float>> grad_snapshot;
  for (Param* p : params) {
    std::vector<float> g(p->grad.size());
    for (auto& x : g) x = static_cast<float>(rng.NextGaussian(0.0, 0.01));
    grad_snapshot.push_back(std::move(g));
    total += p->value.size();
  }
  AdamOptions options;
  options.weight_decay = 0.01f;  // keep the decay term live
  AdamOptimizer adam(params, options);
  for (auto _ : state) {
    for (size_t i = 0; i < params.size(); ++i) {
      std::memcpy(params[i]->grad.data(), grad_snapshot[i].data(),
                  grad_snapshot[i].size() * sizeof(float));
    }
    adam.Step();
    benchmark::DoNotOptimize(params[0]->value.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(total));
}
BENCHMARK(BM_AdamStep);

// ---- Concurrent inference over ONE shared model -----------------------------
//
// N client threads sample through one MadeModel, each with its own scratch
// arena from the shared pool (the PathModel serving path). The contrast
// bench below serializes the same passes behind one mutex — the PR-2-era
// per-model inference lock — so the JSON records the aggregate-throughput
// win of scratch-arena reentrancy on any multi-core runner. Run with
// RESTORE_NUM_THREADS=1 (as the CI gate does) so the inner ParallelFor
// stays serial and all scaling comes from true cross-thread reentrancy.

MadeModel& SharedInferenceModel() {
  static MadeModel* model = [] {
    Rng rng(11);
    MadeConfig config;
    config.vocab_sizes = {16, 16, 32, 8, 24};
    config.embed_dim = 8;
    config.hidden_dim = 64;
    config.num_layers = 2;
    auto* m = new MadeModel(config, rng);
    m->FinalizeForInference();  // freeze for reentrant (const) inference
    return m;
  }();
  return *model;
}

InferenceScratchPool& SharedScratchPool() {
  static auto* pool = new InferenceScratchPool();
  return *pool;
}

void ConcurrentInferenceLoop(benchmark::State& state, std::mutex* serialize) {
  const MadeModel& made = SharedInferenceModel();
  const size_t batch = 64;
  // Per-thread client state: sampling RNG and evidence codes.
  Rng rng(100 + static_cast<uint64_t>(state.thread_index()));
  IntMatrix codes(batch, made.num_attrs(), 0);
  const Matrix empty_context;
  for (auto _ : state) {
    InferenceScratchPool::Lease scratch = SharedScratchPool().Acquire();
    std::unique_lock<std::mutex> lock;
    if (serialize != nullptr) lock = std::unique_lock<std::mutex>(*serialize);
    made.SampleRange(&codes, empty_context, 1, made.num_attrs(), rng,
                     /*record_attr=*/-1, /*recorded=*/nullptr,
                     &scratch->made);
    benchmark::DoNotOptimize(codes.row(0));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(batch));
}

void BM_ConcurrentInference(benchmark::State& state) {
  ConcurrentInferenceLoop(state, nullptr);
}
BENCHMARK(BM_ConcurrentInference)->Threads(1)->Threads(4)->UseRealTime();

void BM_ConcurrentInferenceMutex(benchmark::State& state) {
  static std::mutex mu;  // stand-in for the removed per-model inference mutex
  ConcurrentInferenceLoop(state, &mu);
}
BENCHMARK(BM_ConcurrentInferenceMutex)->Threads(4)->UseRealTime();

// ---- Db-level end-to-end QPS ------------------------------------------------
//
// Concurrent sessions execute a completed join query through the full
// service stack — parse, plan, completion-path inference on pre-trained
// models, aggregation, ResultSet assembly — with the completion cache
// DISABLED, so every query re-runs model inference. This catches
// regressions in the plumbing around the models that BM_ConcurrentInference
// (which drives a MadeModel directly) cannot see. A representative query's
// ExecStats ride along as JSON counters so the CI gate can validate the
// observability surface mechanically.

struct DbQpsFixture {
  Database incomplete;
  std::shared_ptr<Db> db;
  std::string sql;
};

DbQpsFixture& SharedDbQps() {
  static DbQpsFixture* fixture = [] {
    auto* f = new DbQpsFixture();
    SyntheticConfig data_config;
    data_config.num_parents = 300;
    data_config.predictability = 0.85;
    data_config.seed = 21;
    auto complete = GenerateSynthetic(data_config);
    if (!complete.ok()) std::abort();
    BiasedRemovalConfig removal;
    removal.table = "table_b";
    removal.column = "b";
    removal.keep_rate = 0.5;
    removal.removal_correlation = 0.5;
    removal.seed = 22;
    auto incomplete = ApplyBiasedRemoval(*complete, removal);
    if (!incomplete.ok()) std::abort();
    if (!ThinTupleFactors(&*incomplete, 0.3, 23).ok()) std::abort();
    f->incomplete = std::move(incomplete).value();

    SchemaAnnotation annotation;
    annotation.MarkIncomplete("table_b");
    EngineConfig engine;
    engine.model.epochs = 4;
    engine.model.min_train_steps = 120;
    engine.model.hidden_dim = 24;
    engine.model.embed_dim = 4;
    engine.model.max_bins = 12;
    engine.max_candidates = 2;
    engine.enable_cache = false;  // every query re-runs the completion
    auto db = Db::Open(&f->incomplete, annotation, DbOptions().WithEngine(engine));
    if (!db.ok()) std::abort();
    f->db = std::move(*db);
    f->sql = "SELECT COUNT(*) FROM table_a NATURAL JOIN table_b GROUP BY b;";
    // Train every model up front; the timed loop measures serving only.
    auto warm = f->db->CreateSession().Execute(f->sql);
    if (!warm.ok()) std::abort();
    return f;
  }();
  return *fixture;
}

void BM_DbQps(benchmark::State& state) {
  DbQpsFixture& fixture = SharedDbQps();
  Session session = fixture.db->CreateSession();
  ExecStats last_stats;
  for (auto _ : state) {
    auto r = session.Execute(fixture.sql);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    last_stats = r->stats();
    benchmark::DoNotOptimize(r->num_rows());
  }
  state.SetItemsProcessed(state.iterations());
  // One representative query's ExecStats, flattened into the bench JSON
  // (validated by the CI ExecStats-emission check).
  state.counters["stats_tuples_completed"] =
      static_cast<double>(last_stats.tuples_completed);
  state.counters["stats_models_consulted"] =
      static_cast<double>(last_stats.models_consulted);
  state.counters["stats_cache_hits"] =
      static_cast<double>(last_stats.cache_hits);
  state.counters["stats_cache_misses"] =
      static_cast<double>(last_stats.cache_misses);
  state.counters["stats_arenas_leased"] =
      static_cast<double>(last_stats.arenas_leased);
  state.counters["stats_selection_seconds"] = last_stats.selection_seconds;
  state.counters["stats_sample_seconds"] = last_stats.sample_seconds;
  state.counters["stats_aggregate_seconds"] = last_stats.aggregate_seconds;
  // Resilience counters (both 0 on the healthy bench path — the gate checks
  // they are EMITTED, and a nonzero value here would flag a regression).
  const Db::Stats db_stats = fixture.db->stats();
  state.counters["refresh_retries"] =
      static_cast<double>(db_stats.refresh_retries);
  state.counters["breaker_open_total"] =
      static_cast<double>(db_stats.breaker_open_total);
}
BENCHMARK(BM_DbQps)->Threads(1)->Threads(4)->UseRealTime();

// ---- Live-data ingest + refresh cycle ---------------------------------------
//
// One iteration is the full live-data loop: Db::Append publishes a batch of
// rows, RefreshStaleModels retrains every model whose tables grew and
// hot-swaps the new generation in, and a query answers against it. This is
// dominated by retraining (by design — it is the cost a refresh policy
// amortizes); it guards the ingest/publish/swap plumbing around it. The
// iteration count is pinned so every run performs identical work (the base
// table grows by kIngestBatch rows per iteration).

void BM_IngestRefresh(benchmark::State& state) {
  SyntheticConfig data_config;
  data_config.num_parents = 150;
  data_config.predictability = 0.85;
  data_config.seed = 31;
  auto complete = GenerateSynthetic(data_config);
  if (!complete.ok()) std::abort();
  BiasedRemovalConfig removal;
  removal.table = "table_b";
  removal.column = "b";
  removal.keep_rate = 0.5;
  removal.removal_correlation = 0.5;
  removal.seed = 32;
  auto incomplete = ApplyBiasedRemoval(*complete, removal);
  if (!incomplete.ok()) std::abort();

  SchemaAnnotation annotation;
  annotation.MarkIncomplete("table_b");
  EngineConfig engine;
  engine.model.epochs = 2;
  engine.model.min_train_steps = 60;
  engine.model.hidden_dim = 16;
  engine.model.embed_dim = 4;
  engine.model.max_bins = 8;
  engine.max_candidates = 1;
  auto db = Db::Open(&*incomplete, annotation,
                     DbOptions().WithEngine(engine));
  if (!db.ok()) std::abort();
  const std::string sql =
      "SELECT COUNT(*) FROM table_a NATURAL JOIN table_b GROUP BY b;";
  // Generation 1 trains outside the timed loop.
  if (!(*db)->ExecuteCompletedSql(sql).ok()) std::abort();

  constexpr size_t kIngestBatch = 32;
  int64_t next_id = 1 << 20;
  for (auto _ : state) {
    std::vector<std::vector<Value>> rows;
    rows.reserve(kIngestBatch);
    for (size_t i = 0; i < kIngestBatch; ++i) {
      rows.push_back({Value::Int64(next_id++),
                      Value::Int64(static_cast<int64_t>(i % 50)),
                      Value::Categorical("live")});
    }
    if (!(*db)->Append("table_b", rows).ok()) {
      state.SkipWithError("Append failed");
      return;
    }
    if (!(*db)->RefreshStaleModels().ok()) {
      state.SkipWithError("RefreshStaleModels failed");
      return;
    }
    auto r = (*db)->ExecuteCompletedSql(sql);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(r->num_rows());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kIngestBatch));
  const Db::Stats stats = (*db)->stats();
  state.counters["rows_ingested"] = static_cast<double>(stats.rows_ingested);
  state.counters["models_refreshed"] =
      static_cast<double>(stats.models_refreshed);
  state.counters["generations_retired"] =
      static_cast<double>(stats.generations_retired);
  state.counters["epoch"] = static_cast<double>(stats.epoch);
}
BENCHMARK(BM_IngestRefresh)->Iterations(12)->UseRealTime();

// One drift-gate evaluation: re-bin every column of a two-table path's
// 100k-row snapshot on the training-time reference grids and take the worst
// KS/PSI. This is the per-model cost the kDrift refresh trigger pays on
// every ingest-driven schedule pass, so it has to stay far below retraining.
void BM_DriftCheck(benchmark::State& state) {
  constexpr size_t kParentRows = 20000;
  constexpr size_t kChildRows = 80000;
  Rng rng(41);
  Database db;
  Table parent("parent", {{"id", ColumnType::kInt64},
                          {"region", ColumnType::kCategorical}});
  for (size_t i = 0; i < kParentRows; ++i) {
    (void)parent.AppendRow(
        {Value::Int64(static_cast<int64_t>(i)),
         Value::Categorical(i % 7 ? "core" : "edge")});
  }
  Table child("child", {{"id", ColumnType::kInt64},
                        {"parent_id", ColumnType::kInt64},
                        {"price", ColumnType::kDouble},
                        {"kind", ColumnType::kCategorical}});
  const char* kinds[] = {"a", "b", "c", "d"};
  for (size_t i = 0; i < kChildRows; ++i) {
    (void)child.AppendRow(
        {Value::Int64(static_cast<int64_t>(i)),
         Value::Int64(static_cast<int64_t>(rng.NextUint64(kParentRows))),
         Value::Double(rng.NextGaussian(100.0, 15.0)),
         Value::Categorical(kinds[rng.NextUint64(4)])});
  }
  if (!db.AddTable(std::move(parent)).ok()) std::abort();
  if (!db.AddTable(std::move(child)).ok()) std::abort();
  const std::vector<ColumnSummary> refs =
      SummarizeTables(db, {"parent", "child"});

  for (auto _ : state) {
    const DriftScore score = ScoreDrift(refs, db);
    benchmark::DoNotOptimize(score.ks);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kParentRows + kChildRows));
  state.counters["columns_scored"] = static_cast<double>(refs.size());
  state.counters["snapshot_rows"] =
      static_cast<double>(kParentRows + kChildRows);
}
BENCHMARK(BM_DriftCheck);

// ---- Completion of one path: the relational half ----------------------------
//
// One pre-trained movies tenant (M2 at scale 0.1, perfbench's engine
// configuration, cache off) completes movie_director over its selected
// path, actor>movie_actor>movie>movie_director: a fan-out hop, an n:1 hop
// and a fan-out hop. BM_CompleteViaPath writes the full join;
// BM_CompleteTable reads only the synthesized tuples (the single-table
// query path). Models train up front, so the loops time completion alone.
// Each iteration repeats the same work: the completion rng is derived from
// the path. Gated by check_bench_json.py.

struct PathCompletionFixture {
  Database incomplete;
  std::shared_ptr<Db> db;
  std::vector<std::string> path;
};

constexpr char kCompletedTable[] = "movie_director";

PathCompletionFixture& SharedPathCompletion() {
  static PathCompletionFixture* fixture = [] {
    auto* f = new PathCompletionFixture();
    auto setup = SetupByName("M2");
    if (!setup.ok()) std::abort();
    auto complete = BuildCompleteDatabase("movies", 300, 0.1);
    if (!complete.ok()) std::abort();
    auto incomplete = ApplySetup(*complete, *setup, 0.5, 0.5, 301);
    if (!incomplete.ok()) std::abort();
    f->incomplete = std::move(incomplete).value();
    EngineConfig engine;
    engine.model.epochs = 6;
    engine.model.hidden_dim = 24;
    engine.model.embed_dim = 4;
    engine.model.max_bins = 12;
    engine.model.min_train_steps = 150;
    engine.max_candidates = 2;
    engine.enable_cache = false;
    auto db = Db::Open(&f->incomplete, AnnotationFor(*setup),
                       DbOptions().WithEngine(engine));
    if (!db.ok()) std::abort();
    f->db = std::move(*db);
    auto path = f->db->SelectedPathFor(kCompletedTable);
    if (!path.ok() || path->size() < 4) std::abort();
    f->path = *path;
    if (!f->db->CompleteViaPath(f->path).ok()) std::abort();
    return f;
  }();
  return *fixture;
}

void BM_CompleteViaPath(benchmark::State& state) {
  PathCompletionFixture& f = SharedPathCompletion();
  size_t rows = 0;
  for (auto _ : state) {
    auto completed = f.db->CompleteViaPath(f.path);
    if (!completed.ok()) {
      state.SkipWithError(completed.status().ToString().c_str());
      return;
    }
    rows = completed->joined.NumRows();
    benchmark::DoNotOptimize(rows);
  }
  state.counters["join_rows"] = static_cast<double>(rows);
}
BENCHMARK(BM_CompleteViaPath);

void BM_CompleteTable(benchmark::State& state) {
  PathCompletionFixture& f = SharedPathCompletion();
  size_t rows = 0;
  for (auto _ : state) {
    auto completed = f.db->CompleteTable(kCompletedTable);
    if (!completed.ok()) {
      state.SkipWithError(completed.status().ToString().c_str());
      return;
    }
    rows = completed->NumRows();
    benchmark::DoNotOptimize(rows);
  }
  state.counters["table_rows"] = static_cast<double>(rows);
}
BENCHMARK(BM_CompleteTable);

void BM_HashJoin(benchmark::State& state) {
  Rng rng(3);
  const size_t n = static_cast<size_t>(state.range(0));
  Table left("left", {{"id", ColumnType::kInt64},
                      {"x", ColumnType::kDouble}});
  Table right("right", {{"left_id", ColumnType::kInt64},
                        {"y", ColumnType::kDouble}});
  for (size_t i = 0; i < n; ++i) {
    (void)left.AppendRow({Value::Int64(static_cast<int64_t>(i)),
                          Value::Double(rng.NextDouble())});
  }
  for (size_t i = 0; i < 4 * n; ++i) {
    (void)right.AppendRow(
        {Value::Int64(static_cast<int64_t>(rng.NextUint64(n))),
         Value::Double(rng.NextDouble())});
  }
  for (auto _ : state) {
    auto joined = HashJoin(left, right, "id", "left_id");
    benchmark::DoNotOptimize(joined->NumRows());
  }
  state.SetItemsProcessed(state.iterations() * 5 * n);
}
BENCHMARK(BM_HashJoin)->Arg(1000)->Arg(10000);

void BM_KdTreeNearestNeighbor(benchmark::State& state) {
  Rng rng(4);
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t dim = 6;
  std::vector<float> points(n * dim);
  for (auto& p : points) p = static_cast<float>(rng.NextGaussian());
  KdTree tree(points, n, dim, 16);
  std::vector<float> query(dim);
  for (auto _ : state) {
    for (size_t d = 0; d < dim; ++d) {
      query[d] = static_cast<float>(rng.NextGaussian());
    }
    benchmark::DoNotOptimize(tree.ApproxNearestNeighbor(query.data(), 8));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KdTreeNearestNeighbor)->Arg(10000)->Arg(100000);

void BM_DiscretizerEncode(benchmark::State& state) {
  Rng rng(5);
  Column col("x", ColumnType::kDouble);
  for (int i = 0; i < 100000; ++i) {
    col.AppendDouble(rng.NextGaussian(50.0, 20.0));
  }
  auto disc = ColumnDiscretizer::Fit(col, 32);
  for (auto _ : state) {
    int64_t acc = 0;
    for (size_t r = 0; r < 1000; ++r) {
      acc += disc->EncodeCell(col, r);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_DiscretizerEncode);

/// Console reporter that additionally captures every run as a BenchRecord
/// for the JSON results file.
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      bench::BenchRecord record;
      record.name = run.benchmark_name();
      record.real_ns = run.GetAdjustedRealTime();
      record.cpu_ns = run.GetAdjustedCPUTime();
      record.iterations = run.iterations;
      for (const auto& [name, counter] : run.counters) {
        record.counters[name] = counter.value;
      }
      records_.push_back(std::move(record));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  const std::vector<bench::BenchRecord>& records() const { return records_; }

 private:
  std::vector<bench::BenchRecord> records_;
};

}  // namespace
}  // namespace restore

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  restore::CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  const restore::Status status =
      restore::bench::WriteBenchJson("BENCH_micro.json", reporter.records());
  if (!status.ok()) {
    fprintf(stderr, "WriteBenchJson: %s\n", status.ToString().c_str());
    return 1;
  }
  benchmark::Shutdown();
  return 0;
}
