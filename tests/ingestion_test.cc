// Live-data tests: Db::Append / Db::UpdateTable semantics, staleness
// tracking, policy-driven background refresh with RCU model hot-swap, the
// frozen-database bit-identity guarantee, and crash-safe generational model
// persistence. The swap-under-hammer suite is the determinism anchor: while
// a refresher swaps generations, every concurrent answer must equal an
// all-old or all-new baseline — never a mix.

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "common/serialize.h"
#include "datagen/incompleteness.h"
#include "datagen/synthetic.h"
#include "exec/exec_control.h"
#include "exec/executor.h"
#include "restore/db.h"

namespace restore {
namespace {

EngineConfig FastConfig() {
  EngineConfig config;
  config.model.epochs = 4;
  config.model.min_train_steps = 120;
  config.model.hidden_dim = 24;
  config.model.embed_dim = 4;
  config.model.max_bins = 12;
  config.max_candidates = 2;
  return config;
}

Database MakeIncompleteSynthetic(uint64_t seed) {
  SyntheticConfig data_config;
  data_config.num_parents = 200;
  data_config.predictability = 0.85;
  data_config.seed = seed;
  auto complete = GenerateSynthetic(data_config);
  EXPECT_TRUE(complete.ok());
  BiasedRemovalConfig removal;
  removal.table = "table_b";
  removal.column = "b";
  removal.keep_rate = 0.5;
  removal.removal_correlation = 0.5;
  removal.seed = seed + 1;
  auto incomplete = ApplyBiasedRemoval(*complete, removal);
  EXPECT_TRUE(incomplete.ok());
  return std::move(incomplete).value();
}

SchemaAnnotation Annotation() {
  SchemaAnnotation annotation;
  annotation.MarkIncomplete("table_b");
  return annotation;
}

/// Synthetic table_b rows: (id, a_id, b). a_id must reference an existing
/// table_a id; fresh ids and an UNSEEN category exercise the dictionary COW.
std::vector<std::vector<Value>> MakeRows(size_t n, int64_t first_id,
                                         const std::string& category) {
  std::vector<std::vector<Value>> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rows.push_back({Value::Int64(first_id + static_cast<int64_t>(i)),
                    Value::Int64(static_cast<int64_t>(i % 50)),
                    Value::Categorical(category)});
  }
  return rows;
}

/// A query answer flattened to comparable strings (one per row, keys then
/// values; values printed exactly).
std::vector<std::string> Flatten(const ResultSet& rs) {
  std::vector<std::string> out;
  out.reserve(rs.num_rows());
  for (size_t r = 0; r < rs.num_rows(); ++r) {
    std::string line;
    for (size_t c = 0; c < rs.num_key_columns(); ++c) {
      line += rs.key(r, c);
      line += '|';
    }
    for (size_t c = 0; c < rs.num_value_columns(); ++c) {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", rs.value(r, c));
      line += buf;
      line += '|';
    }
    out.push_back(std::move(line));
  }
  return out;
}

constexpr char kCountByB[] = "SELECT COUNT(*) FROM table_b GROUP BY b;";
constexpr char kJoinCount[] =
    "SELECT COUNT(*) FROM table_a NATURAL JOIN table_b GROUP BY b;";

// ---- Ingestion API ----------------------------------------------------------

TEST(IngestionTest, AppendPublishesRowsAndBumpsEpoch) {
  Database incomplete = MakeIncompleteSynthetic(501);
  auto db = Db::Open(&incomplete, Annotation(), DbOptions().WithEngine(FastConfig()));
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ((*db)->epoch(), 0u);

  const size_t before = (*(*db)->data()->GetTable("table_b"))->NumRows();
  ASSERT_TRUE((*db)->Append("table_b", MakeRows(7, 900000, "novel")).ok());
  EXPECT_EQ((*db)->epoch(), 1u);
  EXPECT_EQ((*(*db)->data()->GetTable("table_b"))->NumRows(), before + 7);
  // The Db's construction-time database object is never mutated.
  EXPECT_EQ((*incomplete.GetTable("table_b"))->NumRows(), before);

  const Db::Stats stats = (*db)->stats();
  EXPECT_EQ(stats.rows_ingested, 7u);
  EXPECT_EQ(stats.epoch, 1u);

  // Appending an empty batch publishes nothing.
  ASSERT_TRUE((*db)->Append("table_b", {}).ok());
  EXPECT_EQ((*db)->epoch(), 1u);
}

TEST(IngestionTest, AppendValidatesAndPublishesNothingOnFailure) {
  Database incomplete = MakeIncompleteSynthetic(503);
  auto db = Db::Open(&incomplete, Annotation(), DbOptions().WithEngine(FastConfig()));
  ASSERT_TRUE(db.ok());

  Status missing = (*db)->Append("no_such_table", MakeRows(1, 1, "x"));
  EXPECT_TRUE(missing.IsNotFound()) << missing;

  // Batch with a valid first row and a malformed second: NOTHING lands.
  const size_t before = (*(*db)->data()->GetTable("table_b"))->NumRows();
  std::vector<std::vector<Value>> rows = MakeRows(1, 910000, "ok");
  rows.push_back({Value::Int64(910001)});  // wrong arity
  Status bad = (*db)->Append("table_b", rows);
  EXPECT_TRUE(bad.IsInvalidArgument()) << bad;
  EXPECT_EQ((*(*db)->data()->GetTable("table_b"))->NumRows(), before);
  EXPECT_EQ((*db)->epoch(), 0u);
  EXPECT_EQ((*db)->stats().rows_ingested, 0u);

  // Type mismatch inside a row.
  std::vector<std::vector<Value>> typed = MakeRows(1, 910002, "ok");
  typed[0][2] = Value::Int64(3);  // categorical column
  EXPECT_TRUE((*db)->Append("table_b", typed).IsInvalidArgument());
  EXPECT_EQ((*db)->epoch(), 0u);
}

TEST(IngestionTest, UpdateTableReplacesWholeRelation) {
  Database incomplete = MakeIncompleteSynthetic(505);
  auto db = Db::Open(&incomplete, Annotation(), DbOptions().WithEngine(FastConfig()));
  ASSERT_TRUE(db.ok());

  // A replacement must match the existing schema exactly.
  Table wrong("table_b", {{"id", ColumnType::kInt64}});
  EXPECT_TRUE((*db)->UpdateTable(std::move(wrong)).IsInvalidArgument());
  Table unknown("nope", {{"id", ColumnType::kInt64}});
  EXPECT_TRUE((*db)->UpdateTable(std::move(unknown)).IsNotFound());
  EXPECT_EQ((*db)->epoch(), 0u);

  Table replacement("table_b", {{"id", ColumnType::kInt64},
                                {"a_id", ColumnType::kInt64},
                                {"b", ColumnType::kCategorical}});
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(replacement
                    .AppendRow({Value::Int64(i), Value::Int64(i % 50),
                                Value::Categorical(i % 2 ? "x" : "y")})
                    .ok());
  }
  ASSERT_TRUE((*db)->UpdateTable(std::move(replacement)).ok());
  EXPECT_EQ((*db)->epoch(), 1u);
  EXPECT_EQ((*(*db)->data()->GetTable("table_b"))->NumRows(), 40u);
  EXPECT_EQ((*db)->stats().tables_updated, 1u);
}

TEST(IngestionTest, FrozenDbStaysBitIdenticalAndAtEpochZero) {
  // No Append ever happens: the Db must behave exactly like the frozen
  // engine — epoch pinned at 0 (legacy cache keys) and answers a pure
  // function of (data, config, seed), reproduced by an identical twin.
  Database a = MakeIncompleteSynthetic(507);
  Database b = MakeIncompleteSynthetic(507);
  auto db_a = Db::Open(&a, Annotation(), DbOptions().WithEngine(FastConfig()));
  auto db_b = Db::Open(&b, Annotation(), DbOptions().WithEngine(FastConfig()));
  ASSERT_TRUE(db_a.ok() && db_b.ok());

  auto r_a = (*db_a)->ExecuteCompletedSql(kJoinCount);
  auto r_b = (*db_b)->ExecuteCompletedSql(kJoinCount);
  ASSERT_TRUE(r_a.ok() && r_b.ok());
  EXPECT_EQ(Flatten(*r_a), Flatten(*r_b));
  EXPECT_EQ((*db_a)->epoch(), 0u);

  // Repeat on the same Db: cached or not, bit-identical.
  auto again = (*db_a)->ExecuteCompletedSql(kJoinCount);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(Flatten(*r_a), Flatten(*again));
}

// ---- Staleness + refresh ----------------------------------------------------

TEST(IngestionTest, FreshnessTracksStalenessAndRefreshClearsIt) {
  Database incomplete = MakeIncompleteSynthetic(509);
  auto db = Db::Open(&incomplete, Annotation(), DbOptions().WithEngine(FastConfig()));
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->ExecuteCompletedSql(kCountByB).ok());

  std::vector<ModelInfo> fresh = (*db)->Freshness();
  ASSERT_FALSE(fresh.empty());
  for (const ModelInfo& info : fresh) {
    EXPECT_EQ(info.generation, 1u);
    EXPECT_EQ(info.staleness_rows, 0u);
    EXPECT_FALSE(info.loaded_from_disk);
    EXPECT_GT(info.trained_rows, 0u);
  }

  ASSERT_TRUE((*db)->Append("table_b", MakeRows(12, 920000, "novel")).ok());
  bool saw_stale = false;
  for (const ModelInfo& info : (*db)->Freshness()) {
    bool touches_b = false;
    for (const auto& t : info.path) touches_b |= t == "table_b";
    if (touches_b) {
      EXPECT_EQ(info.staleness_rows, 12u);
      EXPECT_EQ(info.current_rows, info.trained_rows + 12);
      saw_stale = true;
    }
  }
  EXPECT_TRUE(saw_stale);

  ASSERT_TRUE((*db)->RefreshStaleModels().ok());
  for (const ModelInfo& info : (*db)->Freshness()) {
    EXPECT_EQ(info.generation, 2u);
    EXPECT_EQ(info.staleness_rows, 0u);
  }
  const Db::Stats stats = (*db)->stats();
  EXPECT_GT(stats.models_refreshed, 0u);
  EXPECT_EQ(stats.generations_retired, stats.models_refreshed);
  EXPECT_EQ(stats.refresh_failures, 0u);
  // A refresh bumps the epoch (one bump per swapped model, after the
  // ingest's own bump).
  EXPECT_GE((*db)->epoch(), 2u);

  // Post-swap queries see the new generation and still answer fine.
  EXPECT_TRUE((*db)->ExecuteCompletedSql(kCountByB).ok());
}

TEST(IngestionTest, RefreshedGenerationIsDeterministic) {
  // Generation 2 is a pure function of (data-at-refresh, path, generation):
  // two Dbs fed the same ingest and refreshed must answer identically.
  Database a = MakeIncompleteSynthetic(511);
  Database b = MakeIncompleteSynthetic(511);
  auto db_a = Db::Open(&a, Annotation(), DbOptions().WithEngine(FastConfig()));
  auto db_b = Db::Open(&b, Annotation(), DbOptions().WithEngine(FastConfig()));
  ASSERT_TRUE(db_a.ok() && db_b.ok());
  ASSERT_TRUE((*db_a)->ExecuteCompletedSql(kCountByB).ok());
  ASSERT_TRUE((*db_b)->ExecuteCompletedSql(kCountByB).ok());

  for (auto* db : {&*db_a, &*db_b}) {
    ASSERT_TRUE((*db)->Append("table_b", MakeRows(9, 930000, "novel")).ok());
    ASSERT_TRUE((*db)->RefreshStaleModels().ok());
  }
  auto r_a = (*db_a)->ExecuteCompletedSql(kJoinCount);
  auto r_b = (*db_b)->ExecuteCompletedSql(kJoinCount);
  ASSERT_TRUE(r_a.ok() && r_b.ok());
  EXPECT_EQ(Flatten(*r_a), Flatten(*r_b));
}

TEST(IngestionTest, BackgroundRefresherRetrainsWhenThresholdCrossed) {
  Database incomplete = MakeIncompleteSynthetic(515);
  RefreshPolicy policy;
  policy.staleness_rows_threshold = 5;
  policy.max_concurrent_retrains = 1;
  auto db = Db::Open(&incomplete, Annotation(),
                     DbOptions().WithEngine(FastConfig()).WithRefreshPolicy(
                         policy));
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->ExecuteCompletedSql(kCountByB).ok());

  // Below threshold: no refresh is scheduled.
  ASSERT_TRUE((*db)->Append("table_b", MakeRows(2, 950000, "novel")).ok());
  (*db)->WaitForRefreshIdle();
  EXPECT_EQ((*db)->stats().models_refreshed, 0u);

  // Crossing it: the worker retrains and hot-swaps without being asked.
  ASSERT_TRUE((*db)->Append("table_b", MakeRows(6, 950100, "novel")).ok());
  (*db)->WaitForRefreshIdle();
  EXPECT_GT((*db)->stats().models_refreshed, 0u);
  for (const ModelInfo& info : (*db)->Freshness()) {
    EXPECT_GE(info.generation, 2u);
    EXPECT_LT(info.staleness_rows, 5u);
  }
  EXPECT_TRUE((*db)->ExecuteCompletedSql(kCountByB).ok());
}

TEST(IngestionTest, CacheNeverServesAcrossGenerations) {
  Database incomplete = MakeIncompleteSynthetic(517);
  auto db = Db::Open(&incomplete, Annotation(), DbOptions().WithEngine(FastConfig()));
  ASSERT_TRUE(db.ok());

  auto r1 = (*db)->ExecuteCompletedSql(kCountByB);
  auto r2 = (*db)->ExecuteCompletedSql(kCountByB);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(Flatten(*r1), Flatten(*r2));
  EXPECT_GT((*db)->stats().totals.cache_hits, 0u);

  // Ingest + refresh: the old epoch's cache entries must be unreachable.
  // The appended rows carry a category that does not exist in the base, so
  // a cached epoch-0 answer cannot contain the "novel" group while a fresh
  // answer must.
  auto novel_count = [](const ResultSet& rs) {
    for (size_t r = 0; r < rs.num_rows(); ++r) {
      if (rs.key(r, 0) == "novel") return rs.value(r, 0);
    }
    return 0.0;
  };
  EXPECT_EQ(novel_count(*r1), 0.0);
  ASSERT_TRUE((*db)->Append("table_b", MakeRows(25, 960000, "novel")).ok());
  ASSERT_TRUE((*db)->RefreshStaleModels().ok());
  auto r3 = (*db)->ExecuteCompletedSql(kCountByB);
  ASSERT_TRUE(r3.ok());
  EXPECT_GE(novel_count(*r3), 25.0);

  // Within the new epoch the cache serves again — identically.
  auto r4 = (*db)->ExecuteCompletedSql(kCountByB);
  ASSERT_TRUE(r4.ok());
  EXPECT_EQ(Flatten(*r3), Flatten(*r4));
}

TEST(IngestionTest, CompleteTablesOnlyQueryIgnoresCachedCompletedJoins) {
  // A query over complete tables only is answered classically, before and
  // after a completed join covering its tables was cached: that join
  // repeats each table_a row once per joined table_b row.
  Database incomplete = MakeIncompleteSynthetic(519);
  auto db = Db::Open(&incomplete, Annotation(),
                     DbOptions().WithEngine(FastConfig()));
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->config().enable_cache);
  constexpr char kCountByA[] = "SELECT COUNT(*) FROM table_a GROUP BY a;";
  auto classical = ExecuteSql(incomplete, kCountByA);
  ASSERT_TRUE(classical.ok()) << classical.status();

  auto before = (*db)->ExecuteCompletedSql(kCountByA);
  ASSERT_TRUE(before.ok()) << before.status();
  EXPECT_EQ(Flatten(*before), Flatten(*classical));
  ASSERT_TRUE((*db)->ExecuteCompletedSql(kJoinCount).ok());
  ASSERT_GT((*db)->cache().bytes(), 0u);
  auto after = (*db)->ExecuteCompletedSql(kCountByA);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(Flatten(*after), Flatten(*classical));
}

TEST(IngestionTest, UnboundedCacheHoldsOneEpochUnderIngest) {
  // With no budget, only the epoch rule bounds the completion cache: every
  // append moves the epoch, and the next cache write must drop the joins of
  // the previous one instead of piling them up.
  Database incomplete = MakeIncompleteSynthetic(521);
  auto db = Db::Open(&incomplete, Annotation(),
                     DbOptions().WithEngine(FastConfig()));
  ASSERT_TRUE(db.ok());
  ASSERT_EQ((*db)->cache().budget_bytes(), 0u);
  ASSERT_TRUE((*db)->ExecuteCompletedSql(kJoinCount).ok());
  const size_t first_bytes = (*db)->cache().bytes();
  ASSERT_GT(first_bytes, 0u);
  for (int round = 0; round < 10; ++round) {
    ASSERT_TRUE((*db)
                    ->Append("table_b",
                             MakeRows(5, 980000 + 5 * round, "novel"))
                    .ok());
    ASSERT_TRUE((*db)->ExecuteCompletedSql(kJoinCount).ok());
    EXPECT_LE((*db)->cache().bytes(), 2 * first_bytes)
        << "after append " << round + 1;
  }
  EXPECT_EQ((*db)->epoch(), 10u);
  EXPECT_EQ((*db)->cache().evictions(), 0u);
}

/// A completion serialized byte for byte: the joined table (name, column
/// names, types and cells) and the synthesized columns and counts.
std::string CompletionBytes(const CompletionResult& c) {
  BinaryWriter w;
  auto add = [&w](const Column& col) {
    w.Str(col.name());
    w.U32(static_cast<uint32_t>(col.type()));
    w.U64(col.size());
    for (size_t r = 0; r < col.size(); ++r) {
      if (col.type() == ColumnType::kDouble) {
        w.F64(col.GetDouble(r));
      } else {
        w.I64(col.GetInt64(r));
      }
    }
  };
  w.Str(c.joined.name());
  for (const auto& col : c.joined.columns()) add(col);
  for (const auto& [table, cols] : c.synthesized) {
    w.Str(table);
    for (const auto& col : cols) add(col);
    w.U64(c.synthesized_counts.at(table));
  }
  w.U64(c.existing_join_rows);
  w.U64(c.synthesized_join_rows);
  return w.buffer();
}

TEST(IngestionTest, PinnedEpochCompletesOverItsOwnSnapshotIndex) {
  // Each published snapshot carries its own join index. A query pinned
  // before an append keeps completing over the old snapshot and its index;
  // the new epoch's index must see the appended children.
  Database incomplete = MakeIncompleteSynthetic(519);
  auto db = Db::Open(&incomplete, Annotation(),
                     DbOptions().WithEngine(FastConfig()));
  ASSERT_TRUE(db.ok());
  const std::vector<std::string> path{"table_a", "table_b"};
  ExecContext pinned(nullptr, nullptr);
  auto first = (*db)->CompleteViaPath(path, CompletionOptions(), &pinned);
  ASSERT_TRUE(first.ok()) << first.status();

  // 30 children of existing parents join; a NULL-key child and an orphan
  // of an absent parent do not.
  std::vector<std::vector<Value>> rows = MakeRows(30, 970000, "novel");
  rows.push_back({Value::Int64(970100), Value::Null(),
                  Value::Categorical("novel")});
  rows.push_back({Value::Int64(970101), Value::Int64(987654321),
                  Value::Categorical("novel")});
  ASSERT_TRUE((*db)->Append("table_b", rows).ok());
  ASSERT_EQ((*db)->epoch(), 1u);

  auto replay = (*db)->CompleteViaPath(path, CompletionOptions(), &pinned);
  ASSERT_TRUE(replay.ok()) << replay.status();
  EXPECT_EQ(CompletionBytes(*replay), CompletionBytes(*first));

  auto fresh = (*db)->CompleteViaPath(path);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  EXPECT_EQ(fresh->existing_join_rows, first->existing_join_rows + 30);
}

TEST(IngestionTest, FailedFirstTrainingRetriesAfterIngest) {
  // child starts EMPTY: training fails (empty join) and the once-latch
  // caches the failure. New data is new information — after an Append into
  // the path, the failure must be retried, not replayed.
  Database db_data;
  Table parent("parent", {{"id", ColumnType::kInt64},
                          {"p", ColumnType::kCategorical}});
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(parent
                    .AppendRow({Value::Int64(i),
                                Value::Categorical(i % 2 ? "l" : "r")})
                    .ok());
  }
  Table child("child", {{"id", ColumnType::kInt64},
                        {"parent_id", ColumnType::kInt64},
                        {"c", ColumnType::kCategorical}});
  ASSERT_TRUE(db_data.AddTable(std::move(parent)).ok());
  ASSERT_TRUE(db_data.AddTable(std::move(child)).ok());
  ASSERT_TRUE(db_data.AddForeignKey("child", "parent_id", "parent", "id").ok());
  SchemaAnnotation annotation;
  annotation.MarkIncomplete("child");

  EngineConfig config = FastConfig();
  auto db = Db::Open(&db_data, annotation, DbOptions().WithEngine(config));
  ASSERT_TRUE(db.ok()) << db.status();

  auto first = (*db)->ModelForPath({"parent", "child"});
  ASSERT_FALSE(first.ok());
  // Replayed from the latch, identically, while nothing changed.
  auto replay = (*db)->ModelForPath({"parent", "child"});
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(first.status().message(), replay.status().message());

  std::vector<std::vector<Value>> rows;
  for (int i = 0; i < 120; ++i) {
    rows.push_back({Value::Int64(i), Value::Int64(i % 60),
                    Value::Categorical(i % 3 ? "a" : "b")});
  }
  ASSERT_TRUE((*db)->Append("child", rows).ok());
  auto retried = (*db)->ModelForPath({"parent", "child"});
  EXPECT_TRUE(retried.ok()) << retried.status();
}

// ---- Swap under hammer ------------------------------------------------------

TEST(IngestionTest, SwapUnderHammerServesOnlyConsistentGenerations) {
  // Baselines from a twin Db driven through the same states sequentially:
  //   A0 = old data, generation-1 models
  //   A1 = data after the append, generation-1 models (pre-swap window)
  //   A2 = data after the append, generation-2 models
  Database ref_data = MakeIncompleteSynthetic(519);
  auto ref = Db::Open(&ref_data, Annotation(), DbOptions().WithEngine(FastConfig()));
  ASSERT_TRUE(ref.ok());
  auto a0 = (*ref)->ExecuteCompletedSql(kJoinCount);
  ASSERT_TRUE(a0.ok()) << a0.status();
  const auto rows = MakeRows(60, 970000, "novel");
  ASSERT_TRUE((*ref)->Append("table_b", rows).ok());
  auto a1 = (*ref)->ExecuteCompletedSql(kJoinCount);
  ASSERT_TRUE(a1.ok());
  ASSERT_TRUE((*ref)->RefreshStaleModels().ok());
  auto a2 = (*ref)->ExecuteCompletedSql(kJoinCount);
  ASSERT_TRUE(a2.ok());
  const std::vector<std::vector<std::string>> baselines = {
      Flatten(*a0), Flatten(*a1), Flatten(*a2)};

  // The hammered Db: background refresher armed, 4 reader threads churning
  // while the main thread ingests and the worker swaps mid-traffic.
  Database live_data = MakeIncompleteSynthetic(519);
  RefreshPolicy policy;
  policy.staleness_rows_threshold = 50;
  policy.max_concurrent_retrains = 1;
  auto live = Db::Open(&live_data, Annotation(),
                       DbOptions().WithEngine(FastConfig()).WithRefreshPolicy(
                           policy));
  ASSERT_TRUE(live.ok());
  // Warm up generation 1 (same training snapshot as the twin's).
  ASSERT_TRUE((*live)->ExecuteCompletedSql(kJoinCount).ok());

  std::atomic<bool> stop{false};
  std::atomic<int> mixes{0};
  std::atomic<int> failures{0};
  std::atomic<uint64_t> answers{0};
  auto reader = [&] {
    while (!stop.load(std::memory_order_relaxed)) {
      auto rs = (*live)->ExecuteCompletedSql(kJoinCount);
      if (!rs.ok()) {
        failures.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      const std::vector<std::string> got = Flatten(*rs);
      bool matched = false;
      for (const auto& baseline : baselines) matched |= got == baseline;
      if (!matched) mixes.fetch_add(1, std::memory_order_relaxed);
      answers.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::vector<std::thread> readers;
  for (int i = 0; i < 4; ++i) readers.emplace_back(reader);

  ASSERT_TRUE((*live)->Append("table_b", rows).ok());
  (*live)->WaitForRefreshIdle();
  // Let post-swap traffic run a moment before stopping.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE((*live)->ExecuteCompletedSql(kJoinCount).ok());
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();

  EXPECT_EQ(mixes.load(), 0) << "answers mixing model generations";
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(answers.load(), 0u);
  EXPECT_GT((*live)->stats().models_refreshed, 0u);

  // After the dust settles every query must sit exactly on the final
  // baseline.
  auto settled = (*live)->ExecuteCompletedSql(kJoinCount);
  ASSERT_TRUE(settled.ok());
  EXPECT_EQ(Flatten(*settled), baselines[2]);
}

TEST(IngestionTest, OldPinsResolveTheirGenerationUnderReaders) {
  // A context pinned at epoch 0 must resolve every path to the generation
  // that served epoch 0, however many hot swaps follow. Two parents of one
  // incomplete child give two distinct model paths: a pooled context pins
  // epoch 0 by resolving one path, and resolves the OTHER only after swaps
  // of it piled up. Both paths contain child, so every round refreshes
  // both. 4 reader threads run throughout; 2 of them resolve pooled
  // contexts between and during the swap rounds, so under TSan this is the
  // check of pin publication against concurrent lookups.
  Database db_data;
  Table p1("p1", {{"id", ColumnType::kInt64},
                  {"a", ColumnType::kCategorical}});
  Table p2("p2", {{"id", ColumnType::kInt64},
                  {"b", ColumnType::kCategorical}});
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(
        p1.AppendRow({Value::Int64(i), Value::Categorical(i % 2 ? "l" : "r")})
            .ok());
    ASSERT_TRUE(
        p2.AppendRow({Value::Int64(i), Value::Categorical(i % 3 ? "x" : "y")})
            .ok());
  }
  Table child("child", {{"id", ColumnType::kInt64},
                        {"p1_id", ColumnType::kInt64},
                        {"p2_id", ColumnType::kInt64},
                        {"c", ColumnType::kCategorical}});
  for (int i = 0; i < 240; ++i) {
    ASSERT_TRUE(child
                    .AppendRow({Value::Int64(i), Value::Int64(i % 60),
                                Value::Int64((i / 2) % 60),
                                Value::Categorical(i % 3 ? "u" : "v")})
                    .ok());
  }
  ASSERT_TRUE(db_data.AddTable(std::move(p1)).ok());
  ASSERT_TRUE(db_data.AddTable(std::move(p2)).ok());
  ASSERT_TRUE(db_data.AddTable(std::move(child)).ok());
  ASSERT_TRUE(db_data.AddForeignKey("child", "p1_id", "p1", "id").ok());
  ASSERT_TRUE(db_data.AddForeignKey("child", "p2_id", "p2", "id").ok());
  SchemaAnnotation annotation;
  annotation.MarkIncomplete("child");
  auto db =
      Db::Open(&db_data, annotation, DbOptions().WithEngine(FastConfig()));
  ASSERT_TRUE(db.ok()) << db.status();

  const std::vector<std::string> path0 = {"p1", "child"};
  const std::vector<std::string> path1 = {"p2", "child"};
  auto warm0 = (*db)->ModelForPath(path0);  // generation 1 of both paths
  ASSERT_TRUE(warm0.ok()) << warm0.status();
  auto warm1 = (*db)->ModelForPath(path1);
  ASSERT_TRUE(warm1.ok()) << warm1.status();

  // A pool of contexts pinned NOW, at epoch 0, through path0 only.
  struct PinnedCtx {
    QueryOptions options;
    ExecStats stats;
    ExecContext ctx{&options, &stats};
  };
  std::vector<std::unique_ptr<PinnedCtx>> pool;
  for (int i = 0; i < 64; ++i) {
    pool.push_back(std::make_unique<PinnedCtx>());
    if (!(*db)->ModelForPath(path0, &pool.back()->ctx).ok()) {
      FAIL() << "pinning pool ctx failed";
    }
  }

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::atomic<size_t> next_pin{0};
  std::atomic<int> round_no{0};
  auto reader = [&] {
    while (!stop.load(std::memory_order_relaxed)) {
      QueryOptions options;
      ExecStats stats;
      ExecContext ctx(&options, &stats);
      if (!(*db)->ModelForPath(path0, &ctx).ok() ||
          !(*db)->ModelForPath(path1, &ctx).ok()) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };
  // Resolves path1 under a handful of epoch-0 pins per swap round
  // (rendezvous on round_no), so old-pin lookups happen right after AND
  // concurrently with every later swap.
  auto old_pin_reader = [&] {
    int seen = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const int r = round_no.load(std::memory_order_acquire);
      if (r > seen) {
        seen = r;
        for (int k = 0; k < 5; ++k) {
          const size_t i = next_pin.fetch_add(1, std::memory_order_relaxed);
          if (i >= pool.size()) break;
          if (!(*db)->ModelForPath(path1, &pool[i]->ctx).ok()) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  std::vector<std::thread> readers;
  for (int i = 0; i < 2; ++i) readers.emplace_back(reader);
  for (int i = 0; i < 2; ++i) readers.emplace_back(old_pin_reader);

  constexpr int kRounds = 7;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::vector<Value>> rows;
    for (int i = 0; i < 30; ++i) {
      rows.push_back({Value::Int64(985000 + round * 1000 + i),
                      Value::Int64(i % 60), Value::Int64(i % 60),
                      Value::Categorical("novel")});
    }
    ASSERT_TRUE((*db)->Append("child", rows).ok());
    ASSERT_TRUE((*db)->RefreshStaleModels().ok());
    round_no.store(round + 1, std::memory_order_release);
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0);
  // Both paths refresh every round.
  EXPECT_GE((*db)->stats().models_refreshed,
            static_cast<uint64_t>(2 * kRounds));
  for (const ModelInfo& info : (*db)->Freshness()) {
    EXPECT_EQ(info.generation, static_cast<uint64_t>(kRounds + 1));
  }
  // Every pooled context, whether a reader resolved it or not, resolves
  // exactly the generation-1 models.
  for (size_t i = 0; i < pool.size(); ++i) {
    auto m0 = (*db)->ModelForPath(path0, &pool[i]->ctx);
    auto m1 = (*db)->ModelForPath(path1, &pool[i]->ctx);
    ASSERT_TRUE(m0.ok() && m1.ok()) << "pooled context " << i;
    EXPECT_EQ(m0->get(), warm0->get()) << "pooled context " << i;
    EXPECT_EQ(m1->get(), warm1->get()) << "pooled context " << i;
  }
  // A context pinned now resolves the newest generation.
  auto newest = (*db)->ModelForPath(path1);
  ASSERT_TRUE(newest.ok());
  EXPECT_NE(newest->get(), warm1->get());
}

TEST(IngestionTest, SwappedOutGenerationIsFreedWithItsLastPin) {
  // A refreshed path keeps its first generation (queries pinned before its
  // first swap resolve it), its current head, and what live pins reach —
  // nothing else.
  Database incomplete = MakeIncompleteSynthetic(523);
  auto db = Db::Open(&incomplete, Annotation(),
                     DbOptions().WithEngine(FastConfig()));
  ASSERT_TRUE(db.ok());
  const std::vector<std::string> path{"table_a", "table_b"};
  // The head a query pinned now resolves, held only weakly here.
  auto current = [&]() -> std::weak_ptr<const PathModel> {
    auto model = (*db)->ModelForPath(path);
    EXPECT_TRUE(model.ok()) << model.status();
    if (!model.ok()) return {};
    return *model;
  };
  int64_t next_id = 990000;
  auto ingest_and_refresh = [&] {
    ASSERT_TRUE((*db)->Append("table_b", MakeRows(20, next_id, "novel")).ok());
    next_id += 20;
    ASSERT_TRUE((*db)->RefreshStaleModels().ok());
  };

  const std::weak_ptr<const PathModel> gen1 = current();
  ingest_and_refresh();
  const std::weak_ptr<const PathModel> gen2 = current();
  ASSERT_FALSE(gen2.expired());
  EXPECT_NE(gen2.lock(), gen1.lock());

  // No query pins generation 2: swapping generation 3 in frees it.
  ingest_and_refresh();
  const std::weak_ptr<const PathModel> gen3 = current();
  EXPECT_TRUE(gen2.expired());
  EXPECT_FALSE(gen3.expired());
  EXPECT_FALSE(gen1.expired()) << "the registry keeps the first generation";

  // A live pin keeps its generation across the next swap, and serves it,
  // until the pin goes.
  auto pinned = std::make_unique<ExecContext>(nullptr, nullptr);
  ASSERT_TRUE((*db)->ModelForPath(path, pinned.get()).ok());
  ingest_and_refresh();
  {
    auto replay = (*db)->ModelForPath(path, pinned.get());
    ASSERT_TRUE(replay.ok());
    EXPECT_EQ(*replay, gen3.lock());
  }
  EXPECT_FALSE(gen3.expired());
  pinned.reset();
  EXPECT_TRUE(gen3.expired());
  for (const ModelInfo& info : (*db)->Freshness()) {
    EXPECT_EQ(info.generation, 4u);
  }
}

// ---- Drift-triggered refresh ------------------------------------------------

/// Every current row of `t` as an appendable row batch: appending these
/// doubles the table without moving any column's distribution.
std::vector<std::vector<Value>> DuplicateRows(const Table& t) {
  std::vector<std::vector<Value>> rows;
  rows.reserve(t.NumRows());
  for (size_t r = 0; r < t.NumRows(); ++r) {
    std::vector<Value> row;
    row.reserve(t.NumColumns());
    for (size_t c = 0; c < t.NumColumns(); ++c) {
      row.push_back(t.column(c).GetValue(r));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

RefreshPolicy DriftPolicy(size_t retrain_threads) {
  RefreshPolicy policy;
  policy.trigger = RefreshPolicy::Trigger::kDrift;
  policy.drift_ks_threshold = 0.15;
  policy.drift_psi_threshold = 0.25;
  policy.max_concurrent_retrains = retrain_threads;
  return policy;
}

TEST(IngestionTest, DriftScoresSurfaceInFreshnessAndGateSyncRefresh) {
  // No background thread (0 retrain threads): every transition is observed
  // synchronously. A bulk append of duplicated rows leaves every column's
  // distribution untouched — the drift gate must hold the generation even
  // though thousands of rows are "stale" by row count.
  Database incomplete = MakeIncompleteSynthetic(529);
  auto db = Db::Open(&incomplete, Annotation(),
                     DbOptions().WithEngine(FastConfig()).WithRefreshPolicy(
                         DriftPolicy(0)));
  ASSERT_TRUE(db.ok()) << db.status();
  ASSERT_TRUE((*db)->ExecuteCompletedSql(kCountByB).ok());

  for (const ModelInfo& info : (*db)->Freshness()) {
    EXPECT_TRUE(info.drift_available);
    EXPECT_EQ(info.drift_ks, 0.0);  // snapshot IS the training data
    EXPECT_EQ(info.drift_psi, 0.0);
  }

  const auto dup =
      DuplicateRows(**(*db)->data()->GetTable("table_b"));
  ASSERT_GT(dup.size(), 100u);
  ASSERT_TRUE((*db)->Append("table_b", dup).ok());
  for (const ModelInfo& info : (*db)->Freshness()) {
    EXPECT_LT(info.drift_ks, 0.05) << info.drift_column;
    EXPECT_LT(info.drift_psi, 0.05) << info.drift_column;
  }
  ASSERT_TRUE((*db)->RefreshStaleModels().ok());
  EXPECT_EQ((*db)->stats().models_refreshed, 0u);
  for (const ModelInfo& info : (*db)->Freshness()) {
    EXPECT_EQ(info.generation, 1u);
  }

  // A shifted append — one third of the table lands in a category the
  // training snapshot never saw — pushes KS past the threshold.
  ASSERT_TRUE(
      (*db)->Append("table_b", MakeRows(dup.size(), 975000, "drifted")).ok());
  bool saw_drift = false;
  for (const ModelInfo& info : (*db)->Freshness()) {
    bool touches_b = false;
    for (const auto& t : info.path) touches_b |= t == "table_b";
    if (touches_b) {
      EXPECT_GE(info.drift_ks, 0.15) << info.drift_column;
      saw_drift = true;
    }
  }
  EXPECT_TRUE(saw_drift);
  ASSERT_TRUE((*db)->RefreshStaleModels().ok());
  EXPECT_GT((*db)->stats().models_refreshed, 0u);
  // The refreshed generation re-baselines its reference on the post-shift
  // snapshot: drift reads ~0 again.
  for (const ModelInfo& info : (*db)->Freshness()) {
    EXPECT_EQ(info.generation, 2u);
    EXPECT_LT(info.drift_ks, 0.05);
  }
}

TEST(IngestionTest, BackgroundDriftRefreshFiresOnceOnShiftOnlyAndTwinsAgree) {
  // The full satellite contract, on twin Dbs driven identically:
  //  1. no-drift bulk append -> the background refresher does NOT retrain;
  //  2. shifted append -> it retrains exactly once per affected path;
  //  3. the twins answer bit-identically afterwards.
  Database data_a = MakeIncompleteSynthetic(531);
  Database data_b = MakeIncompleteSynthetic(531);
  auto db_a = Db::Open(&data_a, Annotation(),
                       DbOptions().WithEngine(FastConfig()).WithRefreshPolicy(
                           DriftPolicy(1)));
  auto db_b = Db::Open(&data_b, Annotation(),
                       DbOptions().WithEngine(FastConfig()).WithRefreshPolicy(
                           DriftPolicy(1)));
  ASSERT_TRUE(db_a.ok() && db_b.ok());

  for (auto* db : {&*db_a, &*db_b}) {
    ASSERT_TRUE((*db)->ExecuteCompletedSql(kJoinCount).ok());
    const auto dup =
        DuplicateRows(**(*db)->data()->GetTable("table_b"));
    ASSERT_TRUE((*db)->Append("table_b", dup).ok());
    (*db)->WaitForRefreshIdle();
    EXPECT_EQ((*db)->stats().models_refreshed, 0u)
        << "no-drift bulk append must not retrain";

    ASSERT_TRUE(
        (*db)->Append("table_b", MakeRows(dup.size(), 975000, "drifted"))
            .ok());
    (*db)->WaitForRefreshIdle();
    const Db::Stats stats = (*db)->stats();
    EXPECT_GT(stats.models_refreshed, 0u);
    // Exactly once: every path containing table_b sits at generation 2 —
    // a re-firing refresher would have pushed some chain to 3+.
    uint64_t swapped = 0;
    for (const ModelInfo& info : (*db)->Freshness()) {
      bool touches_b = false;
      for (const auto& t : info.path) touches_b |= t == "table_b";
      EXPECT_EQ(info.generation, touches_b ? 2u : 1u);
      swapped += touches_b ? 1 : 0;
      EXPECT_LT(info.drift_ks, 0.15);
    }
    EXPECT_EQ(stats.models_refreshed, swapped);
  }

  auto r_a = (*db_a)->ExecuteCompletedSql(kJoinCount);
  auto r_b = (*db_b)->ExecuteCompletedSql(kJoinCount);
  ASSERT_TRUE(r_a.ok() && r_b.ok());
  EXPECT_EQ(Flatten(*r_a), Flatten(*r_b));
}

// ---- Crash-safe generational persistence ------------------------------------

void RemoveTree(const std::string& dir);  // fwd (defined below)

void RemoveTree(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return;
  while (struct dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name == "." || name == "..") continue;
    const std::string path = dir + "/" + name;
    struct stat st;
    if (::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode)) {
      RemoveTree(path);
    } else {
      std::remove(path.c_str());
    }
  }
  ::closedir(d);
  ::rmdir(dir.c_str());
}

std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/restore_ing_" + name;
  RemoveTree(dir);
  return dir;
}

TEST(IngestionTest, GenerationsPersistAndRollBack) {
  Database incomplete = MakeIncompleteSynthetic(521);
  auto db = Db::Open(&incomplete, Annotation(), DbOptions().WithEngine(FastConfig()));
  ASSERT_TRUE(db.ok());
  auto gen1_answer = (*db)->ExecuteCompletedSql(kCountByB);
  ASSERT_TRUE(gen1_answer.ok());
  const std::string dir = FreshDir("rollback");
  ASSERT_TRUE((*db)->SaveModels(dir).ok());

  ASSERT_TRUE((*db)->Append("table_b", MakeRows(15, 980000, "novel")).ok());
  ASSERT_TRUE((*db)->RefreshStaleModels().ok());
  ASSERT_TRUE((*db)->SaveModels(dir).ok());

  auto current = CurrentModelGenerationDir(dir);
  ASSERT_TRUE(current.ok());
  EXPECT_NE(current->find("gen-000002"), std::string::npos) << *current;

  // Default open loads the committed (newest) generation.
  DbOptions options;
  options.engine = FastConfig();
  options.model_dir = dir;
  auto latest = Db::Open(&incomplete, Annotation(), options);
  ASSERT_TRUE(latest.ok()) << latest.status();
  EXPECT_GT((*latest)->models_loaded(), 0u);
  bool saw_gen2 = false;
  for (const ModelInfo& info : (*latest)->Freshness()) {
    saw_gen2 |= info.generation >= 2;
    EXPECT_TRUE(info.loaded_from_disk);
  }
  EXPECT_TRUE(saw_gen2);

  // Pinned rollback to generation 1 — and it must answer exactly like the
  // Db that produced it.
  auto rolled = Db::Open(&incomplete, Annotation(),
                         DbOptions()
                             .WithEngine(FastConfig())
                             .WithModelDir(dir)
                             .WithModelGeneration(1));
  ASSERT_TRUE(rolled.ok()) << rolled.status();
  EXPECT_EQ((*rolled)->models_trained(), 0u);
  auto rolled_answer = (*rolled)->ExecuteCompletedSql(kCountByB);
  ASSERT_TRUE(rolled_answer.ok());
  EXPECT_EQ(Flatten(*gen1_answer), Flatten(*rolled_answer));

  // A pinned generation that does not exist is an error, not a fallback.
  auto bogus = Db::Open(&incomplete, Annotation(),
                        DbOptions()
                            .WithEngine(FastConfig())
                            .WithModelDir(dir)
                            .WithModelGeneration(9));
  EXPECT_FALSE(bogus.ok());
}

TEST(IngestionTest, ConcurrentSavesCommitDistinctGenerations) {
  Database incomplete = MakeIncompleteSynthetic(527);
  auto db = Db::Open(&incomplete, Annotation(),
                     DbOptions().WithEngine(FastConfig()));
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->ExecuteCompletedSql(kCountByB).ok());
  const std::string dir = FreshDir("concurrent_save");

  // Racing saves serialize internally: each commits its OWN generation
  // instead of two writers computing the same next_gen and clobbering each
  // other's gen-N.tmp staging directory mid-write.
  constexpr int kSavers = 4;
  std::vector<Status> results(kSavers, Status::OK());
  std::vector<std::thread> savers;
  for (int i = 0; i < kSavers; ++i) {
    savers.emplace_back([&, i] { results[i] = (*db)->SaveModels(dir); });
  }
  for (auto& t : savers) t.join();
  for (const Status& s : results) EXPECT_TRUE(s.ok()) << s;

  // Four saves -> four generations; CURRENT sits on the last one and the
  // store reopens cleanly.
  auto current = CurrentModelGenerationDir(dir);
  ASSERT_TRUE(current.ok());
  EXPECT_NE(current->find("gen-000004"), std::string::npos) << *current;
  auto reopened =
      Db::Open(&incomplete, Annotation(),
               DbOptions().WithEngine(FastConfig()).WithModelDir(dir));
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_GT((*reopened)->models_loaded(), 0u);
}

TEST(IngestionTest, ReopenSurvivesEveryCrashPoint) {
  Database incomplete = MakeIncompleteSynthetic(523);
  auto db = Db::Open(&incomplete, Annotation(), DbOptions().WithEngine(FastConfig()));
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->ExecuteCompletedSql(kCountByB).ok());
  const std::string dir = FreshDir("crash");
  ASSERT_TRUE((*db)->SaveModels(dir).ok());

  DbOptions options;
  options.engine = FastConfig();
  options.model_dir = dir;
  const auto reopen_ok = [&]() {
    auto reopened = Db::Open(&incomplete, Annotation(), options);
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    EXPECT_GT((*reopened)->models_loaded(), 0u);
    EXPECT_TRUE((*reopened)->ExecuteCompletedSql(kCountByB).ok());
  };

  // Crash mid-save: a half-written staging dir is ignored at open and swept
  // by the next save.
  ASSERT_EQ(::mkdir((dir + "/gen-000002.tmp").c_str(), 0755), 0);
  {
    std::ofstream junk(dir + "/gen-000002.tmp/partial.rsm",
                       std::ios::binary);
    junk << "half-written";
  }
  reopen_ok();
  ASSERT_TRUE((*db)->SaveModels(dir).ok());  // -> gen-2, sweeps the tmp
  struct stat st;
  EXPECT_NE(::stat((dir + "/gen-000002.tmp").c_str(), &st), 0);

  // Crash between the generation rename and the CURRENT swap: CURRENT still
  // names the previous generation, which must load; the next save must not
  // clobber the orphaned newer directory's number.
  {
    BinaryWriter w;
    w.U64(1);
    ASSERT_TRUE(WriteChecksummedFileAtomic(dir + "/CURRENT", 0x43545352, 1,
                                           w.buffer())
                    .ok());
  }
  reopen_ok();
  ASSERT_TRUE((*db)->SaveModels(dir).ok());
  auto current = CurrentModelGenerationDir(dir);
  ASSERT_TRUE(current.ok());
  EXPECT_NE(current->find("gen-000003"), std::string::npos) << *current;

  // Crash mid-CURRENT-write (torn bytes): fall back to the newest readable
  // generation.
  {
    std::ofstream torn(dir + "/CURRENT",
                       std::ios::binary | std::ios::trunc);
    torn << "torn";
  }
  reopen_ok();

  // CURRENT missing entirely.
  ASSERT_EQ(std::remove((dir + "/CURRENT").c_str()), 0);
  reopen_ok();

  // CURRENT names a generation whose directory is gone: other generations
  // must still be reachable.
  {
    BinaryWriter w;
    w.U64(3);
    ASSERT_TRUE(WriteChecksummedFileAtomic(dir + "/CURRENT", 0x43545352, 1,
                                           w.buffer())
                    .ok());
  }
  RemoveTree(dir + "/gen-000003");
  reopen_ok();
}

TEST(IngestionTest, OldGenerationsAreRetiredPastTheKeepWindow) {
  Database incomplete = MakeIncompleteSynthetic(525);
  DbOptions open_options;
  open_options.engine = FastConfig();
  open_options.keep_generations = 2;
  auto db = Db::Open(&incomplete, Annotation(), open_options);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->ExecuteCompletedSql(kCountByB).ok());
  const std::string dir = FreshDir("retire");
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE((*db)->SaveModels(dir).ok());
  }
  // Generations 2 and 3 remain; generation 1 is retired.
  struct stat st;
  EXPECT_NE(::stat((dir + "/gen-000001").c_str(), &st), 0);
  EXPECT_EQ(::stat((dir + "/gen-000002").c_str(), &st), 0);
  EXPECT_EQ(::stat((dir + "/gen-000003").c_str(), &st), 0);
  auto pinned = Db::Open(&incomplete, Annotation(),
                         DbOptions()
                             .WithEngine(FastConfig())
                             .WithModelDir(dir)
                             .WithModelGeneration(1));
  EXPECT_FALSE(pinned.ok());
}

TEST(IngestionTest, StaleBaseIsRecoveredFromDiskMetadata) {
  // Models saved against a smaller database and reopened against a larger
  // one carry their staleness with them: trained_rows is persisted, so the
  // reopened Db knows the snapshot is already behind.
  Database incomplete = MakeIncompleteSynthetic(527);
  auto db = Db::Open(&incomplete, Annotation(), DbOptions().WithEngine(FastConfig()));
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->ExecuteCompletedSql(kCountByB).ok());
  const std::string dir = FreshDir("stale_base");
  ASSERT_TRUE((*db)->SaveModels(dir).ok());

  Database grown = incomplete.Clone();
  {
    auto table = grown.GetMutableTable("table_b");
    ASSERT_TRUE(table.ok());
    for (const auto& row : MakeRows(20, 990000, "late")) {
      ASSERT_TRUE((*table)->AppendRow(row).ok());
    }
  }
  auto reopened = Db::Open(&grown, Annotation(),
                           DbOptions().WithEngine(FastConfig()).WithModelDir(
                               dir));
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  bool saw_stale = false;
  for (const ModelInfo& info : (*reopened)->Freshness()) {
    bool touches_b = false;
    for (const auto& t : info.path) touches_b |= t == "table_b";
    if (touches_b) {
      EXPECT_EQ(info.staleness_rows, 20u);
      saw_stale = true;
    }
  }
  EXPECT_TRUE(saw_stale);
}

// A path whose initial training fails must be revivable — by new data and,
// once the circuit breaker opens, by the half-open probe — and a concurrent
// probe herd must collapse to exactly one retraining. Driven end to end with
// injected training faults: fail, revive via Append, fail again (breaker
// opens), fail fast while open, then a 16-thread hammer past the open window
// that trains exactly once.
TEST(IngestionTest, FailedTrainingRevivesAndProbeHerdTrainsOnce) {
  FaultInjection::Instance().Reset();
  Database incomplete = MakeIncompleteSynthetic(701);
  RefreshPolicy policy;
  policy.breaker_failure_threshold = 2;
  policy.breaker_open_ms = 200;
  auto db = Db::Open(&incomplete, Annotation(),
                     DbOptions().WithEngine(FastConfig()).WithRefreshPolicy(
                         policy));
  ASSERT_TRUE(db.ok()) << db.status();
  const std::vector<std::string> path = {"table_a", "table_b"};

  // Failure 1: first-touch training aborts on the injected fault, and the
  // once-latch caches that failure for the data the caller pinned.
  FaultInjection::Instance().Arm("train.path", FaultPolicy::FailFirst(2));
  Status first = (*db)->ModelForPath(path).status();
  EXPECT_FALSE(first.ok());
  EXPECT_NE(first.message().find("train.path"), std::string::npos) << first;
  EXPECT_EQ(FaultInjection::Instance().hits("train.path"), 1u);
  // Replaying the cached failure is not a new training attempt.
  EXPECT_FALSE((*db)->ModelForPath(path).ok());
  EXPECT_EQ(FaultInjection::Instance().hits("train.path"), 1u);

  // New data revives the path (fresh latch) — but training fails again and
  // the second consecutive failure opens the breaker.
  ASSERT_TRUE((*db)->Append("table_b", MakeRows(3, 930000, "x")).ok());
  Status second = (*db)->ModelForPath(path).status();
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(FaultInjection::Instance().hits("train.path"), 2u);
  EXPECT_EQ((*db)->stats().breaker_open_total, 1u);
  EXPECT_EQ((*db)->breakers_open(), 1u);

  // While open: fail fast with kUnavailable and no training attempt, even
  // after another revival-eligible ingest.
  ASSERT_TRUE((*db)->Append("table_b", MakeRows(3, 940000, "x")).ok());
  Status open = (*db)->ModelForPath(path).status();
  EXPECT_TRUE(open.IsUnavailable()) << open;
  EXPECT_NE(open.message().find("circuit breaker"), std::string::npos) << open;
  EXPECT_EQ(FaultInjection::Instance().hits("train.path"), 2u);

  // Past the open window the breaker half-opens. Hammer it from 16 threads:
  // the probe revives the entry with a fresh latch, the latch collapses the
  // herd, and the one training that runs succeeds (the fault is exhausted).
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  std::atomic<int> successes{0};
  std::vector<std::thread> threads;
  threads.reserve(16);
  for (int i = 0; i < 16; ++i) {
    threads.emplace_back([&] {
      if ((*db)->ModelForPath(path).ok()) {
        successes.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(successes.load(), 16);
  EXPECT_EQ(FaultInjection::Instance().hits("train.path"), 3u);
  EXPECT_EQ((*db)->breakers_open(), 0u);
  EXPECT_EQ((*db)->stats().breaker_open_total, 1u);

  // And the path keeps answering real queries afterwards.
  EXPECT_TRUE((*db)->ExecuteCompletedSql(kJoinCount).ok());
  FaultInjection::Instance().Reset();
}

}  // namespace
}  // namespace restore
