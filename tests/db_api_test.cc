// Tests of the session-facing Db API: prepared queries with positional
// parameters, async execution, and the byte-budgeted completion cache.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/future.h"
#include "common/once_latch.h"
#include "common/thread_pool.h"
#include "datagen/setups.h"
#include "exec/executor.h"
#include "exec/prepared.h"
#include "restore/db.h"

namespace restore {
namespace {

EngineConfig FastConfig() {
  EngineConfig config;
  config.model.epochs = 6;
  config.model.hidden_dim = 24;
  config.model.embed_dim = 4;
  config.model.max_bins = 12;
  config.model.min_train_steps = 150;
  config.max_candidates = 2;
  return config;
}

std::shared_ptr<Db> OpenHousing(uint64_t seed) {
  auto complete = BuildCompleteDatabase("housing", seed, 0.25);
  EXPECT_TRUE(complete.ok());
  auto setup = SetupByName("H1");
  EXPECT_TRUE(setup.ok());
  auto incomplete = ApplySetup(*complete, *setup, 0.5, 0.5, seed + 1);
  EXPECT_TRUE(incomplete.ok());
  // The database must outlive the Db; keep it alive via a static pool.
  static std::vector<std::unique_ptr<Database>> databases;
  databases.push_back(std::make_unique<Database>(std::move(*incomplete)));
  auto db = Db::Open(databases.back().get(), AnnotationFor(*setup),
                     DbOptions().WithEngine(FastConfig()));
  EXPECT_TRUE(db.ok()) << db.status();
  return *db;
}

TEST(PreparedStatementTest, ParsesAndCountsParams) {
  auto complete = BuildCompleteDatabase("housing", 401, 0.2);
  ASSERT_TRUE(complete.ok());
  auto stmt = PreparedStatement::Prepare(
      *complete,
      "SELECT COUNT(*), AVG(price) FROM apartment WHERE accommodates >= ? "
      "AND room_type = ?;");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  EXPECT_EQ(stmt->num_params(), 2u);
  // Columns were qualified at prepare time.
  EXPECT_EQ(stmt->query().aggregates[1].column, "apartment.price");
  EXPECT_EQ(stmt->query().predicates[0].column, "apartment.accommodates");

  // Unbound execution is rejected...
  auto direct = ExecuteQuery(*complete, stmt->query());
  ASSERT_FALSE(direct.ok());
  EXPECT_NE(direct.status().message().find("unbound"), std::string::npos);

  // ...binding substitutes the literals and renders back as SQL.
  auto bound = stmt->Bind(
      {Value::Int64(3), Value::Categorical("entire_home")});
  ASSERT_TRUE(bound.ok()) << bound.status();
  EXPECT_TRUE(bound->IsFullyBound());
  auto wrong_arity = stmt->Bind({Value::Int64(3)});
  EXPECT_FALSE(wrong_arity.ok());

  // A bound prepared query equals the literal query.
  auto via_bound = ExecuteQuery(*complete, *bound);
  auto via_sql = ExecuteSql(
      *complete,
      "SELECT COUNT(*), AVG(price) FROM apartment WHERE accommodates >= 3 "
      "AND room_type = 'entire_home';");
  ASSERT_TRUE(via_bound.ok());
  ASSERT_TRUE(via_sql.ok());
  EXPECT_EQ(*via_bound, *via_sql);
}

TEST(DbSessionTest, PreparedQueryMatchesAdHocExecution) {
  auto db = OpenHousing(403);
  Session session = db->CreateSession();
  auto prepared = session.Prepare(
      "SELECT COUNT(*) FROM apartment WHERE accommodates >= ?;");
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  ASSERT_EQ(prepared->num_params(), 1u);

  for (int64_t threshold : {1, 2, 3}) {
    auto via_prepared = prepared->Run({Value::Int64(threshold)});
    ASSERT_TRUE(via_prepared.ok()) << via_prepared.status();
    auto via_sql = session.Execute(
        "SELECT COUNT(*) FROM apartment WHERE accommodates >= " +
        std::to_string(threshold) + ";");
    ASSERT_TRUE(via_sql.ok()) << via_sql.status();
    EXPECT_EQ(*via_prepared, *via_sql)
        << "threshold " << threshold;
  }
}

TEST(DbSessionTest, AsyncExecutionMatchesSynchronous) {
  auto db = OpenHousing(405);
  Session session = db->CreateSession();
  const std::string sql =
      "SELECT AVG(price) FROM apartment GROUP BY room_type;";

  ResultSetFuture future = session.ExecuteAsync(sql);
  auto prepared = session.Prepare(
      "SELECT AVG(price) FROM apartment GROUP BY room_type;");
  ASSERT_TRUE(prepared.ok());
  ResultSetFuture prepared_future = prepared->RunAsync();

  auto sync = session.Execute(sql);
  ASSERT_TRUE(sync.ok()) << sync.status();

  Result<ResultSet>& async1 = future.Get();
  Result<ResultSet>& async2 = prepared_future.Get();
  ASSERT_TRUE(async1.ok()) << async1.status();
  ASSERT_TRUE(async2.ok()) << async2.status();
  EXPECT_EQ(*async1, *sync);
  EXPECT_EQ(*async2, *sync);
}

TEST(DbSessionTest, AsyncParseErrorSurfacesThroughFuture) {
  auto db = OpenHousing(407);
  Session session = db->CreateSession();
  ResultSetFuture future = session.ExecuteAsync("SELECT nonsense;");
  Result<ResultSet>& result = future.Get();
  EXPECT_FALSE(result.ok());
}

TEST(FutureTest, RunsInlineWhenPoolHasNoWorkers) {
  ThreadPool pool(0);
  Future<int> f = Future<int>::Async(pool, [] { return 41 + 1; });
  EXPECT_EQ(f.Get(), 42);
  Future<int> ready = Future<int>::MakeReady(7);
  EXPECT_TRUE(ready.IsReady());
  EXPECT_EQ(ready.Get(), 7);
}

TEST(OnceLatchTest, RunsExactlyOnceAndCachesFailure) {
  OnceLatch ok_latch;
  int runs = 0;
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(ok_latch
                    .RunOnce([&] {
                      ++runs;
                      return Status::OK();
                    })
                    .ok());
  }
  EXPECT_EQ(runs, 1);
  EXPECT_TRUE(ok_latch.done_ok());

  OnceLatch fail_latch;
  int fail_runs = 0;
  for (int i = 0; i < 2; ++i) {
    Status s = fail_latch.RunOnce([&] {
      ++fail_runs;
      return Status::Internal("boom");
    });
    EXPECT_FALSE(s.ok());
  }
  EXPECT_EQ(fail_runs, 1);
  EXPECT_FALSE(fail_latch.done_ok());
}

TEST(OnceLatchTest, DeadlineWaiterTimesOutWhileWorkCompletes) {
  OnceLatch latch;
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;

  // Runner holds the latch in kRunning until the test releases it.
  std::thread runner([&] {
    Status s = latch.RunOnce([&] {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return release; });
      return Status::OK();
    });
    EXPECT_TRUE(s.ok());
  });

  // Wait until the runner actually owns the latch.
  while (!latch.running()) std::this_thread::yield();

  // An impatient waiter with an already-expired deadline gives up without
  // disturbing the in-flight run.
  Status timed_out = latch.RunOnceWithDeadline(
      [] { return Status::Internal("must not run"); },
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1));
  EXPECT_TRUE(timed_out.IsDeadlineExceeded());
  EXPECT_FALSE(latch.done_ok());

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  runner.join();

  // The shared work still completed and stays available to later callers.
  EXPECT_TRUE(latch.done_ok());
  Status later = latch.RunOnceWithDeadline(
      [] { return Status::Internal("must not run"); },
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1));
  EXPECT_TRUE(later.ok());
}

/// A one-column table of `rows` ints, for the completion-cache tests.
Table MakeTable(const std::string& name, size_t rows) {
  Table t(name);
  Column c("x", ColumnType::kInt64);
  for (size_t r = 0; r < rows; ++r) c.AppendInt64(static_cast<int64_t>(r));
  EXPECT_TRUE(t.AddColumn(std::move(c)).ok());
  return t;
}

TEST(CompletionCacheTest, ByteBudgetEvictsLeastRecentlyUsed) {
  const size_t entry_bytes =
      CompletionCache::ApproxTableBytes(MakeTable("t", 100));
  CompletionCache cache(/*budget_bytes=*/2 * entry_bytes + entry_bytes / 2);

  cache.Put({"a"}, MakeTable("a", 100));
  cache.Put({"b"}, MakeTable("b", 100));
  EXPECT_EQ(cache.size(), 2u);
  // Touch "a" so "b" is the LRU victim.
  EXPECT_NE(cache.GetExact({"a"}), nullptr);
  cache.Put({"c"}, MakeTable("c", 100));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_NE(cache.GetExact({"a"}), nullptr);
  EXPECT_NE(cache.GetExact({"c"}), nullptr);
  EXPECT_EQ(cache.GetExact({"b"}), nullptr);
  EXPECT_LE(cache.bytes(), cache.budget_bytes());

  // An entry bigger than the whole budget is not cached at all.
  CompletionCache tiny(/*budget_bytes=*/64);
  tiny.Put({"huge"}, MakeTable("huge", 10000));
  EXPECT_EQ(tiny.size(), 0u);

  // Unbounded cache (the default) never evicts.
  CompletionCache unbounded;
  for (int i = 0; i < 16; ++i) {
    unbounded.Put({"t" + std::to_string(i)}, MakeTable("t", 1000));
  }
  EXPECT_EQ(unbounded.size(), 16u);
  EXPECT_EQ(unbounded.evictions(), 0u);
}

TEST(CompletionCacheTest, CoveringLookupPicksSmallestSuperset) {
  CompletionCache cache;
  cache.Put({"a"}, MakeTable("only_a", 10));
  cache.Put({"a", "b"}, MakeTable("ab", 10));
  cache.Put({"a", "b", "c"}, MakeTable("abc", 10));
  cache.Put({"d"}, MakeTable("only_d", 10));

  // Exact-set and smallest-superset hits.
  auto ab = cache.GetCovering({"a", "b"});
  ASSERT_NE(ab, nullptr);
  EXPECT_EQ(ab->name(), "ab");
  auto b = cache.GetCovering({"b"});
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->name(), "ab") << "smallest superset of {b} is {a,b}";
  auto c = cache.GetCovering({"c"});
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->name(), "abc");
  auto a = cache.GetCovering({"a"});
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->name(), "only_a");

  // A query table no cached entry contains is a miss, and counts as one.
  const size_t misses_before = cache.misses();
  EXPECT_EQ(cache.GetCovering({"a", "nope"}), nullptr);
  EXPECT_EQ(cache.misses(), misses_before + 1);

  // Table names that are substrings of cached table names must not match.
  EXPECT_EQ(cache.GetCovering({"only"}), nullptr);

  // Equal-size covers go to the smaller sorted "t1|t2|...|" string, not to
  // the smaller set: "h1_z|x|" < "h1|x|" because '_' sorts before '|',
  // while the set {h1, x} < {h1_z, x}. Neither insertion order nor recency
  // decides.
  CompletionCache tie;
  tie.Put({"h1", "x"}, MakeTable("h1_x", 10));
  tie.Put({"h1_z", "x"}, MakeTable("h1z_x", 10));
  EXPECT_NE(tie.GetExact({"h1", "x"}), nullptr);  // the most recently used
  auto tied = tie.GetCovering({"x"});
  ASSERT_NE(tied, nullptr);
  EXPECT_EQ(tied->name(), "h1z_x");

  // An evicted entry stops covering: with a budget sized for two entries,
  // inserting a third evicts the LRU, and covering lookups for its tables
  // stop finding it.
  const size_t entry_bytes =
      CompletionCache::ApproxTableBytes(MakeTable("t", 100));
  CompletionCache lru(/*budget_bytes=*/2 * entry_bytes + entry_bytes / 2);
  lru.Put({"x"}, MakeTable("x", 100));
  lru.Put({"y"}, MakeTable("y", 100));
  EXPECT_NE(lru.GetCovering({"x"}), nullptr);  // bump x; y becomes LRU
  lru.Put({"z"}, MakeTable("z", 100));
  EXPECT_EQ(lru.evictions(), 1u);
  EXPECT_EQ(lru.GetCovering({"y"}), nullptr);
  EXPECT_NE(lru.GetCovering({"x"}), nullptr);
  EXPECT_NE(lru.GetCovering({"z"}), nullptr);
}

TEST(CompletionCacheTest, HoldsOnlyTheNewestEpoch) {
  const size_t entry_bytes =
      CompletionCache::ApproxTableBytes(MakeTable("t", 100));
  // Room for three entries: dropping an epoch must not pass for eviction.
  CompletionCache cache(/*budget_bytes=*/3 * entry_bytes);
  cache.Put({"a"}, MakeTable("a@1", 100), /*epoch=*/1);
  cache.Put({"a", "b"}, MakeTable("ab@1", 100), /*epoch=*/1);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.bytes(), 2 * entry_bytes);
  EXPECT_NE(cache.GetExact({"a"}, 1), nullptr);
  EXPECT_EQ(cache.GetExact({"a"}, 0), nullptr) << "other epochs never hit";

  // The first write of epoch 2 drops all of epoch 1.
  cache.Put({"c"}, MakeTable("c@2", 100), /*epoch=*/2);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.bytes(), entry_bytes);
  EXPECT_EQ(cache.GetExact({"a"}, 1), nullptr);
  EXPECT_EQ(cache.GetCovering({"b"}, 1), nullptr);
  EXPECT_EQ(cache.GetExact({"a"}, 2), nullptr);
  auto c = cache.GetCovering({"c"}, 2);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->name(), "c@2");

  // A late write of epoch 1 (a query pinned before the swap) is not stored.
  cache.Put({"a"}, MakeTable("a@1", 100), /*epoch=*/1);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.GetExact({"a"}, 1), nullptr);
  EXPECT_EQ(cache.GetExact({"a"}, 2), nullptr);

  // A lookup at a newer epoch misses without advancing the held one.
  EXPECT_EQ(cache.GetExact({"c"}, 3), nullptr);
  EXPECT_NE(cache.GetExact({"c"}, 2), nullptr);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.evictions(), 0u);
}

TEST(CompletionCacheTest, ConcurrentEpochAdvanceNeverServesAnotherEpoch) {
  // Four threads write and look up while they keep advancing the epoch. An
  // entry's table is named for the epoch it was computed at, so any hit
  // that crosses epochs shows in its name. The budget holds three of the
  // four table sets, so LRU eviction runs under the same contention.
  const size_t entry_bytes =
      CompletionCache::ApproxTableBytes(MakeTable("", 16));
  CompletionCache cache(/*budget_bytes=*/3 * entry_bytes);
  const std::vector<std::set<std::string>> sets = {
      {"a", "b"}, {"a", "c"}, {"a", "b", "c"}, {"d"}};
  std::atomic<uint64_t> epoch{1};
  std::atomic<size_t> hits{0};
  std::atomic<size_t> crossed{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 2000; ++i) {
        const uint64_t e = epoch.load();
        const std::string name = "epoch-" + std::to_string(e);
        const auto& tables = sets[static_cast<size_t>(i + t) % sets.size()];
        cache.Put(tables, MakeTable(name, 16), e);
        for (const auto& hit :
             {cache.GetExact(tables, e), cache.GetCovering({"a"}, e)}) {
          if (hit == nullptr) continue;
          hits.fetch_add(1);
          if (hit->name() != name) crossed.fetch_add(1);
        }
        if (i % 16 == 15) epoch.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(crossed.load(), 0u) << "a hit served another epoch's join";
  EXPECT_GT(hits.load(), 0u);
  EXPECT_LE(cache.size(), 3u);
  EXPECT_EQ(cache.bytes(), cache.size() * entry_bytes);
}

TEST(DbTest, CacheBudgetIsWiredThroughEngineConfig) {
  EngineConfig config = FastConfig();
  config.cache_budget_bytes = 123456;
  auto complete = BuildCompleteDatabase("housing", 409, 0.2);
  ASSERT_TRUE(complete.ok());
  auto setup = SetupByName("H1");
  ASSERT_TRUE(setup.ok());
  auto incomplete = ApplySetup(*complete, *setup, 0.5, 0.5, 410);
  ASSERT_TRUE(incomplete.ok());
  auto db = Db::Open(&*incomplete, AnnotationFor(*setup), DbOptions().WithEngine(config));
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ((*db)->cache().budget_bytes(), 123456u);
}

TEST(DbTest, UnknownTargetIsRejected) {
  auto db = OpenHousing(411);
  EXPECT_FALSE(db->CandidatesFor("no_such_table").ok());
  EXPECT_FALSE(db->SelectedPathFor("no_such_table").ok());
  // neighborhood is complete: it has no candidates either.
  EXPECT_FALSE(db->CandidatesFor("neighborhood").ok());
}

}  // namespace
}  // namespace restore
