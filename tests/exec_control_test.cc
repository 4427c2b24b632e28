// Tests of the execution-control surface: CancellationToken, deadlines,
// max_completed_rows budgets, the cache switch, per-query ExecStats, and the
// aggregated Db::Stats — the QueryOptions/ResultSet redesign of the
// Db/Session API.

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
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
  data_config.num_parents = 220;
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
  EXPECT_TRUE(ThinTupleFactors(&*incomplete, 0.3, seed + 2).ok());
  return std::move(incomplete).value();
}

constexpr char kJoinSql[] =
    "SELECT COUNT(*) FROM table_a NATURAL JOIN table_b GROUP BY b;";

std::shared_ptr<Db> OpenSynthetic(Database* incomplete,
                                  EngineConfig config = FastConfig()) {
  SchemaAnnotation annotation;
  annotation.MarkIncomplete("table_b");
  auto db = Db::Open(incomplete, annotation, DbOptions().WithEngine(std::move(config)));
  EXPECT_TRUE(db.ok()) << db.status();
  return *db;
}

TEST(CancellationTokenTest, DefaultTokenIsInert) {
  CancellationToken token;
  EXPECT_FALSE(token.can_cancel());
  EXPECT_FALSE(token.cancelled());
  EXPECT_EQ(token.flag(), nullptr);
  token.RequestCancel();  // no-op, must not crash
  EXPECT_FALSE(token.cancelled());
}

TEST(CancellationTokenTest, CancellableTokenSharesStateAcrossCopies) {
  CancellationToken token = CancellationToken::Cancellable();
  CancellationToken copy = token;
  EXPECT_TRUE(token.can_cancel());
  EXPECT_FALSE(copy.cancelled());
  token.RequestCancel();
  EXPECT_TRUE(copy.cancelled()) << "copies share the cancel state";
  ASSERT_NE(token.flag(), nullptr);
  EXPECT_TRUE(token.flag()->load());
}

TEST(ExecControlTest, CancelBeforeParseSkipsParsing) {
  Database incomplete = MakeIncompleteSynthetic(501);
  auto db = OpenSynthetic(&incomplete);
  Session session = db->CreateSession();

  QueryOptions options;
  options.cancel = CancellationToken::Cancellable();
  options.cancel.RequestCancel();
  // Even syntactically INVALID SQL returns Cancelled: the token is checked
  // before the parser ever sees the string.
  auto r = session.Execute("THIS IS NOT SQL AT ALL", options);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCancelled()) << r.status();
  EXPECT_EQ(db->stats().queries_cancelled, 1u);
  EXPECT_EQ(db->models_trained(), 0u) << "nothing ran";
}

TEST(ExecControlTest, CancelMidSamplingAbortsWithinOneBatch) {
  Database incomplete = MakeIncompleteSynthetic(503);
  EngineConfig config = FastConfig();
  config.enable_cache = false;
  auto db = OpenSynthetic(&incomplete, config);
  Session session = db->CreateSession();

  // Pre-train so the cancelled run aborts INFERENCE, not training.
  auto warmup = session.Execute(kJoinSql);
  ASSERT_TRUE(warmup.ok()) << warmup.status();
  const size_t trained = db->models_trained();

  // Deterministic mid-flight cancel: the progress callback fires at every
  // cooperative checkpoint; pull the trigger once sampling has begun.
  QueryOptions options;
  options.cancel = CancellationToken::Cancellable();
  uint64_t tuples_at_cancel = 0;
  options.progress = [&options, &tuples_at_cancel](const ExecStats& stats) {
    if (stats.tuples_completed > 0 && !options.cancel.cancelled()) {
      tuples_at_cancel = stats.tuples_completed;
      options.cancel.RequestCancel();
    }
  };
  auto r = session.Execute(kJoinSql, options);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCancelled()) << r.status();
  EXPECT_GT(tuples_at_cancel, 0u) << "cancel fired mid-completion";
  EXPECT_EQ(db->models_trained(), trained) << "no training was triggered";

  // The partial work was still accounted at the Db level...
  const Db::Stats stats = db->stats();
  EXPECT_EQ(stats.queries_cancelled, 1u);
  EXPECT_GT(stats.totals.arenas_leased, 0u);

  // ...and the Db is fully serviceable afterwards: the same query answers
  // bit-identically to the warmup (no leaked arenas, no poisoned latches).
  auto again = session.Execute(kJoinSql);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(*again, *warmup);
}

TEST(ExecControlTest, CancelAfterCompletionDoesNotAffectResult) {
  Database incomplete = MakeIncompleteSynthetic(505);
  auto db = OpenSynthetic(&incomplete);
  Session session = db->CreateSession();

  QueryOptions options;
  options.cancel = CancellationToken::Cancellable();
  auto r = session.Execute(kJoinSql, options);
  ASSERT_TRUE(r.ok()) << r.status();
  // Cancelling AFTER the query finished changes nothing about its result
  // but fails the next run under the same (now-cancelled) options.
  options.cancel.RequestCancel();
  EXPECT_GT(r->num_rows(), 0u);
  auto next = session.Execute(kJoinSql, options);
  ASSERT_FALSE(next.ok());
  EXPECT_TRUE(next.status().IsCancelled());
}

TEST(ExecControlTest, ExpiredDeadlineFailsSyncAndAsync) {
  Database incomplete = MakeIncompleteSynthetic(507);
  auto db = OpenSynthetic(&incomplete);
  Session session = db->CreateSession();

  QueryOptions options;
  options.deadline = std::chrono::steady_clock::now() -
                     std::chrono::milliseconds(1);
  auto sync = session.Execute(kJoinSql, options);
  ASSERT_FALSE(sync.ok());
  EXPECT_TRUE(sync.status().IsDeadlineExceeded()) << sync.status();

  // The async future surfaces the same status through Get().
  ResultSetFuture future = session.ExecuteAsync(kJoinSql, options);
  Result<ResultSet>& async = future.Get();
  ASSERT_FALSE(async.ok());
  EXPECT_TRUE(async.status().IsDeadlineExceeded()) << async.status();

  EXPECT_EQ(db->stats().queries_deadline_exceeded, 2u);
  EXPECT_EQ(db->models_trained(), 0u);
}

TEST(ExecControlTest, MaxCompletedRowsBudgetIsEnforced) {
  Database incomplete = MakeIncompleteSynthetic(509);
  EngineConfig config = FastConfig();
  config.enable_cache = false;
  auto db = OpenSynthetic(&incomplete, config);
  Session session = db->CreateSession();

  // Baseline: how many tuples does the unbounded completion synthesize?
  auto unbounded = session.Execute(kJoinSql);
  ASSERT_TRUE(unbounded.ok()) << unbounded.status();
  const uint64_t needed = unbounded->stats().tuples_completed;
  ASSERT_GT(needed, 1u);

  // A budget below that must fail with ResourceExhausted...
  QueryOptions tight;
  tight.max_completed_rows = 1;
  auto capped = session.Execute(kJoinSql, tight);
  ASSERT_FALSE(capped.ok());
  EXPECT_TRUE(capped.status().IsResourceExhausted()) << capped.status();

  // ...while a budget at the exact need succeeds bit-identically.
  QueryOptions exact;
  exact.max_completed_rows = needed;
  auto fits = session.Execute(kJoinSql, exact);
  ASSERT_TRUE(fits.ok()) << fits.status();
  EXPECT_EQ(*fits, *unbounded);
  EXPECT_EQ(fits->stats().tuples_completed, needed);
}

TEST(ExecControlTest, CacheSwitchGatesReadsAndWrites) {
  // Single-table queries over the incomplete table: one reads a column, a
  // bare COUNT(*) reads none. Uncached, each completes only what it reads.
  const char* kSingleSqls[] = {
      "SELECT COUNT(*) FROM table_b WHERE b = 'b1' GROUP BY b;",
      "SELECT COUNT(*) FROM table_b;"};
  // Cache off: no completed-join query reads or writes the cache.
  Database uncached_data = MakeIncompleteSynthetic(511);
  EngineConfig off = FastConfig();
  off.enable_cache = false;
  auto uncached_db = OpenSynthetic(&uncached_data, off);
  Session uncached = uncached_db->CreateSession();
  auto u1 = uncached.Execute(kJoinSql);
  ASSERT_TRUE(u1.ok()) << u1.status();
  auto u2 = uncached.Execute(kJoinSql);
  ASSERT_TRUE(u2.ok()) << u2.status();
  std::vector<ResultSet> u_single;
  for (const char* sql : kSingleSqls) {
    auto rs = uncached.Execute(sql);
    ASSERT_TRUE(rs.ok()) << sql << ": " << rs.status();
    EXPECT_EQ(rs->stats().cache_hits + rs->stats().cache_misses, 0u);
    EXPECT_GT(rs->stats().tuples_completed, 0u) << sql;
    u_single.push_back(std::move(rs).value());
  }
  for (const ResultSet* rs : {&*u1, &*u2}) {
    EXPECT_EQ(rs->stats().cache_hits, 0u);
    EXPECT_EQ(rs->stats().cache_misses, 0u);
  }
  EXPECT_EQ(uncached_db->cache().size(), 0u);

  // Cache on (the default): the first run misses and fills the cache, the
  // second hits, and both answer exactly like the uncached Db.
  Database cached_data = MakeIncompleteSynthetic(511);
  auto cached_db = OpenSynthetic(&cached_data);
  Session cached = cached_db->CreateSession();
  auto c1 = cached.Execute(kJoinSql);
  ASSERT_TRUE(c1.ok()) << c1.status();
  EXPECT_EQ(c1->stats().cache_hits, 0u);
  EXPECT_GT(c1->stats().cache_misses, 0u);
  EXPECT_GT(cached_db->cache().size(), 0u);
  auto c2 = cached.Execute(kJoinSql);
  ASSERT_TRUE(c2.ok()) << c2.status();
  EXPECT_GT(c2->stats().cache_hits, 0u);
  EXPECT_EQ(*c1, *u1);
  EXPECT_EQ(*c2, *u1);
  for (size_t i = 0; i < u_single.size(); ++i) {
    auto rs = cached.Execute(kSingleSqls[i]);
    ASSERT_TRUE(rs.ok()) << kSingleSqls[i] << ": " << rs.status();
    EXPECT_EQ(*rs, u_single[i]) << kSingleSqls[i];
  }
}

TEST(ExecControlTest, ExecStatsBreakDownThePipeline) {
  Database incomplete = MakeIncompleteSynthetic(513);
  EngineConfig config = FastConfig();
  config.enable_cache = false;
  auto db = OpenSynthetic(&incomplete, config);
  Session session = db->CreateSession();

  auto rs = session.Execute(kJoinSql);
  ASSERT_TRUE(rs.ok()) << rs.status();
  const ExecStats& stats = rs->stats();
  EXPECT_GT(stats.parse_seconds, 0.0);
  // First touch of the incomplete table pays path selection (candidate
  // training + the probe sweep behind the shared latch) — reported on its
  // own, NOT inside sample_seconds.
  EXPECT_GT(stats.selection_seconds, 0.0);
  EXPECT_GT(stats.sample_seconds, 0.0);
  EXPECT_GT(stats.aggregate_seconds, 0.0);
  EXPECT_GT(stats.tuples_completed, 0u);
  EXPECT_GT(stats.models_consulted, 0u);
  EXPECT_GT(stats.arenas_leased, 0u);
  EXPECT_FALSE(stats.ToString().empty());
  EXPECT_NE(stats.ToString().find("selection="), std::string::npos);

  // Prepared queries skip parsing; their parse time is zero by contract.
  auto prepared = session.Prepare(kJoinSql);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  auto via_prepared = prepared->Run();
  ASSERT_TRUE(via_prepared.ok()) << via_prepared.status();
  EXPECT_EQ(via_prepared->stats().parse_seconds, 0.0);
  EXPECT_EQ(*via_prepared, *rs);

  // Db-level aggregation sums the finished queries.
  const Db::Stats db_stats = db->stats();
  EXPECT_EQ(db_stats.queries_ok, 2u);
  EXPECT_GE(db_stats.totals.tuples_completed,
            stats.tuples_completed + via_prepared->stats().tuples_completed);
}

TEST(ExecControlTest, ClassicalExecutorHonorsOptionsToo) {
  Database incomplete = MakeIncompleteSynthetic(515);

  QueryOptions cancelled;
  cancelled.cancel = CancellationToken::Cancellable();
  cancelled.cancel.RequestCancel();
  auto r = ExecuteSql(incomplete, kJoinSql, cancelled);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCancelled());

  QueryOptions expired;
  expired.deadline = std::chrono::steady_clock::now() -
                     std::chrono::milliseconds(1);
  auto d = ExecuteSql(incomplete, kJoinSql, expired);
  ASSERT_FALSE(d.ok());
  EXPECT_TRUE(d.status().IsDeadlineExceeded());

  auto ok = ExecuteSql(incomplete, kJoinSql);
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_GT(ok->stats().parse_seconds, 0.0);
  EXPECT_GT(ok->num_rows(), 0u);
}

TEST(ExecControlTest, CancelledRunLeaksNoScratchArenas) {
  Database incomplete = MakeIncompleteSynthetic(517);
  EngineConfig config = FastConfig();
  config.enable_cache = false;
  auto db = OpenSynthetic(&incomplete, config);
  Session session = db->CreateSession();
  auto warmup = session.Execute(kJoinSql);
  ASSERT_TRUE(warmup.ok()) << warmup.status();

  auto cands = db->CandidatesFor("table_b");
  ASSERT_TRUE(cands.ok()) << cands.status();

  // Snapshot each model's lease/idle accounting, run a query that dies
  // mid-sampling, and verify every lease taken during the cancelled run was
  // returned to its pool (RAII leases unwind on the error path). This test
  // is single-threaded, so no arena may remain checked out afterwards:
  // idle must not shrink, and ASan would flag any dropped-on-the-floor
  // allocation.
  std::vector<size_t> leases_before;
  std::vector<size_t> idle_before;
  for (const auto& cand : *cands) {
    const InferenceScratchPool& pool = cand.model->scratch_pool();
    leases_before.push_back(pool.total_leases());
    idle_before.push_back(pool.idle());
  }

  QueryOptions options;
  options.cancel = CancellationToken::Cancellable();
  options.progress = [&options](const ExecStats& stats) {
    if (stats.arenas_leased > 0) options.cancel.RequestCancel();
  };
  auto r = session.Execute(kJoinSql, options);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCancelled()) << r.status();

  size_t new_leases = 0;
  for (size_t i = 0; i < cands->size(); ++i) {
    const InferenceScratchPool& pool = (*cands)[i].model->scratch_pool();
    new_leases += pool.total_leases() - leases_before[i];
    EXPECT_GE(pool.idle() + pool.dropped(), idle_before[i])
        << "candidate " << i << ": an arena leased during the cancelled run "
        << "was not returned";
  }
  EXPECT_GT(new_leases, 0u) << "the cancelled run did lease arenas";

  // The pools still serve: the same query answers identically afterwards.
  auto again = session.Execute(kJoinSql);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(*again, *warmup);
}

TEST(InferenceScratchPoolTest, MaxIdleCapDropsExcessArenas) {
  InferenceScratchPool pool;
  const size_t cap = InferenceScratchPool::kMaxIdle;
  {
    std::vector<InferenceScratchPool::Lease> leases;
    for (size_t i = 0; i < cap + 3; ++i) leases.push_back(pool.Acquire());
    EXPECT_EQ(pool.total_leases(), cap + 3);
  }
  // Every lease returned, but only the cap retained; the rest were freed.
  EXPECT_EQ(pool.idle(), cap);
  EXPECT_EQ(pool.dropped(), 3u);

  // Leases within the cap recycle pooled arenas and drop nothing.
  {
    std::vector<InferenceScratchPool::Lease> leases;
    for (size_t i = 0; i < cap; ++i) leases.push_back(pool.Acquire());
    EXPECT_EQ(pool.idle(), 0u);
  }
  EXPECT_EQ(pool.idle(), cap);
  EXPECT_EQ(pool.dropped(), 3u);
}

TEST(FutureTest, WaitForTimesOutWithoutClaimingTheTask) {
  ThreadPool pool(0);  // zero workers: nobody runs the task but Get()
  Future<int> f = Future<int>::Async(pool, [] { return 7; });
  EXPECT_FALSE(f.WaitFor(std::chrono::milliseconds(5)))
      << "WaitFor must not run the task inline";
  EXPECT_EQ(f.Get(), 7) << "Get() still claims and runs it";
  EXPECT_TRUE(f.WaitFor(std::chrono::milliseconds(0)));
}

}  // namespace
}  // namespace restore
