// Fault-injection framework tests: the policy registry itself (spec parsing,
// fail_nth/fail_first/probability semantics, hit accounting), then the
// graceful-degradation machinery it drives — refresh retry with
// deterministic exponential backoff, per-path circuit breakers that serve
// the last good generation while open, crash-safe saves under injected
// write failures, and clean ingest rejection.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "datagen/incompleteness.h"
#include "datagen/synthetic.h"
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

std::string FreshDir(const std::string& tag) {
  static int counter = 0;
  std::string dir = ::testing::TempDir() + "/fault_" + tag + "_" +
                    std::to_string(++counter);
  std::remove(dir.c_str());
  return dir;
}

constexpr char kCountByB[] = "SELECT COUNT(*) FROM table_b GROUP BY b;";

/// Every test starts and ends with a clean registry — fault points are
/// process-global, so leaking one would poison unrelated tests.
class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjection::Instance().Reset(); }
  void TearDown() override { FaultInjection::Instance().Reset(); }
};

// ---- Registry semantics -----------------------------------------------------

TEST_F(FaultInjectionTest, DisabledByDefaultAndFireIsFree) {
  EXPECT_FALSE(FaultInjection::Enabled());
  EXPECT_TRUE(FaultInjection::Fire("nonexistent.point").ok());
  // Unarmed points accrue no hits either.
  EXPECT_EQ(FaultInjection::Instance().hits("nonexistent.point"), 0u);
}

TEST_F(FaultInjectionTest, FailNthFailsExactlyTheNthHit) {
  FaultInjection::Instance().Arm("p", FaultPolicy::FailNth(2));
  EXPECT_TRUE(FaultInjection::Enabled());
  EXPECT_TRUE(FaultInjection::Fire("p").ok());
  Status second = FaultInjection::Fire("p");
  EXPECT_FALSE(second.ok());
  EXPECT_NE(second.message().find("'p'"), std::string::npos) << second;
  EXPECT_TRUE(FaultInjection::Fire("p").ok());
  EXPECT_EQ(FaultInjection::Instance().hits("p"), 3u);
}

TEST_F(FaultInjectionTest, FailFirstFailsLeadingHitsThenPasses) {
  FaultInjection::Instance().Arm("p", FaultPolicy::FailFirst(2));
  EXPECT_FALSE(FaultInjection::Fire("p").ok());
  EXPECT_FALSE(FaultInjection::Fire("p").ok());
  EXPECT_TRUE(FaultInjection::Fire("p").ok());
  EXPECT_TRUE(FaultInjection::Fire("p").ok());
}

TEST_F(FaultInjectionTest, SpecParsingArmsPointsAndStatusSuffixes) {
  Status s = FaultInjection::Instance().Configure(
      "a=fail_nth:1:unavailable,b=fail_always:ResourceExhausted,"
      "c=delay_ms:0");
  ASSERT_TRUE(s.ok()) << s;
  Status a = FaultInjection::Fire("a");
  EXPECT_TRUE(a.IsUnavailable()) << a;
  EXPECT_TRUE(FaultInjection::Fire("a").ok());  // nth consumed
  Status b = FaultInjection::Fire("b");
  EXPECT_TRUE(b.IsResourceExhausted()) << b;
  EXPECT_TRUE(FaultInjection::Fire("c").ok());  // delay passes through
}

TEST_F(FaultInjectionTest, MalformedSpecsAreRejected) {
  auto& fi = FaultInjection::Instance();
  EXPECT_TRUE(fi.Configure("no_equals_sign").IsInvalidArgument());
  EXPECT_TRUE(fi.Configure("=fail_always").IsInvalidArgument());
  EXPECT_TRUE(fi.Configure("p=").IsInvalidArgument());
  EXPECT_TRUE(fi.Configure("p=fail_nth").IsInvalidArgument());
  EXPECT_TRUE(fi.Configure("p=fail_nth:0").IsInvalidArgument());
  EXPECT_TRUE(fi.Configure("p=fail_nth:xyz").IsInvalidArgument());
  EXPECT_TRUE(fi.Configure("p=fail_prob:1.5").IsInvalidArgument());
  EXPECT_TRUE(fi.Configure("p=no_such_policy").IsInvalidArgument());
  EXPECT_TRUE(fi.Configure("p=fail_always:bogus_status").IsInvalidArgument());
  EXPECT_TRUE(
      fi.Configure("p=fail_nth:1:internal:extra").IsInvalidArgument());
}

TEST_F(FaultInjectionTest, ResetDisarmsEverythingAndDisablesTheGate) {
  FaultInjection::Instance().Arm("p", FaultPolicy::FailAlways());
  EXPECT_TRUE(FaultInjection::Enabled());
  FaultInjection::Instance().Reset();
  EXPECT_FALSE(FaultInjection::Enabled());
  EXPECT_TRUE(FaultInjection::Fire("p").ok());
  EXPECT_EQ(FaultInjection::Instance().hits("p"), 0u);
}

TEST_F(FaultInjectionTest, DisarmKeepsOtherPointsArmed) {
  FaultInjection::Instance().Arm("a", FaultPolicy::FailAlways());
  FaultInjection::Instance().Arm("b", FaultPolicy::FailAlways());
  FaultInjection::Instance().Disarm("a");
  EXPECT_TRUE(FaultInjection::Enabled());
  EXPECT_TRUE(FaultInjection::Fire("a").ok());
  EXPECT_FALSE(FaultInjection::Fire("b").ok());
  FaultInjection::Instance().Disarm("b");
  EXPECT_FALSE(FaultInjection::Enabled());
}

TEST_F(FaultInjectionTest, FailProbIsDeterministicForAFixedSeed) {
  const auto run = [] {
    FaultInjection::Instance().Reset();
    FaultInjection::Instance().Arm("p", FaultPolicy::FailProb(0.5));
    FaultInjection::Instance().Seed(7);
    std::vector<bool> outcomes;
    for (int i = 0; i < 64; ++i) {
      outcomes.push_back(FaultInjection::Fire("p").ok());
    }
    return outcomes;
  };
  const std::vector<bool> first = run();
  const std::vector<bool> second = run();
  EXPECT_EQ(first, second);
  // A 0.5 coin must actually produce both outcomes in 64 flips.
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), false), 0);
}

// ---- Refresh retry with deterministic backoff -------------------------------

TEST_F(FaultInjectionTest, RefreshRetriesWithDeterministicBackoff) {
  // Two identical runs: the refresher fails twice (injected), backs off
  // twice, then succeeds — and the recorded backoff delays are identical
  // across runs (pure function of path seed and attempt number).
  const auto run = [](uint64_t seed) {
    FaultInjection::Instance().Reset();
    Database incomplete = MakeIncompleteSynthetic(seed);
    RefreshPolicy policy;
    policy.staleness_rows_threshold = 1;
    policy.max_retries = 3;
    policy.backoff_initial_ms = 50;
    policy.backoff_max_ms = 2000;
    auto db = Db::Open(&incomplete, Annotation(),
                       DbOptions().WithEngine(FastConfig()).WithRefreshPolicy(
                           policy));
    EXPECT_TRUE(db.ok()) << db.status();
    auto warm = (*db)->ExecuteCompletedSql(kCountByB);
    EXPECT_TRUE(warm.ok()) << warm.status();

    std::mutex mu;
    std::vector<uint64_t> delays;
    (*db)->SetRefreshBackoffHookForTest([&](uint64_t ms) {
      std::lock_guard<std::mutex> lock(mu);
      delays.push_back(ms);
    });
    FaultInjection::Instance().Arm("refresh.train", FaultPolicy::FailFirst(2));

    EXPECT_TRUE((*db)->Append("table_b", MakeRows(5, 900000, "novel")).ok());
    (*db)->WaitForRefreshIdle();

    const Db::Stats stats = (*db)->stats();
    EXPECT_EQ(stats.refresh_failures, 2u);
    EXPECT_EQ(stats.refresh_retries, 2u);
    EXPECT_EQ(stats.models_refreshed, 1u);  // third attempt landed
    EXPECT_EQ(stats.refresh_failure_streak, 0u);
    EXPECT_EQ(stats.breaker_open_total, 0u);
    std::lock_guard<std::mutex> lock(mu);
    return delays;
  };

  const std::vector<uint64_t> first = run(601);
  const std::vector<uint64_t> second = run(601);
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first, second);
  // Exponential growth shines through the jitter: attempt 1 waits at most
  // 50 + 25 ms, attempt 2 at least 100 ms.
  EXPECT_LE(first[0], 75u);
  EXPECT_GE(first[1], 100u);
  EXPECT_LT(first[0], first[1]);
}

// ---- Refresh flag held until the publish -----------------------------------

// A background refresh stalled between training and its publish still owns
// the head: Freshness reports it refreshing, and a synchronous pass neither
// trains the same head again nor waits for it.
TEST_F(FaultInjectionTest, RefreshFlagHeldUntilPublish) {
  Database incomplete = MakeIncompleteSynthetic(619);
  RefreshPolicy policy;
  policy.staleness_rows_threshold = 1;
  policy.max_retries = 0;
  auto db = Db::Open(&incomplete, Annotation(),
                     DbOptions().WithEngine(FastConfig()).WithRefreshPolicy(
                         policy));
  ASSERT_TRUE(db.ok()) << db.status();
  auto warm = (*db)->ExecuteCompletedSql(kCountByB);
  ASSERT_TRUE(warm.ok()) << warm.status();

  FaultInjection& faults = FaultInjection::Instance();
  faults.Arm("refresh.train", FaultPolicy::DelayMs(0));  // counts trainings
  faults.Arm("refresh.publish", FaultPolicy::DelayMs(3000));
  ASSERT_TRUE((*db)->Append("table_b", MakeRows(5, 920000, "novel")).ok());

  // Bounded waits: a broken refresher fails the test instead of hanging it.
  const auto wait_until = [](const std::function<bool()>& done) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(120);
    while (!done()) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return true;
  };
  ASSERT_TRUE(wait_until([&] { return faults.hits("refresh.publish") > 0; }))
      << "the background refresh never reached its publish";

  // Inside the publish delay.
  bool refreshing = false;
  for (const ModelInfo& info : (*db)->Freshness()) {
    refreshing = refreshing || info.refreshing;
  }
  EXPECT_TRUE(refreshing);
  EXPECT_TRUE((*db)->RefreshStaleModels().ok());
  EXPECT_EQ(faults.hits("refresh.train"), 1u);

  ASSERT_TRUE(wait_until([&] { return (*db)->stats().models_refreshed > 0; }))
      << "the stalled refresh never published";
  EXPECT_EQ((*db)->stats().models_refreshed, 1u);
  EXPECT_EQ(faults.hits("refresh.train"), 1u);
}

// ---- Circuit breaker: serve stale, fail fast, half-open probe ---------------

TEST_F(FaultInjectionTest, BreakerOpensServesStaleThenProbeCloses) {
  Database incomplete = MakeIncompleteSynthetic(607);
  RefreshPolicy policy;
  policy.breaker_failure_threshold = 2;
  policy.breaker_open_ms = 100;
  policy.max_retries = 0;
  auto db = Db::Open(&incomplete, Annotation(),
                     DbOptions().WithEngine(FastConfig()).WithRefreshPolicy(
                         policy));
  ASSERT_TRUE(db.ok()) << db.status();
  auto baseline = (*db)->ExecuteCompletedSql(kCountByB);
  ASSERT_TRUE(baseline.ok()) << baseline.status();

  // Two failed synchronous refresh passes open the breaker.
  FaultInjection::Instance().Arm("refresh.train", FaultPolicy::FailFirst(2));
  ASSERT_TRUE((*db)->Append("table_b", MakeRows(3, 910000, "novel")).ok());
  EXPECT_FALSE((*db)->RefreshStaleModels().ok());
  EXPECT_FALSE((*db)->RefreshStaleModels().ok());

  Db::Stats stats = (*db)->stats();
  EXPECT_EQ(stats.breaker_open_total, 1u);
  EXPECT_EQ(stats.breakers_open, 1u);
  EXPECT_EQ((*db)->breakers_open(), 1u);

  // While open: refreshes fail fast with kUnavailable, queries keep serving
  // the last good generation, and Freshness exposes the breaker.
  Status fast = (*db)->RefreshStaleModels();
  EXPECT_TRUE(fast.IsUnavailable()) << fast;
  auto while_open = (*db)->ExecuteCompletedSql(kCountByB);
  ASSERT_TRUE(while_open.ok()) << while_open.status();
  bool saw_open = false;
  for (const ModelInfo& info : (*db)->Freshness()) {
    if (info.breaker_open) {
      saw_open = true;
      EXPECT_EQ(info.consecutive_failures, 2u);
      EXPECT_EQ(info.generation, 1u);  // still the pre-failure generation
    }
  }
  EXPECT_TRUE(saw_open);

  // Past the open window, the next pass is the half-open probe; the fault
  // is exhausted (fail_first:2), so it trains, swaps, and closes the
  // breaker.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  Status probe = (*db)->RefreshStaleModels();
  EXPECT_TRUE(probe.ok()) << probe;
  stats = (*db)->stats();
  EXPECT_EQ(stats.breakers_open, 0u);
  EXPECT_EQ(stats.models_refreshed, 1u);
  for (const ModelInfo& info : (*db)->Freshness()) {
    EXPECT_FALSE(info.breaker_open);
    EXPECT_EQ(info.consecutive_failures, 0u);
  }
}

// ---- Persistence under injected write failures ------------------------------

TEST_F(FaultInjectionTest, FailedSaveLeavesCommittedGenerationLoadable) {
  Database incomplete = MakeIncompleteSynthetic(613);
  auto db = Db::Open(&incomplete, Annotation(),
                     DbOptions().WithEngine(FastConfig()));
  ASSERT_TRUE(db.ok()) << db.status();
  ASSERT_TRUE((*db)->ModelForPath({"table_a", "table_b"}).ok());

  const std::string dir = FreshDir("save");
  ASSERT_TRUE((*db)->SaveModels(dir).ok());  // gen 1 committed

  FaultInjection::Instance().Arm("persist.write", FaultPolicy::FailAlways());
  Status failed = (*db)->SaveModels(dir);
  EXPECT_FALSE(failed.ok());
  EXPECT_NE(failed.message().find("persist.write"), std::string::npos)
      << failed;
  Db::Stats stats = (*db)->stats();
  EXPECT_EQ(stats.save_failures, 1u);
  EXPECT_EQ(stats.save_failure_streak, 1u);
  EXPECT_EQ((*db)->save_failure_streak(), 1u);

  // The failed save never touched the committed generation: a reopen loads
  // it and answers without retraining.
  FaultInjection::Instance().Reset();
  auto current = CurrentModelGenerationDir(dir);
  ASSERT_TRUE(current.ok()) << current.status();
  auto reopened = Db::Open(&incomplete, Annotation(),
                           DbOptions().WithEngine(FastConfig()).WithModelDir(
                               dir));
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_TRUE((*reopened)->ExecuteCompletedSql(kCountByB).ok());

  // The next save proceeds past the crashed staging dir and clears the
  // streak (save_failures stays as the lifetime total).
  ASSERT_TRUE((*db)->SaveModels(dir).ok());
  stats = (*db)->stats();
  EXPECT_EQ(stats.save_failures, 1u);
  EXPECT_EQ(stats.save_failure_streak, 0u);
}

// ---- Ingest validation faults ----------------------------------------------

TEST_F(FaultInjectionTest, InjectedIngestFaultRejectsCleanly) {
  Database incomplete = MakeIncompleteSynthetic(617);
  auto db = Db::Open(&incomplete, Annotation(),
                     DbOptions().WithEngine(FastConfig()));
  ASSERT_TRUE(db.ok()) << db.status();
  const size_t before = (*(*db)->data()->GetTable("table_b"))->NumRows();
  const uint64_t epoch_before = (*db)->epoch();

  FaultInjection::Instance().Configure(
      "ingest.validate=fail_nth:1:unavailable");
  Status rejected = (*db)->Append("table_b", MakeRows(4, 920000, "x"));
  EXPECT_TRUE(rejected.IsUnavailable()) << rejected;
  EXPECT_EQ((*(*db)->data()->GetTable("table_b"))->NumRows(), before);
  EXPECT_EQ((*db)->epoch(), epoch_before);
  EXPECT_EQ((*db)->stats().rows_ingested, 0u);

  // The nth hit is consumed: the retry publishes normally.
  ASSERT_TRUE((*db)->Append("table_b", MakeRows(4, 920000, "x")).ok());
  EXPECT_EQ((*(*db)->data()->GetTable("table_b"))->NumRows(), before + 4);
}

}  // namespace
}  // namespace restore
