// End-to-end integration tests: the restore::Db session API over the housing
// and movies datasets, including completed query execution and the
// streaming ResultSet cursor.

#include <gtest/gtest.h>

#include "datagen/setups.h"
#include "datagen/workload.h"
#include "exec/executor.h"
#include "metrics/metrics.h"
#include "restore/db.h"

namespace restore {
namespace {

EngineConfig FastEngineConfig() {
  EngineConfig config;
  config.model.epochs = 15;
  config.model.hidden_dim = 32;
  config.model.embed_dim = 6;
  config.model.max_bins = 16;
  config.max_candidates = 2;
  config.selection = SelectionStrategy::kBestTestLoss;
  return config;
}

TEST(DbHousingTest, CompletesApartmentTableAndReducesBias) {
  auto complete = BuildCompleteDatabase("housing", 201, 0.4);
  ASSERT_TRUE(complete.ok());
  auto setup = SetupByName("H1");
  ASSERT_TRUE(setup.ok());
  auto incomplete = ApplySetup(*complete, *setup, 0.5, 0.6, 202);
  ASSERT_TRUE(incomplete.ok());

  auto db = Db::Open(&*incomplete, AnnotationFor(*setup),
                     DbOptions().WithEngine(FastEngineConfig()));
  ASSERT_TRUE(db.ok()) << db.status();

  auto completed = (*db)->CompleteTable("apartment");
  ASSERT_TRUE(completed.ok()) << completed.status();

  auto true_mean = ColumnMean(*complete->GetTable("apartment").value(),
                              "price");
  auto incomplete_mean =
      ColumnMean(*incomplete->GetTable("apartment").value(), "price");
  auto completed_mean = ColumnMean(*completed, "price");
  ASSERT_TRUE(true_mean.ok());
  ASSERT_TRUE(incomplete_mean.ok());
  ASSERT_TRUE(completed_mean.ok());
  // The biased removal lowered the observed mean; completion must push it
  // back towards the truth.
  ASSERT_LT(incomplete_mean.value(), true_mean.value());
  const double reduction = BiasReduction(
      true_mean.value(), incomplete_mean.value(), completed_mean.value());
  EXPECT_GT(reduction, 0.2) << "true=" << true_mean.value()
                            << " incomplete=" << incomplete_mean.value()
                            << " completed=" << completed_mean.value();
}

TEST(DbHousingTest, CompletedQueryBeatsIncompleteExecution) {
  auto complete = BuildCompleteDatabase("housing", 203, 0.4);
  ASSERT_TRUE(complete.ok());
  auto setup = SetupByName("H1");
  ASSERT_TRUE(setup.ok());
  auto incomplete = ApplySetup(*complete, *setup, 0.4, 0.6, 204);
  ASSERT_TRUE(incomplete.ok());

  auto db = Db::Open(&*incomplete, AnnotationFor(*setup),
                     DbOptions().WithEngine(FastEngineConfig()));
  ASSERT_TRUE(db.ok()) << db.status();
  Session session = (*db)->CreateSession();

  const std::string sql =
      "SELECT SUM(price) FROM apartment WHERE room_type='entire_home';";
  auto truth = ExecuteSql(*complete, sql);
  auto on_incomplete = ExecuteSql(*incomplete, sql);
  auto on_completed = session.Execute(sql);
  ASSERT_TRUE(truth.ok());
  ASSERT_TRUE(on_incomplete.ok());
  ASSERT_TRUE(on_completed.ok()) << on_completed.status();

  const double err_incomplete =
      AverageRelativeError(*truth, *on_incomplete);
  const double err_completed = AverageRelativeError(*truth, *on_completed);
  EXPECT_LT(err_completed, err_incomplete)
      << "incomplete err=" << err_incomplete
      << " completed err=" << err_completed;
}

TEST(DbHousingTest, PreparedJoinQueryWithIncompleteTableExecutes) {
  auto complete = BuildCompleteDatabase("housing", 205, 0.3);
  ASSERT_TRUE(complete.ok());
  auto setup = SetupByName("H2");
  ASSERT_TRUE(setup.ok());
  auto incomplete = ApplySetup(*complete, *setup, 0.5, 0.5, 206);
  ASSERT_TRUE(incomplete.ok());

  auto db = Db::Open(&*incomplete, AnnotationFor(*setup),
                     DbOptions().WithEngine(FastEngineConfig()));
  ASSERT_TRUE(db.ok()) << db.status();
  Session session = (*db)->CreateSession();

  // Parse/plan once, execute with two different bindings.
  auto prepared = session.Prepare(
      "SELECT COUNT(*) FROM landlord NATURAL JOIN apartment WHERE "
      "accommodates >= ? GROUP BY landlord_since;");
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  auto result = prepared->Run({Value::Int64(3)});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->num_rows(), 0u);

  // Count must be >= the incomplete count overall (tuples were added).
  const std::string sql =
      "SELECT COUNT(*) FROM landlord NATURAL JOIN apartment WHERE "
      "accommodates >= 3 GROUP BY landlord_since;";
  auto on_incomplete = ExecuteSql(*incomplete, sql);
  ASSERT_TRUE(on_incomplete.ok());
  // Consume the completed result through the streaming cursor.
  double completed_total = 0.0;
  double incomplete_total = 0.0;
  ResultBatch batch;
  while (result->NextBatch(&batch)) {
    for (size_t r = 0; r < batch.rows; ++r) completed_total += batch.value(r, 0);
  }
  for (size_t r = 0; r < on_incomplete->num_rows(); ++r) {
    incomplete_total += on_incomplete->value(r, 0);
  }
  EXPECT_GE(completed_total, incomplete_total);

  // A laxer binding must qualify at least as many rows.
  auto lax = prepared->Run({Value::Int64(1)});
  ASSERT_TRUE(lax.ok()) << lax.status();
  double lax_total = 0.0;
  for (size_t r = 0; r < lax->num_rows(); ++r) lax_total += lax->value(r, 0);
  EXPECT_GE(lax_total, completed_total);
}

TEST(DbHousingTest, CacheReusesCompletedJoin) {
  auto complete = BuildCompleteDatabase("housing", 207, 0.25);
  ASSERT_TRUE(complete.ok());
  auto setup = SetupByName("H1");
  ASSERT_TRUE(setup.ok());
  auto incomplete = ApplySetup(*complete, *setup, 0.5, 0.5, 208);
  ASSERT_TRUE(incomplete.ok());
  auto db = Db::Open(&*incomplete, AnnotationFor(*setup),
                     DbOptions().WithEngine(FastEngineConfig()));
  ASSERT_TRUE(db.ok()) << db.status();
  Session session = (*db)->CreateSession();
  ASSERT_TRUE(
      session
          .Execute("SELECT AVG(price) FROM apartment WHERE accommodates >= 2;")
          .ok());
  const size_t misses_after_first = (*db)->cache().misses();
  ASSERT_TRUE(session
                  .Execute(
                      "SELECT COUNT(*) FROM apartment WHERE "
                      "room_type='entire_home';")
                  .ok());
  EXPECT_GT((*db)->cache().hits(), 0u);
  EXPECT_EQ((*db)->cache().misses(), misses_after_first);
}

TEST(DbMoviesTest, MultiIncompleteJoinQueryExecutes) {
  auto complete = BuildCompleteDatabase("movies", 209, 0.15);
  ASSERT_TRUE(complete.ok());
  auto setup = SetupByName("M1");
  ASSERT_TRUE(setup.ok());
  auto incomplete = ApplySetup(*complete, *setup, 0.5, 0.5, 210);
  ASSERT_TRUE(incomplete.ok());

  auto db = Db::Open(&*incomplete, AnnotationFor(*setup),
                     DbOptions().WithEngine(FastEngineConfig()));
  ASSERT_TRUE(db.ok()) << db.status();
  Session session = (*db)->CreateSession();
  const std::string sql =
      "SELECT COUNT(*) FROM movie NATURAL JOIN movie_director NATURAL JOIN "
      "director WHERE gender='m';";
  auto truth = ExecuteSql(*complete, sql);
  auto on_incomplete = ExecuteSql(*incomplete, sql);
  auto on_completed = session.Execute(sql);
  ASSERT_TRUE(truth.ok());
  ASSERT_TRUE(on_incomplete.ok());
  ASSERT_TRUE(on_completed.ok()) << on_completed.status();
  // Completion must recover a meaningful share of the missing join rows.
  const double t = truth->value(0, 0);
  const double i = on_incomplete->value(0, 0);
  const double c = on_completed->value(0, 0);
  EXPECT_GT(c, i) << "completed count should exceed the incomplete count";
  EXPECT_LT(std::abs(c - t) / t, std::abs(i - t) / t)
      << "truth=" << t << " incomplete=" << i << " completed=" << c;
}

TEST(DbTest, SelectedPathStartsCompleteAndEndsAtTarget) {
  auto complete = BuildCompleteDatabase("housing", 211, 0.25);
  ASSERT_TRUE(complete.ok());
  auto setup = SetupByName("H4");
  ASSERT_TRUE(setup.ok());
  auto incomplete = ApplySetup(*complete, *setup, 0.5, 0.5, 212);
  ASSERT_TRUE(incomplete.ok());
  auto db = Db::Open(&*incomplete, AnnotationFor(*setup),
                     DbOptions().WithEngine(FastEngineConfig()));
  ASSERT_TRUE(db.ok()) << db.status();
  auto path = (*db)->SelectedPathFor("landlord");
  ASSERT_TRUE(path.ok()) << path.status();
  ASSERT_GE(path->size(), 2u);
  EXPECT_EQ(path->back(), "landlord");
  EXPECT_TRUE((*db)->annotation().IsComplete(path->front()));
}

TEST(DbTest, CompleteQueriesOnCompleteTablesBypassModels) {
  auto complete = BuildCompleteDatabase("housing", 213, 0.25);
  ASSERT_TRUE(complete.ok());
  auto setup = SetupByName("H1");
  ASSERT_TRUE(setup.ok());
  auto incomplete = ApplySetup(*complete, *setup, 0.5, 0.5, 214);
  ASSERT_TRUE(incomplete.ok());
  auto db = Db::Open(&*incomplete, AnnotationFor(*setup),
                     DbOptions().WithEngine(FastEngineConfig()));
  ASSERT_TRUE(db.ok()) << db.status();
  Session session = (*db)->CreateSession();
  // neighborhood is complete: the completed result equals direct execution,
  // and no model had to be trained for it.
  const std::string sql = "SELECT COUNT(*) FROM neighborhood;";
  auto direct = ExecuteSql(*incomplete, sql);
  auto completed = session.Execute(sql);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(completed.ok()) << completed.status();
  EXPECT_DOUBLE_EQ(direct->value(0, 0), completed->value(0, 0));
  EXPECT_EQ((*db)->models_trained(), 0u);
}

TEST(ResultSetTest, BatchCursorStreamsEveryRowExactlyOnce) {
  auto complete = BuildCompleteDatabase("housing", 215, 0.25);
  ASSERT_TRUE(complete.ok());
  auto setup = SetupByName("H1");
  ASSERT_TRUE(setup.ok());
  auto incomplete = ApplySetup(*complete, *setup, 0.5, 0.5, 216);
  ASSERT_TRUE(incomplete.ok());

  auto db = Db::Open(&*incomplete, AnnotationFor(*setup),
                     DbOptions().WithEngine(FastEngineConfig()));
  ASSERT_TRUE(db.ok()) << db.status();
  Session session = (*db)->CreateSession();

  // A grouped result, streamed in 2-row batches.
  QueryOptions options;
  options.batch_rows = 2;
  auto rs = session.Execute(
      "SELECT COUNT(*), AVG(price) FROM apartment GROUP BY room_type;",
      options);
  ASSERT_TRUE(rs.ok()) << rs.status();
  ASSERT_GT(rs->num_rows(), 0u);
  EXPECT_EQ(rs->batch_rows(), 2u);

  size_t streamed = 0;
  double streamed_count_sum = 0.0;
  ResultBatch batch;
  while (rs->NextBatch(&batch)) {
    ASSERT_LE(batch.rows, 2u);
    for (size_t r = 0; r < batch.rows; ++r) {
      streamed_count_sum += batch.value(r, 0);
      ++streamed;
    }
  }
  EXPECT_EQ(streamed, rs->num_rows());
  EXPECT_FALSE(rs->NextBatch(&batch)) << "cursor is exhausted";
  rs->Rewind();
  EXPECT_TRUE(rs->NextBatch(&batch)) << "Rewind restarts the stream";

  double direct_count_sum = 0.0;
  for (size_t r = 0; r < rs->num_rows(); ++r) {
    direct_count_sum += rs->value(r, 0);
  }
  EXPECT_DOUBLE_EQ(streamed_count_sum, direct_count_sum);

  // Per-query ExecStats ride on the ResultSet; the completion consulted at
  // least one model and synthesized tuples for the incomplete table.
  const ExecStats& stats = rs->stats();
  EXPECT_GT(stats.models_consulted, 0u);
  EXPECT_GT(stats.tuples_completed, 0u);
  EXPECT_GT(stats.sample_seconds, 0.0);
  EXPECT_GT(stats.parse_seconds, 0.0);

  // And the Db aggregates them for scraping.
  const Db::Stats db_stats = (*db)->stats();
  EXPECT_GE(db_stats.queries_ok, 1u);
  EXPECT_GE(db_stats.totals.tuples_completed, stats.tuples_completed);
}

}  // namespace
}  // namespace restore
