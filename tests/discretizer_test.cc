// Tests for column discretization, tuple factors, and metrics.

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/serialize.h"
#include "datagen/synthetic.h"
#include "exec/result_set.h"
#include "metrics/metrics.h"
#include "restore/discretizer.h"
#include "restore/tuple_factor.h"
#include "storage/database.h"

namespace restore {
namespace {

TEST(DiscretizerTest, CategoricalIsIdentity) {
  Column col("c", ColumnType::kCategorical);
  col.AppendCategorical("x");
  col.AppendCategorical("y");
  col.AppendCategorical("x");
  auto disc = ColumnDiscretizer::Fit(col, 8);
  ASSERT_TRUE(disc.ok());
  EXPECT_EQ(disc->vocab_size(), 2);
  EXPECT_EQ(disc->EncodeCell(col, 0), 0);
  EXPECT_EQ(disc->EncodeCell(col, 1), 1);
  Rng rng(1);
  Column out = col.CloneEmpty();
  disc->DecodeInto(1, &out, rng);
  EXPECT_EQ(out.dictionary()->ValueOf(out.GetCode(0)), "y");
}

TEST(DiscretizerTest, LowCardinalityIntsGetOneBinPerValue) {
  Column col("year", ColumnType::kInt64);
  for (int i = 0; i < 100; ++i) col.AppendInt64(2010 + (i % 5));
  auto disc = ColumnDiscretizer::Fit(col, 24);
  ASSERT_TRUE(disc.ok());
  EXPECT_EQ(disc->vocab_size(), 5);
  // Encode-decode round trip is exact for distinct-valued bins.
  Rng rng(2);
  for (int v = 2010; v <= 2014; ++v) {
    const int32_t code = disc->EncodeNumeric(static_cast<double>(v));
    Column out("o", ColumnType::kInt64);
    disc->DecodeInto(code, &out, rng);
    EXPECT_EQ(out.GetInt64(0), v);
  }
}

TEST(DiscretizerTest, ContinuousBinsRespectRange) {
  Rng rng(3);
  Column col("price", ColumnType::kDouble);
  double lo = 1e18;
  double hi = -1e18;
  for (int i = 0; i < 2000; ++i) {
    const double v = rng.NextGaussian(100.0, 25.0);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
    col.AppendDouble(v);
  }
  auto disc = ColumnDiscretizer::Fit(col, 16);
  ASSERT_TRUE(disc.ok());
  EXPECT_EQ(disc->vocab_size(), 16);
  for (size_t r = 0; r < col.size(); ++r) {
    const int32_t code = disc->EncodeCell(col, r);
    ASSERT_GE(code, 0);
    ASSERT_LT(code, 16);
  }
  // Decoded values stay within the observed range.
  Column out("o", ColumnType::kDouble);
  for (int code = 0; code < 16; ++code) disc->DecodeInto(code, &out, rng);
  for (size_t r = 0; r < out.size(); ++r) {
    EXPECT_GE(out.GetDouble(r), lo - 1e-9);
    EXPECT_LE(out.GetDouble(r), hi + 1e-9);
  }
}

TEST(DiscretizerTest, NullEncodesToMinusOneAndDecodesToNull) {
  Column col("x", ColumnType::kInt64);
  col.AppendInt64(1);
  col.AppendNull();
  auto disc = ColumnDiscretizer::Fit(col, 4);
  ASSERT_TRUE(disc.ok());
  EXPECT_EQ(disc->EncodeCell(col, 1), -1);
  Rng rng(4);
  Column out("o", ColumnType::kInt64);
  disc->DecodeInto(-1, &out, rng);
  EXPECT_TRUE(out.IsNull(0));
}

TEST(DiscretizerTest, CodeMeanIsWithinBin) {
  Column col("x", ColumnType::kDouble);
  for (int i = 0; i < 100; ++i) col.AppendDouble(static_cast<double>(i));
  auto disc = ColumnDiscretizer::Fit(col, 10);
  ASSERT_TRUE(disc.ok());
  for (int code = 0; code < disc->vocab_size(); ++code) {
    const double mean = disc->CodeMean(code);
    EXPECT_GE(mean, 0.0);
    EXPECT_LE(mean, 99.0);
    if (code > 0) {
      EXPECT_GT(mean, disc->CodeMean(code - 1));
    }
  }
}

// Property sweep: every value encodes into a bin whose observed range
// contains it, for many bin budgets.
class DiscretizerBinSweep : public ::testing::TestWithParam<int> {};

TEST_P(DiscretizerBinSweep, EncodeIsMonotone) {
  Rng rng(5);
  Column col("x", ColumnType::kDouble);
  for (int i = 0; i < 500; ++i) col.AppendDouble(rng.NextUniform(-10, 10));
  auto disc = ColumnDiscretizer::Fit(col, GetParam());
  ASSERT_TRUE(disc.ok());
  int32_t prev = -1;
  for (double v = -10.0; v <= 10.0; v += 0.25) {
    const int32_t code = disc->EncodeNumeric(v);
    EXPECT_GE(code, prev);
    prev = code;
  }
}

INSTANTIATE_TEST_SUITE_P(Bins, DiscretizerBinSweep,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 64));

// A numeric value's bin is the count of upper edges below it, taken without
// branches; on sorted edges that is std::lower_bound's index (the first
// edge >= value), and a value above every edge lands in the last bin. Pinned
// over random sorted edges with duplicates (a loaded discretizer takes any
// edges) and values on an edge, between edges, below the first, above the
// last, NaN and ±inf, through EncodeNumeric and EncodeCell alike.
TEST(DiscretizerTest, BinCountMatchesLowerBound) {
  Rng rng(911);
  const double inf = std::numeric_limits<double>::infinity();
  for (int trial = 0; trial < 200; ++trial) {
    const size_t bins = 1 + rng.NextUint64(40);
    std::vector<double> edges(bins);
    for (double& e : edges) e = std::floor(rng.NextGaussian() * 4.0);
    std::sort(edges.begin(), edges.end());
    BinaryWriter w;
    w.U32(static_cast<uint32_t>(ColumnType::kDouble));
    w.I32(static_cast<int32_t>(bins));
    for (int k = 0; k < 4; ++k) w.VecF64(edges);  // edges, lo, hi, mean
    BinaryReader r(w.buffer());
    auto disc = ColumnDiscretizer::Load(&r);
    ASSERT_TRUE(disc.ok()) << disc.status();

    std::vector<double> values = edges;
    values.push_back(edges.front() - 0.5);
    values.push_back(edges.back() + 0.5);
    for (double e : edges) values.push_back(e + 0.5);
    values.push_back(std::numeric_limits<double>::quiet_NaN());
    values.push_back(inf);
    values.push_back(-inf);
    Column col("x", ColumnType::kDouble);
    for (double v : values) col.AppendDouble(v);
    for (size_t i = 0; i < values.size(); ++i) {
      const double v = values[i];
      const auto it = std::lower_bound(edges.begin(), edges.end(), v);
      const int32_t want = it == edges.end()
                               ? static_cast<int32_t>(bins) - 1
                               : static_cast<int32_t>(it - edges.begin());
      EXPECT_EQ(disc->EncodeNumeric(v), want) << "value " << v;
      // EncodeCell reads a NaN cell as NULL.
      EXPECT_EQ(disc->EncodeCell(col, i), std::isnan(v) ? -1 : want)
          << "value " << v;
    }
  }
}

TEST(TupleFactorTest, NamingAndDetection) {
  EXPECT_EQ(TupleFactorColumnName("apartment"), "__tf_apartment");
  EXPECT_TRUE(IsTupleFactorColumn("__tf_apartment"));
  EXPECT_TRUE(IsTupleFactorColumn("neighborhood.__tf_apartment"));
  EXPECT_FALSE(IsTupleFactorColumn("price"));
  EXPECT_FALSE(IsTupleFactorColumn("neighborhood.price"));
}

TEST(TupleFactorTest, CountsAndAttaches) {
  SyntheticConfig config;
  config.num_parents = 50;
  config.seed = 6;
  auto db = GenerateSynthetic(config);
  ASSERT_TRUE(db.ok()) << db.status();
  auto parent = db->GetTable("table_a");
  ASSERT_TRUE(parent.ok());
  auto tf_col = (*parent.value()).GetColumn("__tf_table_b");
  ASSERT_TRUE(tf_col.ok());
  // Attached tuple factors must equal the actual child counts.
  auto counts = CountChildMatches(*db, db->foreign_keys().front());
  ASSERT_TRUE(counts.ok());
  for (size_t r = 0; r < (*parent.value()).NumRows(); ++r) {
    EXPECT_EQ((*tf_col.value()).GetInt64(r), counts.value()[r]);
    EXPECT_GE(counts.value()[r], 1);
  }
}

TEST(MetricsTest, BiasReductionFormula) {
  // true=10, incomplete=6 (bias 4); completed=9 restores 75%.
  EXPECT_NEAR(BiasReduction(10.0, 6.0, 9.0), 0.75, 1e-12);
  // Perfect correction.
  EXPECT_NEAR(BiasReduction(10.0, 6.0, 10.0), 1.0, 1e-12);
  // Overshoot beyond the truth can be negative.
  EXPECT_LT(BiasReduction(10.0, 9.0, 12.0), 0.0);
  // No initial bias: defined as fully reduced.
  EXPECT_DOUBLE_EQ(BiasReduction(10.0, 10.0, 11.0), 1.0);
}

TEST(MetricsTest, CardinalityCorrectionFormula) {
  EXPECT_NEAR(CardinalityCorrection(100, 60, 95), 1.0 - 5.0 / 40.0, 1e-12);
  EXPECT_DOUBLE_EQ(CardinalityCorrection(100, 100, 100), 1.0);
}

// A one-aggregate ResultSet over `groups`, keyed by `group_by`.
ResultSet MakeResult(std::vector<std::string> group_by, QueryResult groups) {
  Query query;
  query.aggregates.push_back({AggregateFunc::kAvg, "t.v"});
  query.group_by = std::move(group_by);
  return ResultSet::Build(query, std::move(groups), ExecStats(),
                          /*batch_rows=*/256);
}

TEST(MetricsTest, AverageRelativeErrorHandlesMissingGroups) {
  QueryResult truth;
  truth.groups[{"a"}] = {10.0};
  truth.groups[{"b"}] = {20.0};
  QueryResult est;
  est.groups[{"a"}] = {15.0};  // 50% error; group b missing -> error 1.
  const ResultSet truth_rs = MakeResult({"t.g"}, truth);
  EXPECT_NEAR(AverageRelativeError(truth_rs, MakeResult({"t.g"}, est)),
              (0.5 + 1.0) / 2.0, 1e-12);
  // Estimate-only groups are ignored (truth has no such group).
  est.groups[{"c"}] = {5.0};
  EXPECT_NEAR(AverageRelativeError(truth_rs, MakeResult({"t.g"}, est)),
              (0.5 + 1.0) / 2.0, 1e-12);
}

TEST(MetricsTest, RelativeErrorImprovementIsDifference) {
  QueryResult truth;
  truth.groups[{}] = {100.0};
  QueryResult incomplete;
  incomplete.groups[{}] = {50.0};
  QueryResult completed;
  completed.groups[{}] = {90.0};
  EXPECT_NEAR(RelativeErrorImprovement(MakeResult({}, truth),
                                       MakeResult({}, incomplete),
                                       MakeResult({}, completed)),
              0.5 - 0.1, 1e-12);
}

}  // namespace
}  // namespace restore
