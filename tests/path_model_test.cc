// Tests for the PathModel (AR/SSAR completion models) and the
// incompleteness join on small synthetic data.

#include <algorithm>
#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "common/serialize.h"
#include "common/string_util.h"
#include "datagen/incompleteness.h"
#include "datagen/setups.h"
#include "datagen/synthetic.h"
#include "exec/join.h"
#include "metrics/metrics.h"
#include "restore/incompleteness_join.h"
#include "restore/join_view.h"
#include "restore/path_model.h"
#include "restore/path_selection.h"
#include "restore/snapshot_index.h"

namespace restore {
namespace {

PathModelConfig FastConfig() {
  PathModelConfig config;
  config.epochs = 20;
  config.hidden_dim = 32;
  config.embed_dim = 6;
  config.seed = 42;
  return config;
}

struct Scenario {
  Database complete;
  Database incomplete;
  SchemaAnnotation annotation;
};

Scenario MakeScenario(double predictability, double keep_rate,
                      double correlation, uint64_t seed = 50) {
  SyntheticConfig config;
  config.num_parents = 400;
  config.predictability = predictability;
  config.seed = seed;
  auto complete = GenerateSynthetic(config);
  EXPECT_TRUE(complete.ok());
  BiasedRemovalConfig removal;
  removal.table = "table_b";
  removal.column = "b";
  removal.keep_rate = keep_rate;
  removal.removal_correlation = correlation;
  removal.seed = seed + 1;
  auto incomplete = ApplyBiasedRemoval(*complete, removal);
  EXPECT_TRUE(incomplete.ok());
  EXPECT_TRUE(ThinTupleFactors(&*incomplete, 0.3, seed + 2).ok());
  Scenario s{std::move(*complete), std::move(*incomplete), {}};
  s.annotation.MarkIncomplete("table_b");
  return s;
}

TEST(PathModelTest, TrainsAndReportsLosses) {
  Scenario s = MakeScenario(0.9, 0.5, 0.5);
  auto model = PathModel::Train(s.incomplete, s.annotation,
                                {"table_a", "table_b"}, FastConfig());
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_GT((*model)->test_loss(), 0.0);
  EXPECT_GT((*model)->target_test_loss(), 0.0);
  EXPECT_GT((*model)->train_seconds(), 0.0);
  EXPECT_GT((*model)->num_parameters(), 0u);
  EXPECT_EQ((*model)->path().size(), 2u);
  EXPECT_TRUE((*model)->HopIsFanOut(0));
  EXPECT_GE((*model)->TfAttrIndex(0), 0);
}

TEST(PathModelTest, HigherPredictabilityGivesLowerTargetLoss) {
  Scenario predictable = MakeScenario(1.0, 0.5, 0.4, 60);
  Scenario noisy = MakeScenario(0.2, 0.5, 0.4, 60);
  auto m1 = PathModel::Train(predictable.incomplete, predictable.annotation,
                             {"table_a", "table_b"}, FastConfig());
  auto m2 = PathModel::Train(noisy.incomplete, noisy.annotation,
                             {"table_a", "table_b"}, FastConfig());
  ASSERT_TRUE(m1.ok());
  ASSERT_TRUE(m2.ok());
  EXPECT_LT((*m1)->target_test_loss(), (*m2)->target_test_loss());
}

TEST(PathModelTest, RejectsTrivialPaths) {
  Scenario s = MakeScenario(0.8, 0.5, 0.5);
  EXPECT_FALSE(
      PathModel::Train(s.incomplete, s.annotation, {"table_b"}, FastConfig())
          .ok());
}

/// The evidence of hop 0: every row of the path's root, with qualified
/// column names as the incompleteness join sees them.
Table RootEvidence(const Database& db, const std::string& root) {
  Table joined = *db.GetTable(root).value();
  joined.QualifyColumnNames(root);
  return joined;
}

std::vector<size_t> AllRows(const Table& table) {
  std::vector<size_t> rows(table.NumRows());
  for (size_t r = 0; r < rows.size(); ++r) rows[r] = r;
  return rows;
}

/// The tuple-factor posterior of SampleTupleFactors computed directly with
/// lgamma per row and code: the reference the tabulated posterior must
/// reproduce. `probs` is the model's TF distribution per row.
std::vector<int64_t> ReferenceTupleFactors(
    const PathModel& model, const Table& joined,
    const std::vector<size_t>& rows, size_t hop, const Matrix& probs,
    const std::vector<int64_t>& available) {
  const PathAttr& attr =
      model.attrs()[static_cast<size_t>(model.TfAttrIndex(hop))];
  const int tf_cap = model.config().tf_cap;
  const double rho = model.TfKeepRatio(hop);
  const Column& observed = *joined.GetColumn(attr.qualified).value();
  auto clamp = [tf_cap](int64_t v) {
    return std::max<int64_t>(0, std::min<int64_t>(v, tf_cap));
  };
  std::vector<int64_t> out(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    if (!observed.IsNull(rows[i])) {
      out[i] = clamp(observed.GetInt64(rows[i]));
      continue;
    }
    double expected = 0.0;
    if (rho < 1.0) {
      const double h =
          static_cast<double>(std::min<int64_t>(available[i], tf_cap));
      double norm = 0.0;
      double weighted = 0.0;
      for (size_t k = 0; k < probs.cols(); ++k) {
        const double t = attr.disc.CodeMean(static_cast<int32_t>(k));
        if (t < h) continue;
        const double log_binom = std::lgamma(t + 1.0) - std::lgamma(h + 1.0) -
                                 std::lgamma(t - h + 1.0);
        const double log_lik =
            log_binom + h * std::log(rho) + (t - h) * std::log1p(-rho);
        const double w =
            static_cast<double>(probs.at(i, k)) * std::exp(log_lik);
        norm += w;
        weighted += w * t;
      }
      if (norm > 1e-30) expected = weighted / norm;
    }
    if (expected == 0.0) {
      for (size_t k = 0; k < probs.cols(); ++k) {
        expected += static_cast<double>(probs.at(i, k)) *
                    attr.disc.CodeMean(static_cast<int32_t>(k));
      }
      expected = std::max(expected, static_cast<double>(available[i]));
    }
    out[i] = clamp(std::llround(expected));
  }
  return out;
}

/// Checks SampleTupleFactors against the direct formula on every root row.
/// Available counts cycle over the UNOBSERVED rows through every h in
/// [0, tf_cap] plus tf_cap + 1, so each table row (and the clamp) is hit.
void ExpectPosteriorMatchesReference(const PathModel& model,
                                     const Database& db) {
  const Table joined = RootEvidence(db, model.path()[0]);
  const std::vector<size_t> rows = AllRows(joined);
  const int tf_cap = model.config().tf_cap;
  const size_t tf_attr = static_cast<size_t>(model.TfAttrIndex(0));
  const Column& observed =
      *joined.GetColumn(model.attrs()[tf_attr].qualified).value();
  std::vector<int64_t> available(rows.size(), 0);
  int64_t next = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (!observed.IsNull(rows[i])) continue;
    available[i] = next;
    next = (next + 1) % (tf_cap + 2);
  }
  auto codes = model.EncodeEvidencePrefix(db, joined, 0, rows);
  ASSERT_TRUE(codes.ok()) << codes.status();
  auto probs =
      model.PredictAttrDistribution(db, joined, *codes, rows, tf_attr);
  ASSERT_TRUE(probs.ok()) << probs.status();
  const std::vector<int64_t> expected =
      ReferenceTupleFactors(model, joined, rows, 0, *probs, available);

  Rng rng(3);
  auto tfs = model.SampleTupleFactors(db, joined, &*codes, rows, 0, rng,
                                      &available);
  ASSERT_TRUE(tfs.ok()) << tfs.status();
  ASSERT_EQ(tfs->size(), expected.size());
  size_t predicted = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ((*tfs)[i], expected[i]) << "row " << i << " available "
                                      << available[i];
    if (observed.IsNull(rows[i])) ++predicted;
  }
  EXPECT_GE(predicted, static_cast<size_t>(tf_cap) + 2)
      << "too few unobserved rows to cover every available count";
}

TEST(PathModelTest, TupleFactorPosteriorTableMatchesDirectFormula) {
  // rho < 1: the scenario removes children and keeps 30% of the observed
  // tuple factors, so the binomial missingness posterior applies.
  Scenario s = MakeScenario(0.9, 0.5, 0.4, 110);
  auto model = PathModel::Train(s.incomplete, s.annotation,
                                {"table_a", "table_b"}, FastConfig());
  ASSERT_TRUE(model.ok()) << model.status();
  ASSERT_LT((*model)->TfKeepRatio(0), 1.0);
  ExpectPosteriorMatchesReference(**model, s.incomplete);

  // The table is rebuilt at Load, not persisted: a loaded model agrees too.
  BinaryWriter w;
  (*model)->Save(&w);
  BinaryReader r(w.buffer());
  auto loaded = PathModel::Load(s.incomplete, s.annotation, &r);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectPosteriorMatchesReference(**loaded, s.incomplete);

  // rho = 1: every observed parent has all its children, so the plain
  // expectation (floored at the available count) applies.
  Database complete = s.complete.Clone();
  ASSERT_TRUE(ThinTupleFactors(&complete, 0.3, 111).ok());
  auto full = PathModel::Train(complete, s.annotation, {"table_a", "table_b"},
                               FastConfig());
  ASSERT_TRUE(full.ok()) << full.status();
  ASSERT_EQ((*full)->TfKeepRatio(0), 1.0);
  ExpectPosteriorMatchesReference(**full, complete);
}

/// An unobserved tuple factor in the evidence prefix encodes to the number
/// of available children of the row's parent key, but only for keys the
/// parent table holds: a parent synthesized on an n:1 hop with a known yet
/// absent key reads 0 even when stray children reference that key.
TEST(PathModelTest, TfFallbackCountsChildrenOnlyOfParentKeysPresent) {
  Scenario s = MakeScenario(0.9, 0.5, 0.5);
  auto model = PathModel::Train(s.incomplete, s.annotation,
                                {"table_a", "table_b"}, FastConfig());
  ASSERT_TRUE(model.ok()) << model.status();
  const int tf_attr = (*model)->TfAttrIndex(0);
  ASSERT_GE(tf_attr, 0);

  constexpr int64_t kAbsent = 777777;
  Database db = s.incomplete.Clone();
  Table* children = db.GetMutableTable("table_b").value();
  const Column& b = *children->GetColumn("b").value();
  const std::string b0 = b.dictionary()->ValueOf(b.GetCode(0));
  for (int64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(children
                    ->AppendRow({Value::Int64(990000 + i),
                                 Value::Int64(kAbsent),
                                 Value::Categorical(b0)})
                    .ok());
  }
  auto existing = NaturalJoinTables(db, {"table_a", "table_b"});
  ASSERT_TRUE(existing.ok()) << existing.status();
  // Row 0: a real parent; row 1: the same tuple under the absent key. Both
  // leave the tuple factor unobserved.
  Table joined = existing->GatherRows({0, 0});
  joined.GetMutableColumn("table_a.id").value()->SetInt64(1, kAbsent);
  Column* tf = joined.GetMutableColumn("table_a.__tf_table_b").value();
  tf->SetInt64(0, kNullInt64);
  tf->SetInt64(1, kNullInt64);
  const int64_t real_key = joined.GetColumn("table_a.id").value()->GetInt64(0);
  int64_t real_children = 0;
  const Column& a_id = *children->GetColumn("a_id").value();
  for (size_t r = 0; r < a_id.size(); ++r) {
    if (a_id.GetInt64(r) == real_key) ++real_children;
  }
  ASSERT_GT(real_children, 0);

  const SnapshotIndex index(db);
  for (const SnapshotIndex* with : {&index, static_cast<const SnapshotIndex*>(
                                                nullptr)}) {
    auto codes = (*model)->EncodeEvidencePrefix(db, joined, 1, {0, 1}, with);
    ASSERT_TRUE(codes.ok()) << codes.status();
    EXPECT_EQ(codes->at(0, static_cast<size_t>(tf_attr)),
              std::min<int64_t>(real_children, FastConfig().tf_cap));
    EXPECT_EQ(codes->at(1, static_cast<size_t>(tf_attr)), 0);
  }
}

TEST(PathModelTest, SampleTupleFactorsRejectsMismatchedSizes) {
  Scenario s = MakeScenario(0.9, 0.5, 0.4, 112);
  auto model = PathModel::Train(s.incomplete, s.annotation,
                                {"table_a", "table_b"}, FastConfig());
  ASSERT_TRUE(model.ok()) << model.status();
  const Table joined = RootEvidence(s.incomplete, "table_a");
  const std::vector<size_t> rows = AllRows(joined);
  auto codes = (*model)->EncodeEvidencePrefix(s.incomplete, joined, 0, rows);
  ASSERT_TRUE(codes.ok()) << codes.status();
  Rng rng(4);

  std::vector<int64_t> short_counts(rows.size() - 1, 0);
  auto short_tfs = (*model)->SampleTupleFactors(s.incomplete, joined, &*codes,
                                                rows, 0, rng, &short_counts);
  ASSERT_FALSE(short_tfs.ok());
  EXPECT_TRUE(short_tfs.status().IsInvalidArgument()) << short_tfs.status();

  IntMatrix short_codes(rows.size() - 1, codes->cols());
  auto short_rows = (*model)->SampleTupleFactors(s.incomplete, joined,
                                                 &short_codes, rows, 0, rng);
  ASSERT_FALSE(short_rows.ok());
  EXPECT_TRUE(short_rows.status().IsInvalidArgument()) << short_rows.status();
}

TEST(PathModelTest, LoadRejectsTfCapThatDisagreesWithTfDiscretizer) {
  Scenario s = MakeScenario(0.9, 0.5, 0.4, 113);
  const std::vector<std::string> path{"table_a", "table_b"};
  auto model = PathModel::Train(s.incomplete, s.annotation, path,
                                FastConfig());
  ASSERT_TRUE(model.ok()) << model.status();
  BinaryWriter w;
  (*model)->Save(&w);
  // The payload opens with the path, then max_bins and tf_cap (I32 each).
  BinaryWriter prefix;
  prefix.VecStr(path);
  const size_t tf_cap_at = prefix.buffer().size() + sizeof(int32_t);
  for (int32_t bad_cap : {7, -1}) {
    std::string payload = w.buffer();
    std::memcpy(&payload[tf_cap_at], &bad_cap, sizeof(bad_cap));
    BinaryReader r(payload);
    auto loaded = PathModel::Load(s.incomplete, s.annotation, &r);
    ASSERT_FALSE(loaded.ok()) << "tf_cap " << bad_cap;
    EXPECT_TRUE(loaded.status().IsInvalidArgument()) << loaded.status();
  }
}

// EncodeEvidencePrefix encodes a column at a time. Each code must be the
// per-cell EncodeCell's (NULL as 0), read through a JoinView whose parts
// mix base and synthesized rows, with NULL cells in both and categorical
// codes past the fitted vocabulary (which clamp), over double, int64 and
// categorical attributes.
TEST(PathModelTest, EncodeEvidencePrefixMatchesPerCellEncode) {
  Rng rng(17);
  Database db;
  Table parent("p", {{"id", ColumnType::kInt64},
                     {"x", ColumnType::kDouble},
                     {"c", ColumnType::kCategorical},
                     {"n", ColumnType::kInt64}});
  Table child("q", {{"id", ColumnType::kInt64},
                    {"p_id", ColumnType::kInt64},
                    {"y", ColumnType::kDouble}});
  int64_t child_id = 0;
  for (int64_t i = 0; i < 150; ++i) {
    ASSERT_TRUE(parent
                    .AppendRow({Value::Int64(i),
                                i % 11 == 0 ? Value::Null()
                                            : Value::Double(rng.NextGaussian()),
                                Value::Categorical(StrFormat("c%d", static_cast<int>(i % 5))),
                                i % 13 == 0 ? Value::Null()
                                            : Value::Int64(i % 7)})
                    .ok());
    for (int64_t k = 0; k < i % 3; ++k) {
      ASSERT_TRUE(child
                      .AppendRow({Value::Int64(child_id++), Value::Int64(i),
                                  Value::Double(rng.NextGaussian() * 5.0)})
                      .ok());
    }
  }
  ASSERT_TRUE(db.AddTable(std::move(parent)).ok());
  ASSERT_TRUE(db.AddTable(std::move(child)).ok());
  ASSERT_TRUE(db.AddForeignKey("q", "p_id", "p", "id").ok());
  SchemaAnnotation annotation;
  annotation.MarkIncomplete("q");
  auto model = PathModel::Train(db, annotation, {"p", "q"}, FastConfig());
  ASSERT_TRUE(model.ok()) << model.status();

  // Each part: the base table, a synthesized block with NULLs and, for the
  // categorical column, codes past the dictionary, and random ids over both.
  const size_t kJoinRows = 400;
  std::vector<JoinPart> parts(2);
  for (size_t t = 0; t < 2; ++t) {
    const Table* base = db.GetTable(t == 0 ? "p" : "q").value();
    JoinPart& part = parts[t];
    part.base = base;
    part.synthesized = Table(base->name());
    for (const Column& col : base->columns()) {
      part.names.push_back(base->name() + "." + col.name());
      Column block = col.CloneEmpty();
      for (int64_t k = 0; k < 40; ++k) {
        if (k % 4 == 0) {
          block.AppendNull();
        } else if (col.type() == ColumnType::kDouble) {
          block.AppendDouble(rng.NextGaussian() * 8.0);
        } else if (col.type() == ColumnType::kCategorical) {
          block.AppendCode(static_cast<int64_t>(col.dictionary()->size()) +
                           k % 3 - 1);
        } else {
          block.AppendInt64(k - 20);
        }
      }
      ASSERT_TRUE(part.synthesized.AddColumn(std::move(block)).ok());
    }
    for (size_t r = 0; r < kJoinRows; ++r) {
      part.ids.push_back(rng.NextUint64(base->NumRows() + 40));
    }
  }
  const std::string join_name = "p_x_q";
  const JoinView view(parts, join_name);
  std::vector<size_t> rows;
  for (size_t i = 0; i < 300; ++i) rows.push_back(rng.NextUint64(kJoinRows));

  size_t checked = 0, nulls = 0, clamped = 0, synthesized = 0;
  for (size_t upto = 0; upto < 2; ++upto) {
    auto codes = (*model)->EncodeEvidencePrefix(db, view, upto, rows);
    ASSERT_TRUE(codes.ok()) << codes.status();
    for (size_t a = 0; a < (*model)->attrs().size(); ++a) {
      const PathAttr& attr = (*model)->attrs()[a];
      if (attr.is_tuple_factor || a >= (*model)->EndAttrOfTable(upto)) {
        continue;
      }
      auto col = view.Resolve(attr.qualified);
      ASSERT_TRUE(col.ok()) << col.status();
      for (size_t i = 0; i < rows.size(); ++i) {
        const auto [cells, row] = col->Locate(rows[i]);
        const int32_t code = attr.disc.EncodeCell(*cells, row);
        ASSERT_EQ(codes->at(i, a), std::max<int32_t>(0, code))
            << attr.qualified << " join row " << rows[i];
        ++checked;
        nulls += code < 0;
        synthesized += row != rows[i] && cells->size() == 40;
        clamped += cells->type() == ColumnType::kCategorical && code >= 0 &&
                   cells->GetCode(row) >= attr.disc.vocab_size();
      }
    }
  }
  EXPECT_GT(checked, 0u);
  EXPECT_GT(nulls, 0u);
  EXPECT_GT(clamped, 0u);
  EXPECT_GT(synthesized, 0u);
}

TEST(IncompletenessJoinTest, RestoresCardinality) {
  Scenario s = MakeScenario(0.9, 0.4, 0.5, 70);
  auto model = PathModel::Train(s.incomplete, s.annotation,
                                {"table_a", "table_b"}, FastConfig());
  ASSERT_TRUE(model.ok()) << model.status();
  const SnapshotIndex index(s.incomplete);
  IncompletenessJoinExecutor exec(&index, &s.annotation);
  Rng rng(71);
  auto result = exec.CompletePathJoin(**model, rng);
  ASSERT_TRUE(result.ok()) << result.status();

  const size_t true_rows = (*s.complete.GetTable("table_b").value()).NumRows();
  const size_t incomplete_rows =
      (*s.incomplete.GetTable("table_b").value()).NumRows();
  const size_t completed_rows =
      incomplete_rows + result->synthesized_counts["table_b"];
  // Completion must move the cardinality most of the way back.
  const double correction =
      CardinalityCorrection(true_rows, incomplete_rows, completed_rows);
  EXPECT_GT(correction, 0.5)
      << "true=" << true_rows << " incomplete=" << incomplete_rows
      << " completed=" << completed_rows;
  // The completed join contains existing + synthesized rows.
  EXPECT_EQ(result->joined.NumRows(),
            result->existing_join_rows + result->synthesized_join_rows);
  EXPECT_TRUE(result->joined.HasColumn("table_a.a"));
  EXPECT_TRUE(result->joined.HasColumn("table_b.b"));

  // A caller that reads fewer join columns gets exactly those, in join
  // order and with the full join's cells; one that reads none gets the
  // same synthesized tuples and no join.
  for (const auto& wanted : {std::vector<std::string>{"table_b.b", "table_a.a"},
                             std::vector<std::string>{}}) {
    IncompletenessJoinExecutor fresh(&index, &s.annotation);
    Rng same(71);
    CompletionOptions options;
    options.join_columns = wanted;
    auto narrow = fresh.CompletePathJoin(**model, same, options);
    ASSERT_TRUE(narrow.ok()) << narrow.status();
    ASSERT_EQ(narrow->joined.NumColumns(), wanted.size());
    for (size_t c = 0; c < wanted.size(); ++c) {
      const Column& col = narrow->joined.column(c);
      EXPECT_EQ(col.name(), wanted[wanted.size() - 1 - c]);
      const Column& full = *result->joined.GetColumn(col.name()).value();
      ASSERT_EQ(col.size(), full.size()) << col.name();
      EXPECT_EQ(col.ints(), full.ints()) << col.name();
      if (col.type() == ColumnType::kDouble) {
        EXPECT_EQ(std::memcmp(col.doubles().data(), full.doubles().data(),
                              col.size() * sizeof(double)),
                  0)
            << col.name();
      }
    }
    EXPECT_EQ(narrow->synthesized_counts, result->synthesized_counts);
    EXPECT_EQ(narrow->existing_join_rows, result->existing_join_rows);
    EXPECT_EQ(narrow->synthesized_join_rows, result->synthesized_join_rows);
  }
}

TEST(IncompletenessJoinTest, ReducesBiasWhenPredictable) {
  Scenario s = MakeScenario(1.0, 0.4, 0.6, 80);
  auto model = PathModel::Train(s.incomplete, s.annotation,
                                {"table_a", "table_b"}, FastConfig());
  ASSERT_TRUE(model.ok()) << model.status();
  const SnapshotIndex index(s.incomplete);
  IncompletenessJoinExecutor exec(&index, &s.annotation);
  Rng rng(81);
  auto result = exec.CompletePathJoin(**model, rng);
  ASSERT_TRUE(result.ok()) << result.status();

  // Fraction of the most biased value on complete/incomplete/completed data.
  auto fraction = [](const Table& t, const std::string& value) {
    auto f = CategoricalFraction(t, "b", value);
    EXPECT_TRUE(f.ok());
    return f.value();
  };
  const Table& complete_b = *s.complete.GetTable("table_b").value();
  const Table& incomplete_b = *s.incomplete.GetTable("table_b").value();
  // Find the value with the largest deviation.
  std::string worst;
  double worst_dev = -1.0;
  for (size_t code = 0;
       code < complete_b.GetColumn("b").value()->dictionary()->size();
       ++code) {
    const std::string value =
        complete_b.GetColumn("b").value()->dictionary()->ValueOf(
            static_cast<int64_t>(code));
    const double dev =
        std::abs(fraction(complete_b, value) - fraction(incomplete_b, value));
    if (dev > worst_dev) {
      worst_dev = dev;
      worst = value;
    }
  }
  ASSERT_GT(worst_dev, 0.02) << "removal produced no bias to correct";

  // Completed fraction: existing + synthesized values.
  const auto& synth_cols = result->synthesized.at("table_b");
  const Column* synth_b = nullptr;
  for (const auto& c : synth_cols) {
    if (c.name() == "b") synth_b = &c;
  }
  ASSERT_NE(synth_b, nullptr);
  const Column* inc_b = incomplete_b.GetColumn("b").value();
  const int64_t code =
      inc_b->dictionary()->Lookup(worst).value();
  size_t hits = 0;
  for (size_t r = 0; r < inc_b->size(); ++r) {
    if (inc_b->GetCode(r) == code) ++hits;
  }
  for (size_t r = 0; r < synth_b->size(); ++r) {
    if (synth_b->GetCode(r) == code) ++hits;
  }
  const double completed_fraction =
      static_cast<double>(hits) /
      static_cast<double>(inc_b->size() + synth_b->size());
  const double reduction =
      BiasReduction(fraction(complete_b, worst), fraction(incomplete_b, worst),
                    completed_fraction);
  EXPECT_GT(reduction, 0.3) << "value=" << worst;
}

TEST(IncompletenessJoinTest, RecordsPredictiveDistributions) {
  Scenario s = MakeScenario(0.9, 0.5, 0.4, 90);
  auto model = PathModel::Train(s.incomplete, s.annotation,
                                {"table_a", "table_b"}, FastConfig());
  ASSERT_TRUE(model.ok());
  const SnapshotIndex index(s.incomplete);
  IncompletenessJoinExecutor exec(&index, &s.annotation);
  Rng rng(91);
  CompletionOptions options;
  options.record_table = "table_b";
  options.record_column = "b";
  auto result = exec.CompletePathJoin(**model, rng, options);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_GT(result->recorded_probs.size(), 0u);
  EXPECT_EQ(result->recorded_probs.size(),
            result->synthesized_counts["table_b"]);
  for (const auto& probs : result->recorded_probs) {
    double sum = 0.0;
    for (float p : probs) sum += p;
    EXPECT_NEAR(sum, 1.0, 1e-4);
  }
}

TEST(IncompletenessJoinTest, RefusesIncompleteRoot) {
  Scenario s = MakeScenario(0.9, 0.5, 0.4, 95);
  s.annotation.MarkIncomplete("table_a");
  auto model = PathModel::Train(s.incomplete, s.annotation,
                                {"table_a", "table_b"}, FastConfig());
  ASSERT_TRUE(model.ok());
  const SnapshotIndex index(s.incomplete);
  IncompletenessJoinExecutor exec(&index, &s.annotation);
  Rng rng(96);
  EXPECT_FALSE(exec.CompletePathJoin(**model, rng).ok());
}

/// CompletePathJoin predicts a fan-out hop's tuple factors only for the
/// first row of each distinct parent key, and takes the representative
/// rows' codes from that pass. That is exact only if a row's encoded prefix
/// and predicted TF depend on that row alone: encoding + predicting a
/// subset (with repeats, as representatives of several missing children
/// repeat) must give the same codes as the all-rows pass.
void ExpectSubsetCodesMatchAllRows(const PathModel& model,
                                   const Database& db) {
  const Table joined = RootEvidence(db, model.path()[0]);
  const std::vector<size_t> rows = AllRows(joined);
  ASSERT_GT(rows.size(), 60u);
  std::vector<int64_t> available(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    available[i] = static_cast<int64_t>(i % 5);
  }
  Rng rng(5);
  auto all_codes = model.EncodeEvidencePrefix(db, joined, 0, rows);
  ASSERT_TRUE(all_codes.ok()) << all_codes.status();
  auto all_tfs = model.SampleTupleFactors(db, joined, &*all_codes, rows, 0,
                                          rng, &available);
  ASSERT_TRUE(all_tfs.ok()) << all_tfs.status();

  const std::vector<size_t> subset{41, 3, 3, 3, 17, 59, 0, 22, 22, 58};
  std::vector<int64_t> subset_available;
  for (size_t r : subset) subset_available.push_back(available[r]);
  auto codes = model.EncodeEvidencePrefix(db, joined, 0, subset);
  ASSERT_TRUE(codes.ok()) << codes.status();
  auto tfs = model.SampleTupleFactors(db, joined, &*codes, subset, 0, rng,
                                      &subset_available);
  ASSERT_TRUE(tfs.ok()) << tfs.status();

  const IntMatrix gathered = all_codes->GatherRows(subset);
  ASSERT_EQ(gathered.cols(), codes->cols());
  for (size_t i = 0; i < subset.size(); ++i) {
    EXPECT_EQ((*tfs)[i], (*all_tfs)[subset[i]]) << "row " << subset[i];
    for (size_t a = 0; a < codes->cols(); ++a) {
      EXPECT_EQ(codes->at(i, a), gathered.at(i, a))
          << "row " << subset[i] << " attr " << a;
    }
  }
}

TEST(IncompletenessJoinTest, RepresentativeRowsReuseAllRowsTupleFactors) {
  Scenario s = MakeScenario(0.9, 0.5, 0.4, 114);
  auto ar = PathModel::Train(s.incomplete, s.annotation,
                             {"table_a", "table_b"}, FastConfig());
  ASSERT_TRUE(ar.ok()) << ar.status();
  ExpectSubsetCodesMatchAllRows(**ar, s.incomplete);

  PathModelConfig ssar_config = FastConfig();
  ssar_config.use_ssar = true;
  auto ssar = PathModel::Train(s.incomplete, s.annotation,
                               {"table_a", "table_b"}, ssar_config);
  ASSERT_TRUE(ssar.ok()) << ssar.status();
  ASSERT_TRUE((*ssar)->is_ssar());
  ExpectSubsetCodesMatchAllRows(**ssar, s.incomplete);
}

TEST(IncompletenessJoinTest, SsarCompletesPathWhoseRootJoinsAfterFirstHop) {
  // M4's paths span five tables, e.g. actor -> movie_actor -> movie ->
  // movie_director -> director. The deep-sets root is the parent of the
  // LAST fan-out hop (movie), which earlier hops have not joined yet.
  auto setup = SetupByName("M4");
  ASSERT_TRUE(setup.ok());
  auto complete = BuildCompleteDatabase("movies", 310, 0.08);
  ASSERT_TRUE(complete.ok()) << complete.status();
  auto incomplete = ApplySetup(*complete, *setup, 0.5, 0.5, 311);
  ASSERT_TRUE(incomplete.ok()) << incomplete.status();
  const SchemaAnnotation annotation = AnnotationFor(*setup);
  auto paths =
      EnumerateCompletionPaths(*incomplete, annotation, "director", 5);
  ASSERT_FALSE(paths.empty());
  const std::vector<std::string>& path = paths[0];
  ASSERT_EQ(path.size(), 5u);

  PathModelConfig config = FastConfig();
  config.epochs = 3;
  config.min_train_steps = 60;
  config.use_ssar = true;
  auto model = PathModel::Train(*incomplete, annotation, path, config);
  ASSERT_TRUE(model.ok()) << model.status();
  ASSERT_TRUE((*model)->is_ssar());
  ASSERT_TRUE((*model)->HopIsFanOut(0));

  const SnapshotIndex index(*incomplete);
  IncompletenessJoinExecutor exec(&index, &annotation);
  Rng rng(312);
  auto result = exec.CompletePathJoin(**model, rng);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->synthesized_counts["director"], 0u);
  EXPECT_TRUE(result->joined.HasColumn("director.birth_year"));
}

TEST(PathSelectionTest, EnumeratesOnlyCompleteRoots) {
  Scenario s = MakeScenario(0.9, 0.5, 0.4, 97);
  auto paths =
      EnumerateCompletionPaths(s.incomplete, s.annotation, "table_b", 4);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0],
            (std::vector<std::string>{"table_a", "table_b"}));
}

TEST(PathSelectionTest, BestTestLossPicksLowerLossModel) {
  Scenario s = MakeScenario(0.9, 0.5, 0.4, 98);
  auto good = PathModel::Train(s.incomplete, s.annotation,
                               {"table_a", "table_b"}, FastConfig());
  ASSERT_TRUE(good.ok());
  // An untrained (0-epoch) model has a higher test loss.
  PathModelConfig bad_config = FastConfig();
  bad_config.epochs = 0;
  auto bad = PathModel::Train(s.incomplete, s.annotation,
                              {"table_a", "table_b"}, bad_config);
  ASSERT_TRUE(bad.ok());
  std::vector<std::vector<std::string>> candidates{
      {"table_a", "table_b"}, {"table_a", "table_b"}};
  std::vector<const PathModel*> models{bad->get(), good->get()};
  auto pick = SelectPath(s.incomplete, s.annotation, "table_b", candidates,
                         models, SelectionStrategy::kBestTestLoss,
                         FastConfig());
  ASSERT_TRUE(pick.ok()) << pick.status();
  EXPECT_EQ(pick.value(), 1u);
}

TEST(PathModelTest, SsarFallsBackToArWithoutFanOut) {
  // A path whose only hop is n:1 has no fan-out evidence; SSAR must
  // gracefully degrade to a plain AR model.
  Scenario s = MakeScenario(0.9, 0.5, 0.4, 99);
  s.annotation = SchemaAnnotation();
  s.annotation.MarkIncomplete("table_a");
  PathModelConfig config = FastConfig();
  config.use_ssar = true;
  auto model = PathModel::Train(s.incomplete, s.annotation,
                                {"table_b", "table_a"}, config);
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_FALSE((*model)->is_ssar());
}

TEST(PathModelTest, SsarTrainsWithSelfEvidence) {
  SyntheticConfig config;
  config.num_parents = 300;
  config.fanout_predictability = 0.9;
  config.seed = 100;
  auto complete = GenerateSynthetic(config);
  ASSERT_TRUE(complete.ok());
  BiasedRemovalConfig removal;
  removal.table = "table_b";
  removal.column = "b";
  removal.keep_rate = 0.6;
  removal.removal_correlation = 0.4;
  removal.seed = 101;
  auto incomplete = ApplyBiasedRemoval(*complete, removal);
  ASSERT_TRUE(incomplete.ok());
  SchemaAnnotation annotation;
  annotation.MarkIncomplete("table_b");

  PathModelConfig ssar_config = FastConfig();
  ssar_config.use_ssar = true;
  auto ssar = PathModel::Train(*incomplete, annotation,
                               {"table_a", "table_b"}, ssar_config);
  ASSERT_TRUE(ssar.ok()) << ssar.status();
  EXPECT_TRUE((*ssar)->is_ssar());

  auto ar = PathModel::Train(*incomplete, annotation, {"table_a", "table_b"},
                             FastConfig());
  ASSERT_TRUE(ar.ok());
  // With group-coherent data the self-evidence must help: SSAR's target
  // loss should not be (much) worse than AR's.
  EXPECT_LT((*ssar)->target_test_loss(),
            (*ar)->target_test_loss() + 0.15);
}

}  // namespace
}  // namespace restore
