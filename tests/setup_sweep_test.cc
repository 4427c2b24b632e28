// Parameterized end-to-end sweep: every completion setup (H1..H5, M1..M5)
// trains, completes, and produces a finite bias-reduction — the smoke path
// behind Figure 7's grid.

#include <cmath>

#include <gtest/gtest.h>

#include "datagen/setups.h"
#include "metrics/metrics.h"
#include "restore/db.h"
#include "restore/path_selection.h"

namespace restore {
namespace {

EngineConfig SweepEngineConfig() {
  EngineConfig config;
  config.model.epochs = 6;
  config.model.hidden_dim = 32;
  config.model.embed_dim = 6;
  config.model.max_bins = 12;
  config.model.min_train_steps = 250;
  config.max_candidates = 2;
  return config;
}

class SetupSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(SetupSweep, TrainsCompletesAndCorrectsCardinality) {
  const std::string name = GetParam();
  auto setup = SetupByName(name);
  ASSERT_TRUE(setup.ok());
  const double scale = setup->dataset == "housing" ? 0.12 : 0.08;
  auto complete = BuildCompleteDatabase(setup->dataset, 300, scale);
  ASSERT_TRUE(complete.ok()) << complete.status();
  auto incomplete = ApplySetup(*complete, *setup, 0.5, 0.5, 301);
  ASSERT_TRUE(incomplete.ok()) << incomplete.status();

  auto db = Db::Open(&*incomplete, AnnotationFor(*setup),
                     DbOptions().WithEngine(SweepEngineConfig()));
  ASSERT_TRUE(db.ok()) << db.status();
  auto path = (*db)->SelectedPathFor(setup->removed_table);
  ASSERT_TRUE(path.ok()) << path.status();
  auto completion = (*db)->CompleteViaPath(*path);
  ASSERT_TRUE(completion.ok()) << completion.status();

  // Synthesis happened and moves the cardinality toward the truth.
  const size_t true_rows =
      (*complete->GetTable(setup->removed_table).value()).NumRows();
  const size_t partial_rows =
      (*incomplete->GetTable(setup->removed_table).value()).NumRows();
  size_t synthesized = 0;
  auto it = completion->synthesized_counts.find(setup->removed_table);
  if (it != completion->synthesized_counts.end()) synthesized = it->second;
  EXPECT_GT(synthesized, 0u) << name;
  const size_t completed_rows = partial_rows + synthesized;
  // Completed cardinality should be closer to the truth than the incomplete
  // one (allowing generous slack for the small scales used in tests).
  const double before = std::abs(static_cast<double>(partial_rows) -
                                 static_cast<double>(true_rows));
  const double after = std::abs(static_cast<double>(completed_rows) -
                                static_cast<double>(true_rows));
  EXPECT_LT(after, before * 1.2)
      << name << ": true=" << true_rows << " partial=" << partial_rows
      << " completed=" << completed_rows;
}

INSTANTIATE_TEST_SUITE_P(AllSetups, SetupSweep,
                         ::testing::Values("H1", "H2", "H3", "H4", "H5", "M1",
                                           "M2", "M3", "M4", "M5"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

TEST(PathEnumeration, LongPathsExistForM4M5) {
  auto setup = SetupByName("M4");
  ASSERT_TRUE(setup.ok());
  auto complete = BuildCompleteDatabase("movies", 310, 0.08);
  ASSERT_TRUE(complete.ok());
  auto incomplete = ApplySetup(*complete, *setup, 0.5, 0.5, 311);
  ASSERT_TRUE(incomplete.ok());
  SchemaAnnotation annotation = AnnotationFor(*setup);
  auto paths =
      EnumerateCompletionPaths(*incomplete, annotation, "director", 5);
  ASSERT_FALSE(paths.empty());
  // With movie also incomplete, every root must be actor or company and the
  // paths span 5 tables (the paper's "at least five tables" observation).
  for (const auto& path : paths) {
    EXPECT_TRUE(annotation.IsComplete(path.front())) << path.front();
    EXPECT_EQ(path.back(), "director");
    EXPECT_GE(path.size(), 5u);
  }
}

TEST(PathEnumeration, ShortPathsForHousing) {
  auto setup = SetupByName("H1");
  ASSERT_TRUE(setup.ok());
  auto complete = BuildCompleteDatabase("housing", 320, 0.1);
  ASSERT_TRUE(complete.ok());
  auto incomplete = ApplySetup(*complete, *setup, 0.5, 0.5, 321);
  ASSERT_TRUE(incomplete.ok());
  auto paths = EnumerateCompletionPaths(*incomplete, AnnotationFor(*setup),
                                        "apartment", 5);
  // Both neighborhood->apartment and landlord->apartment must be offered.
  ASSERT_GE(paths.size(), 2u);
  EXPECT_EQ(paths[0].size(), 2u);
}

}  // namespace
}  // namespace restore
