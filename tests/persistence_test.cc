// Model-persistence tests: a Db saved with SaveModels and reopened from
// model_dir in a fresh Db must answer queries bit-identically with ZERO
// training, and corrupted/truncated model files must be rejected at open.

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "common/serialize.h"
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
  data_config.num_parents = 250;
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

SchemaAnnotation Annotation() {
  SchemaAnnotation annotation;
  annotation.MarkIncomplete("table_b");
  return annotation;
}

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
  const std::string dir = testing::TempDir() + "/restore_" + name;
  RemoveTree(dir);  // stale generations from a previous run
  return dir;
}

void ExpectSameResults(const ResultSet& a, const ResultSet& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_value_columns(), b.num_value_columns());
  for (size_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.num_key_columns(); ++c) {
      EXPECT_EQ(a.key(r, c), b.key(r, c));
    }
    for (size_t c = 0; c < a.num_value_columns(); ++c) {
      // Bit-identical, not approximately equal.
      EXPECT_EQ(a.value(r, c), b.value(r, c));
    }
  }
}

TEST(PersistenceTest, ReopenedDbAnswersBitIdenticallyWithoutTraining) {
  Database incomplete = MakeIncompleteSynthetic(301);
  const std::string sql1 =
      "SELECT COUNT(*) FROM table_a NATURAL JOIN table_b GROUP BY b;";
  const std::string sql2 = "SELECT COUNT(*) FROM table_b GROUP BY b;";

  auto db = Db::Open(&incomplete, Annotation(), DbOptions().WithEngine(FastConfig()));
  ASSERT_TRUE(db.ok()) << db.status();
  auto r1 = (*db)->ExecuteCompletedSql(sql1);
  auto r2 = (*db)->ExecuteCompletedSql(sql2);
  ASSERT_TRUE(r1.ok()) << r1.status();
  ASSERT_TRUE(r2.ok()) << r2.status();
  EXPECT_GT((*db)->models_trained(), 0u);
  EXPECT_GT((*db)->total_train_seconds(), 0.0);

  const std::string dir = FreshDir("roundtrip");
  ASSERT_TRUE((*db)->SaveModels(dir).ok());

  // Reopen from disk (standing in for a fresh process: nothing but the
  // original incomplete database and the model directory is reused).
  DbOptions options;
  options.engine = FastConfig();
  options.model_dir = dir;
  auto reopened = Db::Open(&incomplete, Annotation(), options);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_GT((*reopened)->models_loaded(), 0u);

  auto q1 = (*reopened)->ExecuteCompletedSql(sql1);
  auto q2 = (*reopened)->ExecuteCompletedSql(sql2);
  ASSERT_TRUE(q1.ok()) << q1.status();
  ASSERT_TRUE(q2.ok()) << q2.status();

  // Zero training on the reopened Db: every needed model came from disk.
  EXPECT_EQ((*reopened)->models_trained(), 0u);
  EXPECT_EQ((*reopened)->total_train_seconds(), 0.0);

  ExpectSameResults(*r1, *q1);
  ExpectSameResults(*r2, *q2);

  // The completed table itself must round-trip cell-for-cell.
  auto t1 = (*db)->CompleteTable("table_b");
  auto t2 = (*reopened)->CompleteTable("table_b");
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());
  ASSERT_EQ(t1->NumRows(), t2->NumRows());
  ASSERT_EQ(t1->NumColumns(), t2->NumColumns());
  for (size_t c = 0; c < t1->NumColumns(); ++c) {
    const Column& a = t1->column(c);
    const Column& b = t2->column(c);
    ASSERT_EQ(a.name(), b.name());
    for (size_t r = 0; r < t1->NumRows(); ++r) {
      if (a.IsNull(r)) {
        EXPECT_TRUE(b.IsNull(r));
      } else if (a.type() == ColumnType::kDouble) {
        EXPECT_EQ(a.GetDouble(r), b.GetDouble(r)) << a.name() << " row " << r;
      } else {
        EXPECT_EQ(a.GetInt64(r), b.GetInt64(r)) << a.name() << " row " << r;
      }
    }
  }
}

TEST(PersistenceTest, SsarModelWithConfidenceRecordingRoundTrips) {
  Database incomplete = MakeIncompleteSynthetic(303);
  EngineConfig config = FastConfig();
  config.model.use_ssar = true;

  auto db = Db::Open(&incomplete, Annotation(), DbOptions().WithEngine(config));
  ASSERT_TRUE(db.ok()) << db.status();
  const std::vector<std::string> path{"table_a", "table_b"};
  auto model = (*db)->ModelForPath(path);
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_TRUE((*model)->is_ssar());

  CompletionOptions record;
  record.record_table = "table_b";
  record.record_column = "b";
  auto completion = (*db)->CompleteViaPath(path, record);
  ASSERT_TRUE(completion.ok()) << completion.status();

  const std::string dir = FreshDir("ssar");
  ASSERT_TRUE((*db)->SaveModels(dir).ok());

  DbOptions options;
  options.engine = config;
  options.model_dir = dir;
  auto reopened = Db::Open(&incomplete, Annotation(), options);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  auto reloaded = (*reopened)->ModelForPath(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();
  EXPECT_TRUE((*reloaded)->is_ssar());
  EXPECT_EQ((*reopened)->models_trained(), 0u);

  auto completion2 = (*reopened)->CompleteViaPath(path, record);
  ASSERT_TRUE(completion2.ok()) << completion2.status();

  // Confidence machinery inputs must be bit-identical: the recorded
  // predictive distributions of every synthesized tuple...
  ASSERT_EQ(completion->recorded_probs.size(),
            completion2->recorded_probs.size());
  for (size_t i = 0; i < completion->recorded_probs.size(); ++i) {
    ASSERT_EQ(completion->recorded_probs[i], completion2->recorded_probs[i])
        << "recorded distribution " << i;
  }
  // ...and the training marginal (the P_incomplete of Section 6).
  const int attr = (*model)->FindAttr("table_b", "b");
  ASSERT_GE(attr, 0);
  EXPECT_EQ((*model)->TrainMarginal(static_cast<size_t>(attr)),
            (*reloaded)->TrainMarginal(static_cast<size_t>(attr)));
  EXPECT_EQ((*model)->test_loss(), (*reloaded)->test_loss());
  EXPECT_EQ((*model)->target_test_loss(), (*reloaded)->target_test_loss());
  EXPECT_EQ((*model)->num_parameters(), (*reloaded)->num_parameters());
}

TEST(PersistenceTest, MismatchedEngineConfigIsRejectedAtOpen) {
  Database incomplete = MakeIncompleteSynthetic(311);
  auto db = Db::Open(&incomplete, Annotation(), DbOptions().WithEngine(FastConfig()));
  ASSERT_TRUE(db.ok()) << db.status();
  ASSERT_TRUE((*db)
                  ->ExecuteCompletedSql(
                      "SELECT COUNT(*) FROM table_b GROUP BY b;")
                  .ok());
  const std::string dir = FreshDir("fingerprint");
  ASSERT_TRUE((*db)->SaveModels(dir).ok());

  // Opening under a DIFFERENT model architecture must fail with the
  // config-fingerprint error — a clear Status at open, not a shape-check
  // surprise on the first query.
  DbOptions options;
  options.engine = FastConfig();
  options.engine.model.hidden_dim += 8;
  options.model_dir = dir;
  auto mismatched = Db::Open(&incomplete, Annotation(), options);
  ASSERT_FALSE(mismatched.ok());
  EXPECT_NE(mismatched.status().message().find("engine configuration"),
            std::string::npos)
      << mismatched.status();

  // Training-schedule changes alter the trained parameters just as much as
  // architecture changes; they are fingerprinted too.
  options.engine = FastConfig();
  options.engine.model.epochs += 1;
  auto schedule_mismatch = Db::Open(&incomplete, Annotation(), options);
  ASSERT_FALSE(schedule_mismatch.ok());
  EXPECT_NE(schedule_mismatch.status().message().find("engine configuration"),
            std::string::npos);

  // Fields that do not change what a trained model is (cache budget,
  // selection-independent knobs) must NOT invalidate saved models.
  options.engine = FastConfig();
  options.engine.cache_budget_bytes = 9999999;
  auto compatible = Db::Open(&incomplete, Annotation(), options);
  ASSERT_TRUE(compatible.ok()) << compatible.status();
  EXPECT_GT((*compatible)->models_loaded(), 0u);

  // The fingerprint itself: stable under copies, sensitive to every model
  // hyperparameter.
  EngineConfig base = FastConfig();
  EXPECT_EQ(EngineConfigFingerprint(base), EngineConfigFingerprint(base));
  EngineConfig other = base;
  other.model.embed_dim += 1;
  EXPECT_NE(EngineConfigFingerprint(base), EngineConfigFingerprint(other));
  other = base;
  other.seed += 1;
  EXPECT_NE(EngineConfigFingerprint(base), EngineConfigFingerprint(other));
  // The manifest persists per-target path selections — the selection
  // strategy's output — so the strategy is part of the fingerprint too.
  other = base;
  other.selection = SelectionStrategy::kFirst;
  EXPECT_NE(EngineConfigFingerprint(base), EngineConfigFingerprint(other));
  other = base;
  other.cache_budget_bytes += 1;
  EXPECT_EQ(EngineConfigFingerprint(base), EngineConfigFingerprint(other));
}

// Saved manifests carry the fingerprint, and PathModel::Save writes the
// model hyperparameters through the same writer it hashes. A round trip in
// one binary cannot see a writer that reorders, drops or retypes a field;
// these pinned values do, before it strands every saved model directory.
TEST(PersistenceTest, EngineConfigFingerprintIsPinned) {
  EXPECT_EQ(EngineConfigFingerprint(EngineConfig()), 0x5aaf5cdeced2da5eull);
  // perfbench's and serve_housing's engine.
  EngineConfig served;
  served.model.epochs = 6;
  served.model.hidden_dim = 24;
  served.model.embed_dim = 4;
  served.model.max_bins = 12;
  served.model.min_train_steps = 150;
  served.max_candidates = 2;
  EXPECT_EQ(EngineConfigFingerprint(served), 0x985e9ca01dbdebe7ull);
  EngineConfig ssar;
  ssar.model.use_ssar = true;
  EXPECT_EQ(EngineConfigFingerprint(ssar), 0x99ecc4185842d449ull);
}

TEST(PersistenceTest, CorruptedModelFileIsRejected) {
  Database incomplete = MakeIncompleteSynthetic(305);
  auto db = Db::Open(&incomplete, Annotation(), DbOptions().WithEngine(FastConfig()));
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->ExecuteCompletedSql(
                      "SELECT COUNT(*) FROM table_b GROUP BY b;")
                  .ok());
  const std::string dir = FreshDir("corrupt");
  ASSERT_TRUE((*db)->SaveModels(dir).ok());

  // Flip one byte in the middle of a model file's payload (models live in
  // the committed generation directory).
  auto gen_dir = CurrentModelGenerationDir(dir);
  ASSERT_TRUE(gen_dir.ok()) << gen_dir.status();
  auto manifest = ReadChecksummedFile(*gen_dir + "/restore_models.manifest",
                                      kManifestMagic, kManifestVersion);
  ASSERT_TRUE(manifest.ok());
  BinaryReader r(std::move(manifest).value());
  r.U64();  // engine-config fingerprint
  const uint64_t num_models = r.U64();
  ASSERT_GT(num_models, 0u);
  const std::string key = r.Str();
  const std::string filename = r.Str();
  (void)key;
  const std::string model_path = *gen_dir + "/" + filename;
  std::string contents;
  {
    std::ifstream in(model_path, std::ios::binary);
    contents.assign((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  }
  ASSERT_GT(contents.size(), 64u);
  contents[contents.size() / 2] ^= 0x5a;
  {
    std::ofstream out(model_path, std::ios::binary | std::ios::trunc);
    out << contents;
  }

  DbOptions options;
  options.engine = FastConfig();
  options.model_dir = dir;
  auto reopened = Db::Open(&incomplete, Annotation(), options);
  ASSERT_FALSE(reopened.ok());
  EXPECT_NE(reopened.status().message().find("checksum"), std::string::npos)
      << reopened.status();
}

TEST(PersistenceTest, TruncatedModelFileIsRejected) {
  Database incomplete = MakeIncompleteSynthetic(307);
  auto db = Db::Open(&incomplete, Annotation(), DbOptions().WithEngine(FastConfig()));
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->ModelForPath({"table_a", "table_b"}).ok());
  const std::string dir = FreshDir("truncate");
  ASSERT_TRUE((*db)->SaveModels(dir).ok());

  auto gen_dir = CurrentModelGenerationDir(dir);
  ASSERT_TRUE(gen_dir.ok()) << gen_dir.status();
  auto manifest = ReadChecksummedFile(*gen_dir + "/restore_models.manifest",
                                      kManifestMagic, kManifestVersion);
  ASSERT_TRUE(manifest.ok());
  BinaryReader r(std::move(manifest).value());
  r.U64();  // engine-config fingerprint
  ASSERT_GT(r.U64(), 0u);
  r.Str();  // path key
  const std::string model_path = *gen_dir + "/" + r.Str();
  std::string contents;
  {
    std::ifstream in(model_path, std::ios::binary);
    contents.assign((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  }
  {
    std::ofstream out(model_path, std::ios::binary | std::ios::trunc);
    out << contents.substr(0, contents.size() / 2);
  }

  DbOptions options;
  options.engine = FastConfig();
  options.model_dir = dir;
  auto reopened = Db::Open(&incomplete, Annotation(), options);
  ASSERT_FALSE(reopened.ok());
  EXPECT_NE(reopened.status().message().find("truncated"), std::string::npos)
      << reopened.status();
}

TEST(PersistenceTest, PreV4ManifestIsRejected) {
  // Only manifest v4 loads. A saved manifest re-framed at version 3, its
  // payload unchanged, must fail the open with FailedPrecondition naming
  // both versions — never load with drift silently missing.
  Database incomplete = MakeIncompleteSynthetic(311);
  auto db = Db::Open(&incomplete, Annotation(),
                     DbOptions().WithEngine(FastConfig()));
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->ExecuteCompletedSql(
                      "SELECT COUNT(*) FROM table_b GROUP BY b;")
                  .ok());
  const std::string dir = FreshDir("v3_manifest");
  ASSERT_TRUE((*db)->SaveModels(dir).ok());

  auto gen_dir = CurrentModelGenerationDir(dir);
  ASSERT_TRUE(gen_dir.ok()) << gen_dir.status();
  const std::string manifest_path = *gen_dir + "/restore_models.manifest";
  uint32_t version = 0;
  auto payload = ReadChecksummedFile(manifest_path, kManifestMagic,
                                     kManifestVersion, &version);
  ASSERT_TRUE(payload.ok()) << payload.status();
  ASSERT_EQ(version, kManifestVersion);
  ASSERT_TRUE(WriteChecksummedFileAtomic(manifest_path, kManifestMagic,
                                         kManifestVersion - 1, *payload)
                  .ok());

  const DbOptions options =
      DbOptions().WithEngine(FastConfig()).WithModelDir(dir);
  auto reopened = Db::Open(&incomplete, Annotation(), options);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kFailedPrecondition)
      << reopened.status();
  const std::string& message = reopened.status().message();
  EXPECT_NE(message.find("version 3"), std::string::npos) << message;
  EXPECT_NE(message.find("version 4"), std::string::npos) << message;

  // The flat layout from before generations — manifest and model files at
  // the top of the model directory, no gen-* — is not found, whatever the
  // manifest's version.
  ASSERT_TRUE(WriteChecksummedFileAtomic(manifest_path, kManifestMagic,
                                         kManifestVersion, *payload)
                  .ok());
  const std::string flat = FreshDir("flat_layout");
  ASSERT_EQ(std::rename(gen_dir->c_str(), flat.c_str()), 0);
  auto from_flat = Db::Open(&incomplete, Annotation(),
                            DbOptions().WithEngine(FastConfig()).WithModelDir(
                                flat));
  ASSERT_FALSE(from_flat.ok());
  EXPECT_TRUE(from_flat.status().IsNotFound()) << from_flat.status();
}

TEST(PersistenceTest, MissingManifestIsRejected) {
  Database incomplete = MakeIncompleteSynthetic(309);
  DbOptions options;
  options.engine = FastConfig();
  options.model_dir = testing::TempDir() + "/restore_no_such_dir";
  auto db = Db::Open(&incomplete, Annotation(), options);
  ASSERT_FALSE(db.ok());
  EXPECT_TRUE(db.status().IsNotFound()) << db.status();
}

}  // namespace
}  // namespace restore
