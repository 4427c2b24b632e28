// Tests for the per-snapshot index of the incompleteness join: the key
// index (the hash join's build side) and a presized FlatKeyMap against
// brute-force scans, the probe's output order, the n:1 orphan fan-in, the
// cached Euclidean replacer against a fresh build, and the lazily-filled
// slots of SnapshotIndex.

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "exec/join.h"
#include "restore/nn_replace.h"
#include "restore/snapshot_index.h"
#include "storage/database.h"

namespace restore {
namespace {

Column IntColumn(const std::vector<int64_t>& cells) {
  Column col("k", ColumnType::kInt64);
  for (int64_t v : cells) col.AppendInt64(v);
  return col;
}

/// Rows of `col` holding `key`, ascending, by a plain scan.
std::vector<size_t> ScanRows(const Column& col, int64_t key) {
  std::vector<size_t> rows;
  if (key == kNullInt64) return rows;
  for (size_t r = 0; r < col.size(); ++r) {
    if (col.GetInt64(r) == key) rows.push_back(r);
  }
  return rows;
}

/// Checks `index` against a brute-force scan of `col` for every key in
/// `probes`, plus its non-NULL and distinct counts.
void ExpectMatchesScan(const KeyIndex& index, const Column& col,
                       const std::vector<int64_t>& probes) {
  for (int64_t key : probes) {
    const std::vector<size_t> expected = ScanRows(col, key);
    const KeyIndex::Rows found = index.Find(key);
    EXPECT_EQ(std::vector<size_t>(found.begin(), found.end()), expected)
        << "key " << key;
    EXPECT_EQ(index.Count(key), expected.size()) << "key " << key;
    EXPECT_EQ(index.Contains(key), !expected.empty()) << "key " << key;
  }
  size_t non_null = 0;
  std::vector<int64_t> distinct;
  for (size_t r = 0; r < col.size(); ++r) {
    const int64_t key = col.GetInt64(r);
    if (key == kNullInt64) continue;
    ++non_null;
    if (std::find(distinct.begin(), distinct.end(), key) == distinct.end()) {
      distinct.push_back(key);
    }
  }
  EXPECT_EQ(index.non_null_rows(), non_null);
  EXPECT_EQ(index.distinct_keys(), distinct.size());
}

TEST(KeyIndexTest, MatchesBruteForceScanWithNullRepeatedAndAbsentKeys) {
  const Column col =
      IntColumn({5, kNullInt64, 3, 5, 9, 3, 5, kNullInt64, -2, 9, 0});
  auto index = KeyIndex::Build(col);
  ASSERT_TRUE(index.ok()) << index.status();
  ExpectMatchesScan(*index, col, {5, 3, 9, -2, 0, 4, 100, -1, kNullInt64});
  EXPECT_EQ(index->non_null_rows(), 9u);
  EXPECT_EQ(index->distinct_keys(), 5u);
}

TEST(KeyIndexTest, MatchesBruteForceScanOnLargeSeededColumn) {
  // Enough distinct keys to grow the hash table several times.
  Rng rng(11);
  std::vector<int64_t> cells(6000);
  for (int64_t& v : cells) {
    v = rng.NextUint64(10) == 0
            ? kNullInt64
            : static_cast<int64_t>(rng.NextUint64(3000)) - 500;
  }
  const Column col = IntColumn(cells);
  auto index = KeyIndex::Build(col);
  ASSERT_TRUE(index.ok()) << index.status();
  std::vector<int64_t> probes{kNullInt64, -501, 2500, 2501, 1 << 30};
  for (int64_t k = -500; k < 2500; k += 7) probes.push_back(k);
  ExpectMatchesScan(*index, col, probes);
}

TEST(KeyIndexTest, IndexesCategoricalCodesAndRejectsDoubles) {
  Column cats("c", ColumnType::kCategorical);
  for (const char* v : {"x", "y", "x", "z", "x"}) cats.AppendCategorical(v);
  cats.AppendNull();
  auto index = KeyIndex::Build(cats);
  ASSERT_TRUE(index.ok()) << index.status();
  ExpectMatchesScan(*index, cats, {0, 1, 2, 3, kNullInt64});

  Column doubles("d", ColumnType::kDouble);
  doubles.AppendDouble(1.0);
  EXPECT_TRUE(KeyIndex::Build(doubles).status().IsInvalidArgument());
}

TEST(FlatKeyMapTest, PresizedMapGrowsPastItsCapacityAndKeepsEveryKey) {
  // Sized for 40 keys, then filled with ~2000 distinct ones (negative,
  // repeated and spread keys included): every key must keep its first
  // value, and absent keys must stay absent.
  Rng rng(17);
  FlatKeyMap map(40);
  const size_t initial_bytes = map.MemoryBytes();
  std::vector<std::pair<int64_t, size_t>> inserted;
  for (size_t i = 0; i < 3000; ++i) {
    const int64_t key = static_cast<int64_t>(rng.NextUint64(4000)) - 2000 +
                        (i % 3 == 0 ? int64_t{1} << 40 : 0);
    const auto [value, fresh] = map.Emplace(key, i);
    // Brute force: the first insertion of `key`, if any.
    auto first = std::find_if(inserted.begin(), inserted.end(),
                              [key](const auto& kv) { return kv.first == key; });
    EXPECT_EQ(fresh, first == inserted.end()) << "key " << key;
    EXPECT_EQ(value, fresh ? i : first->second) << "key " << key;
    if (fresh) inserted.emplace_back(key, i);
  }
  EXPECT_GT(map.MemoryBytes(), initial_bytes);
  EXPECT_EQ(map.size(), inserted.size());
  for (const auto& [key, value] : inserted) {
    const size_t* found = map.Find(key);
    ASSERT_NE(found, nullptr) << "key " << key;
    EXPECT_EQ(*found, value) << "key " << key;
  }
  for (int64_t key : {int64_t{-2001}, int64_t{2000}, int64_t{1} << 50,
                      kNullInt64}) {
    EXPECT_EQ(map.Find(key), nullptr) << "key " << key;
  }
  // A map sized for n keys holds them without growing.
  FlatKeyMap sized(inserted.size());
  const size_t sized_bytes = sized.MemoryBytes();
  for (const auto& [key, value] : inserted) sized.Emplace(key, value);
  EXPECT_EQ(sized.MemoryBytes(), sized_bytes);
  for (const auto& [key, value] : inserted) {
    ASSERT_NE(sized.Find(key), nullptr);
    EXPECT_EQ(*sized.Find(key), value);
  }
}

TEST(KeyIndexTest, ProbeOrderEqualsNestedLoopJoinOrder) {
  const Column right = IntColumn({7, 2, kNullInt64, 7, 4, 2, 7});
  const Column left = IntColumn({2, 8, 7, kNullInt64, 2, 4, 7});
  auto index = KeyIndex::Build(right);
  ASSERT_TRUE(index.ok());
  auto rows = ProbeJoin(left, *index);
  ASSERT_TRUE(rows.ok()) << rows.status();
  JoinRows expected;
  for (size_t l = 0; l < left.size(); ++l) {
    for (size_t r = 0; r < right.size(); ++r) {
      if (left.GetInt64(l) != kNullInt64 &&
          left.GetInt64(l) == right.GetInt64(r)) {
        expected.left.push_back(l);
        expected.right.push_back(r);
      }
    }
  }
  EXPECT_EQ(rows->left, expected.left);
  EXPECT_EQ(rows->right, expected.right);
}

/// Parent `p` (id, x, cat) and child `c` (id, p_id) with NULL, repeated and
/// absent parent keys in c.p_id.
Database MakeParentChild(const std::vector<int64_t>& child_keys) {
  Table parent("p", {{"id", ColumnType::kInt64},
                     {"x", ColumnType::kDouble},
                     {"cat", ColumnType::kCategorical}});
  Rng rng(23);
  const char* cats[] = {"red", "green", "blue"};
  for (int64_t id = 0; id < 300; ++id) {
    EXPECT_TRUE(parent
                    .AppendRow({Value::Int64(id),
                                Value::Double(rng.NextGaussian() * 3.0 + 1.0),
                                Value::Categorical(cats[id % 3])})
                    .ok());
  }
  Table child("c", {{"id", ColumnType::kInt64}, {"p_id", ColumnType::kInt64}});
  for (size_t i = 0; i < child_keys.size(); ++i) {
    const Value key = child_keys[i] == kNullInt64
                          ? Value::Null()
                          : Value::Int64(child_keys[i]);
    EXPECT_TRUE(
        child.AppendRow({Value::Int64(static_cast<int64_t>(i)), key}).ok());
  }
  Database db;
  EXPECT_TRUE(db.AddTable(std::move(parent)).ok());
  EXPECT_TRUE(db.AddTable(std::move(child)).ok());
  EXPECT_TRUE(db.AddForeignKey("c", "p_id", "p", "id").ok());
  return db;
}

/// The orphan fan-in the n:1 hop used to compute with a per-call scan.
size_t ScanFanIn(const std::vector<int64_t>& keys) {
  std::vector<int64_t> distinct;
  size_t with_key = 0;
  for (int64_t key : keys) {
    if (key == kNullInt64) continue;
    ++with_key;
    if (std::find(distinct.begin(), distinct.end(), key) == distinct.end()) {
      distinct.push_back(key);
    }
  }
  if (distinct.empty()) return 1;
  return std::max<size_t>(
      1, static_cast<size_t>(std::llround(static_cast<double>(with_key) /
                                          static_cast<double>(distinct.size()))));
}

TEST(SnapshotIndexTest, FanInMatchesRoundedMeanChildrenPerKey) {
  const std::vector<std::vector<int64_t>> cases = {
      {1, 1, 1, 2, kNullInt64, 2, 999, 3},       // 7 keyed / 4 distinct
      {4, 4, 4, 4, 4, 5, kNullInt64, kNullInt64},  // 6 / 2
      {7, 8, 9},                                   // 1 per key
      {kNullInt64, kNullInt64},                    // no keys at all
      {},                                          // no rows
  };
  for (const auto& keys : cases) {
    const Database db = MakeParentChild(keys);
    const SnapshotIndex index(db);
    auto child_keys = index.Keys("c", "p_id");
    ASSERT_TRUE(child_keys.ok()) << child_keys.status();
    EXPECT_EQ((*child_keys)->RowsPerKey(), ScanFanIn(keys));
    ExpectMatchesScan(**child_keys,
                      *db.GetTable("c").value()->GetColumn("p_id").value(),
                      {1, 2, 3, 4, 5, 999, 0, kNullInt64});
  }
}

/// A synthesized batch shaped like `p`'s (x, cat) attributes, with NULLs.
std::vector<Column> SynthesizedBatch(const Table& base, uint64_t seed,
                                     size_t rows) {
  Rng rng(seed);
  Column x = base.GetColumn("x").value()->CloneEmpty();
  Column cat = base.GetColumn("cat").value()->CloneEmpty();
  for (size_t r = 0; r < rows; ++r) {
    if (rng.NextUint64(9) == 0) {
      x.AppendNull();
    } else {
      x.AppendDouble(rng.NextGaussian() * 4.0);
    }
    if (rng.NextUint64(11) == 0) {
      cat.AppendNull();
    } else {
      cat.AppendCode(static_cast<int64_t>(rng.NextUint64(3)));
    }
  }
  return {std::move(x), std::move(cat)};
}

TEST(SnapshotIndexTest, CachedReplacerMatchesFreshBuild) {
  const Database db = MakeParentChild({0, 1, 2});
  const Table& base = *db.GetTable("p").value();
  const std::vector<std::string> attrs{"x", "cat"};
  const SnapshotIndex index(db);
  for (uint64_t seed : {101u, 202u, 303u}) {
    const std::vector<Column> batch = SynthesizedBatch(base, seed, 97);
    auto cached = index.Replacer("p", attrs);
    ASSERT_TRUE(cached.ok()) << cached.status();
    auto fresh = EuclideanReplacer::Build(base, attrs);
    ASSERT_TRUE(fresh.ok()) << fresh.status();
    auto from_cache = (*cached)->FindReplacements(batch);
    auto from_fresh = fresh->FindReplacements(batch);
    ASSERT_TRUE(from_cache.ok() && from_fresh.ok());
    EXPECT_EQ(*from_cache, *from_fresh) << "batch seed " << seed;
  }
}

TEST(SnapshotIndexTest, RepeatedLookupsReturnTheSameObject) {
  const Database db = MakeParentChild({0, 0, 1, kNullInt64});
  const SnapshotIndex index(db);
  EXPECT_EQ(index.MemoryBytes(), 0u);

  auto keys = index.Keys("c", "p_id");
  auto keys_again = index.Keys("c", "p_id");
  auto parent_keys = index.Keys("p", "id");
  ASSERT_TRUE(keys.ok() && keys_again.ok() && parent_keys.ok());
  EXPECT_EQ(*keys, *keys_again);
  EXPECT_NE(*keys, *parent_keys);

  auto rep = index.Replacer("p", {"x", "cat"});
  auto rep_again = index.Replacer("p", {"x", "cat"});
  auto rep_other = index.Replacer("p", {"x"});
  ASSERT_TRUE(rep.ok() && rep_again.ok() && rep_other.ok());
  EXPECT_EQ(*rep, *rep_again);
  EXPECT_NE(*rep, *rep_other);
  EXPECT_GT(index.MemoryBytes(), 0u);
}

TEST(SnapshotIndexTest, UnknownSlotsAndFailedBuildsReportErrors) {
  const Database db = MakeParentChild({});
  const SnapshotIndex index(db);
  // Only FK endpoints have key slots.
  EXPECT_TRUE(index.Keys("p", "x").status().IsNotFound());
  EXPECT_TRUE(index.Keys("nope", "id").status().IsNotFound());
  EXPECT_TRUE(index.Replacer("nope", {"x"}).status().IsNotFound());
  // A failed build is cached: the empty child table fails every time.
  EXPECT_FALSE(index.Replacer("c", {"id"}).ok());
  EXPECT_FALSE(index.Replacer("c", {"id"}).ok());
  // A missing attribute fails its own slot only.
  EXPECT_FALSE(index.Replacer("p", {"no_such_column"}).ok());
  EXPECT_TRUE(index.Replacer("p", {"x"}).ok());
}

TEST(SnapshotIndexTest, SharedSnapshotLivesAsLongAsItsIndex) {
  auto db = std::make_shared<const Database>(MakeParentChild({3, 3, 4}));
  auto index = std::make_shared<const SnapshotIndex>(db);
  db.reset();  // the index now holds the only reference
  auto keys = index->Keys("c", "p_id");
  ASSERT_TRUE(keys.ok()) << keys.status();
  EXPECT_EQ((*keys)->Count(3), 2u);
  EXPECT_EQ(index->database().GetTable("c").value()->NumRows(), 3u);
}

}  // namespace
}  // namespace restore
