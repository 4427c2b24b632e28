// Tests for the storage layer: columns, dictionaries, tables, databases.

#include <gtest/gtest.h>

#include "storage/column.h"
#include "storage/database.h"
#include "storage/table.h"
#include "storage/value.h"

namespace restore {
namespace {

TEST(DictionaryTest, RoundTrip) {
  Dictionary dict;
  EXPECT_EQ(dict.GetOrInsert("x"), 0);
  EXPECT_EQ(dict.GetOrInsert("y"), 1);
  EXPECT_EQ(dict.GetOrInsert("x"), 0);
  EXPECT_EQ(dict.ValueOf(1), "y");
  EXPECT_TRUE(dict.Lookup("y").ok());
  EXPECT_FALSE(dict.Lookup("z").ok());
}

TEST(ColumnTest, NullHandlingPerType) {
  Column ints("i", ColumnType::kInt64);
  ints.AppendInt64(5);
  ints.AppendNull();
  EXPECT_FALSE(ints.IsNull(0));
  EXPECT_TRUE(ints.IsNull(1));

  Column doubles("d", ColumnType::kDouble);
  doubles.AppendDouble(1.5);
  doubles.AppendNull();
  EXPECT_FALSE(doubles.IsNull(0));
  EXPECT_TRUE(doubles.IsNull(1));

  Column cats("c", ColumnType::kCategorical);
  cats.AppendCategorical("a");
  cats.AppendNull();
  EXPECT_FALSE(cats.IsNull(0));
  EXPECT_TRUE(cats.IsNull(1));
}

TEST(ColumnTest, GatherPreservesDictionary) {
  Column cats("c", ColumnType::kCategorical);
  cats.AppendCategorical("a");
  cats.AppendCategorical("b");
  cats.AppendCategorical("a");
  Column sub = cats.Gather({2, 1});
  EXPECT_EQ(sub.size(), 2u);
  EXPECT_EQ(sub.dictionary().get(), cats.dictionary().get());
  EXPECT_EQ(sub.dictionary()->ValueOf(sub.GetCode(0)), "a");
  EXPECT_EQ(sub.dictionary()->ValueOf(sub.GetCode(1)), "b");
}

TEST(ColumnTest, AppendGatherAppendsAfterExistingCells) {
  Column src("d", ColumnType::kDouble);
  src.AppendDouble(1.5);
  src.AppendNull();
  src.AppendDouble(3.5);
  Column out = src.Gather({2});
  out.AppendGather(src, {1, 0, 0});
  ASSERT_EQ(out.size(), 4u);
  EXPECT_DOUBLE_EQ(out.GetDouble(0), 3.5);
  EXPECT_TRUE(out.IsNull(1));
  EXPECT_DOUBLE_EQ(out.GetDouble(2), 1.5);
  EXPECT_DOUBLE_EQ(out.GetDouble(3), 1.5);

  Column ints("i", ColumnType::kInt64);
  ints.AppendInt64(7);
  ints.AppendNull();
  Column more = ints.CloneEmpty();
  more.AppendGather(ints, {1, 0});
  ASSERT_EQ(more.size(), 2u);
  EXPECT_TRUE(more.IsNull(0));
  EXPECT_EQ(more.GetInt64(1), 7);
}

TEST(ColumnTest, AppendValueTypeChecks) {
  Column ints("i", ColumnType::kInt64);
  EXPECT_TRUE(ints.AppendValue(Value::Int64(1)).ok());
  EXPECT_FALSE(ints.AppendValue(Value::Categorical("x")).ok());
  Column doubles("d", ColumnType::kDouble);
  // int64 silently widens to double.
  EXPECT_TRUE(doubles.AppendValue(Value::Int64(2)).ok());
  EXPECT_DOUBLE_EQ(doubles.GetDouble(0), 2.0);
}

Table MakePeople() {
  Table t("people", {{"id", ColumnType::kInt64},
                     {"age", ColumnType::kInt64},
                     {"city", ColumnType::kCategorical}});
  EXPECT_TRUE(
      t.AppendRow({Value::Int64(0), Value::Int64(30), Value::Categorical("ny")})
          .ok());
  EXPECT_TRUE(
      t.AppendRow({Value::Int64(1), Value::Int64(40), Value::Categorical("la")})
          .ok());
  EXPECT_TRUE(
      t.AppendRow({Value::Int64(2), Value::Int64(50), Value::Categorical("ny")})
          .ok());
  return t;
}

TEST(TableTest, AppendRowAndAccessors) {
  Table t = MakePeople();
  EXPECT_EQ(t.NumRows(), 3u);
  EXPECT_EQ(t.NumColumns(), 3u);
  auto idx = t.ColumnIndex("age");
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(t.column(idx.value()).GetInt64(1), 40);
  EXPECT_FALSE(t.ColumnIndex("missing").ok());
}

TEST(TableTest, RowCountMismatchRejected) {
  Table t = MakePeople();
  EXPECT_FALSE(t.AppendRow({Value::Int64(9)}).ok());
  Column wrong("w", ColumnType::kInt64);
  wrong.AppendInt64(1);
  EXPECT_FALSE(t.AddColumn(std::move(wrong)).ok());
}

TEST(TableTest, GatherAndProject) {
  Table t = MakePeople();
  Table sub = t.GatherRows({2, 0});
  EXPECT_EQ(sub.NumRows(), 2u);
  auto col = sub.GetColumn("age");
  ASSERT_TRUE(col.ok());
  EXPECT_EQ((*col.value()).GetInt64(0), 50);
  auto projected = t.Project({"city", "id"});
  ASSERT_TRUE(projected.ok());
  EXPECT_EQ(projected->NumColumns(), 2u);
  EXPECT_EQ(projected->column(0).name(), "city");
}

TEST(TableTest, QualifyColumnNamesIsIdempotent) {
  Table t = MakePeople();
  t.QualifyColumnNames("people");
  EXPECT_EQ(t.column(0).name(), "people.id");
  t.QualifyColumnNames("again");
  EXPECT_EQ(t.column(0).name(), "people.id");
}

Database MakeTwoTableDb() {
  Database db;
  Table parent("parent",
               {{"id", ColumnType::kInt64}, {"x", ColumnType::kDouble}});
  Table child("child", {{"id", ColumnType::kInt64},
                        {"parent_id", ColumnType::kInt64},
                        {"y", ColumnType::kDouble}});
  EXPECT_TRUE(db.AddTable(std::move(parent)).ok());
  EXPECT_TRUE(db.AddTable(std::move(child)).ok());
  EXPECT_TRUE(db.AddForeignKey("child", "parent_id", "parent", "id").ok());
  return db;
}

TEST(DatabaseTest, ForeignKeyLookupsAndFanOut) {
  Database db = MakeTwoTableDb();
  auto fk = db.FindForeignKey("parent", "child");
  ASSERT_TRUE(fk.ok());
  EXPECT_EQ(fk->child_table, "child");
  auto fanout = db.IsFanOut("parent", "child");
  ASSERT_TRUE(fanout.ok());
  EXPECT_TRUE(fanout.value());
  auto reverse = db.IsFanOut("child", "parent");
  ASSERT_TRUE(reverse.ok());
  EXPECT_FALSE(reverse.value());
}

TEST(DatabaseTest, DuplicateTableRejected) {
  Database db = MakeTwoTableDb();
  EXPECT_FALSE(db.AddTable(Table("parent")).ok());
}

TEST(DatabaseTest, JoinPathViaBfs) {
  Database db;
  for (const char* name : {"a", "b", "c", "d"}) {
    Table t(name, {{"id", ColumnType::kInt64},
                   {"ref", ColumnType::kInt64}});
    ASSERT_TRUE(db.AddTable(std::move(t)).ok());
  }
  ASSERT_TRUE(db.AddForeignKey("b", "ref", "a", "id").ok());
  ASSERT_TRUE(db.AddForeignKey("c", "ref", "b", "id").ok());
  ASSERT_TRUE(db.AddForeignKey("d", "ref", "c", "id").ok());
  auto path = db.FindJoinPath("a", "d");
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(path.value(),
            (std::vector<std::string>{"a", "b", "c", "d"}));
  // Unconnected table.
  Table lonely("z", {{"id", ColumnType::kInt64}});
  ASSERT_TRUE(db.AddTable(std::move(lonely)).ok());
  EXPECT_FALSE(db.FindJoinPath("a", "z").ok());
}

TEST(DatabaseTest, OrderJoinTablesRequiresConnectivity) {
  Database db = MakeTwoTableDb();
  auto ordered = db.OrderJoinTables({"child", "parent"});
  ASSERT_TRUE(ordered.ok());
  EXPECT_EQ(ordered->size(), 2u);
  Table lonely("z", {{"id", ColumnType::kInt64}});
  ASSERT_TRUE(db.AddTable(std::move(lonely)).ok());
  EXPECT_FALSE(db.OrderJoinTables({"parent", "z"}).ok());
}

}  // namespace
}  // namespace restore
