#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/bytes.h"
#include "storage/catalog.h"
#include "storage/schema.h"
#include "storage/table.h"

namespace sstore {
namespace {

Schema TwoColSchema() {
  return Schema({{"id", ValueType::kBigInt}, {"name", ValueType::kString}});
}

Tuple Row(int64_t id, const std::string& name) {
  return {Value::BigInt(id), Value::String(name)};
}

TEST(SchemaTest, ColumnIndexLookup) {
  Schema s = TwoColSchema();
  EXPECT_EQ(*s.ColumnIndex("id"), 0u);
  EXPECT_EQ(*s.ColumnIndex("name"), 1u);
  EXPECT_TRUE(s.ColumnIndex("missing").status().IsNotFound());
}

TEST(SchemaTest, ValidateTupleArity) {
  Schema s = TwoColSchema();
  EXPECT_TRUE(s.ValidateTuple(Row(1, "a")).ok());
  EXPECT_FALSE(s.ValidateTuple({Value::BigInt(1)}).ok());
}

TEST(SchemaTest, ValidateTupleTypes) {
  Schema s = TwoColSchema();
  EXPECT_FALSE(s.ValidateTuple({Value::String("x"), Value::String("a")}).ok());
  // NULLs pass; BIGINT/TIMESTAMP interchange.
  EXPECT_TRUE(s.ValidateTuple({Value::Null(), Value::Null()}).ok());
  EXPECT_TRUE(s.ValidateTuple({Value::Timestamp(1), Value::String("a")}).ok());
}

TEST(SchemaTest, SerializeRoundTrip) {
  Schema s = TwoColSchema();
  ByteWriter w;
  s.SerializeTo(&w);
  ByteReader r(w.data());
  Result<Schema> got = Schema::DeserializeFrom(&r);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->Equals(s));
}

TEST(TableTest, InsertGetDelete) {
  Table t("t", TwoColSchema());
  Result<RowId> rid = t.Insert(Row(1, "a"));
  ASSERT_TRUE(rid.ok());
  EXPECT_EQ(t.row_count(), 1u);
  Result<const Tuple*> got = t.Get(*rid);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ((**got)[1], Value::String("a"));
  Result<Tuple> removed = t.Delete(*rid);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ((*removed)[0], Value::BigInt(1));
  EXPECT_EQ(t.row_count(), 0u);
  EXPECT_TRUE(t.Get(*rid).status().IsNotFound());
}

TEST(TableTest, SlotReuseAfterDelete) {
  Table t("t", TwoColSchema());
  RowId a = *t.Insert(Row(1, "a"));
  ASSERT_TRUE(t.Delete(a).ok());
  RowId b = *t.Insert(Row(2, "b"));
  EXPECT_EQ(a, b);  // free-list reuse
  EXPECT_EQ(t.row_count(), 1u);
}

TEST(TableTest, SchemaRejectionOnInsert) {
  Table t("t", TwoColSchema());
  EXPECT_FALSE(t.Insert({Value::String("bad"), Value::String("a")}).ok());
  EXPECT_EQ(t.row_count(), 0u);
}

TEST(TableTest, UpdateReturnsBeforeImage) {
  Table t("t", TwoColSchema());
  RowId rid = *t.Insert(Row(1, "a"));
  Result<Tuple> before = t.Update(rid, Row(1, "b"));
  ASSERT_TRUE(before.ok());
  EXPECT_EQ((*before)[1], Value::String("a"));
  EXPECT_EQ((**t.Get(rid))[1], Value::String("b"));
}

TEST(TableTest, SequenceMonotone) {
  Table t("t", TwoColSchema());
  RowId a = *t.Insert(Row(1, "a"));
  RowId b = *t.Insert(Row(2, "b"));
  EXPECT_LT(t.GetMeta(a)->seq, t.GetMeta(b)->seq);
}

TEST(TableTest, StagingCounts) {
  Table t("w", TwoColSchema(), TableKind::kWindow);
  RowMeta staged;
  staged.active = false;
  ASSERT_TRUE(t.Insert(Row(1, "a"), staged).ok());
  RowId active = *t.Insert(Row(2, "b"));
  EXPECT_EQ(t.row_count(), 2u);
  EXPECT_EQ(t.active_count(), 1u);
  EXPECT_EQ(t.staged_count(), 1u);
  // Flip staged -> active.
  std::vector<RowId> all = t.RowIdsBySeq(/*include_staged=*/true);
  ASSERT_EQ(all.size(), 2u);
  ASSERT_TRUE(t.SetActive(all[0], true).ok());
  EXPECT_EQ(t.active_count(), 2u);
  (void)active;
}

TEST(TableTest, ForEachSkipsStagedByDefault) {
  Table t("w", TwoColSchema(), TableKind::kWindow);
  RowMeta staged;
  staged.active = false;
  ASSERT_TRUE(t.Insert(Row(1, "a"), staged).ok());
  ASSERT_TRUE(t.Insert(Row(2, "b")).ok());
  int visible = 0, total = 0;
  t.ForEach([&](RowId, const Tuple&, const RowMeta&) {
    ++visible;
    return true;
  });
  t.ForEach(
      [&](RowId, const Tuple&, const RowMeta&) {
        ++total;
        return true;
      },
      /*include_staged=*/true);
  EXPECT_EQ(visible, 1);
  EXPECT_EQ(total, 2);
}

TEST(TableTest, UniqueIndexRejectsDuplicates) {
  Table t("t", TwoColSchema());
  ASSERT_TRUE(t.CreateIndex("pk", {"id"}, /*unique=*/true).ok());
  ASSERT_TRUE(t.Insert(Row(1, "a")).ok());
  Result<RowId> dup = t.Insert(Row(1, "b"));
  EXPECT_TRUE(dup.status().IsConstraintViolation());
  EXPECT_EQ(t.row_count(), 1u);
}

TEST(TableTest, UniqueIndexAllowsReinsertAfterDelete) {
  Table t("t", TwoColSchema());
  ASSERT_TRUE(t.CreateIndex("pk", {"id"}, true).ok());
  RowId rid = *t.Insert(Row(1, "a"));
  ASSERT_TRUE(t.Delete(rid).ok());
  EXPECT_TRUE(t.Insert(Row(1, "b")).ok());
}

TEST(TableTest, NonUniqueIndexLookup) {
  Table t("t", TwoColSchema());
  ASSERT_TRUE(t.CreateIndex("by_name", {"name"}, false).ok());
  ASSERT_TRUE(t.Insert(Row(1, "x")).ok());
  ASSERT_TRUE(t.Insert(Row(2, "x")).ok());
  ASSERT_TRUE(t.Insert(Row(3, "y")).ok());
  Result<std::vector<RowId>> hits =
      t.IndexLookup("by_name", {Value::String("x")});
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 2u);
}

TEST(TableTest, IndexMaintainedOnUpdate) {
  Table t("t", TwoColSchema());
  ASSERT_TRUE(t.CreateIndex("by_name", {"name"}, false).ok());
  RowId rid = *t.Insert(Row(1, "x"));
  ASSERT_TRUE(t.Update(rid, Row(1, "y")).ok());
  EXPECT_TRUE((*t.IndexLookup("by_name", {Value::String("x")})).empty());
  EXPECT_EQ((*t.IndexLookup("by_name", {Value::String("y")})).size(), 1u);
}

TEST(TableTest, UniqueUpdateConflict) {
  Table t("t", TwoColSchema());
  ASSERT_TRUE(t.CreateIndex("pk", {"id"}, true).ok());
  ASSERT_TRUE(t.Insert(Row(1, "a")).ok());
  RowId rid = *t.Insert(Row(2, "b"));
  EXPECT_TRUE(t.Update(rid, Row(1, "b")).status().IsConstraintViolation());
  // Same-key update is fine.
  EXPECT_TRUE(t.Update(rid, Row(2, "c")).ok());
}

TEST(TableTest, NonKeyUpdateKeepsIndexesAndReturnsBeforeImage) {
  Table t("t", Schema({{"id", ValueType::kBigInt},
                       {"name", ValueType::kString},
                       {"n", ValueType::kBigInt}}));
  ASSERT_TRUE(t.CreateIndex("pk", {"id"}, true).ok());
  ASSERT_TRUE(t.CreateIndex("by_name", {"name"}, false).ok());
  ASSERT_TRUE(t.Insert({Value::BigInt(1), Value::String("x"), Value::BigInt(0)})
                  .ok());
  RowId rid = *t.Insert(
      {Value::BigInt(2), Value::String("x"), Value::BigInt(0)});
  uint64_t version = t.version();

  Result<Tuple> before =
      t.Update(rid, {Value::BigInt(2), Value::String("x"), Value::BigInt(5)});
  ASSERT_TRUE(before.ok());
  EXPECT_EQ((*before)[2], Value::BigInt(0));
  EXPECT_GT(t.version(), version);
  EXPECT_EQ((**t.Get(rid))[2], Value::BigInt(5));
  EXPECT_EQ(*t.IndexLookup("pk", {Value::BigInt(2)}), std::vector<RowId>{rid});
  EXPECT_EQ((*t.IndexLookup("by_name", {Value::String("x")})).size(), 2u);
  EXPECT_EQ((*t.GetIndex("pk"))->EntryCount(), 2u);
  EXPECT_EQ((*t.GetIndex("by_name"))->EntryCount(), 2u);
  // An invalid row is still rejected and leaves the row as it was.
  EXPECT_EQ(t.Update(rid, {Value::BigInt(2), Value::BigInt(3),
                           Value::BigInt(6)})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((**t.Get(rid))[2], Value::BigInt(5));
}

TEST(TableTest, KeyChangingUpdateReindexesRow) {
  Table t("t", TwoColSchema());
  ASSERT_TRUE(t.CreateIndex("pk", {"id"}, true).ok());
  ASSERT_TRUE(t.CreateIndex("by_name", {"name"}, false).ok());
  RowId rid = *t.Insert(Row(1, "a"));
  ASSERT_TRUE(t.Update(rid, Row(7, "a")).ok());
  EXPECT_TRUE((*t.IndexLookup("pk", {Value::BigInt(1)})).empty());
  EXPECT_EQ(*t.IndexLookup("pk", {Value::BigInt(7)}), std::vector<RowId>{rid});
  EXPECT_EQ(*t.IndexLookup("by_name", {Value::String("a")}),
            std::vector<RowId>{rid});
  // The old key is free again.
  EXPECT_TRUE(t.Insert(Row(1, "b")).ok());

  // Same value, other int-like type: not a conflict with the row itself,
  // and lookups by either type still find the row.
  ASSERT_TRUE(t.Update(rid, {Value::Timestamp(7), Value::String("a")}).ok());
  EXPECT_EQ(*t.IndexLookup("pk", {Value::Timestamp(7)}),
            std::vector<RowId>{rid});
  EXPECT_EQ(*t.IndexLookup("pk", {Value::BigInt(7)}), std::vector<RowId>{rid});
  EXPECT_EQ((*t.GetIndex("pk"))->EntryCount(), 2u);
}

TEST(TableTest, BackfillIndexOnExistingData) {
  Table t("t", TwoColSchema());
  ASSERT_TRUE(t.Insert(Row(1, "a")).ok());
  ASSERT_TRUE(t.Insert(Row(2, "b")).ok());
  ASSERT_TRUE(t.CreateIndex("pk", {"id"}, true).ok());
  EXPECT_EQ((*t.IndexLookup("pk", {Value::BigInt(2)})).size(), 1u);
}

TEST(TableTest, BackfillUniqueViolationFailsCreation) {
  Table t("t", TwoColSchema());
  ASSERT_TRUE(t.Insert(Row(1, "a")).ok());
  ASSERT_TRUE(t.Insert(Row(1, "b")).ok());
  EXPECT_TRUE(t.CreateIndex("pk", {"id"}, true).IsConstraintViolation());
  EXPECT_TRUE(t.GetIndex("pk").status().IsNotFound());
}

TEST(TableTest, DuplicateIndexNameRejected) {
  Table t("t", TwoColSchema());
  ASSERT_TRUE(t.CreateIndex("i", {"id"}, false).ok());
  EXPECT_EQ(t.CreateIndex("i", {"name"}, false).code(),
            StatusCode::kAlreadyExists);
}

TEST(TableTest, IndexOnUnknownColumnRejected) {
  Table t("t", TwoColSchema());
  EXPECT_TRUE(t.CreateIndex("i", {"nope"}, false).IsNotFound());
}

TEST(TableTest, UndoDeleteRestoresSlotAndIndexes) {
  Table t("t", TwoColSchema());
  ASSERT_TRUE(t.CreateIndex("pk", {"id"}, true).ok());
  RowId rid = *t.Insert(Row(1, "a"));
  RowMeta meta = *t.GetMeta(rid);
  Tuple before = *t.Delete(rid);
  ASSERT_TRUE(t.UndoDeleteAt(rid, before, meta).ok());
  EXPECT_EQ(t.row_count(), 1u);
  EXPECT_EQ((*t.IndexLookup("pk", {Value::BigInt(1)})).size(), 1u);
  EXPECT_EQ(t.GetMeta(rid)->seq, meta.seq);
}

TEST(TableTest, SlotsAcrossSegmentBoundaries) {
  // Slots live in segments of 64, 64, 128, ... rows: RowIds 63/64 and
  // 127/128 straddle the first two boundaries.
  Table t("t", TwoColSchema());
  ASSERT_TRUE(t.CreateIndex("pk", {"id"}, /*unique=*/true).ok());
  const Tuple* first = *t.Get(*t.Insert(Row(0, "zero")));
  std::vector<const Tuple*> rows = {first};
  for (int64_t i = 1; i < 200; ++i) {
    RowMeta meta;
    meta.batch_id = i;
    meta.active = i % 2 == 0;
    Result<RowId> rid = t.Insert(Row(i, "r" + std::to_string(i)), meta);
    ASSERT_TRUE(rid.ok());
    ASSERT_EQ(*rid, static_cast<RowId>(i));
    rows.push_back(*t.Get(*rid));
  }
  // A row pointer taken before 199 more inserts still reads its row.
  EXPECT_EQ((*first)[1], Value::String("zero"));
  for (RowId rid : {63, 64, 65, 127, 128, 129}) {
    Result<const Tuple*> row = t.Get(rid);
    ASSERT_TRUE(row.ok()) << rid;
    EXPECT_EQ(*row, rows[rid]) << rid;
    EXPECT_EQ((**row)[0], Value::BigInt(static_cast<int64_t>(rid)));
    Result<RowMeta> meta = t.GetMeta(rid);
    ASSERT_TRUE(meta.ok()) << rid;
    EXPECT_EQ(meta->batch_id, static_cast<int64_t>(rid));
    EXPECT_EQ(meta->seq, rid + 1);
    EXPECT_EQ(meta->active, rid % 2 == 0);
  }
  std::vector<RowId> visited;
  t.ForEach(
      [&](RowId rid, const Tuple& row, const RowMeta& meta) {
        EXPECT_EQ(row[0], Value::BigInt(static_cast<int64_t>(rid)));
        EXPECT_EQ(meta.batch_id, static_cast<int64_t>(rid));
        visited.push_back(rid);
        return true;
      },
      /*include_staged=*/true);
  ASSERT_EQ(visited.size(), 200u);
  for (size_t i = 0; i < visited.size(); ++i) EXPECT_EQ(visited[i], i);

  // Delete on both sides of the second boundary, then undo one of them.
  RowMeta meta128 = *t.GetMeta(128);
  Result<Tuple> gone = t.Delete(128);
  ASSERT_TRUE(gone.ok());
  ASSERT_TRUE(t.Delete(127).ok());
  EXPECT_TRUE(t.Get(128).status().IsNotFound());
  EXPECT_TRUE(t.GetMeta(127).status().IsNotFound());
  EXPECT_TRUE(t.Get(129).ok());
  visited.clear();
  t.ForEach(
      [&](RowId rid, const Tuple&, const RowMeta&) {
        if (rid >= 126 && rid <= 129) visited.push_back(rid);
        return true;
      },
      /*include_staged=*/true);
  EXPECT_EQ(visited, (std::vector<RowId>{126, 129}));
  ASSERT_TRUE(t.UndoDeleteAt(128, *gone, meta128).ok());
  EXPECT_EQ((**t.Get(128))[1], Value::String("r128"));
  EXPECT_EQ(t.GetMeta(128)->seq, meta128.seq);
  EXPECT_EQ(t.GetMeta(128)->active, true);
  EXPECT_EQ(*t.IndexLookup("pk", {Value::BigInt(128)}),
            (std::vector<RowId>{128}));
  EXPECT_EQ(t.row_count(), 199u);
  EXPECT_EQ(t.active_count(), 100u);
  // The free slot at 127 is reused before the store grows.
  EXPECT_EQ(*t.Insert(Row(1000, "reuse")), 127u);
}

TEST(TableTest, NonUniqueLookupReturnsNewestFirstAcrossGrowth) {
  // 40 rows under one key, interleaved with 60 under others, grow the
  // index's buckets from 16 to 128; deletes free entries that later
  // inserts reuse. Equal keys still come back newest first.
  Table t("t", TwoColSchema());
  ASSERT_TRUE(t.CreateIndex("by_name", {"name"}, /*unique=*/false).ok());
  std::vector<RowId> same;
  for (int64_t i = 0; i < 100; ++i) {
    bool hot = i % 5 < 2;
    Result<RowId> rid = t.Insert(Row(i, hot ? "hot" : "k" + std::to_string(i)));
    ASSERT_TRUE(rid.ok());
    if (hot) same.push_back(*rid);
  }
  for (RowId rid : {same[3], same[10]}) ASSERT_TRUE(t.Delete(rid).ok());
  same.erase(same.begin() + 10);
  same.erase(same.begin() + 3);
  for (int64_t i = 100; i < 103; ++i) same.push_back(*t.Insert(Row(i, "hot")));
  std::vector<RowId> newest_first(same.rbegin(), same.rend());
  EXPECT_EQ(*t.IndexLookup("by_name", {Value::String("hot")}), newest_first);
  EXPECT_EQ((*t.GetIndex("by_name"))->EntryCount(), 101u);
}

TEST(TableTest, SerializeRoundTripPreservesMetaAndOrder) {
  Table t("s", TwoColSchema(), TableKind::kStream);
  RowMeta m1;
  m1.batch_id = 7;
  ASSERT_TRUE(t.Insert(Row(1, "a"), m1).ok());
  RowMeta m2;
  m2.batch_id = 8;
  m2.active = false;
  ASSERT_TRUE(t.Insert(Row(2, "b"), m2).ok());

  ByteWriter w;
  t.SerializeTo(&w);

  Table t2("s", TwoColSchema(), TableKind::kStream);
  ByteReader r(w.data());
  ASSERT_TRUE(t2.DeserializeContentsFrom(&r).ok());
  EXPECT_EQ(t2.row_count(), 2u);
  EXPECT_EQ(t2.active_count(), 1u);
  EXPECT_EQ(t2.next_seq(), t.next_seq());
  std::vector<RowId> ids = t2.RowIdsBySeq(true);
  EXPECT_EQ(t2.GetMeta(ids[0])->batch_id, 7);
  EXPECT_EQ(t2.GetMeta(ids[1])->batch_id, 8);
}

TEST(TableTest, DeserializeSchemaMismatchIsCorruption) {
  Table t("t", TwoColSchema());
  ASSERT_TRUE(t.Insert(Row(1, "a")).ok());
  ByteWriter w;
  t.SerializeTo(&w);
  Table other("t", Schema({{"x", ValueType::kDouble}}));
  ByteReader r(w.data());
  EXPECT_EQ(other.DeserializeContentsFrom(&r).code(), StatusCode::kCorruption);
}

TEST(TableTest, InsertPastTheSequenceLimitIsOutOfRange) {
  // A slot packs the sequence into 62 bits: once the table's next sequence
  // reaches 2^62, an insert fails instead of wrapping to sequence 0.
  ByteWriter w;
  TwoColSchema().SerializeTo(&w);
  w.PutU64((uint64_t{1} << 62) - 1);  // next sequence
  w.PutU32(0);                        // no rows
  Table t("t", TwoColSchema());
  ByteReader r(w.data());
  ASSERT_TRUE(t.DeserializeContentsFrom(&r).ok());
  Result<RowId> last = t.Insert(Row(1, "a"));
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(t.GetMeta(*last)->seq, (uint64_t{1} << 62) - 1);
  EXPECT_EQ(t.Insert(Row(2, "b")).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(t.row_count(), 1u);
  EXPECT_EQ(t.RowIdsBySeq(true), std::vector<RowId>{*last});
}

TEST(TableTest, ClearResetsEverything) {
  Table t("t", TwoColSchema());
  ASSERT_TRUE(t.CreateIndex("pk", {"id"}, true).ok());
  ASSERT_TRUE(t.Insert(Row(1, "a")).ok());
  EXPECT_EQ(t.Clear(), 1u);
  EXPECT_EQ(t.row_count(), 0u);
  EXPECT_TRUE(t.Insert(Row(1, "b")).ok());  // index cleared too
}

TEST(CatalogTest, CreateGetDrop) {
  Catalog c;
  ASSERT_TRUE(c.CreateTable("t", TwoColSchema()).ok());
  EXPECT_TRUE(c.HasTable("t"));
  EXPECT_EQ(c.CreateTable("t", TwoColSchema()).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(c.GetTable("t").ok());
  ASSERT_TRUE(c.DropTable("t").ok());
  EXPECT_FALSE(c.HasTable("t"));
  EXPECT_TRUE(c.DropTable("t").IsNotFound());
}

TEST(CatalogTest, TablesOfKindSorted) {
  Catalog c;
  ASSERT_TRUE(c.CreateTable("b_stream", TwoColSchema(), TableKind::kStream).ok());
  ASSERT_TRUE(c.CreateTable("a_stream", TwoColSchema(), TableKind::kStream).ok());
  ASSERT_TRUE(c.CreateTable("base", TwoColSchema()).ok());
  std::vector<Table*> streams = c.TablesOfKind(TableKind::kStream);
  ASSERT_EQ(streams.size(), 2u);
  EXPECT_EQ(streams[0]->name(), "a_stream");
  EXPECT_EQ(c.TableNames().size(), 3u);
}

}  // namespace
}  // namespace sstore
