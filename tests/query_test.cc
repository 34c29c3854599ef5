#include <gtest/gtest.h>

#include <limits>

#include "query/executor.h"
#include "query/expr.h"
#include "storage/table.h"

namespace sstore {
namespace {

Schema VoteSchema() {
  return Schema({{"phone", ValueType::kBigInt},
                 {"contestant", ValueType::kBigInt},
                 {"state", ValueType::kString}});
}

class QueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = std::make_unique<Table>("votes", VoteSchema());
    ASSERT_TRUE(table_->CreateIndex("by_phone", {"phone"}, true).ok());
    ASSERT_TRUE(table_->CreateIndex("by_contestant", {"contestant"}, false).ok());
    Executor exec;
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(exec.Insert(table_.get(),
                              {Value::BigInt(1000 + i), Value::BigInt(i % 3),
                               Value::String(i % 2 == 0 ? "MA" : "RI")})
                      .ok());
    }
  }

  std::unique_ptr<Table> table_;
  Executor exec_;
};

TEST(ExprTest, LiteralAndColumn) {
  Tuple row = {Value::BigInt(5), Value::String("x")};
  EXPECT_EQ(*LitInt(3)->Eval(row), Value::BigInt(3));
  EXPECT_EQ(*Col(1)->Eval(row), Value::String("x"));
  EXPECT_FALSE(Col(9)->Eval(row).ok());
}

TEST(ExprTest, Comparisons) {
  Tuple row = {Value::BigInt(5)};
  EXPECT_EQ(*Eq(Col(0), LitInt(5))->Eval(row), Value::BigInt(1));
  EXPECT_EQ(*Ne(Col(0), LitInt(5))->Eval(row), Value::BigInt(0));
  EXPECT_EQ(*Lt(Col(0), LitInt(6))->Eval(row), Value::BigInt(1));
  EXPECT_EQ(*Ge(Col(0), LitInt(5))->Eval(row), Value::BigInt(1));
  EXPECT_EQ(*Gt(Col(0), LitInt(5))->Eval(row), Value::BigInt(0));
  EXPECT_EQ(*Le(Col(0), LitInt(4))->Eval(row), Value::BigInt(0));
}

TEST(ExprTest, ComparisonWithNullIsFalse) {
  Tuple row = {Value::Null()};
  EXPECT_EQ(*Eq(Col(0), LitInt(5))->Eval(row), Value::BigInt(0));
}

TEST(ExprTest, IntegerArithmetic) {
  Tuple row;
  EXPECT_EQ(*Add(LitInt(2), LitInt(3))->Eval(row), Value::BigInt(5));
  EXPECT_EQ(*Sub(LitInt(2), LitInt(3))->Eval(row), Value::BigInt(-1));
  EXPECT_EQ(*Mul(LitInt(2), LitInt(3))->Eval(row), Value::BigInt(6));
  EXPECT_EQ(*Div(LitInt(7), LitInt(2))->Eval(row), Value::BigInt(3));
  EXPECT_EQ(*Mod(LitInt(7), LitInt(2))->Eval(row), Value::BigInt(1));
}

TEST(ExprTest, MixedArithmeticIsDouble) {
  Tuple row;
  Result<Value> v = Add(LitInt(2), LitDouble(0.5))->Eval(row);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->type(), ValueType::kDouble);
  EXPECT_DOUBLE_EQ(v->as_double(), 2.5);
}

TEST(ExprTest, DivisionByZeroFails) {
  Tuple row;
  EXPECT_FALSE(Div(LitInt(1), LitInt(0))->Eval(row).ok());
  EXPECT_FALSE(Mod(LitInt(1), LitInt(0))->Eval(row).ok());
  EXPECT_FALSE(Div(LitDouble(1.0), LitDouble(0.0))->Eval(row).ok());
}

TEST(ExprTest, NullPropagatesThroughArithmetic) {
  Tuple row = {Value::Null()};
  EXPECT_TRUE((*Add(Col(0), LitInt(1))->Eval(row)).is_null());
}

TEST(ExprTest, LogicShortCircuits) {
  Tuple row = {Value::BigInt(0)};
  // RHS would divide by zero; AND short-circuits on false LHS.
  ExprPtr bad = Gt(Div(LitInt(1), Col(0)), LitInt(0));
  EXPECT_EQ(*And(Gt(Col(0), LitInt(0)), bad)->Eval(row), Value::BigInt(0));
  EXPECT_EQ(*Or(Eq(Col(0), LitInt(0)), bad)->Eval(row), Value::BigInt(1));
}

TEST(ExprTest, NotAndIsNull) {
  Tuple row = {Value::Null(), Value::BigInt(1)};
  EXPECT_EQ(*Not(Eq(Col(1), LitInt(1)))->Eval(row), Value::BigInt(0));
  EXPECT_EQ(*IsNull(Col(0))->Eval(row), Value::BigInt(1));
  EXPECT_EQ(*IsNull(Col(1))->Eval(row), Value::BigInt(0));
}

TEST(ExprTest, EvalPredicateNullExprIsTrue) {
  EXPECT_TRUE(*EvalPredicate(nullptr, {}));
}

TEST(ExprTest, ToStringIsReadable) {
  EXPECT_EQ(Eq(Col(0), LitInt(5))->ToString(), "(col0 = 5)");
}

TEST(ExprTest, ColumnEqualityShapes) {
  size_t col = 99;
  const Value* lit = nullptr;
  // `lit` points into the expression, so each one is held while it is read.
  ExprPtr col_first = Eq(Col(2), LitInt(5));
  ASSERT_TRUE(col_first->AsColumnEquality(&col, &lit));
  EXPECT_EQ(col, 2u);
  EXPECT_EQ(*lit, Value::BigInt(5));
  ExprPtr lit_first = Eq(LitString("x"), Col(1));
  ASSERT_TRUE(lit_first->AsColumnEquality(&col, &lit));
  EXPECT_EQ(col, 1u);
  EXPECT_EQ(*lit, Value::String("x"));
  EXPECT_FALSE(Ne(Col(0), LitInt(5))->AsColumnEquality(&col, &lit));
  EXPECT_FALSE(Le(Col(0), LitInt(5))->AsColumnEquality(&col, &lit));
  EXPECT_FALSE(Eq(Col(0), Col(1))->AsColumnEquality(&col, &lit));
  EXPECT_FALSE(Eq(LitInt(1), LitInt(1))->AsColumnEquality(&col, &lit));
  EXPECT_FALSE(
      Eq(Col(0), Add(LitInt(1), LitInt(2)))->AsColumnEquality(&col, &lit));
  EXPECT_FALSE(And(Eq(Col(0), LitInt(1)), LitInt(1))
                   ->AsColumnEquality(&col, &lit));
  EXPECT_FALSE(Col(0)->AsColumnEquality(&col, &lit));
}

TEST_F(QueryTest, FullScan) {
  ScanSpec spec;
  spec.table = table_.get();
  EXPECT_EQ((*exec_.Scan(spec)).size(), 10u);
}

TEST_F(QueryTest, PredicateScan) {
  ScanSpec spec;
  spec.table = table_.get();
  spec.predicate = Eq(Col(2), LitString("MA"));
  EXPECT_EQ((*exec_.Scan(spec)).size(), 5u);
}

TEST_F(QueryTest, ProjectionAndLimit) {
  ScanSpec spec;
  spec.table = table_.get();
  spec.projection = {1};
  spec.limit = 3;
  Result<std::vector<Tuple>> rows = exec_.Scan(spec);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 3u);
  EXPECT_EQ((*rows)[0].size(), 1u);
}

TEST_F(QueryTest, OrderByDescending) {
  ScanSpec spec;
  spec.table = table_.get();
  spec.projection = {0};
  spec.order_by = {{0, /*descending=*/true}};
  spec.limit = 2;
  Result<std::vector<Tuple>> rows = exec_.Scan(spec);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ((*rows)[0][0], Value::BigInt(1009));
  EXPECT_EQ((*rows)[1][0], Value::BigInt(1008));
}

TEST_F(QueryTest, ScanInvalidProjectionFails) {
  ScanSpec spec;
  spec.table = table_.get();
  spec.projection = {99};
  EXPECT_FALSE(exec_.Scan(spec).ok());
}

TEST_F(QueryTest, IndexScanPoint) {
  Result<std::vector<Tuple>> rows =
      exec_.IndexScan(table_.get(), "by_phone", {Value::BigInt(1003)});
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][1], Value::BigInt(0));
}

TEST_F(QueryTest, IndexScanWithResidualAndProjection) {
  Result<std::vector<Tuple>> rows =
      exec_.IndexScan(table_.get(), "by_contestant", {Value::BigInt(0)},
                      Eq(Col(2), LitString("MA")), {0});
  ASSERT_TRUE(rows.ok());
  for (const Tuple& r : *rows) EXPECT_EQ(r.size(), 1u);
  EXPECT_EQ(rows->size(), 2u);  // contestants 0 at phones 1000,1003,1006,1009; MA = even
}

TEST_F(QueryTest, IndexScanMissingIndexFails) {
  EXPECT_TRUE(exec_.IndexScan(table_.get(), "nope", {Value::BigInt(1)})
                  .status()
                  .IsNotFound());
}

TEST_F(QueryTest, CountWithPredicate) {
  EXPECT_EQ(*exec_.Count(table_.get(), Eq(Col(1), LitInt(1))), 3u);
  EXPECT_EQ(*exec_.Count(table_.get()), 10u);
}

TEST_F(QueryTest, AggregateGlobal) {
  AggregateSpec spec;
  spec.table = table_.get();
  spec.aggregates = {{AggFunc::kCount, 0},
                     {AggFunc::kSum, 0},
                     {AggFunc::kMin, 0},
                     {AggFunc::kMax, 0},
                     {AggFunc::kAvg, 0}};
  Result<std::vector<Tuple>> rows = exec_.Aggregate(spec);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  const Tuple& r = (*rows)[0];
  EXPECT_EQ(r[0], Value::BigInt(10));
  EXPECT_EQ(r[1], Value::BigInt(10045));
  EXPECT_EQ(r[2], Value::BigInt(1000));
  EXPECT_EQ(r[3], Value::BigInt(1009));
  EXPECT_DOUBLE_EQ(r[4].as_double(), 1004.5);
}

TEST_F(QueryTest, AggregateEmptyInputSqlSemantics) {
  Table empty("e", VoteSchema());
  AggregateSpec spec;
  spec.table = &empty;
  spec.aggregates = {{AggFunc::kCount, 0}, {AggFunc::kSum, 0}};
  Result<std::vector<Tuple>> rows = exec_.Aggregate(spec);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][0], Value::BigInt(0));
  EXPECT_TRUE((*rows)[0][1].is_null());
}

TEST_F(QueryTest, AggregateGroupByWithOrderAndLimit) {
  AggregateSpec spec;
  spec.table = table_.get();
  spec.group_by = {1};
  spec.aggregates = {{AggFunc::kCount, 0}};
  spec.order_by = {{1, /*descending=*/true}, {0, false}};
  spec.limit = 2;
  Result<std::vector<Tuple>> rows = exec_.Aggregate(spec);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  // Contestant 0 has 4 votes (1000,1003,1006,1009); 1 and 2 have 3 each.
  EXPECT_EQ((*rows)[0][0], Value::BigInt(0));
  EXPECT_EQ((*rows)[0][1], Value::BigInt(4));
  EXPECT_EQ((*rows)[1][1], Value::BigInt(3));
}

TEST_F(QueryTest, AggregateSumOutsideInt64IsOutOfRange) {
  // A BIGINT SUM that leaves the int64 range fails the query rather than
  // wrapping; MIN, MAX and AVG over the same values still answer.
  Table big("big", VoteSchema());
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  ASSERT_TRUE(big.Insert({Value::BigInt(kMax), Value::BigInt(0),
                          Value::String("MA")})
                  .ok());
  ASSERT_TRUE(big.Insert({Value::BigInt(1), Value::BigInt(0),
                          Value::String("MA")})
                  .ok());
  AggregateSpec spec;
  spec.table = &big;
  spec.group_by = {1};
  spec.aggregates = {{AggFunc::kSum, 0}};
  EXPECT_EQ(exec_.Aggregate(spec).status().code(), StatusCode::kOutOfRange);
  spec.aggregates = {{AggFunc::kMin, 0}, {AggFunc::kMax, 0}, {AggFunc::kAvg, 0}};
  Result<std::vector<Tuple>> rows = exec_.Aggregate(spec);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ((*rows)[0][1], Value::BigInt(1));
  EXPECT_EQ((*rows)[0][2], Value::BigInt(kMax));
  // Back in range after a negative input: the int64 total is exact.
  ASSERT_TRUE(big.Insert({Value::BigInt(-2), Value::BigInt(0),
                          Value::String("MA")})
                  .ok());
  spec.aggregates = {{AggFunc::kSum, 0}};
  rows = exec_.Aggregate(spec);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ((*rows)[0][1], Value::BigInt(kMax - 1));
}

TEST_F(QueryTest, AggregateWithPredicate) {
  AggregateSpec spec;
  spec.table = table_.get();
  spec.predicate = Eq(Col(2), LitString("MA"));
  spec.aggregates = {{AggFunc::kCount, 0}};
  EXPECT_EQ((*exec_.Aggregate(spec))[0][0], Value::BigInt(5));
}

TEST_F(QueryTest, DeleteWithPredicate) {
  Result<size_t> n = exec_.Delete(table_.get(), Eq(Col(1), LitInt(2)));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 3u);
  EXPECT_EQ(table_->row_count(), 7u);
}

TEST_F(QueryTest, UpdateWithSetClauses) {
  std::vector<SetClause> sets = {{2, LitString("NY")},
                                 {1, Add(Col(1), LitInt(10))}};
  Result<size_t> n = exec_.Update(table_.get(), Eq(Col(0), LitInt(1000)), sets);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1u);
  Result<std::vector<Tuple>> rows =
      exec_.IndexScan(table_.get(), "by_phone", {Value::BigInt(1000)});
  EXPECT_EQ((*rows)[0][1], Value::BigInt(10));
  EXPECT_EQ((*rows)[0][2], Value::String("NY"));
}

TEST_F(QueryTest, UpdateSetUsesBeforeImage) {
  // Both clauses read col1's before-image, so order doesn't matter.
  std::vector<SetClause> sets = {{1, Add(Col(1), LitInt(1))},
                                 {0, Add(Col(1), LitInt(2000))}};
  ASSERT_TRUE(exec_.Update(table_.get(), Eq(Col(0), LitInt(1001)), sets).ok());
  Result<std::vector<Tuple>> rows = exec_.IndexScan(
      table_.get(), "by_phone", {Value::BigInt(2001)});  // 1 + 2000
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][1], Value::BigInt(2));  // 1 + 1
}

TEST_F(QueryTest, MutationLogReceivesBeforeImages) {
  struct Capture : MutationLog {
    int inserts = 0, deletes = 0, updates = 0, activates = 0;
    Tuple last_delete_before;
    void RecordInsert(Table*, RowId) override { ++inserts; }
    void RecordDelete(Table*, RowId, Tuple before, RowMeta) override {
      ++deletes;
      last_delete_before = std::move(before);
    }
    void RecordUpdate(Table*, RowId, Tuple) override { ++updates; }
    void RecordActivate(Table*, RowId, bool) override { ++activates; }
  } capture;
  Executor exec(&capture);
  ASSERT_TRUE(exec.Insert(table_.get(),
                          {Value::BigInt(1), Value::BigInt(1),
                           Value::String("VT")})
                  .ok());
  ASSERT_TRUE(exec.Delete(table_.get(), Eq(Col(0), LitInt(1))).ok());
  ASSERT_TRUE(exec.Update(table_.get(), Eq(Col(0), LitInt(1002)),
                          {{2, LitString("CT")}})
                  .ok());
  EXPECT_EQ(capture.inserts, 1);
  EXPECT_EQ(capture.deletes, 1);
  EXPECT_EQ(capture.updates, 1);
  EXPECT_EQ(capture.last_delete_before[0], Value::BigInt(1));
}

TEST_F(QueryTest, PointWritesSkipStagedRowsUnlessAsked) {
  Executor exec;
  ASSERT_TRUE(exec.Insert(table_.get(),
                          {Value::BigInt(2000), Value::BigInt(7),
                           Value::String("NH")},
                          0, /*active=*/false)
                  .ok());
  auto by_phone = Eq(Col(0), LitInt(2000));
  EXPECT_EQ(*exec.Update(table_.get(), by_phone, {{1, LitInt(8)}}), 0u);
  EXPECT_EQ(*exec.Update(table_.get(), by_phone, {{1, LitInt(8)}},
                         /*include_staged=*/true),
            1u);
  EXPECT_EQ(*exec.Delete(table_.get(), by_phone), 0u);
  EXPECT_EQ(*exec.Delete(table_.get(), by_phone, /*include_staged=*/true), 1u);
  EXPECT_TRUE((*table_->IndexLookup("by_phone", {Value::BigInt(2000)})).empty());
  EXPECT_EQ(table_->row_count(), 10u);
}

TEST_F(QueryTest, ScanOrderByStableMultiKey) {
  Table t("t", Schema({{"k", ValueType::kBigInt},
                       {"s", ValueType::kString},
                       {"pos", ValueType::kBigInt}}));
  Executor exec;
  for (const Tuple& row :
       std::vector<Tuple>{{Value::BigInt(1), Value::String("b"), Value::BigInt(0)},
                          {Value::BigInt(2), Value::String("a"), Value::BigInt(1)},
                          {Value::BigInt(1), Value::String("a"), Value::BigInt(2)},
                          {Value::BigInt(1), Value::String("a"), Value::BigInt(3)}}) {
    ASSERT_TRUE(exec.Insert(&t, row).ok());
  }
  ScanSpec spec;
  spec.table = &t;
  spec.order_by = {{0, false}, {1, false}};
  std::vector<Tuple> rows = *exec.Scan(spec);
  ASSERT_EQ(rows.size(), 4u);
  // Ties on (k, s) keep insertion order; the limited top-N agrees.
  std::vector<int64_t> order;
  for (const Tuple& r : rows) order.push_back(r[2].as_int64());
  EXPECT_EQ(order, (std::vector<int64_t>{2, 3, 0, 1}));
  spec.limit = 2;
  rows = *exec.Scan(spec);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][2], Value::BigInt(2));
  EXPECT_EQ(rows[1][2], Value::BigInt(3));
}

TEST_F(QueryTest, ScanOrderByColumnOutOfRangeFails) {
  ScanSpec spec;
  spec.table = table_.get();
  spec.order_by = {{3, false}};  // the table has 3 columns
  EXPECT_EQ(exec_.Scan(spec).status().code(), StatusCode::kOutOfRange);
  // With a projection the bound is the projected width, not the table's.
  spec.projection = {0, 2};
  spec.order_by = {{2, true}};
  spec.limit = 1;
  EXPECT_EQ(exec_.Scan(spec).status().code(), StatusCode::kOutOfRange);
  spec.order_by = {{1, true}};
  Result<std::vector<Tuple>> rows = exec_.Scan(spec);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ((*rows)[0][1], Value::String("RI"));
}

TEST_F(QueryTest, AggregateOrderByColumnOutOfRangeFails) {
  AggregateSpec spec;
  spec.table = table_.get();
  spec.group_by = {1};
  spec.aggregates = {{AggFunc::kCount, 0}};
  spec.order_by = {{2, false}};  // output rows are [contestant, count]
  spec.limit = 1;
  EXPECT_EQ(exec_.Aggregate(spec).status().code(), StatusCode::kOutOfRange);
  spec.group_by.clear();
  spec.order_by = {{1, false}};  // a global aggregate is [count]
  EXPECT_EQ(exec_.Aggregate(spec).status().code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace sstore
