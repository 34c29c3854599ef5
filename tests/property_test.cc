// Differential/property tests: random workloads executed both through the
// library and through trivially-correct reference implementations.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/txn.h"
#include "query/executor.h"
#include "query/expr.h"
#include "storage/table.h"
#include "streaming/injector.h"
#include "streaming/sstore.h"

namespace sstore {
namespace {

Schema KvSchema() {
  return Schema({{"k", ValueType::kBigInt}, {"v", ValueType::kBigInt}});
}

/// Reference model: a plain map with the same semantics as a table with a
/// unique index on k.
class ModelKv {
 public:
  bool Insert(int64_t k, int64_t v) { return map_.emplace(k, v).second; }
  bool Erase(int64_t k) { return map_.erase(k) > 0; }
  std::optional<int64_t> Get(int64_t k) const {
    auto it = map_.find(k);
    return it == map_.end() ? std::nullopt : std::make_optional(it->second);
  }
  size_t size() const { return map_.size(); }
  const std::map<int64_t, int64_t>& map() const { return map_; }

 private:
  std::map<int64_t, int64_t> map_;
};

class RandomOpsTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomOpsTest, TableMatchesModelUnderRandomInsertDeleteUpdate) {
  Rng rng(GetParam());
  Table table("t", KvSchema());
  ASSERT_TRUE(table.CreateIndex("pk", {"k"}, true).ok());
  ModelKv model;
  Executor exec;

  for (int step = 0; step < 2000; ++step) {
    int64_t k = rng.NextRange(0, 99);
    double dice = rng.NextDouble();
    if (dice < 0.5) {
      int64_t v = rng.NextRange(0, 1'000'000);
      Result<RowId> rid = exec.Insert(&table, {Value::BigInt(k), Value::BigInt(v)});
      bool model_ok = model.Insert(k, v);
      EXPECT_EQ(rid.ok(), model_ok) << "insert divergence at step " << step;
    } else if (dice < 0.75) {
      Result<size_t> n = exec.Delete(&table, Eq(Col(0), LitInt(k)));
      ASSERT_TRUE(n.ok());
      bool model_ok = model.Erase(k);
      EXPECT_EQ(*n == 1, model_ok) << "delete divergence at step " << step;
    } else {
      int64_t v = rng.NextRange(0, 1'000'000);
      Result<size_t> n =
          exec.Update(&table, Eq(Col(0), LitInt(k)), {{1, LitInt(v)}});
      ASSERT_TRUE(n.ok());
      if (model.Get(k).has_value()) {
        EXPECT_EQ(*n, 1u);
        model.Insert(k, 0);  // no-op (exists)
        model.Erase(k);
        model.Insert(k, v);
      } else {
        EXPECT_EQ(*n, 0u);
      }
    }
    ASSERT_EQ(table.row_count(), model.size());
  }

  // Full-content comparison at the end.
  for (const auto& [k, v] : model.map()) {
    Result<std::vector<Tuple>> rows =
        exec.IndexScan(&table, "pk", {Value::BigInt(k)});
    ASSERT_TRUE(rows.ok());
    ASSERT_EQ(rows->size(), 1u) << "key " << k;
    EXPECT_EQ((*rows)[0][1], Value::BigInt(v)) << "key " << k;
  }
}

TEST_P(RandomOpsTest, AbortedTransactionsLeaveNoTrace) {
  // Random mutation batches run inside a transaction-like undo scope; half
  // are rolled back, and rollback must restore the exact previous state.
  Rng rng(GetParam() ^ 0xabcdef);
  SStore store;
  Table* table = *store.catalog().CreateTable("t", KvSchema());
  ASSERT_TRUE(table->CreateIndex("pk", {"k"}, true).ok());

  auto mutate = std::make_shared<LambdaProcedure>([&rng](ProcContext& ctx) {
    SSTORE_ASSIGN_OR_RETURN(Table * t, ctx.table("t"));
    int ops = static_cast<int>(rng.NextRange(1, 8));
    for (int i = 0; i < ops; ++i) {
      int64_t k = rng.NextRange(0, 30);
      double dice = rng.NextDouble();
      if (dice < 0.5) {
        // Best-effort insert; duplicates are fine inside the txn body.
        Result<RowId> rid =
            ctx.exec().Insert(t, {Value::BigInt(k), Value::BigInt(i)});
        (void)rid;
      } else if (dice < 0.75) {
        SSTORE_ASSIGN_OR_RETURN(size_t n,
                                ctx.exec().Delete(t, Eq(Col(0), LitInt(k))));
        (void)n;
      } else {
        SSTORE_ASSIGN_OR_RETURN(
            size_t n,
            ctx.exec().Update(t, Eq(Col(0), LitInt(k)), {{1, LitInt(7)}}));
        (void)n;
      }
    }
    if (ctx.params()[0].as_int64() == 1) {
      return Status::Aborted("coin flip");
    }
    return Status::OK();
  });
  ASSERT_TRUE(store.partition().RegisterProcedure("mutate", SpKind::kOltp, mutate).ok());

  auto snapshot_state = [&] {
    std::map<int64_t, int64_t> out;
    table->ForEach([&](RowId, const Tuple& row, const RowMeta&) {
      out[row[0].as_int64()] = row[1].as_int64();
      return true;
    });
    return out;
  };

  for (int round = 0; round < 300; ++round) {
    bool abort = rng.NextBool(0.5);
    std::map<int64_t, int64_t> before = snapshot_state();
    TxnOutcome out =
        store.partition().ExecuteSync("mutate", {Value::BigInt(abort ? 1 : 0)});
    if (abort) {
      EXPECT_TRUE(out.status.IsAborted());
      EXPECT_EQ(snapshot_state(), before) << "rollback incomplete, round "
                                          << round;
    }
    // Committed rounds may or may not change state (duplicate inserts abort
    // too); either way the table must stay consistent with its index.
    std::map<int64_t, int64_t> now = snapshot_state();
    for (const auto& [k, v] : now) {
      Executor exec;
      Result<std::vector<Tuple>> rows =
          exec.IndexScan(table, "pk", {Value::BigInt(k)});
      ASSERT_TRUE(rows.ok());
      ASSERT_EQ(rows->size(), 1u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomOpsTest,
                         ::testing::Values(1ull, 42ull, 1337ull, 0xdeadbeefull));

// ---- Index-backed point writes vs full scans ---------------------------

/// An UndoLog that also keeps every record it receives as text, so two
/// executions can be compared for the same undo sequence.
class RecordingLog : public MutationLog {
 public:
  void RecordInsert(Table* table, RowId rid) override {
    trail.push_back("ins " + std::to_string(rid));
    undo.RecordInsert(table, rid);
  }
  void RecordDelete(Table* table, RowId rid, Tuple before,
                    RowMeta meta) override {
    trail.push_back("del " + std::to_string(rid) + " " +
                    TupleToString(before) + (meta.active ? "" : " staged"));
    undo.RecordDelete(table, rid, std::move(before), meta);
  }
  void RecordUpdate(Table* table, RowId rid, Tuple before) override {
    trail.push_back("upd " + std::to_string(rid) + " " +
                    TupleToString(before));
    undo.RecordUpdate(table, rid, std::move(before));
  }
  void RecordActivate(Table* table, RowId rid, bool was_active) override {
    trail.push_back("act " + std::to_string(rid) + (was_active ? " 1" : " 0"));
    undo.RecordActivate(table, rid, was_active);
  }

  UndoLog undo;
  std::vector<std::string> trail;
};

/// Every live row, staged ones included, in slot order with its RowId and
/// staging flag. TupleToString keeps BIGINT 5 and TIMESTAMP 5 apart.
std::vector<std::string> SlotContents(const Table& table) {
  std::vector<std::string> out;
  table.ForEach(
      [&](RowId rid, const Tuple& row, const RowMeta& meta) {
        out.push_back(std::to_string(rid) + " " + TupleToString(row) +
                      (meta.active ? "" : " staged"));
        return true;
      },
      /*include_staged=*/true);
  return out;
}

/// Every live row of `table` must be reachable through each of its indexes.
void ExpectIndexesResolve(const Table& table, const std::string& where) {
  table.ForEach(
      [&](RowId rid, const Tuple& row, const RowMeta&) {
        for (const auto& idx : table.indexes()) {
          std::vector<RowId> hits = idx->Lookup(idx->ExtractKey(row));
          EXPECT_NE(std::find(hits.begin(), hits.end(), rid), hits.end())
              << where << ": row " << TupleToString(row) << " missing from "
              << idx->name();
        }
        return true;
      },
      /*include_staged=*/true);
  for (const auto& idx : table.indexes()) {
    EXPECT_EQ(idx->EntryCount(), table.row_count()) << where << " " << idx->name();
  }
}

class PointWriteDifferentialTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(PointWriteDifferentialTest, IndexedTwinMatchesScanOnlyTwin) {
  // Columns: pk (unique index), grp (non-unique index), v (no index).
  Schema schema({{"pk", ValueType::kBigInt},
                 {"grp", ValueType::kBigInt},
                 {"v", ValueType::kBigInt}});
  Table indexed("indexed", schema);
  Table plain("plain", schema);
  ASSERT_TRUE(indexed.CreateIndex("pk", {"pk"}, true).ok());
  ASSERT_TRUE(indexed.CreateIndex("by_grp", {"grp"}, false).ok());

  Rng rng(GetParam());
  int64_t fresh_pk = 1000;  // never collides with the random keys below
  for (int txn = 0; txn < 150; ++txn) {
    RecordingLog indexed_log;
    RecordingLog plain_log;
    Executor ix(&indexed_log);
    Executor px(&plain_log);
    std::string at = "seed " + std::to_string(GetParam()) + " txn " +
                     std::to_string(txn);
    int ops = static_cast<int>(rng.NextRange(1, 12));
    for (int op = 0; op < ops; ++op) {
      std::string where = at + " op " + std::to_string(op);
      int64_t k = rng.NextRange(0, 29);
      int64_t g = rng.NextRange(0, 3);
      double dice = rng.NextDouble();
      if (dice < 0.35) {
        // pk stays unique in both twins: the plain twin inserts only what
        // the indexed twin accepted.
        Tuple row = {Value::BigInt(k), Value::BigInt(g),
                     Value::BigInt(rng.NextRange(0, 9))};
        bool active = rng.NextBool(0.7);
        Result<RowId> a = ix.Insert(&indexed, row, 0, active);
        if (a.ok()) {
          Result<RowId> b = px.Insert(&plain, row, 0, active);
          ASSERT_TRUE(b.ok()) << where;
          EXPECT_EQ(*a, *b) << where;
        }
        continue;
      }

      ExprPtr pred;
      bool point = false;  // matches at most one row: may rewrite pk
      switch (rng.NextBounded(8)) {
        case 0:
          pred = Eq(Col(0), LitInt(k));
          point = true;
          break;
        case 1:
          pred = Eq(LitInt(k), Col(0));
          point = true;
          break;
        case 2:
          pred = Eq(Col(0), Lit(Value::Timestamp(k)));
          point = true;
          break;
        case 3:
          pred = Eq(Col(0), LitDouble(static_cast<double>(k)));
          point = true;
          break;
        case 4:
          pred = Eq(Col(0), Lit(Value::Null()));
          break;
        case 5:
          pred = Eq(Col(1), LitInt(g));
          break;
        case 6:
          pred = And(Eq(Col(1), LitInt(g)), Gt(Col(2), LitInt(4)));
          break;
        default:
          pred = Eq(Col(2), LitInt(rng.NextRange(0, 9)));
          break;
      }
      bool include_staged = rng.NextBool(0.5);

      Result<size_t> a = Status::OK();
      Result<size_t> b = Status::OK();
      if (dice < 0.55) {
        a = ix.Delete(&indexed, pred, include_staged);
        b = px.Delete(&plain, pred, include_staged);
      } else {
        std::vector<SetClause> sets;
        switch (rng.NextBounded(point ? 4 : 3)) {
          case 0:
            sets = {{2, Add(Col(2), LitInt(1))}};
            break;
          case 1:
            sets = {{1, LitInt(g)}};  // the non-unique key column
            break;
          case 2:
            sets = {{1, Add(Col(1), LitInt(1))}, {2, LitInt(0)}};
            break;
          default:
            // The unique key column itself, alternating BIGINT / TIMESTAMP.
            ++fresh_pk;
            sets = {{0, Lit(fresh_pk % 2 == 0 ? Value::BigInt(fresh_pk)
                                              : Value::Timestamp(fresh_pk))}};
            break;
        }
        a = ix.Update(&indexed, pred, sets, include_staged);
        b = px.Update(&plain, pred, sets, include_staged);
      }
      ASSERT_TRUE(a.ok()) << where << ": " << a.status().ToString();
      ASSERT_TRUE(b.ok()) << where << ": " << b.status().ToString();
      EXPECT_EQ(*a, *b) << where << " " << pred->ToString();
      ASSERT_EQ(SlotContents(indexed), SlotContents(plain)) << where;
    }
    ASSERT_EQ(indexed_log.trail, plain_log.trail) << at;
    ExpectIndexesResolve(indexed, at);

    if (rng.NextBool(0.4)) {
      ASSERT_TRUE(indexed_log.undo.Rollback().ok()) << at;
      ASSERT_TRUE(plain_log.undo.Rollback().ok()) << at;
      ASSERT_EQ(SlotContents(indexed), SlotContents(plain)) << at;
      ExpectIndexesResolve(indexed, at + " after rollback");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PointWriteDifferentialTest,
                         ::testing::Values(1ull, 7ull, 42ull, 1337ull,
                                           0xdeadbeefull));

class RandomAggTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomAggTest, AggregatesMatchReferenceComputation) {
  Rng rng(GetParam());
  Table table("t", KvSchema());
  Executor exec;
  std::map<int64_t, std::vector<int64_t>> reference;
  int rows = static_cast<int>(rng.NextRange(0, 200));
  for (int i = 0; i < rows; ++i) {
    int64_t k = rng.NextRange(0, 8);
    int64_t v = rng.NextRange(-50, 50);
    ASSERT_TRUE(exec.Insert(&table, {Value::BigInt(k), Value::BigInt(v)}).ok());
    reference[k].push_back(v);
  }
  AggregateSpec spec;
  spec.table = &table;
  spec.group_by = {0};
  spec.aggregates = {{AggFunc::kCount, 1},
                     {AggFunc::kSum, 1},
                     {AggFunc::kMin, 1},
                     {AggFunc::kMax, 1}};
  Result<std::vector<Tuple>> groups = exec.Aggregate(spec);
  ASSERT_TRUE(groups.ok());
  ASSERT_EQ(groups->size(), reference.size());
  for (const Tuple& g : *groups) {
    const std::vector<int64_t>& vals = reference[g[0].as_int64()];
    int64_t sum = 0, mn = vals[0], mx = vals[0];
    for (int64_t v : vals) {
      sum += v;
      mn = std::min(mn, v);
      mx = std::max(mx, v);
    }
    EXPECT_EQ(g[1], Value::BigInt(static_cast<int64_t>(vals.size())));
    EXPECT_EQ(g[2], Value::BigInt(sum));
    EXPECT_EQ(g[3], Value::BigInt(mn));
    EXPECT_EQ(g[4], Value::BigInt(mx));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomAggTest,
                         ::testing::Values(3ull, 7ull, 1001ull, 424242ull));

// ---- Top-N ordering and hash grouping vs reference sorts --------------

bool IsNaNValue(const Value& v) {
  return v.type() == ValueType::kDouble && std::isnan(v.as_double());
}

/// Reference ORDER BY / GROUP BY comparison: NULL first, then numbers by
/// value, then NaN, with all NaNs tied.
int RefCompare(const Value& a, const Value& b) {
  auto rank = [](const Value& v) {
    return v.is_null() ? 0 : IsNaNValue(v) ? 2 : 1;
  };
  if (rank(a) != rank(b)) return rank(a) < rank(b) ? -1 : 1;
  return rank(a) == 1 ? a.Compare(b) : 0;
}

bool RefLess(const Tuple& a, const Tuple& b,
             const std::vector<OrderBySpec>& order_by) {
  for (const OrderBySpec& ob : order_by) {
    int c = RefCompare(a[ob.column], b[ob.column]);
    if (c != 0) return ob.descending ? c > 0 : c < 0;
  }
  return false;
}

/// The reference's stable sort + truncate.
void RefOrder(std::vector<Tuple>* rows, const std::vector<OrderBySpec>& order_by,
              std::optional<size_t> limit) {
  std::stable_sort(rows->begin(), rows->end(),
                   [&](const Tuple& a, const Tuple& b) {
                     return RefLess(a, b, order_by);
                   });
  if (limit.has_value() && rows->size() > *limit) rows->resize(*limit);
}

/// Rows rendered exactly: Value::ToString keeps BIGINT 5 and TIMESTAMP 5,
/// 0.0 and -0.0, nan and -nan and every number apart, which Value::Equals
/// does not. A NaN in one of `any_nan_columns` renders as `nan` whatever
/// its sign.
std::vector<std::string> Render(const std::vector<Tuple>& rows,
                                const std::vector<size_t>& any_nan_columns = {}) {
  std::vector<std::string> out;
  for (const Tuple& row : rows) {
    std::string text = "(";
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) text += ", ";
      bool any_nan = std::find(any_nan_columns.begin(), any_nan_columns.end(),
                               i) != any_nan_columns.end();
      text += any_nan && IsNaNValue(row[i]) ? "nan" : row[i].ToString();
    }
    out.push_back(text + ")");
  }
  return out;
}

/// Aggregate output rendered by Render, exactly except for the sign of a
/// NaN in a SUM or AVG cell: which NaN a sum over NaNs of both signs yields
/// depends on the order the compiler adds in. Group keys and MIN/MAX keep
/// the first row's value, so their NaNs are compared exactly.
std::vector<std::string> RenderAggregate(const std::vector<Tuple>& rows,
                                         const AggregateSpec& spec) {
  std::vector<size_t> sums;
  for (size_t i = 0; i < spec.aggregates.size(); ++i) {
    AggFunc func = spec.aggregates[i].func;
    if (func == AggFunc::kSum || func == AggFunc::kAvg) {
      sums.push_back(spec.group_by.size() + i);
    }
  }
  return Render(rows, sums);
}

/// Columns: a BIGINT with ties, t BIGINT/TIMESTAMP mix, d DOUBLE with NaNs
/// and signed zeros, s STRING; every column takes NULLs.
Schema MixedSchema() {
  return Schema({{"a", ValueType::kBigInt},
                 {"t", ValueType::kTimestamp},
                 {"d", ValueType::kDouble},
                 {"s", ValueType::kString}});
}

Value RandomCell(Rng& rng, size_t column) {
  if (rng.NextBool(0.12)) return Value::Null();
  int64_t small = rng.NextRange(-2, 3);
  switch (column) {
    case 0:
      return Value::BigInt(small);
    case 1:
      return rng.NextBool(0.5) ? Value::Timestamp(small) : Value::BigInt(small);
    case 2: {
      // Two NaNs with different bits (the sign): grouping must put every
      // NaN in one group whatever its bits.
      double pick[] = {std::numeric_limits<double>::quiet_NaN(),
                       -std::numeric_limits<double>::quiet_NaN(), -0.0, 0.0,
                       1.5, -2.25, 3.0};
      return Value::Double(pick[rng.NextBounded(7)]);
    }
    default:
      return Value::String(std::string(1, static_cast<char>('a' + rng.NextBounded(3))));
  }
}

std::vector<OrderBySpec> RandomOrderBy(Rng& rng, size_t width) {
  std::vector<OrderBySpec> out;
  if (width == 0) return out;
  size_t n = rng.NextBounded(4);  // 0..3 keys
  for (size_t i = 0; i < n; ++i) {
    out.push_back({static_cast<size_t>(rng.NextBounded(width)), rng.NextBool(0.5)});
  }
  return out;
}

/// A literal of any MixedSchema type, NULL, NaN and -0.0 included.
Value RandomLiteral(Rng& rng) {
  switch (rng.NextBounded(5)) {
    case 0:
      return Value::Null();
    case 1:
      return Value::BigInt(rng.NextRange(-2, 3));
    case 2:
      return Value::Timestamp(rng.NextRange(-2, 3));
    case 3:
      return RandomCell(rng, 2);  // a DOUBLE (or NULL)
    default:
      return RandomCell(rng, 3);  // a STRING (or NULL)
  }
}

/// An operand of a comparison or IS NULL over MixedSchema rows: a column,
/// a literal, or arithmetic over the numeric columns. When `may_fail`, a
/// column now and then lies past the rows' arity and some arithmetic
/// divides, by a zero at times; otherwise evaluating it never fails.
ExprPtr RandomOperand(Rng& rng, bool may_fail) {
  switch (rng.NextBounded(6)) {
    case 0:
    case 1:
    case 2:
      if (may_fail && rng.NextBool(0.03)) return Col(4 + rng.NextBounded(3));
      return Col(rng.NextBounded(4));
    case 3:
    case 4:
      return Lit(RandomLiteral(rng));
    default: {
      ExprPtr lhs = Col(rng.NextBounded(3));
      ExprPtr rhs = rng.NextBool(0.5) ? Col(rng.NextBounded(3))
                                      : LitInt(rng.NextRange(-1, 2));
      if (may_fail && rng.NextBool(0.3)) return Div(lhs, rhs);
      return rng.NextBool(0.5) ? Add(lhs, rhs) : Mul(lhs, rhs);
    }
  }
}

/// A random predicate tree of at most `depth` logic levels: comparisons
/// with all six operators on column/literal/arithmetic operands of every
/// type, IS NULL, a bare column tested for truth, AND, OR and NOT. Unless
/// `may_fail`, it evaluates without error on every MixedSchema row (a
/// STRING column is never tested for truth).
ExprPtr RandomPredicate(Rng& rng, int depth, bool may_fail) {
  switch (rng.NextBounded(depth > 0 ? 7 : 4)) {
    case 0:
    case 1:
      return Cmp(static_cast<CmpOp>(rng.NextBounded(6)),
                 RandomOperand(rng, may_fail), RandomOperand(rng, may_fail));
    case 2:
      return IsNull(RandomOperand(rng, may_fail));
    case 3:
      return Col(rng.NextBounded(may_fail ? 4 : 3));
    case 4:
      return And(RandomPredicate(rng, depth - 1, may_fail),
                 RandomPredicate(rng, depth - 1, may_fail));
    case 5:
      return Or(RandomPredicate(rng, depth - 1, may_fail),
                RandomPredicate(rng, depth - 1, may_fail));
    default:
      return Not(RandomPredicate(rng, depth - 1, may_fail));
  }
}

/// A scan's filter for the top-N tests: no predicate a third of the time,
/// else a random tree that cannot fail.
ExprPtr RandomFilter(Rng& rng) {
  if (rng.NextBounded(3) == 0) return nullptr;
  return RandomPredicate(rng, 2, /*may_fail=*/false);
}

/// Every live row the spec's filter admits, in slot order.
std::vector<Tuple> RefMatches(const Table& table, const ExprPtr& predicate,
                              bool include_staged) {
  std::vector<Tuple> out;
  table.ForEach(
      [&](RowId, const Tuple& row, const RowMeta&) {
        Result<bool> match = EvalPredicate(predicate, row);
        EXPECT_TRUE(match.ok());
        if (match.ok() && *match) out.push_back(row);
        return true;
      },
      include_staged);
  return out;
}

/// Reference GROUP BY: groups in first-seen order, keyed by the first row's
/// values, then listed ascending by key; aggregates fold rows in slot order.
std::vector<Tuple> RefAggregate(const std::vector<Tuple>& rows,
                                const std::vector<size_t>& group_by,
                                const std::vector<AggExpr>& aggregates) {
  std::vector<std::vector<const Tuple*>> groups;
  for (const Tuple& row : rows) {
    auto same = [&](const std::vector<const Tuple*>& g) {
      for (size_t c : group_by) {
        if (RefCompare((*g[0])[c], row[c]) != 0) return false;
      }
      return true;
    };
    auto it = std::find_if(groups.begin(), groups.end(), same);
    if (it == groups.end()) {
      groups.push_back({&row});
    } else {
      it->push_back(&row);
    }
  }
  if (group_by.empty() && groups.empty()) groups.emplace_back();
  std::vector<Tuple> out;
  for (const auto& g : groups) {
    Tuple row;
    for (size_t c : group_by) row.push_back((*g[0])[c]);
    for (const AggExpr& a : aggregates) {
      if (a.func == AggFunc::kCount) {
        row.push_back(Value::BigInt(static_cast<int64_t>(g.size())));
        continue;
      }
      std::vector<Value> vals;
      for (const Tuple* r : g) {
        if (!(*r)[a.column].is_null()) vals.push_back((*r)[a.column]);
      }
      if (vals.empty()) {
        row.push_back(Value::Null());
        continue;
      }
      bool all_int = true;
      __int128 isum = 0;  // no overflow even over INT64_MIN/INT64_MAX
      double sum = 0;
      Value mn = vals[0], mx = vals[0];
      for (const Value& v : vals) {
        if (IsIntLike(v.type())) {
          isum += v.as_int64();
        } else {
          all_int = false;
        }
        if (v.ToNumeric().ok()) sum += *v.ToNumeric();
        if (v.Compare(mn) < 0) mn = v;
        if (v.Compare(mx) > 0) mx = v;
      }
      switch (a.func) {
        case AggFunc::kSum:
          row.push_back(all_int ? Value::BigInt(static_cast<int64_t>(isum))
                                : Value::Double(sum));
          break;
        case AggFunc::kAvg:
          row.push_back(Value::Double(sum / static_cast<double>(vals.size())));
          break;
        case AggFunc::kMin:
          row.push_back(mn);
          break;
        default:
          row.push_back(mx);
          break;
      }
    }
    out.push_back(std::move(row));
  }
  std::vector<OrderBySpec> by_key;
  for (size_t i = 0; i < group_by.size(); ++i) by_key.push_back({i, false});
  RefOrder(&out, by_key, std::nullopt);
  return out;
}

class TopNDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TopNDifferentialTest, ScanAndAggregateMatchReferenceSorts) {
  Rng rng(GetParam());
  Executor exec;
  for (int round = 0; round < 60; ++round) {
    Table table("t", MixedSchema());
    size_t n = rng.NextBounded(40);
    for (size_t i = 0; i < n; ++i) {
      Tuple row;
      for (size_t c = 0; c < 4; ++c) row.push_back(RandomCell(rng, c));
      ASSERT_TRUE(exec.Insert(&table, row, 0, rng.NextBool(0.8)).ok());
    }
    std::string at = "seed " + std::to_string(GetParam()) + " round " +
                     std::to_string(round);

    for (int q = 0; q < 8; ++q) {
      ScanSpec spec;
      spec.table = &table;
      spec.predicate = RandomFilter(rng);
      spec.include_staged = rng.NextBool(0.3);
      size_t width = 4;
      if (rng.NextBool(0.5)) {
        width = 1 + rng.NextBounded(4);
        for (size_t i = 0; i < width; ++i) {
          spec.projection.push_back(rng.NextBounded(4));
        }
      }
      spec.order_by = RandomOrderBy(rng, width);
      if (rng.NextBool(0.7)) spec.limit = rng.NextBounded(n + 2);

      std::vector<Tuple> expected;
      for (const Tuple& row :
           RefMatches(table, spec.predicate, spec.include_staged)) {
        if (spec.projection.empty()) {
          expected.push_back(row);
          continue;
        }
        Tuple projected;
        for (size_t c : spec.projection) projected.push_back(row[c]);
        expected.push_back(std::move(projected));
      }
      RefOrder(&expected, spec.order_by, spec.limit);
      Result<std::vector<Tuple>> got = exec.Scan(spec);
      ASSERT_TRUE(got.ok()) << at << ": " << got.status().ToString();
      EXPECT_EQ(Render(*got), Render(expected)) << at << " scan " << q;
    }

    for (int q = 0; q < 8; ++q) {
      AggregateSpec spec;
      spec.table = &table;
      spec.predicate = RandomFilter(rng);
      spec.include_staged = rng.NextBool(0.3);
      size_t groups = rng.NextBounded(3);
      for (size_t i = 0; i < groups; ++i) {
        spec.group_by.push_back(rng.NextBounded(4));
      }
      size_t aggs = rng.NextBounded(4);
      for (size_t i = 0; i < aggs; ++i) {
        auto func = static_cast<AggFunc>(rng.NextBounded(5));
        // SUM / AVG need a numeric column; the rest take any.
        bool numeric = func == AggFunc::kSum || func == AggFunc::kAvg;
        size_t column = rng.NextBounded(numeric ? 3 : 4);
        spec.aggregates.push_back({func, column});
      }
      std::vector<Tuple> expected = RefAggregate(
          RefMatches(table, spec.predicate, spec.include_staged),
          spec.group_by, spec.aggregates);

      // Without ORDER BY the output is ascending by group key.
      Result<std::vector<Tuple>> all = exec.Aggregate(spec);
      ASSERT_TRUE(all.ok()) << at << ": " << all.status().ToString();
      EXPECT_EQ(RenderAggregate(*all, spec), RenderAggregate(expected, spec))
          << at << " aggregate " << q;

      spec.order_by = RandomOrderBy(rng, groups + aggs);
      spec.limit = rng.NextBounded(expected.size() + 2);
      RefOrder(&expected, spec.order_by, spec.limit);
      Result<std::vector<Tuple>> top = exec.Aggregate(spec);
      ASSERT_TRUE(top.ok()) << at << ": " << top.status().ToString();
      EXPECT_EQ(RenderAggregate(*top, spec), RenderAggregate(expected, spec))
          << at << " aggregate top-N " << q;
    }
  }
}

/// Columns: k BIGINT with ~100 distinct keys, t TIMESTAMP holding BIGINT
/// and TIMESTAMP values alike (so equal keys of two types meet), both with
/// INT64_MIN, INT64_MAX, -1 and 0 among them; v BIGINT with small values,
/// the only SUM/AVG input, so no SUM leaves the int64 range.
Schema IntSchema() {
  return Schema({{"k", ValueType::kBigInt},
                 {"t", ValueType::kTimestamp},
                 {"v", ValueType::kBigInt}});
}

int64_t ExtremeOrSmall(Rng& rng, int64_t small_range) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const int64_t extremes[] = {kMin, kMin + 1, kMax, kMax - 1, -1, 0};
  if (rng.NextBool(0.1)) return extremes[rng.NextBounded(6)];
  return rng.NextRange(-small_range / 2, small_range / 2);
}

Tuple RandomIntRow(Rng& rng) {
  int64_t t = ExtremeOrSmall(rng, 6);
  return {Value::BigInt(ExtremeOrSmall(rng, 94)),
          rng.NextBool(0.5) ? Value::Timestamp(t) : Value::BigInt(t),
          Value::BigInt(rng.NextRange(-50, 50))};
}

TEST_P(TopNDifferentialTest, IntKeyedTablesMatchReferenceSorts) {
  // Every ORDER BY key value BIGINT or TIMESTAMP, with the extremes of
  // int64 among them. The `mixed` rounds plant one NULL in a key column,
  // and order aggregates on AVG's DOUBLE too, so keys of other types meet
  // the int keys in one comparison.
  Rng rng(GetParam());
  Executor exec;
  for (int round = 0; round < 24; ++round) {
    bool mixed = round % 2 == 1;
    Table table("ints", IntSchema());
    size_t n = rng.NextBounded(301);
    std::vector<Tuple> rows;
    for (size_t i = 0; i < n; ++i) rows.push_back(RandomIntRow(rng));
    if (mixed && n > 0) rows[rng.NextBounded(n)][rng.NextBounded(2)] = Value::Null();
    for (const Tuple& row : rows) ASSERT_TRUE(exec.Insert(&table, row).ok());
    std::string at = "seed " + std::to_string(GetParam()) + " round " +
                     std::to_string(round);

    for (int q = 0; q < 6; ++q) {
      ScanSpec spec;
      spec.table = &table;
      spec.order_by = RandomOrderBy(rng, 3);
      if (spec.order_by.empty()) spec.order_by.push_back({0, rng.NextBool(0.5)});
      if (rng.NextBool(0.5)) spec.limit = rng.NextBounded(n + 2);
      std::vector<Tuple> expected = rows;
      RefOrder(&expected, spec.order_by, spec.limit);
      Result<std::vector<Tuple>> got = exec.Scan(spec);
      ASSERT_TRUE(got.ok()) << at << ": " << got.status().ToString();
      EXPECT_EQ(Render(*got), Render(expected)) << at << " scan " << q;
    }

    for (int q = 0; q < 6; ++q) {
      AggregateSpec spec;
      spec.table = &table;
      spec.group_by.push_back(rng.NextBounded(2));
      if (rng.NextBool(0.3)) spec.group_by.push_back(1 - spec.group_by[0]);
      spec.aggregates.push_back({AggFunc::kCount, 0});
      spec.aggregates.push_back({AggFunc::kSum, 2});
      spec.aggregates.push_back(
          {rng.NextBool(0.5) ? AggFunc::kMin : AggFunc::kMax,
           static_cast<size_t>(rng.NextBounded(2))});
      if (mixed) spec.aggregates.push_back({AggFunc::kAvg, 2});
      size_t width = spec.group_by.size() + spec.aggregates.size();
      std::vector<Tuple> expected =
          RefAggregate(rows, spec.group_by, spec.aggregates);

      Result<std::vector<Tuple>> all = exec.Aggregate(spec);
      ASSERT_TRUE(all.ok()) << at << ": " << all.status().ToString();
      EXPECT_EQ(RenderAggregate(*all, spec), RenderAggregate(expected, spec))
          << at << " aggregate " << q;

      spec.order_by = RandomOrderBy(rng, width);
      if (mixed) spec.order_by.push_back({width - 1, rng.NextBool(0.5)});
      if (rng.NextBool(0.5)) spec.limit = rng.NextBounded(expected.size() + 2);
      RefOrder(&expected, spec.order_by, spec.limit);
      Result<std::vector<Tuple>> top = exec.Aggregate(spec);
      ASSERT_TRUE(top.ok()) << at << ": " << top.status().ToString();
      EXPECT_EQ(RenderAggregate(*top, spec), RenderAggregate(expected, spec))
          << at << " aggregate top-N " << q;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopNDifferentialTest,
                         ::testing::Values(2ull, 11ull, 97ull, 4242ull));

// ---- Compiled predicates vs EvalPredicate, row by row -------------------

/// What the reference filter saw: the matching rows (slot order) and the
/// first error, which ends the pass.
struct RefFiltered {
  Status status;
  std::vector<Tuple> rows;
  std::vector<bool> matched;  // per live row visited, in slot order
};

/// EvalPredicate on each live row in slot order. With `stop_after`, the
/// pass also ends once that many rows matched (an unordered LIMIT), after
/// counting at least one.
RefFiltered RefFilter(const Table& table, const ExprPtr& predicate,
                      bool include_staged,
                      std::optional<size_t> stop_after = std::nullopt) {
  RefFiltered out;
  table.ForEach(
      [&](RowId, const Tuple& row, const RowMeta&) {
        Result<bool> match = EvalPredicate(predicate, row);
        if (!match.ok()) {
          out.status = match.status();
          return false;
        }
        out.matched.push_back(*match);
        if (!*match) return true;
        out.rows.push_back(row);
        return !(stop_after.has_value() && out.rows.size() >= *stop_after);
      },
      include_staged);
  return out;
}

/// A MixedSchema table holding `rows` (false == staged), with a non-unique
/// index on column 0 when `indexed`, so `a = lit` writes probe it.
std::unique_ptr<Table> FilledTable(
    const std::vector<std::pair<Tuple, bool>>& rows, bool indexed) {
  auto table = std::make_unique<Table>("t", MixedSchema());
  if (indexed) {
    EXPECT_TRUE(table->CreateIndex("by_a", {"a"}, false).ok());
  }
  Executor exec;
  for (const auto& [row, active] : rows) {
    EXPECT_TRUE(exec.Insert(table.get(), row, 0, active).ok());
  }
  return table;
}

class PredicateDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

// Random predicate trees — all six comparisons, column/literal/arithmetic
// operands of every type with NULL and NaN, AND/OR/NOT, IS NULL, a bare
// column's truth, a column past the arity and divisions by zero — through
// every executor entry point that filters, against EvalPredicate row by
// row: the same rows, and the same status when a row's test fails.
TEST_P(PredicateDifferentialTest, EveryEntryPointMatchesEvalPredicate) {
  Rng rng(GetParam());
  Executor exec;
  for (int round = 0; round < 40; ++round) {
    std::vector<std::pair<Tuple, bool>> rows;
    size_t n = rng.NextBounded(24);
    for (size_t i = 0; i < n; ++i) {
      Tuple row;
      for (size_t c = 0; c < 4; ++c) row.push_back(RandomCell(rng, c));
      rows.push_back({std::move(row), rng.NextBool(0.8)});
    }
    bool indexed = rng.NextBool(0.5);
    std::unique_ptr<Table> table = FilledTable(rows, indexed);
    for (int q = 0; q < 12; ++q) {
      ExprPtr pred = RandomPredicate(rng, 3, /*may_fail=*/true);
      if (rng.NextBool(0.3)) {
        // Now and then the point-write shape: `a = literal`.
        pred = Eq(Col(0), LitInt(rng.NextRange(-2, 3)));
      }
      bool staged = rng.NextBool(0.3);
      std::string at = "seed " + std::to_string(GetParam()) + " round " +
                       std::to_string(round) + " query " + std::to_string(q) +
                       " " + pred->ToString();
      RefFiltered ref = RefFilter(*table, pred, staged);

      // Scan, unordered and unlimited: every match in slot order.
      ScanSpec spec;
      spec.table = table.get();
      spec.predicate = pred;
      spec.include_staged = staged;
      Result<std::vector<Tuple>> got = exec.Scan(spec);
      ASSERT_EQ(got.status().ToString(), ref.status.ToString()) << at;
      if (got.ok()) {
        EXPECT_EQ(Render(*got), Render(ref.rows)) << at;
      }

      // Scan with ORDER BY ... LIMIT: the filter and the bounded selection
      // in one pass, which sees every row.
      spec.order_by = RandomOrderBy(rng, 4);
      if (spec.order_by.empty()) {
        spec.order_by.push_back({static_cast<size_t>(rng.NextBounded(4)),
                                 rng.NextBool(0.5)});
      }
      spec.limit = rng.NextBounded(n + 2);
      got = exec.Scan(spec);
      ASSERT_EQ(got.status().ToString(), ref.status.ToString()) << at;
      if (got.ok()) {
        std::vector<Tuple> expected = ref.rows;
        RefOrder(&expected, spec.order_by, spec.limit);
        EXPECT_EQ(Render(*got), Render(expected)) << at << " top-N";
      }

      // Scan with a LIMIT and no ORDER BY stops at the limit-th match.
      spec.order_by.clear();
      RefFiltered early = RefFilter(*table, pred, staged, spec.limit);
      got = exec.Scan(spec);
      ASSERT_EQ(got.status().ToString(), early.status.ToString()) << at;
      if (got.ok()) {
        early.rows.resize(std::min(early.rows.size(), *spec.limit));
        EXPECT_EQ(Render(*got), Render(early.rows)) << at << " limit";
      }

      // Count, over active rows only.
      RefFiltered active = RefFilter(*table, pred, false);
      Result<size_t> count = exec.Count(table.get(), pred);
      ASSERT_EQ(count.status().ToString(), active.status.ToString()) << at;
      if (count.ok()) {
        EXPECT_EQ(*count, active.rows.size()) << at << " count";
      }

      // Aggregate: GROUP BY a random column, COUNT, top-N by count.
      AggregateSpec agg;
      agg.table = table.get();
      agg.predicate = pred;
      agg.include_staged = staged;
      agg.group_by = {static_cast<size_t>(rng.NextBounded(4))};
      agg.aggregates = {{AggFunc::kCount, 0}};
      agg.order_by = {{1, true}};
      agg.limit = rng.NextBounded(4);
      Result<std::vector<Tuple>> grouped = exec.Aggregate(agg);
      ASSERT_EQ(grouped.status().ToString(), ref.status.ToString()) << at;
      if (grouped.ok()) {
        std::vector<Tuple> expected =
            RefAggregate(ref.rows, agg.group_by, agg.aggregates);
        RefOrder(&expected, agg.order_by, agg.limit);
        EXPECT_EQ(RenderAggregate(*grouped, agg),
                  RenderAggregate(expected, agg))
            << at << " aggregate";
      }

      // Delete and Update, each on a fresh copy: all or nothing.
      std::vector<std::string> unmatched, updated;
      size_t visited = 0;
      table->ForEach(
          [&](RowId rid, const Tuple& row, const RowMeta& meta) {
            bool visible = staged || meta.active;
            bool hit = visible && ref.status.ok() && ref.matched[visited];
            if (visible) ++visited;
            std::string tail = meta.active ? "" : " staged";
            if (!hit) {
              unmatched.push_back(std::to_string(rid) + " " +
                                  TupleToString(row) + tail);
            }
            Tuple next = row;
            if (hit && !next[0].is_null()) {
              next[0] = Value::BigInt(next[0].as_int64() + 1);
            }
            updated.push_back(std::to_string(rid) + " " + TupleToString(next) +
                              tail);
            return true;
          },
          /*include_staged=*/true);
      std::unique_ptr<Table> victim = FilledTable(rows, indexed);
      std::vector<std::string> before = SlotContents(*victim);
      Result<size_t> deleted = exec.Delete(victim.get(), pred, staged);
      ASSERT_EQ(deleted.status().ToString(), ref.status.ToString()) << at;
      EXPECT_EQ(SlotContents(*victim), deleted.ok() ? unmatched : before)
          << at << " delete";
      if (deleted.ok()) {
        EXPECT_EQ(*deleted, ref.rows.size()) << at;
      }
      std::unique_ptr<Table> target = FilledTable(rows, indexed);
      Result<size_t> changed = exec.Update(
          target.get(), pred, {{0, Add(Col(0), LitInt(1))}}, staged);
      ASSERT_EQ(changed.status().ToString(), ref.status.ToString()) << at;
      EXPECT_EQ(SlotContents(*target), changed.ok() ? updated : before)
          << at << " update";
      if (changed.ok()) {
        EXPECT_EQ(*changed, ref.rows.size()) << at;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PredicateDifferentialTest,
                         ::testing::Values(5ull, 19ull, 313ull, 9001ull));

// ---- Key-free hash index entries vs a linear reference -----------------

/// Reference probe: the live rows whose key columns hash like `key` and are
/// Value::Equals to it, ascending by RowId.
std::vector<RowId> RefLookup(const Table& table, const HashIndex& idx,
                             const Tuple& key) {
  std::vector<RowId> out;
  table.ForEach(
      [&](RowId rid, const Tuple& row, const RowMeta&) {
        Tuple row_key = idx.ExtractKey(row);
        bool equal = HashTuple(row_key) == HashTuple(key);
        for (size_t i = 0; equal && i < key.size(); ++i) {
          equal = row_key[i].Equals(key[i]);
        }
        if (equal) out.push_back(rid);
        return true;
      },
      /*include_staged=*/true);
  return out;
}

void ExpectIndexesMatchReference(const Table& table,
                                 const std::vector<Tuple>& probes,
                                 const std::string& where) {
  for (const auto& idx : table.indexes()) {
    EXPECT_EQ(idx->EntryCount(), table.row_count()) << where << " " << idx->name();
    for (const Tuple& probe : probes) {
      Tuple key(probe.begin(), probe.begin() + idx->key_columns().size());
      std::vector<RowId> want = RefLookup(table, *idx, key);
      std::vector<RowId> got = idx->Lookup(key);
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, want) << where << " " << idx->name() << " "
                           << TupleToString(key);
      EXPECT_EQ(idx->Contains(key), !want.empty())
          << where << " " << idx->name() << " " << TupleToString(key);
    }
  }
}

class IndexTwinTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IndexTwinTest, ProbesMatchLinearReferenceThroughMutationsAndUndo) {
  // k: unique, BIGINT/TIMESTAMP mix; g: non-unique; (d, g): composite over
  // a DOUBLE with NaN and signed zeros. No key starts at column 0, so a
  // probe that mixes up key positions and row columns shows.
  Table table("t", Schema({{"g", ValueType::kBigInt},
                           {"d", ValueType::kDouble},
                           {"k", ValueType::kBigInt}}));
  ASSERT_TRUE(table.CreateIndex("pk", {"k"}, true).ok());
  ASSERT_TRUE(table.CreateIndex("by_g", {"g"}, false).ok());
  ASSERT_TRUE(table.CreateIndex("by_dg", {"d", "g"}, false).ok());

  std::vector<Value> doubles = {Value::Double(std::numeric_limits<double>::quiet_NaN()),
                                Value::Double(-0.0), Value::Double(0.0),
                                Value::Double(2.0), Value::Null()};
  std::vector<Tuple> probes;
  for (int64_t v = 0; v < 8; ++v) {
    probes.push_back({Value::BigInt(v), Value::BigInt(v % 3)});
    probes.push_back({Value::Timestamp(v), Value::BigInt(v % 3)});
    probes.push_back({Value::Double(static_cast<double>(v)), Value::BigInt(v % 3)});
  }
  for (const Value& d : doubles) {
    for (int64_t g = 0; g < 3; ++g) probes.push_back({d, Value::BigInt(g)});
  }
  probes.push_back({Value::Null(), Value::Null()});

  auto int_like = [](Rng& rng, int64_t v) {
    return rng.NextBool(0.5) ? Value::Timestamp(v) : Value::BigInt(v);
  };

  Rng rng(GetParam());
  for (int txn = 0; txn < 120; ++txn) {
    UndoLog undo;
    Executor exec(&undo);
    std::string at = "seed " + std::to_string(GetParam()) + " txn " +
                     std::to_string(txn);
    int ops = static_cast<int>(rng.NextRange(1, 8));
    for (int op = 0; op < ops; ++op) {
      int64_t k = rng.NextRange(0, 7);
      Value g = rng.NextBool(0.1) ? Value::Null() : Value::BigInt(rng.NextRange(0, 2));
      Value d = doubles[rng.NextBounded(doubles.size())];
      double dice = rng.NextDouble();
      if (dice < 0.45) {
        bool taken = !RefLookup(table, **table.GetIndex("pk"),
                                {Value::BigInt(k)}).empty();
        Result<RowId> rid = exec.Insert(&table, {g, d, int_like(rng, k)}, 0,
                                        rng.NextBool(0.8));
        EXPECT_EQ(rid.ok(), !taken) << at;
        if (!rid.ok()) {
          EXPECT_EQ(rid.status().code(), StatusCode::kConstraintViolation) << at;
        }
      } else if (dice < 0.65) {
        ASSERT_TRUE(exec.Delete(&table, Eq(Col(2), LitInt(k)), true).ok()) << at;
      } else if (dice < 0.8) {
        // Same key value, possibly a new type: BIGINT 5 <-> TIMESTAMP 5
        // keeps the hash but must keep every probe right.
        ASSERT_TRUE(exec.Update(&table, Eq(Col(2), LitInt(k)),
                                {{2, Lit(int_like(rng, k))}, {1, Lit(d)}}, true)
                        .ok())
            << at;
      } else {
        // Moves a row to another key; a taken key is a violation.
        int64_t to = rng.NextRange(0, 7);
        Result<size_t> n = exec.Update(&table, Eq(Col(2), LitInt(k)),
                                       {{2, Lit(int_like(rng, to))}, {0, Lit(g)}},
                                       true);
        if (!n.ok()) {
          EXPECT_EQ(n.status().code(), StatusCode::kConstraintViolation) << at;
        }
      }
      ExpectIndexesMatchReference(table, probes, at + " op " + std::to_string(op));
    }
    if (rng.NextBool(0.4)) {
      ASSERT_TRUE(undo.Rollback().ok()) << at;
      ExpectIndexesMatchReference(table, probes, at + " after rollback");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexTwinTest,
                         ::testing::Values(5ull, 77ull, 2024ull));

TEST(UniqueIndexTest, RejectsEqualKeysOfOtherTypes) {
  Table t("t", Schema({{"k", ValueType::kBigInt}, {"v", ValueType::kBigInt}}));
  ASSERT_TRUE(t.CreateIndex("pk", {"k"}, true).ok());
  RowId five = *t.Insert({Value::BigInt(5), Value::BigInt(0)});
  RowId six = *t.Insert({Value::BigInt(6), Value::BigInt(0)});

  Result<RowId> ts = t.Insert({Value::Timestamp(5), Value::BigInt(1)});
  EXPECT_EQ(ts.status().code(), StatusCode::kConstraintViolation);
  Result<Tuple> moved = t.Update(six, {Value::Timestamp(5), Value::BigInt(1)});
  EXPECT_EQ(moved.status().code(), StatusCode::kConstraintViolation);
  // DOUBLE 5.0 is the same key: the index finds BIGINT 5 under it (the
  // column's type already keeps a DOUBLE out of the table).
  const HashIndex* pk = *t.GetIndex("pk");
  EXPECT_TRUE(pk->Contains({Value::Double(5.0)}));
  EXPECT_EQ(pk->Lookup({Value::Double(5.0)}), std::vector<RowId>{five});
  EXPECT_FALSE(t.Insert({Value::Double(5.0), Value::BigInt(1)}).ok());
  EXPECT_FALSE(pk->Contains({Value::Double(5.5)}));
  EXPECT_EQ(pk->EntryCount(), 2u);

  // A DOUBLE key column: -0.0 and 0.0 are one key, and BIGINT 0 finds it.
  Table d("d", Schema({{"x", ValueType::kDouble}}));
  ASSERT_TRUE(d.CreateIndex("pk", {"x"}, true).ok());
  RowId zero = *d.Insert({Value::Double(-0.0)});
  EXPECT_EQ(d.Insert({Value::Double(0.0)}).status().code(),
            StatusCode::kConstraintViolation);
  EXPECT_EQ(*d.IndexLookup("pk", {Value::BigInt(0)}), std::vector<RowId>{zero});
}

// ---- Tuple-based windows vs a deque model ------------------------------

/// A tuple-based window as two queues of values in arrival order: the
/// window's active rows and the rows staged behind it.
struct WindowModel {
  std::deque<int64_t> active;
  std::deque<int64_t> staged;
  int64_t slides = 0;

  void Insert(int64_t v, size_t size, size_t slide) {
    staged.push_back(v);
    size_t threshold = active.empty() ? size : slide;
    if (staged.size() < threshold) return;
    for (size_t i = 0; i < slide && !active.empty(); ++i) active.pop_front();
    for (size_t i = 0; i < threshold; ++i) {
      active.push_back(staged.front());
      staged.pop_front();
    }
    ++slides;
  }
};

/// Column 0 of `table`'s rows in the given state, in arrival order.
std::vector<int64_t> WindowColumn(const Table& table, bool active) {
  std::vector<std::pair<uint64_t, int64_t>> rows;
  table.ForEach(
      [&](RowId, const Tuple& row, const RowMeta& meta) {
        if (meta.active == active) rows.emplace_back(meta.seq, row[0].as_int64());
        return true;
      },
      /*include_staged=*/true);
  std::sort(rows.begin(), rows.end());
  std::vector<int64_t> out;
  for (const auto& r : rows) out.push_back(r.second);
  return out;
}

class WindowDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WindowDifferentialTest, TupleWindowMatchesDequeModelThroughAborts) {
  // Expiry frees slots that later rows reuse, and an aborted slide puts
  // expired rows back into their old slots, so slot order and arrival
  // order part ways; the slide must go by arrival order all the same.
  Rng rng(GetParam());
  for (int trial = 0; trial < 8; ++trial) {
    size_t size = static_cast<size_t>(rng.NextRange(1, 9));
    size_t slide = static_cast<size_t>(rng.NextRange(1, static_cast<int64_t>(size)));
    if (trial % 4 == 0) slide = 1;
    if (trial % 4 == 1) slide = size;  // tumbling
    SStore store;
    WindowSpec spec;
    spec.name = "w";
    spec.schema = Schema({{"x", ValueType::kBigInt}});
    spec.size = static_cast<int64_t>(size);
    spec.slide = static_cast<int64_t>(slide);
    ASSERT_TRUE(store.windows().DefineWindow(spec).ok());
    const Table& table = **store.catalog().GetTable("w");

    WindowModel model;
    int64_t next = 0;
    for (int step = 0; step < 80; ++step) {
      std::string at = "seed " + std::to_string(GetParam()) + " size " +
                       std::to_string(size) + " slide " +
                       std::to_string(slide) + " step " + std::to_string(step);
      UndoLog undo;
      Executor exec(&undo);
      WindowModel attempt = model;
      std::vector<Tuple> rows;
      int n = static_cast<int>(rng.NextRange(1, static_cast<int64_t>(size) + 2));
      for (int i = 0; i < n; ++i) {
        rows.push_back({Value::BigInt(next)});
        attempt.Insert(next++, size, slide);
      }
      ASSERT_TRUE(store.windows().Insert(exec, "w", rows).ok()) << at;
      if (rng.NextBool(0.3)) {
        ASSERT_TRUE(undo.Rollback().ok()) << at;
        model.slides = attempt.slides;  // the counter is not rolled back
      } else {
        undo.Release();
        model = attempt;
      }

      std::vector<int64_t> want_active(model.active.begin(), model.active.end());
      Result<std::vector<Tuple>> contents = store.windows().ActiveContents("w");
      ASSERT_TRUE(contents.ok()) << at;
      std::vector<int64_t> got_active;
      for (const Tuple& row : *contents) got_active.push_back(row[0].as_int64());
      ASSERT_EQ(got_active, want_active) << at;
      ASSERT_EQ(WindowColumn(table, /*active=*/true), want_active) << at;
      ASSERT_EQ(WindowColumn(table, /*active=*/false),
                std::vector<int64_t>(model.staged.begin(), model.staged.end()))
          << at;
      ASSERT_EQ(table.staged_count(), model.staged.size()) << at;
      ASSERT_EQ(*store.windows().SlideCount("w"), model.slides) << at;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WindowDifferentialTest,
                         ::testing::Values(3ull, 99ull, 31337ull));

TEST(RandomWorkflowScheduleTest, RandomDagsAlwaysProduceCorrectSchedules) {
  // Generate random 4-node DAGs, deploy them with pass-through procedures,
  // run several rounds, and validate the recorded schedule against the
  // paper's two ordering constraints.
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 7919);
    SStore store;
    Schema num({{"x", ValueType::kBigInt}});

    // Node 0 is the border; nodes 1..3 each pick one upstream node.
    std::vector<int> upstream = {-1};
    for (int n = 1; n < 4; ++n) {
      upstream.push_back(static_cast<int>(rng.NextBounded(n)));
    }
    auto stream_name = [](int from, int to) {
      return "e" + std::to_string(from) + "_" + std::to_string(to);
    };
    Workflow wf("random");
    for (int n = 0; n < 4; ++n) {
      std::vector<std::string> ins, outs;
      if (n > 0) ins.push_back(stream_name(upstream[n], n));
      for (int m = n + 1; m < 4; ++m) {
        if (upstream[m] == n) outs.push_back(stream_name(n, m));
      }
      for (const std::string& s : outs) {
        ASSERT_TRUE(store.streams().DefineStream(s, num).ok());
      }
      std::string proc = "n" + std::to_string(n);
      SStore* sp = &store;
      std::vector<std::string> outs_copy = outs;
      std::string in_copy = ins.empty() ? "" : ins[0];
      auto body = std::make_shared<LambdaProcedure>(
          [sp, in_copy, outs_copy](ProcContext& ctx) {
            std::vector<Tuple> rows;
            if (in_copy.empty()) {
              rows.push_back(ctx.params());
            } else {
              SSTORE_ASSIGN_OR_RETURN(
                  rows, sp->streams().BatchContents(in_copy, ctx.batch_id()));
            }
            for (const std::string& out : outs_copy) {
              SSTORE_RETURN_NOT_OK(ctx.EmitToStream(out, rows));
            }
            return Status::OK();
          });
      ASSERT_TRUE(store.partition()
                      .RegisterProcedure(
                          proc, n == 0 ? SpKind::kBorder : SpKind::kInterior,
                          body)
                      .ok());
      WorkflowNode node;
      node.proc = proc;
      node.kind = n == 0 ? SpKind::kBorder : SpKind::kInterior;
      node.input_streams = ins;
      node.output_streams = outs;
      ASSERT_TRUE(wf.AddNode(node).ok());
    }
    ASSERT_TRUE(store.DeployWorkflow(wf).ok());

    std::vector<ScheduleEvent> schedule;
    store.partition().AddCommitHook(
        [&schedule](Partition&, const TransactionExecution& te) {
          schedule.push_back({te.proc_name(), te.batch_id()});
        });

    StreamInjector injector(&store.partition(), "n0");
    for (int r = 0; r < 10; ++r) {
      ASSERT_TRUE(injector.InjectSync({Value::BigInt(r)}).committed());
    }
    EXPECT_EQ(schedule.size(), 40u) << "seed " << seed;
    EXPECT_TRUE(ValidateSchedule(wf, schedule).ok()) << "seed " << seed;
  }
}

}  // namespace
}  // namespace sstore
