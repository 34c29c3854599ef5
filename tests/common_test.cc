#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/value.h"
#include "query/expr.h"
#include "server/wire_protocol.h"

namespace sstore {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::NotFound("missing thing");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsNotFound());
  EXPECT_EQ(st.ToString(), "NotFound: missing thing");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    EXPECT_STRNE(StatusCodeToString(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(StatusTest, PredicateHelpers) {
  EXPECT_TRUE(Status::Aborted("x").IsAborted());
  EXPECT_TRUE(Status::ConstraintViolation("x").IsConstraintViolation());
  EXPECT_TRUE(Status::PermissionDenied("x").IsPermissionDenied());
  EXPECT_FALSE(Status::OK().IsAborted());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.ValueOr(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::InvalidArgument("bad");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.ValueOr(7), 7);
}

Result<int> Doubler(Result<int> in) {
  SSTORE_ASSIGN_OR_RETURN(int v, in);
  return v * 2;
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(*Doubler(21), 42);
  EXPECT_FALSE(Doubler(Status::NotFound("x")).ok());
}

TEST(ValueTest, NullOrdering) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_LT(Value::Null().Compare(Value::BigInt(0)), 0);
  EXPECT_EQ(Value::Null().Compare(Value::Null()), 0);
}

TEST(ValueTest, IntComparison) {
  EXPECT_EQ(Value::BigInt(5).Compare(Value::BigInt(5)), 0);
  EXPECT_LT(Value::BigInt(4).Compare(Value::BigInt(5)), 0);
  EXPECT_GT(Value::BigInt(6).Compare(Value::BigInt(5)), 0);
}

TEST(ValueTest, CrossTypeNumericComparison) {
  EXPECT_EQ(Value::BigInt(5).Compare(Value::Double(5.0)), 0);
  EXPECT_LT(Value::BigInt(5).Compare(Value::Double(5.5)), 0);
  EXPECT_EQ(Value::Timestamp(100).Compare(Value::BigInt(100)), 0);
}

TEST(ValueTest, StringComparison) {
  EXPECT_LT(Value::String("abc").Compare(Value::String("abd")), 0);
  EXPECT_EQ(Value::String("x"), Value::String("x"));
}

TEST(ValueTest, EqualValuesHashEqual) {
  EXPECT_EQ(Value::BigInt(7).Hash(), Value::BigInt(7).Hash());
  EXPECT_EQ(Value::String("hi").Hash(), Value::String("hi").Hash());
  // Numeric cross-type equality implies hash equality (hash-join safety).
  EXPECT_EQ(Value::BigInt(7).Hash(), Value::Double(7.0).Hash());
}

TEST(ValueTest, ToNumericErrorsOnString) {
  EXPECT_FALSE(Value::String("x").ToNumeric().ok());
  EXPECT_FALSE(Value::Null().ToNumeric().ok());
  EXPECT_DOUBLE_EQ(*Value::Double(2.5).ToNumeric(), 2.5);
}

TEST(ValueTest, ToStringFormats) {
  EXPECT_EQ(Value::BigInt(3).ToString(), "3");
  EXPECT_EQ(Value::String("a").ToString(), "'a'");
  EXPECT_EQ(Value::Null().ToString(), "NULL");
}

TEST(TupleTest, HashAndToString) {
  Tuple a = {Value::BigInt(1), Value::String("x")};
  Tuple b = {Value::BigInt(1), Value::String("x")};
  Tuple c = {Value::String("x"), Value::BigInt(1)};  // order matters
  EXPECT_EQ(HashTuple(a), HashTuple(b));
  EXPECT_NE(HashTuple(a), HashTuple(c));
  EXPECT_EQ(TupleToString(a), "(1, 'x')");
}

// ---- Value representation ----

// A row cell: an 8-byte payload and the type tag.
static_assert(sizeof(Value) == 16, "a Value is 16 bytes");

/// A value's type and exact rendering: TupleToString keeps BIGINT 5 and
/// TIMESTAMP 5 apart ("5" vs "ts:5"), which Value::Equals does not.
std::string Exact(const Value& v) {
  return std::string(ValueTypeToString(v.type())) + " " + v.ToString();
}

TEST(ValueRepTest, BigIntAndTimestampStayDistinctThroughCopiesAndMoves) {
  Value big = Value::BigInt(5);
  Value ts = Value::Timestamp(5);
  EXPECT_EQ(big.type(), ValueType::kBigInt);
  EXPECT_EQ(ts.type(), ValueType::kTimestamp);
  EXPECT_EQ(ts.as_int64(), 5);
  EXPECT_EQ(big.Compare(ts), 0);
  EXPECT_EQ(big.Hash(), ts.Hash());

  Value copy = ts;
  EXPECT_EQ(Exact(copy), "TIMESTAMP ts:5");
  Value moved = std::move(copy);
  EXPECT_EQ(Exact(moved), "TIMESTAMP ts:5");
  Value assigned = Value::String("s");
  assigned = big;
  EXPECT_EQ(Exact(assigned), "BIGINT 5");
  assigned = ts;
  EXPECT_EQ(Exact(assigned), "TIMESTAMP ts:5");
  assigned = std::move(moved);
  EXPECT_EQ(Exact(assigned), "TIMESTAMP ts:5");

  Tuple row = {big, ts, Value::Null(), Value::Double(-0.0), Value::String("x")};
  ByteWriter w;
  w.PutTuple(row);
  ByteReader r(w.data());
  Result<Tuple> back = r.GetTuple();
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(TupleToString(*back), TupleToString(row));
  for (size_t i = 0; i < row.size(); ++i) {
    EXPECT_EQ((*back)[i].type(), row[i].type()) << i;
  }
}

TEST(ValueRepTest, BigIntAndTimestampStayDistinctOverTheWire) {
  Tuple params = {Value::BigInt(7), Value::Timestamp(7), Value::String("p")};
  Value key = Value::Timestamp(9);
  ByteWriter w;
  EncodeSubmit(&w, 1, "proc", params, &key, 3);
  TxnOutcome outcome;
  outcome.output = {{Value::Timestamp(-1), Value::BigInt(-1)}};
  EncodeResult(&w, 2, outcome);

  WireFrameBuffer frames;
  frames.Feed(w.data().data(), w.data().size());
  const uint8_t* payload = nullptr;
  size_t len = 0;
  ASSERT_TRUE(*frames.Next(&payload, &len));
  WireRequest req;
  WireRequestType type = WireRequestType::kPing;
  ASSERT_TRUE(DecodeRequest(payload, len, &req, &type).ok());
  EXPECT_EQ(TupleToString(req.params), TupleToString(params));
  ASSERT_TRUE(req.key.has_value());
  EXPECT_EQ(Exact(*req.key), "TIMESTAMP ts:9");

  ASSERT_TRUE(*frames.Next(&payload, &len));
  WireResponse resp;
  ASSERT_TRUE(DecodeResponse(payload, len, &resp).ok());
  ASSERT_EQ(resp.output.size(), 1u);
  EXPECT_EQ(Exact(resp.output[0][0]), "TIMESTAMP ts:-1");
  EXPECT_EQ(Exact(resp.output[0][1]), "BIGINT -1");
}

TEST(ValueRepTest, CopiedStringsMatchFreshOnes) {
  Value a = Value::String("leaderboard");
  Value copy = a;
  Tuple row(3, a);  // three copies share one buffer
  Value fresh = Value::String("leaderboard");
  for (const Value& v : {copy, row[0], row[2]}) {
    EXPECT_EQ(v.type(), ValueType::kString);
    EXPECT_EQ(v.as_string(), "leaderboard");
    EXPECT_EQ(v.Compare(fresh), 0);
    EXPECT_EQ(fresh.Compare(v), 0);
    EXPECT_EQ(v.Hash(), fresh.Hash());
  }
  EXPECT_EQ(HashTuple(row), HashTuple(Tuple(3, fresh)));
  // Reassigning one copy leaves the others as they were.
  row[1] = Value::String("other");
  EXPECT_EQ(row[0].as_string(), "leaderboard");
  EXPECT_EQ(a.as_string(), "leaderboard");
  EXPECT_LT(row[0].Compare(row[1]), 0);
  EXPECT_EQ(Value::String("").as_string(), "");
  EXPECT_EQ(Value::String("").Compare(Value::String("")), 0);
}

int Sign(int c) { return (c > 0) - (c < 0); }

TEST(ValueRepTest, CompareAndHashAgree) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const int64_t big = int64_t{1} << 53;
  std::vector<Value> values = {
      Value::Null(),          Value::BigInt(-1),       Value::BigInt(0),
      Value::BigInt(5),       Value::BigInt(big + 1),  Value::Timestamp(0),
      Value::Timestamp(5),    Value::Timestamp(big),   Value::Double(-0.0),
      Value::Double(0.0),     Value::Double(5.0),      Value::Double(0.5),
      Value::Double(-1.5),    Value::Double(nan),      Value::String(""),
      Value::String("a"),     Value::String("b"),      Value::String("ab")};
  for (const Value& a : values) {
    for (const Value& b : values) {
      std::string at = Exact(a) + " vs " + Exact(b);
      int ab = a.Compare(b);
      EXPECT_TRUE(ab == -1 || ab == 0 || ab == 1) << at;
      EXPECT_EQ(Sign(ab), -Sign(b.Compare(a))) << at;
      EXPECT_EQ(a.Equals(b), ab == 0) << at;
      // NaN compares level with every number (ORDER BY ranks it apart), so
      // only NaN-free equal pairs must share a hash.
      bool has_nan = (a.type() == ValueType::kDouble && std::isnan(a.as_double())) ||
                     (b.type() == ValueType::kDouble && std::isnan(b.as_double()));
      if (ab == 0 && !has_nan) {
        EXPECT_EQ(a.Hash(), b.Hash()) << at;
      }
    }
    EXPECT_EQ(a.Compare(a), 0) << Exact(a);
    EXPECT_EQ(a.Hash(), Value(a).Hash()) << Exact(a);
  }
  // Int-like pairs compare exactly, past double precision.
  EXPECT_GT(Value::BigInt(big + 1).Compare(Value::Timestamp(big)), 0);
  // Cross-type pairs that are not both numeric order by type tag.
  EXPECT_LT(Value::Null().Compare(Value::BigInt(0)), 0);
  EXPECT_LT(Value::BigInt(9).Compare(Value::String("")), 0);
  EXPECT_LT(Value::String("z").Compare(Value::Timestamp(0)), 0);
  EXPECT_EQ(Value::Double(-0.0).Hash(), Value::BigInt(0).Hash());
}

// ---- Predicate parity ----

/// Random expression trees over 3-column rows. Columns 3 and 4 are past
/// the row; literals and cells mix NULL, BIGINT, TIMESTAMP, DOUBLE (NaN,
/// +-0) and STRING; integers stay small so arithmetic cannot overflow.
class ExprGen {
 public:
  explicit ExprGen(uint64_t seed) : rng_(seed) {}

  Value RandomValue() {
    switch (rng_.NextBounded(8)) {
      case 0:
        return Value::Null();
      case 1:
      case 2:
        return Value::BigInt(rng_.NextRange(-3, 3));
      case 3:
        return Value::Timestamp(rng_.NextRange(-3, 3));
      case 4: {
        const double ds[] = {std::numeric_limits<double>::quiet_NaN(), -0.0,
                             0.0, 0.5, 2.0, -1.0};
        return Value::Double(ds[rng_.NextBounded(6)]);
      }
      case 5:
        return Value::String(rng_.NextBool(0.5) ? "a" : "");
      default:
        return Value::BigInt(rng_.NextRange(0, 1));
    }
  }

  Tuple RandomRow() { return {RandomValue(), RandomValue(), RandomValue()}; }

  ExprPtr RandomExpr(int depth) {
    uint64_t pick = depth <= 0 ? rng_.NextBounded(2) : rng_.NextBounded(9);
    switch (pick) {
      case 0:
        return Col(rng_.NextBool(0.85) ? rng_.NextBounded(3)
                                       : 3 + rng_.NextBounded(2));
      case 1:
        return Lit(RandomValue());
      case 2:
      case 3:
      case 4:
        return Cmp(static_cast<CmpOp>(rng_.NextBounded(6)),
                   RandomExpr(depth - 1), RandomExpr(depth - 1));
      case 5:
        return Arith(static_cast<ArithOp>(rng_.NextBounded(5)),
                     RandomExpr(depth - 1), RandomExpr(depth - 1));
      case 6:
        return rng_.NextBool(0.5) ? And(RandomExpr(depth - 1), RandomExpr(depth - 1))
                                  : Or(RandomExpr(depth - 1), RandomExpr(depth - 1));
      case 7:
        return Not(RandomExpr(depth - 1));
      default:
        return IsNull(RandomExpr(depth - 1));
    }
  }

 private:
  Rng rng_;
};

/// The predicate contract spelled out: Eval, then truthiness.
Result<bool> ReferencePredicate(const ExprPtr& expr, const Tuple& row) {
  Result<Value> v = expr->Eval(row);
  if (!v.ok()) return v.status();
  if (v->is_null()) return false;
  Result<double> d = v->ToNumeric();
  if (!d.ok()) return d.status();
  return *d != 0.0;
}

TEST(PredicateParityTest, EvalPredicateMatchesEvalThenTruthiness) {
  for (uint64_t seed : {1ull, 17ull, 4242ull}) {
    ExprGen gen(seed);
    int errors = 0;
    int trues = 0;
    for (int i = 0; i < 3000; ++i) {
      ExprPtr expr = gen.RandomExpr(static_cast<int>(i % 4));
      for (int r = 0; r < 4; ++r) {
        Tuple row = gen.RandomRow();
        Result<bool> want = ReferencePredicate(expr, row);
        Result<bool> got = EvalPredicate(expr, row);
        std::string at = expr->ToString() + " on " + TupleToString(row);
        ASSERT_EQ(got.ok(), want.ok()) << at;
        if (!want.ok()) {
          EXPECT_EQ(got.status().code(), want.status().code()) << at;
          ++errors;
          continue;
        }
        EXPECT_EQ(*got, *want) << at;
        trues += *want ? 1 : 0;
      }
    }
    // The trees reach every outcome: errors, true and false.
    EXPECT_GT(errors, 100) << seed;
    EXPECT_GT(trues, 100) << seed;
  }
  EXPECT_TRUE(*EvalPredicate(nullptr, {}));
}

TEST(PredicateParityTest, ComparisonReadsColumnsInPlace) {
  Tuple row = {Value::String("b"), Value::Timestamp(4), Value::Null()};
  EXPECT_TRUE(*EvalPredicate(Gt(Col(0), LitString("a")), row));
  EXPECT_TRUE(*EvalPredicate(Eq(LitInt(4), Col(1)), row));
  EXPECT_FALSE(*EvalPredicate(Eq(Col(2), Col(2)), row));  // NULL is false
  EXPECT_FALSE(*EvalPredicate(Ne(Col(2), LitInt(1)), row));
  Result<bool> out = EvalPredicate(Eq(Col(3), LitInt(1)), row);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kOutOfRange);
  // The left operand's error wins, as in Eval.
  out = EvalPredicate(Lt(Div(LitInt(1), LitInt(0)), Col(9)), row);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
}

TEST(BytesTest, PrimitiveRoundTrip) {
  ByteWriter w;
  w.PutU8(7);
  w.PutU32(123456);
  w.PutI64(-42);
  w.PutDouble(3.25);
  w.PutString("hello");
  ByteReader r(w.data());
  EXPECT_EQ(*r.GetU8(), 7);
  EXPECT_EQ(*r.GetU32(), 123456u);
  EXPECT_EQ(*r.GetI64(), -42);
  EXPECT_DOUBLE_EQ(*r.GetDouble(), 3.25);
  EXPECT_EQ(*r.GetString(), "hello");
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, ValueRoundTripAllTypes) {
  std::vector<Value> values = {Value::Null(), Value::BigInt(-5),
                               Value::Double(1.5), Value::String("s"),
                               Value::Timestamp(999)};
  ByteWriter w;
  for (const Value& v : values) w.PutValue(v);
  ByteReader r(w.data());
  for (const Value& v : values) {
    Result<Value> got = r.GetValue();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->type(), v.type());
    EXPECT_TRUE(got->Equals(v) || (got->is_null() && v.is_null()));
  }
}

TEST(BytesTest, TupleListRoundTrip) {
  std::vector<Tuple> tuples = {{Value::BigInt(1), Value::String("a")},
                               {Value::BigInt(2), Value::String("b")}};
  ByteWriter w;
  w.PutTuples(tuples);
  ByteReader r(w.data());
  Result<std::vector<Tuple>> got = r.GetTuples();
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->size(), 2u);
  EXPECT_EQ((*got)[1][1], Value::String("b"));
}

TEST(BytesTest, UnderrunIsCorruption) {
  ByteWriter w;
  w.PutU8(1);
  ByteReader r(w.data());
  EXPECT_TRUE(r.GetU64().status().code() == StatusCode::kCorruption);
}

TEST(BytesTest, TruncatedStringIsCorruption) {
  ByteWriter w;
  w.PutU32(100);  // claims 100 bytes follow
  ByteReader r(w.data());
  EXPECT_EQ(r.GetString().status().code(), StatusCode::kCorruption);
}

TEST(BytesTest, UnknownValueTagIsCorruption) {
  ByteWriter w;
  w.PutU8(99);
  ByteReader r(w.data());
  EXPECT_EQ(r.GetValue().status().code(), StatusCode::kCorruption);
}

TEST(ClockTest, SimulatedClockAdvances) {
  SimulatedClock clock(1000);
  EXPECT_EQ(clock.NowMicros(), 1000);
  clock.AdvanceMicros(500);
  EXPECT_EQ(clock.NowMicros(), 1500);
  clock.SetMicros(0);
  EXPECT_EQ(clock.NowMicros(), 0);
}

TEST(ClockTest, WallClockMonotone) {
  WallClock clock;
  int64_t a = clock.NowMicros();
  int64_t b = clock.NowMicros();
  EXPECT_GE(b, a);
}

TEST(RngTest, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, BoundedAndRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(10), 10u);
    int64_t v = rng.NextRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, SeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 4);
}

}  // namespace
}  // namespace sstore
