#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/value.h"

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
