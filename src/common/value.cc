#include "common/value.h"

#include <cstring>
#include <functional>

namespace sstore {

namespace {

// 64-bit FNV-1a over raw bytes; stable across runs (required because index
// contents are rebuilt from checkpoints and must agree with logged state).
size_t FnvHash(const void* data, size_t len, size_t seed = 1469598103934665603ull) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  size_t h = seed;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

const char* ValueTypeToString(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kBigInt:
      return "BIGINT";
    case ValueType::kDouble:
      return "DOUBLE";
    case ValueType::kString:
      return "STRING";
    case ValueType::kTimestamp:
      return "TIMESTAMP";
  }
  return "UNKNOWN";
}

void Value::Unref(const StringRep* rep) noexcept {
  if (rep->refs.fetch_sub(1) == 1) delete rep;
}

Result<double> Value::ToNumeric() const {
  switch (type()) {
    case ValueType::kBigInt:
    case ValueType::kTimestamp:
      return static_cast<double>(as_int64());
    case ValueType::kDouble:
      return as_double();
    default:
      return Status::InvalidArgument("value is not numeric: " + ToString());
  }
}

int Value::CompareMixed(const Value& other) const {
  ValueType t = type(), o = other.type();
  if (t == ValueType::kNull || o == ValueType::kNull) {
    if (t == o) return 0;
    return t == ValueType::kNull ? -1 : 1;
  }
  // Numeric cross-type comparison (two int-like values never get here).
  if (t != o) {
    bool numeric = (IsIntLike(t) || t == ValueType::kDouble) &&
                   (IsIntLike(o) || o == ValueType::kDouble);
    if (numeric) {
      double a = IsIntLike(t) ? static_cast<double>(as_int64()) : as_double();
      double b = IsIntLike(o) ? static_cast<double>(other.as_int64())
                              : other.as_double();
      if (a < b) return -1;
      if (a > b) return 1;
      return 0;
    }
    return static_cast<int>(t) < static_cast<int>(o) ? -1 : 1;
  }
  switch (t) {
    case ValueType::kDouble: {
      double a = as_double(), b = other.as_double();
      if (a < b) return -1;
      if (a > b) return 1;
      return 0;
    }
    case ValueType::kString: {
      int c = as_string().compare(other.as_string());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    default:
      return 0;
  }
}

size_t Value::Hash() const {
  switch (type()) {
    case ValueType::kNull:
      return 0x9e3779b97f4a7c15ull;
    case ValueType::kBigInt:
    case ValueType::kTimestamp: {
      int64_t v = as_int64();
      return FnvHash(&v, sizeof(v));
    }
    case ValueType::kDouble: {
      double v = as_double();
      if (v == 0.0) v = 0.0;  // normalize -0.0
      // Hash an integral double identically to the equal BIGINT so that
      // numeric cross-type equality implies hash equality.
      int64_t as_int = static_cast<int64_t>(v);
      if (static_cast<double>(as_int) == v) {
        return FnvHash(&as_int, sizeof(as_int));
      }
      return FnvHash(&v, sizeof(v));
    }
    case ValueType::kString: {
      const std::string& s = as_string();
      return FnvHash(s.data(), s.size());
    }
  }
  return 0;
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kBigInt:
      return std::to_string(as_int64());
    case ValueType::kTimestamp:
      return "ts:" + std::to_string(as_int64());
    case ValueType::kDouble:
      return std::to_string(as_double());
    case ValueType::kString:
      return "'" + as_string() + "'";
  }
  return "?";
}

size_t HashTuple(const Tuple& tuple) {
  size_t h = kTupleHashSeed;
  for (const Value& v : tuple) h = HashCombine(h, v);
  return h;
}

std::string TupleToString(const Tuple& tuple) {
  std::string out = "(";
  for (size_t i = 0; i < tuple.size(); ++i) {
    if (i > 0) out += ", ";
    out += tuple[i].ToString();
  }
  out += ")";
  return out;
}

}  // namespace sstore
