#ifndef SSTORE_COMMON_VALUE_H_
#define SSTORE_COMMON_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/status.h"

namespace sstore {

/// Column/value types supported by the storage and query layers.
/// kTimestamp is microseconds since an arbitrary epoch (the simulated or wall
/// clock origin), stored as int64.
enum class ValueType : uint8_t {
  kNull = 0,
  kBigInt = 1,
  kDouble = 2,
  kString = 3,
  kTimestamp = 4,
};

/// Returns a stable name ("BIGINT", "DOUBLE", ...) for a ValueType.
const char* ValueTypeToString(ValueType type);

/// BIGINT and TIMESTAMP share one int64 representation and compare as one
/// type; a column of either accepts values of both.
inline bool IsIntLike(ValueType t) {
  return t == ValueType::kBigInt || t == ValueType::kTimestamp;
}

/// A dynamically typed SQL value. Values are ordered and hashable within the
/// same type; cross-type comparison between kBigInt/kTimestamp and kDouble is
/// performed numerically, any other cross-type comparison orders by type tag.
class Value {
 public:
  /// Constructs a NULL value.
  Value() : type_(ValueType::kNull) {}

  static Value Null() { return Value(); }
  static Value BigInt(int64_t v) { return Value(ValueType::kBigInt, v); }
  static Value Double(double v) {
    Value out;
    out.type_ = ValueType::kDouble;
    out.data_ = v;
    return out;
  }
  static Value String(std::string v) {
    Value out;
    out.type_ = ValueType::kString;
    out.data_ = std::move(v);
    return out;
  }
  static Value Timestamp(int64_t micros) {
    return Value(ValueType::kTimestamp, micros);
  }

  ValueType type() const { return type_; }
  bool is_null() const { return type_ == ValueType::kNull; }

  /// Accessors. Calling the wrong accessor for the stored type is a
  /// programming error; as_int64 works for both kBigInt and kTimestamp.
  int64_t as_int64() const { return std::get<int64_t>(data_); }
  double as_double() const { return std::get<double>(data_); }
  const std::string& as_string() const { return std::get<std::string>(data_); }

  /// Numeric view: kBigInt/kTimestamp widened to double, kDouble as-is.
  /// Returns an error for strings and NULL.
  Result<double> ToNumeric() const;

  /// Three-way comparison: negative, zero, positive (NULL sorts first).
  int Compare(const Value& other) const;

  bool Equals(const Value& other) const { return Compare(other) == 0; }

  /// Stable hash usable for hash indexes (same value => same hash).
  size_t Hash() const;

  std::string ToString() const;

  friend bool operator==(const Value& a, const Value& b) {
    return a.Equals(b);
  }
  friend bool operator!=(const Value& a, const Value& b) {
    return !a.Equals(b);
  }
  friend bool operator<(const Value& a, const Value& b) {
    return a.Compare(b) < 0;
  }

 private:
  Value(ValueType type, int64_t v) : type_(type), data_(v) {}

  ValueType type_;
  std::variant<std::monostate, int64_t, double, std::string> data_;
};

/// A row: a flat sequence of values. Schema interpretation lives in
/// storage::Schema; Tuple itself is schema-agnostic.
using Tuple = std::vector<Value>;

/// Seed and step of HashTuple's order-sensitive combination, exposed so a
/// hash index can hash a row's key columns in place, without copying them
/// into a key Tuple.
constexpr size_t kTupleHashSeed = 14695981039346656037ull;
inline size_t HashCombine(size_t h, const Value& v) {
  return h ^ (v.Hash() + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2));
}

/// Hash of a full tuple (order-sensitive combination of per-value hashes).
size_t HashTuple(const Tuple& tuple);

/// Renders "(v1, v2, ...)" for debugging and error messages.
std::string TupleToString(const Tuple& tuple);

}  // namespace sstore

#endif  // SSTORE_COMMON_VALUE_H_
