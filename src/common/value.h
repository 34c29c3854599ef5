#ifndef SSTORE_COMMON_VALUE_H_
#define SSTORE_COMMON_VALUE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
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
///
/// A Value is 24 bytes: a std::variant whose alternative index *is* the
/// ValueType (kTimestamp is its own alternative, so no separate tag byte).
/// A STRING holds an immutable, shared buffer: copying a string value copies
/// a pointer, and no copy can change what another one reads.
class Value {
 public:
  /// Constructs a NULL value.
  Value() = default;

  static Value Null() { return Value(); }
  static Value BigInt(int64_t v) {
    return Value(std::in_place_type<int64_t>, v);
  }
  static Value Double(double v) { return Value(std::in_place_type<double>, v); }
  static Value String(std::string v) {
    return Value(std::in_place_type<StringPtr>,
                 std::make_shared<const std::string>(std::move(v)));
  }
  static Value Timestamp(int64_t micros) {
    return Value(std::in_place_type<Micros>, Micros{micros});
  }

  ValueType type() const { return static_cast<ValueType>(data_.index()); }
  bool is_null() const { return std::holds_alternative<std::monostate>(data_); }

  /// Accessors. Calling the wrong accessor for the stored type is a
  /// programming error; as_int64 works for both kBigInt and kTimestamp.
  int64_t as_int64() const {
    if (const auto* v = std::get_if<int64_t>(&data_)) return *v;
    return std::get<Micros>(data_).v;
  }
  double as_double() const { return std::get<double>(data_); }
  const std::string& as_string() const { return *std::get<StringPtr>(data_); }

  /// Numeric view: kBigInt/kTimestamp widened to double, kDouble as-is.
  /// Returns an error for strings and NULL.
  Result<double> ToNumeric() const;

  /// Three-way comparison: negative, zero, positive (NULL sorts first).
  /// Two BIGINT/TIMESTAMP values compare as int64, inline; every other
  /// pair goes to CompareMixed.
  int Compare(const Value& other) const {
    if (IsIntLike(type()) && IsIntLike(other.type())) {
      int64_t a = IntBits(), b = other.IntBits();
      return (a > b) - (a < b);
    }
    return CompareMixed(other);
  }

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
  /// The TIMESTAMP alternative: an int64 that is a distinct variant type.
  struct Micros {
    int64_t v;
  };
  using StringPtr = std::shared_ptr<const std::string>;
  // Alternative i holds ValueType i, so type() is the variant's index.
  using Rep = std::variant<std::monostate, int64_t, double, StringPtr, Micros>;
  template <ValueType t>
  using Alt = std::variant_alternative_t<static_cast<size_t>(t), Rep>;
  static_assert(std::is_same_v<Alt<ValueType::kNull>, std::monostate> &&
                std::is_same_v<Alt<ValueType::kBigInt>, int64_t> &&
                std::is_same_v<Alt<ValueType::kDouble>, double> &&
                std::is_same_v<Alt<ValueType::kString>, StringPtr> &&
                std::is_same_v<Alt<ValueType::kTimestamp>, Micros>);

  template <typename T, typename Arg>
  Value(std::in_place_type_t<T> alt, Arg&& v)
      : data_(alt, std::forward<Arg>(v)) {}

  /// The int64 of a value known to be BIGINT or TIMESTAMP.
  int64_t IntBits() const {
    return std::holds_alternative<int64_t>(data_)
               ? *std::get_if<int64_t>(&data_)
               : std::get_if<Micros>(&data_)->v;
  }
  int CompareMixed(const Value& other) const;

  Rep data_;
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
