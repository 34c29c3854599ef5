#ifndef SSTORE_COMMON_VALUE_H_
#define SSTORE_COMMON_VALUE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
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
/// A Value is 16 bytes: an 8-byte payload (the int64, the double, or a
/// STRING's buffer pointer) and the ValueType tag. A STRING points to an
/// immutable buffer with an atomic reference count: copying a string value
/// copies a pointer and bumps the count, no copy can change what another one
/// reads, and copies may be released on different threads.
class Value {
 public:
  /// Constructs a NULL value.
  Value() noexcept : v_{}, type_(ValueType::kNull) {}
  Value(const Value& other) noexcept : v_(other.v_), type_(other.type_) {
    if (type_ == ValueType::kString) v_.str->Ref();
  }
  Value(Value&& other) noexcept : v_(other.v_), type_(other.type_) {
    other.type_ = ValueType::kNull;
  }
  Value& operator=(const Value& other) noexcept {
    // Referenced before Release, so self-assignment keeps the buffer.
    if (other.type_ == ValueType::kString) other.v_.str->Ref();
    Release();
    v_ = other.v_;
    type_ = other.type_;
    return *this;
  }
  Value& operator=(Value&& other) noexcept {
    if (this != &other) {
      Release();
      v_ = other.v_;
      type_ = other.type_;
      other.type_ = ValueType::kNull;
    }
    return *this;
  }
  ~Value() { Release(); }

  static Value Null() { return Value(); }
  static Value BigInt(int64_t v) {
    Value out;
    out.v_.i = v;
    out.type_ = ValueType::kBigInt;
    return out;
  }
  static Value Double(double v) {
    Value out;
    out.v_.d = v;
    out.type_ = ValueType::kDouble;
    return out;
  }
  static Value String(std::string v) {
    Value out;
    out.v_.str = new StringRep(std::move(v));
    out.type_ = ValueType::kString;
    return out;
  }
  static Value Timestamp(int64_t micros) {
    Value out = BigInt(micros);
    out.type_ = ValueType::kTimestamp;
    return out;
  }

  ValueType type() const { return type_; }
  bool is_null() const { return type_ == ValueType::kNull; }

  /// Accessors. Calling the wrong accessor for the stored type is a
  /// programming error; as_int64 works for both kBigInt and kTimestamp.
  int64_t as_int64() const { return v_.i; }
  double as_double() const { return v_.d; }
  const std::string& as_string() const { return v_.str->str; }

  /// Numeric view: kBigInt/kTimestamp widened to double, kDouble as-is.
  /// Returns an error for strings and NULL.
  Result<double> ToNumeric() const;

  /// Three-way comparison: negative, zero, positive (NULL sorts first).
  /// Two BIGINT/TIMESTAMP values compare as int64, inline; every other
  /// pair goes to CompareMixed.
  int Compare(const Value& other) const {
    if (IsIntLike(type()) && IsIntLike(other.type())) {
      return (v_.i > other.v_.i) - (v_.i < other.v_.i);
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
  /// A STRING's shared buffer. It is never written after construction.
  struct StringRep {
    explicit StringRep(std::string s) : str(std::move(s)) {}
    void Ref() const { refs.fetch_add(1); }
    std::string str;
    mutable std::atomic<size_t> refs{1};
  };

  /// Drops this value's reference to its string buffer, if it holds one.
  void Release() noexcept {
    if (type_ == ValueType::kString) Unref(v_.str);
  }
  /// Drops one reference to `rep`; the last one frees it.
  static void Unref(const StringRep* rep) noexcept;

  int CompareMixed(const Value& other) const;

  /// The payload; copied whole, as the union object, so no copy reads a
  /// member that is not the active one.
  union Payload {
    int64_t i;  // kBigInt, kTimestamp
    double d;
    const StringRep* str;
  };
  Payload v_;
  ValueType type_;
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
