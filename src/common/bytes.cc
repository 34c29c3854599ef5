#include "common/bytes.h"

#include <algorithm>

namespace sstore {

void ByteWriter::PutValue(const Value& v) {
  PutU8(static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kBigInt:
    case ValueType::kTimestamp:
      PutI64(v.as_int64());
      break;
    case ValueType::kDouble:
      PutDouble(v.as_double());
      break;
    case ValueType::kString:
      PutString(v.as_string());
      break;
  }
}

void ByteWriter::PutTuple(const Tuple& t) {
  PutU32(static_cast<uint32_t>(t.size()));
  for (const Value& v : t) PutValue(v);
}

void ByteWriter::PutTuples(const std::vector<Tuple>& ts) {
  PutU32(static_cast<uint32_t>(ts.size()));
  for (const Tuple& t : ts) PutTuple(t);
}

Result<uint8_t> ByteReader::GetU8() {
  SSTORE_RETURN_NOT_OK(Need(1));
  return data_[pos_++];
}

Result<uint32_t> ByteReader::GetU32() {
  SSTORE_RETURN_NOT_OK(Need(4));
  uint32_t v;
  std::memcpy(&v, data_ + pos_, 4);
  pos_ += 4;
  return v;
}

Result<uint64_t> ByteReader::GetU64() {
  SSTORE_RETURN_NOT_OK(Need(8));
  uint64_t v;
  std::memcpy(&v, data_ + pos_, 8);
  pos_ += 8;
  return v;
}

Result<int64_t> ByteReader::GetI64() {
  SSTORE_RETURN_NOT_OK(Need(8));
  int64_t v;
  std::memcpy(&v, data_ + pos_, 8);
  pos_ += 8;
  return v;
}

Result<double> ByteReader::GetDouble() {
  SSTORE_RETURN_NOT_OK(Need(8));
  double v;
  std::memcpy(&v, data_ + pos_, 8);
  pos_ += 8;
  return v;
}

Result<std::string> ByteReader::GetString() {
  SSTORE_ASSIGN_OR_RETURN(uint32_t len, GetU32());
  SSTORE_RETURN_NOT_OK(Need(len));
  std::string s(reinterpret_cast<const char*>(data_ + pos_), len);
  pos_ += len;
  return s;
}

Result<Value> ByteReader::GetValue() {
  SSTORE_ASSIGN_OR_RETURN(uint8_t tag, GetU8());
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kBigInt: {
      SSTORE_ASSIGN_OR_RETURN(int64_t v, GetI64());
      return Value::BigInt(v);
    }
    case ValueType::kTimestamp: {
      SSTORE_ASSIGN_OR_RETURN(int64_t v, GetI64());
      return Value::Timestamp(v);
    }
    case ValueType::kDouble: {
      SSTORE_ASSIGN_OR_RETURN(double v, GetDouble());
      return Value::Double(v);
    }
    case ValueType::kString: {
      SSTORE_ASSIGN_OR_RETURN(std::string v, GetString());
      return Value::String(std::move(v));
    }
  }
  return Status::Corruption("unknown value tag " + std::to_string(tag));
}

Result<Tuple> ByteReader::GetTuple() {
  SSTORE_ASSIGN_OR_RETURN(uint32_t n, GetU32());
  Tuple t;
  // Every value takes at least one byte: never reserve past the buffer for
  // a count read from it (a corrupt count then fails as an underrun).
  t.reserve(std::min<size_t>(n, remaining()));
  for (uint32_t i = 0; i < n; ++i) {
    SSTORE_ASSIGN_OR_RETURN(Value v, GetValue());
    t.push_back(std::move(v));
  }
  return t;
}

Result<std::vector<Tuple>> ByteReader::GetTuples() {
  SSTORE_ASSIGN_OR_RETURN(uint32_t n, GetU32());
  std::vector<Tuple> ts;
  ts.reserve(std::min<size_t>(n, remaining()));
  for (uint32_t i = 0; i < n; ++i) {
    SSTORE_ASSIGN_OR_RETURN(Tuple t, GetTuple());
    ts.push_back(std::move(t));
  }
  return ts;
}

}  // namespace sstore
