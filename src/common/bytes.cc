#include "common/bytes.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>

#include "common/failpoint.h"

namespace sstore {

namespace {

// Cheap frame checksum (FNV-1a 32-bit). Every step is a bijection of the
// state for a fixed input byte, so any single-byte change is detected.
uint32_t Checksum(const uint8_t* data, size_t len) {
  uint32_t h = 2166136261u;
  for (size_t i = 0; i < len; ++i) {
    h ^= data[i];
    h *= 16777619u;
  }
  return h;
}

}  // namespace

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

void ByteWriter::PutFrame(uint32_t magic, const std::vector<uint8_t>& payload) {
  PutU32(magic);
  PutU32(static_cast<uint32_t>(payload.size()));
  PutU32(Checksum(payload.data(), payload.size()));
  PutRaw(payload.data(), payload.size());
}

Status ByteReader::NextFrame(uint32_t magic, ByteReader* payload) {
  Result<uint32_t> got = GetU32();
  if (!got.ok() || *got != magic) return Status::Corruption("bad frame magic");
  Result<uint32_t> len = GetU32();
  Result<uint32_t> checksum = GetU32();
  if (!len.ok() || !checksum.ok() || remaining() < *len) {
    return Status::Corruption("truncated frame");
  }
  const uint8_t* begin = data_ + pos_;
  if (Checksum(begin, *len) != *checksum) {
    return Status::Corruption("frame checksum mismatch");
  }
  pos_ += *len;
  *payload = ByteReader(begin, *len);
  return Status::OK();
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

Result<std::vector<uint8_t>> ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  struct stat st;
  if (::fstat(fileno(f), &st) != 0 || !S_ISREG(st.st_mode)) {
    std::fclose(f);
    return Status::IOError(path + " is not a regular file");
  }
  std::vector<uint8_t> bytes(static_cast<size_t>(st.st_size));
  // An empty vector's data() may be null, which fread must not see.
  size_t got =
      bytes.empty() ? 0 : std::fread(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  if (got != bytes.size()) return Status::IOError("short read from " + path);
  return bytes;
}

Status WriteFileAtomic(const std::string& path,
                       const std::vector<uint8_t>& bytes,
                       const std::string& failpoint_scope) {
  const std::string tmp = path + ".tmp";
  const std::string write_site = failpoint_scope + ".write";
  failpoint::Action a = failpoint::EvaluateFast(write_site);
  if (a == failpoint::Action::kError) {
    return Status::IOError("failpoint " + write_site + " injected error");
  }
  if (a == failpoint::Action::kTornWrite || a == failpoint::Action::kCrash) {
    // Simulated kill mid-write: leave a torn temp file (or none). It is
    // never renamed, so no reader can observe it.
    if (a == failpoint::Action::kTornWrite) {
      std::FILE* torn = std::fopen(tmp.c_str(), "wb");
      if (torn != nullptr) {
        if (!bytes.empty()) {
          std::fwrite(bytes.data(), 1, bytes.size() / 2, torn);
        }
        std::fclose(torn);
      }
    }
    return Status::IOError("failpoint " + write_site + " injected crash");
  }

  // Every libc return code is checked: a full disk or a failed fsync is an
  // IOError, never a silently short file renamed into place.
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return Status::IOError("cannot create " + tmp);
  bool ok = (bytes.empty() ||
             std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size()) &&
            std::fflush(f) == 0 && ::fsync(fileno(f)) == 0;
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    return Status::IOError("cannot write and sync " + tmp);
  }

  SSTORE_RETURN_NOT_OK(failpoint::Check(failpoint_scope + ".rename"));
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IOError("cannot rename " + tmp + " into place");
  }
  // The rename lives in the directory: sync it too, or a power cut can
  // bring the old file back after the caller moved on. A power cut is not
  // an in-process fault, so no failpoint can show that loss.
  size_t slash = path.rfind('/');
  std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  if (dir.empty()) dir = "/";
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Status::IOError("cannot open directory " + dir);
  bool synced = ::fsync(fd) == 0;
  ::close(fd);
  if (!synced) return Status::IOError("cannot sync directory " + dir);
  return Status::OK();
}

}  // namespace sstore
