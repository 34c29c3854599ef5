#ifndef SSTORE_COMMON_BYTES_H_
#define SSTORE_COMMON_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"

namespace sstore {

// The one codec for durable bytes, and for the PE<->EE boundary channel
// (which deliberately serializes every crossing to model H-Store's JNI
// boundary). Every file on disk goes through this header:
//  - ByteWriter/ByteReader encode and decode the contents: log records,
//    snapshot entries, the checkpoint manifest and its partition map. The
//    reader never reads past its buffer; malformed input is kCorruption.
//  - PutFrame/NextFrame wrap a payload as `magic | len | FNV-1a | payload`.
//    The command log is a sequence of frames; the manifest is one.
//  - ReadFile reads a whole regular file; WriteFileAtomic publishes one
//    (temp file, fsync, rename, fsync of the directory). Snapshots and the
//    manifest are written this way; the log appends through its own stream.

/// Append-only binary encoder.
class ByteWriter {
 public:
  ByteWriter() = default;

  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU32(uint32_t v) { PutRaw(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutRaw(&v, sizeof(v)); }
  void PutI64(int64_t v) { PutRaw(&v, sizeof(v)); }
  void PutDouble(double v) { PutRaw(&v, sizeof(v)); }
  void PutString(const std::string& s) {
    PutU32(static_cast<uint32_t>(s.size()));
    PutRaw(s.data(), s.size());
  }
  void PutBytes(const uint8_t* data, size_t len) { PutRaw(data, len); }
  void PutValue(const Value& v);
  void PutTuple(const Tuple& t);
  void PutTuples(const std::vector<Tuple>& ts);
  /// Appends `magic | u32 len | u32 FNV-1a(payload) | payload`.
  void PutFrame(uint32_t magic, const std::vector<uint8_t>& payload);

  const std::vector<uint8_t>& data() const { return buf_; }
  std::vector<uint8_t> Take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }
  void Clear() { buf_.clear(); }

 private:
  void PutRaw(const void* p, size_t n) {
    const uint8_t* b = static_cast<const uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }

  std::vector<uint8_t> buf_;
};

/// Sequential binary decoder matching ByteWriter. All getters return
/// kCorruption when the buffer is exhausted or malformed instead of reading
/// out of bounds.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<uint8_t>& buf)
      : ByteReader(buf.data(), buf.size()) {}

  Result<uint8_t> GetU8();
  Result<uint32_t> GetU32();
  Result<uint64_t> GetU64();
  Result<int64_t> GetI64();
  Result<double> GetDouble();
  Result<std::string> GetString();
  Result<Value> GetValue();
  Result<Tuple> GetTuple();
  Result<std::vector<Tuple>> GetTuples();

  /// Reads one PutFrame(magic, ...) frame and points `*payload` at its
  /// bytes (a view into this reader's buffer). kCorruption when the bytes
  /// left do not start with an intact frame: another magic, a length past
  /// the end, or a checksum mismatch.
  Status NextFrame(uint32_t magic, ByteReader* payload);

  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

  /// Advances past `n` bytes without decoding them (length-prefixed entries
  /// a reader does not care about, e.g. skipped snapshot tables).
  Status Skip(size_t n) {
    SSTORE_RETURN_NOT_OK(Need(n));
    pos_ += n;
    return Status::OK();
  }

 private:
  Status Need(size_t n) {
    if (pos_ + n > size_) {
      return Status::Corruption("byte buffer underrun");
    }
    return Status::OK();
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// Reads the whole file at `path`. IOError when it cannot be opened or read,
/// or is not a regular file (a directory, say).
Result<std::vector<uint8_t>> ReadFile(const std::string& path);

/// Publishes `bytes` at `path` atomically and durably: write `path.tmp`,
/// fsync it, rename it over `path`, fsync the directory. A crash leaves
/// either the old file or the new one, never a short one. The directory
/// fsync makes the rename itself durable before the caller acts on it (as
/// LevelDB and RocksDB do after renaming CURRENT): the checkpoint deletes
/// the previous epoch's logs right after the manifest rename.
///
/// Failpoint sites: `<failpoint_scope>.write` (error; torn: half the bytes
/// reach the temp file; crash: no temp file) and `<failpoint_scope>.rename`
/// (error, crash). A temp file that was never renamed is invisible to
/// every reader.
Status WriteFileAtomic(const std::string& path,
                       const std::vector<uint8_t>& bytes,
                       const std::string& failpoint_scope);

}  // namespace sstore

#endif  // SSTORE_COMMON_BYTES_H_
