#include "log/command_log.h"

#include <unistd.h>

#include "common/failpoint.h"

namespace sstore {

namespace {

constexpr uint32_t kRecordMagic = 0x534c4f47;  // "SLOG"

void EncodeRecord(const LogRecord& r, ByteWriter* out) {
  ByteWriter payload;
  payload.PutI64(r.txn_id);
  payload.PutString(r.proc);
  payload.PutTuple(r.params);
  payload.PutI64(r.batch_id);
  payload.PutU8(r.sp_kind);
  payload.PutU8(r.record_type);
  payload.PutI64(r.global_txn_id);
  out->PutFrame(kRecordMagic, payload.data());
}

}  // namespace

Result<std::unique_ptr<CommandLog>> CommandLog::Open(Options options) {
  if (options.path.empty()) {
    return Status::InvalidArgument("command log requires a path");
  }
  if (options.group_size == 0) {
    return Status::InvalidArgument("group_size must be >= 1");
  }
  std::unique_ptr<CommandLog> log(new CommandLog(options));
  log->file_ = std::fopen(options.path.c_str(), "wb");
  if (log->file_ == nullptr) {
    return Status::IOError("cannot open command log at " + options.path);
  }
  return log;
}

CommandLog::~CommandLog() { Close().ok(); }

Status CommandLog::Append(const LogRecord& record) {
  if (!error_.ok()) return error_;
  if (file_ == nullptr) {
    return Status::IOError("command log is closed");
  }
  if (failpoint::AnyActive()) {
    failpoint::Action a =
        failpoint::Evaluate(options_.failpoint_scope + ".append");
    if (a == failpoint::Action::kError) {
      // Transient refusal: the record was not buffered; the caller aborts
      // this transaction but the log stays usable.
      return Status::IOError("failpoint " + options_.failpoint_scope +
                             ".append injected error");
    }
    if (a != failpoint::Action::kOff) {
      // Simulated kill at the append site: freeze before buffering, so
      // nothing of this record can ever reach disk.
      error_ = Status::IOError("failpoint " + options_.failpoint_scope +
                               ".append injected crash");
      return error_;
    }
  }
  EncodeRecord(record, &buffer_);
  ++pending_;
  records_appended_.fetch_add(1, std::memory_order_relaxed);
  if (pending_ >= options_.group_size) return Flush();
  return Status::OK();
}

Status CommandLog::Flush() {
  if (!error_.ok()) return error_;
  if (file_ == nullptr) {
    return Status::IOError("command log is closed");
  }
  if (pending_ == 0) return Status::OK();
  const std::vector<uint8_t>& bytes = buffer_.data();
  if (failpoint::AnyActive()) {
    failpoint::Action a =
        failpoint::Evaluate(options_.failpoint_scope + ".flush");
    if (a == failpoint::Action::kTornWrite) {
      // The kill landed mid-write: persist a prefix (half the group, torn
      // inside a frame for any realistic record size), then freeze. Replay
      // must ReadTolerant past this tail.
      size_t torn = bytes.size() / 2;
      std::fwrite(bytes.data(), 1, torn, file_);
      std::fflush(file_);
      error_ = Status::IOError("failpoint " + options_.failpoint_scope +
                               ".flush injected torn write");
      return error_;
    }
    if (a == failpoint::Action::kCrash) {
      error_ = Status::IOError("failpoint " + options_.failpoint_scope +
                               ".flush injected crash");
      return error_;
    }
    if (a == failpoint::Action::kError) {
      // Even an injected "clean" error is sticky: the group-commit contract
      // (class comment) cannot tell how much of a failed flush persisted.
      error_ = Status::IOError("failpoint " + options_.failpoint_scope +
                               ".flush injected error");
      return error_;
    }
  }
  size_t written = std::fwrite(bytes.data(), 1, bytes.size(), file_);
  if (written != bytes.size()) {
    error_ = Status::IOError("short write to command log");
    return error_;
  }
  if (std::fflush(file_) != 0) {
    error_ = Status::IOError("fflush failed on command log");
    return error_;
  }
  if (options_.sync) {
    if (fsync(fileno(file_)) != 0) {
      error_ = Status::IOError("fsync failed on command log");
      return error_;
    }
  }
  bytes_written_.fetch_add(bytes.size(), std::memory_order_relaxed);
  buffer_.Clear();
  pending_ = 0;
  flush_count_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status CommandLog::Close() {
  if (file_ == nullptr) return error_;
  // A frozen log must not write its buffered tail — the on-disk state is
  // the crash/fault instant and stays that way.
  Status st = error_.ok() ? Flush() : error_;
  int closed = std::fclose(file_);
  file_ = nullptr;
  if (st.ok() && closed != 0) {
    st = Status::IOError("fclose failed on command log");
    error_ = st;
  }
  return st;
}

Result<CommandLog::TolerantRead> CommandLog::ReadTolerant(
    const std::string& path) {
  SSTORE_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, ReadFile(path));
  TolerantRead out;
  ByteReader reader(bytes);
  ByteReader payload(nullptr, 0);
  while (!reader.AtEnd()) {
    // The first frame that is not intact ends the log: the tail a crash
    // mid-flush leaves behind.
    if (!reader.NextFrame(kRecordMagic, &payload).ok()) {
      out.torn_tail = true;
      break;
    }
    // An intact frame whose payload does not decode is not a torn tail.
    LogRecord r;
    SSTORE_ASSIGN_OR_RETURN(r.txn_id, payload.GetI64());
    SSTORE_ASSIGN_OR_RETURN(r.proc, payload.GetString());
    SSTORE_ASSIGN_OR_RETURN(r.params, payload.GetTuple());
    SSTORE_ASSIGN_OR_RETURN(r.batch_id, payload.GetI64());
    SSTORE_ASSIGN_OR_RETURN(r.sp_kind, payload.GetU8());
    SSTORE_ASSIGN_OR_RETURN(r.record_type, payload.GetU8());
    SSTORE_ASSIGN_OR_RETURN(r.global_txn_id, payload.GetI64());
    out.records.push_back(std::move(r));
  }
  return out;
}

}  // namespace sstore
