#ifndef SSTORE_LOG_COMMAND_LOG_H_
#define SSTORE_LOG_COMMAND_LOG_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "common/value.h"

namespace sstore {

/// What a log record means to replay. Beyond plain committed transactions,
/// the cross-partition coordinator (src/txn_coord) writes a presumed-abort
/// two-phase-commit trail into each participant's log:
/// - kPrepare: a fragment of multi-partition transaction `global_txn_id`
///   executed here and is ready to commit (durable *before* the vote), or
///   a child of a nested transaction whose group id is negative
///   (partition-local; coordinator gids start at 1).
/// - kCommitMark / kAbortMark: this partition learned the decision (for a
///   nested group, the kCommitMark *is* the decision). Replay applies
///   buffered kPrepare records at the kCommitMark position.
/// - kCheckpointMark: a coordinated cluster checkpoint cut the log here;
///   recovery from that checkpoint replays only records after the mark.
/// A kPrepare with no following mark is *in doubt*: recovery resolves it
/// against the coordinator's decision log (commit) or presumes abort.
enum class LogRecordType : uint8_t {
  kTxn = 0,
  kPrepare = 1,
  kCommitMark = 2,
  kAbortMark = 3,
  kCheckpointMark = 4,
};

/// One command-log entry: enough to re-execute a committed transaction with
/// the same arguments (H-Store's command logging [Malviya et al., ICDE'14]).
struct LogRecord {
  int64_t txn_id = 0;
  std::string proc;
  Tuple params;
  int64_t batch_id = 0;
  uint8_t sp_kind = 0;  // SpKind as logged (OLTP / border / interior)
  uint8_t record_type = 0;  // LogRecordType
  /// Group id of kPrepare records and decision marks (a coordinator gid,
  /// or a nested group's negative id); the checkpoint id for
  /// kCheckpointMark; 0 otherwise.
  int64_t global_txn_id = 0;

  LogRecordType type() const { return static_cast<LogRecordType>(record_type); }

  friend bool operator==(const LogRecord& a, const LogRecord& b) {
    return a.txn_id == b.txn_id && a.proc == b.proc && a.params == b.params &&
           a.batch_id == b.batch_id && a.sp_kind == b.sp_kind &&
           a.record_type == b.record_type &&
           a.global_txn_id == b.global_txn_id;
  }
};

/// Durability counters of one log (or, summed, of a partition across its
/// rotation epochs — Partition::log_stats). flush_count vs records_appended
/// is the group-commit ratio the paper's §4.4 knob trades durability latency
/// against: group_size 1 means one fsync per record, larger groups amortize.
struct LogStats {
  uint64_t records_appended = 0;
  uint64_t flush_count = 0;
  uint64_t bytes_written = 0;

  LogStats& operator+=(const LogStats& other) {
    records_appended += other.records_appended;
    flush_count += other.flush_count;
    bytes_written += other.bytes_written;
    return *this;
  }
};

/// Append-only command log with group commit. Records are buffered by
/// Append and made durable by Flush (write + fsync). With group_size == 1
/// every append flushes immediately (the "no group commit" configuration of
/// paper §4.4); larger group sizes batch consecutive commits into one fsync.
///
/// Error model: I/O failures are *sticky*. Once a flush fails, the on-disk
/// suffix is unknown (a short fwrite may have persisted part of a frame), so
/// re-flushing the buffer would corrupt the file mid-stream; instead every
/// later Append/Flush returns the original error, Close() does not attempt a
/// final flush, and the caller must treat the log as dead (the partition
/// aborts the failing transaction and every one after it — a full disk can
/// no longer ack a "durable" commit). last_error() exposes the frozen state.
///
/// Single-writer: owned and driven by one partition's worker thread.
class CommandLog {
 public:
  struct Options {
    std::string path;
    size_t group_size = 1;  // records per forced flush; 1 = no group commit
    bool sync = true;       // fsync on flush (off only for tests)
    /// Failpoint site prefix: this log hits `<scope>.append` and
    /// `<scope>.flush` (see common/failpoint.h). The coordinator's decision
    /// log uses scope "decision_log" so tests can target it apart from the
    /// partition logs.
    std::string failpoint_scope = "command_log";
  };

  /// Creates (truncates) a log file for writing.
  static Result<std::unique_ptr<CommandLog>> Open(Options options);

  ~CommandLog();

  CommandLog(const CommandLog&) = delete;
  CommandLog& operator=(const CommandLog&) = delete;

  /// Buffers one record; flushes when the group fills.
  Status Append(const LogRecord& record);

  /// Forces buffered records to durable storage.
  Status Flush();

  Status Close();

  // Counters are atomics so observability (ClusterStats) can read them live
  // from other threads while the single writer appends.
  uint64_t records_appended() const {
    return records_appended_.load(std::memory_order_relaxed);
  }
  uint64_t flush_count() const {
    return flush_count_.load(std::memory_order_relaxed);
  }
  uint64_t bytes_written() const {
    return bytes_written_.load(std::memory_order_relaxed);
  }
  LogStats stats() const {
    return LogStats{records_appended(), flush_count(), bytes_written()};
  }
  size_t pending() const { return pending_; }

  /// The sticky I/O error (OK while the log is healthy). Once non-OK the
  /// log is frozen: no further bytes reach disk, including at Close().
  const Status& last_error() const { return error_; }

  /// What a crash-tolerant read recovered: every whole valid record, plus
  /// whether the file ended in a torn/invalid tail (a crash mid-flush — the
  /// normal way a log ends when the process died, per §4.4 group commit:
  /// anything after the last complete frame was never acked durable).
  struct TolerantRead {
    std::vector<LogRecord> records;
    bool torn_tail = false;
  };

  /// Reads every record of a log file, validating framing and checksums
  /// (common/bytes.h frames). A malformed suffix ends the log instead of
  /// failing it: replay after a kill must accept a torn final frame. Reads
  /// stop at the first frame that is not intact (standard WAL
  /// tail-truncation semantics); an intact frame that does not decode as a
  /// record is kCorruption.
  static Result<TolerantRead> ReadTolerant(const std::string& path);

 private:
  explicit CommandLog(Options options) : options_(std::move(options)) {}

  Options options_;
  std::FILE* file_ = nullptr;
  ByteWriter buffer_;
  size_t pending_ = 0;
  /// Sticky failure (see class comment); also set by failpoint crash/torn
  /// actions to freeze the on-disk state at the simulated kill instant.
  Status error_;
  std::atomic<uint64_t> records_appended_{0};
  std::atomic<uint64_t> flush_count_{0};
  std::atomic<uint64_t> bytes_written_{0};
};

}  // namespace sstore

#endif  // SSTORE_LOG_COMMAND_LOG_H_
