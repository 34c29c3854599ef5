#ifndef SSTORE_STREAMING_RECOVERY_H_
#define SSTORE_STREAMING_RECOVERY_H_

#include <cstdint>
#include <set>
#include <string>

#include "common/status.h"
#include "engine/partition.h"
#include "log/command_log.h"
#include "log/snapshot.h"
#include "streaming/trigger.h"

namespace sstore {

/// Runs the two crash-recovery modes of paper §3.2.5 over one partition.
/// Cluster::Recover drives it for every partition of a coordinated
/// checkpoint, with the workers stopped; Cluster::Checkpoint writes the
/// snapshots and log cuts it reads.
///
/// - Strong recovery: every committed transaction is in the command log.
///   PE triggers are disabled, the snapshot is applied, the log is replayed
///   in commit order (each interior TE re-executes from its logged record),
///   then triggers are re-enabled and fired for residual stream state.
///   The result is exactly the pre-crash state.
///
/// - Weak recovery (upstream backup): only border/OLTP transactions are in
///   the log. The snapshot is applied, PE triggers fire for batches the
///   snapshot left in stream tables, then the log is replayed with triggers
///   *enabled* so interior TEs regenerate inside the engine. The result is
///   a legal state that could have existed.
class RecoveryManager {
 public:
  RecoveryManager(Partition* partition, TriggerManager* triggers)
      : partition_(partition), triggers_(triggers) {}

  struct ReplayStats {
    size_t records_replayed = 0;
    size_t residual_triggers = 0;
    size_t replay_failures = 0;
    /// Multi-partition slices (positive global ids) whose log ended after
    /// kPrepare with no decision mark, resolved commit (coordinator
    /// decision log) or abort (presumed abort).
    size_t in_doubt_committed = 0;
    size_t in_doubt_aborted = 0;
    /// Nested groups (negative partition-local ids) whose log ended after
    /// kPrepare with no kCommitMark: always dropped, and never the
    /// coordinator's.
    size_t torn_nested_groups = 0;
  };

  /// Cluster-coordinated replay parameters (see Cluster::Recover).
  struct ReplayOptions {
    /// Replay starts after the *last* kCheckpointMark record carrying this
    /// id (the coordinated-checkpoint cut; ids start at 1). A non-empty log
    /// without that mark is corrupt.
    uint64_t from_checkpoint_id = 0;
    /// Global txn ids the coordinator decided to commit; resolves in-doubt
    /// kPrepare tails. Null == presume abort for every in-doubt txn.
    const std::set<int64_t>* committed_gids = nullptr;
    /// Maps a checkpoint id to that checkpoint's snapshot file for this
    /// partition, so a delta snapshot's reference entries can be restored
    /// from their base file. Empty (the default) rejects delta snapshots.
    SnapshotBaseResolver snapshot_base_resolver;
  };

  /// Recovers a freshly re-created, stopped partition (DDL, procedures,
  /// workflow already deployed; no data) from `snapshot_path` + `log_path`.
  /// The mode must match what the partition logged with before the crash.
  /// An empty `log_path` restores the snapshot only.
  Status Recover(const std::string& snapshot_path, const std::string& log_path,
                 RecoveryMode mode, const ReplayOptions& replay);

  const ReplayStats& replay_stats() const { return stats_; }

 private:
  Status ReplayLog(const std::string& log_path, bool include_interior,
                   const ReplayOptions& replay);
  /// Executes one logged transaction through the replay client.
  void ReplayRecord(const LogRecord& record);

  Partition* partition_;
  TriggerManager* triggers_;
  ReplayStats stats_;
};

}  // namespace sstore

#endif  // SSTORE_STREAMING_RECOVERY_H_
