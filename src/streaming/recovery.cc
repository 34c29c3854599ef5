#include "streaming/recovery.h"

#include <map>

namespace sstore {

Status RecoveryManager::Recover(const std::string& snapshot_path,
                                const std::string& log_path,
                                RecoveryMode mode,
                                const ReplayOptions& replay) {
  stats_ = ReplayStats{};

  if (mode == RecoveryMode::kStrong) {
    // Every transaction is in the log; PE triggers must not re-activate
    // interior procedures or they would run twice (paper §3.2.5).
    triggers_->SetPeTriggersEnabled(false);
  }

  SSTORE_RETURN_NOT_OK(SnapshotManager::RestoreSnapshot(
      snapshot_path, &partition_->catalog(), replay.snapshot_base_resolver));

  if (mode == RecoveryMode::kWeak) {
    // Interior TEs that ran post-snapshot are not logged; batches the
    // snapshot preserved in stream tables must re-trigger them before the
    // log is read (paper §3.2.5, weak recovery).
    SSTORE_ASSIGN_OR_RETURN(size_t fired, triggers_->FireResidualTriggers());
    stats_.residual_triggers += fired;
    partition_->DrainQueueInline();
  }

  if (!log_path.empty()) {
    SSTORE_RETURN_NOT_OK(
        ReplayLog(log_path, /*include_interior=*/mode == RecoveryMode::kStrong,
                  replay));
  }

  if (mode == RecoveryMode::kStrong) {
    triggers_->SetPeTriggersEnabled(true);
    // Streams that still hold batches (emitted by the tail of the log but
    // whose downstream TEs never committed pre-crash) now fire.
    SSTORE_ASSIGN_OR_RETURN(size_t fired, triggers_->FireResidualTriggers());
    stats_.residual_triggers += fired;
  }
  partition_->DrainQueueInline();
  return Status::OK();
}

void RecoveryManager::ReplayRecord(const LogRecord& record) {
  // The replay client submits sequentially: each transaction must be
  // confirmed committed before the next is sent (paper §4.4). Interior
  // records replayed this way pay the same client round trip — which is
  // why strong recovery time grows with workflow depth (Figure 9b).
  TxnOutcome outcome =
      partition_->ExecuteSync(record.proc, record.params, record.batch_id);
  ++stats_.records_replayed;
  if (!outcome.committed()) ++stats_.replay_failures;
}

Status RecoveryManager::ReplayLog(const std::string& log_path,
                                  bool include_interior,
                                  const ReplayOptions& replay) {
  // Tolerant read: a log that ends mid-frame is the normal signature of a
  // crash during a flush (§4.4 — the torn tail was never acked durable), so
  // replay stops at the last complete record instead of failing. Mid-file
  // corruption still fails: ParseRecords stops at the first invalid byte,
  // and a checkpoint mark expected *after* that point surfaces as the
  // missing-mark error below.
  SSTORE_ASSIGN_OR_RETURN(CommandLog::TolerantRead tolerant,
                          CommandLog::ReadTolerant(log_path));
  std::vector<LogRecord>& records = tolerant.records;
  // A freshly rotated epoch log can be empty (crash between the rotation
  // and the first record): nothing committed past the cut, nothing to do.
  if (records.empty()) return Status::OK();

  // Replay starts after the coordinated-checkpoint cut: the *last* mark
  // carrying its id.
  size_t start = 0;
  bool found = false;
  for (size_t i = 0; i < records.size(); ++i) {
    if (records[i].type() == LogRecordType::kCheckpointMark &&
        records[i].global_txn_id ==
            static_cast<int64_t>(replay.from_checkpoint_id)) {
      start = i + 1;
      found = true;
    }
  }
  if (!found) {
    return Status::Corruption("log has no checkpoint mark for id " +
                              std::to_string(replay.from_checkpoint_id));
  }

  // Multi-partition fragments (kPrepare) apply at their decision mark.
  // The participant worker blocks between prepare and decision, so marks
  // directly follow their prepares; only a crash leaves an undecided
  // (in-doubt) tail, resolved below against the coordinator's decisions.
  std::map<int64_t, std::vector<LogRecord>> pending;
  std::vector<int64_t> pending_order;
  for (size_t i = start; i < records.size(); ++i) {
    const LogRecord& r = records[i];
    switch (r.type()) {
      case LogRecordType::kTxn:
        if (!include_interior &&
            static_cast<SpKind>(r.sp_kind) == SpKind::kInterior) {
          // Defensive: a weak-mode log should not contain interior records.
          continue;
        }
        ReplayRecord(r);
        break;
      case LogRecordType::kPrepare:
        if (pending.find(r.global_txn_id) == pending.end()) {
          pending_order.push_back(r.global_txn_id);
        }
        pending[r.global_txn_id].push_back(r);
        break;
      case LogRecordType::kCommitMark:
        for (const LogRecord& frag : pending[r.global_txn_id]) {
          ReplayRecord(frag);
        }
        pending.erase(r.global_txn_id);
        break;
      case LogRecordType::kAbortMark:
        pending.erase(r.global_txn_id);
        break;
      case LogRecordType::kCheckpointMark:
        break;  // a later checkpoint's cut; nothing to apply
    }
  }

  // In-doubt resolution (presumed abort): commit only what the coordinator
  // made durable before the crash.
  for (int64_t gid : pending_order) {
    auto it = pending.find(gid);
    if (it == pending.end()) continue;
    if (gid < 0) {
      ++stats_.torn_nested_groups;
    } else if (replay.committed_gids != nullptr &&
        replay.committed_gids->count(gid) != 0) {
      for (const LogRecord& frag : it->second) ReplayRecord(frag);
      ++stats_.in_doubt_committed;
    } else {
      ++stats_.in_doubt_aborted;
    }
  }
  return Status::OK();
}

}  // namespace sstore
