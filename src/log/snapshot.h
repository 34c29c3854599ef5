#ifndef SSTORE_LOG_SNAPSHOT_H_
#define SSTORE_LOG_SNAPSHOT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "common/status.h"
#include "storage/catalog.h"

namespace sstore {

/// Which tables a delta snapshot may skip: name -> checkpoint id whose
/// snapshot file holds the table's last *full* copy. The cluster tracks
/// per-table mutation counters (Table::version) between checkpoints and
/// lists here every table unchanged since its recorded full write; the
/// snapshot then stores a reference entry (16 bytes) instead of re-
/// serializing the rows — the mechanism that bounds the checkpoint barrier
/// pause when most tables are cold.
struct SnapshotDeltaSpec {
  std::map<std::string, uint64_t> unchanged;
};

/// What one WriteSnapshot call put on disk.
struct SnapshotWriteStats {
  size_t tables_full = 0;
  size_t tables_delta = 0;  // reference entries (unchanged tables)
  uint64_t bytes = 0;       // file size
};

/// Maps a referenced checkpoint id to the snapshot file that holds the full
/// table copy (Cluster binds this to its SnapshotPath naming).
using SnapshotBaseResolver = std::function<std::string(uint64_t)>;

/// Writes and restores whole-database checkpoints (H-Store's periodic
/// transaction-consistent snapshots, paper §3.1). A snapshot captures every
/// table's live rows and row metadata; indexes are rebuilt on restore.
///
/// One on-disk format (magic "SSNAPS03"): a table count, then one entry per
/// table — name, table kind, and either a full length-prefixed body or a
/// reference to the earlier checkpoint that holds the table in full. One
/// reader serves a checkpoint's file and its delta bases; it accepts only
/// what WriteSnapshot writes, and anything else (another magic, an unknown
/// entry kind, a truncated or overlong body, trailing bytes) is kCorruption.
///
/// Files are read with ReadFile and published with WriteFileAtomic
/// (common/bytes.h) under the failpoint scope `snapshot`: the sites
/// `snapshot.write` / `snapshot.rename` inject errors, torn temp files and
/// crashes, and a temp file never renamed is invisible to recovery.
class SnapshotManager {
 public:
  /// Serializes every table of `catalog` to `path` (atomic via temp+rename).
  /// Tables listed in `delta` are written as references to the checkpoint
  /// file that last serialized them in full; a null `delta` writes
  /// everything full. `stats`, when non-null, receives what was written.
  static Status WriteSnapshot(const std::string& path, const Catalog& catalog,
                              const SnapshotDeltaSpec* delta = nullptr,
                              SnapshotWriteStats* stats = nullptr);

  /// Restores table contents from `path` into `catalog`. Every table named
  /// in the snapshot must already exist (schema is part of the DDL, which —
  /// as in H-Store — is re-created by the application before recovery) and
  /// must match the snapshotted schema. Tables in the catalog but absent
  /// from the snapshot are cleared. Reference entries are resolved through
  /// `resolver` — each referenced checkpoint's file is opened and the
  /// table's full copy restored from there; without a resolver a delta
  /// snapshot is InvalidArgument.
  static Status RestoreSnapshot(const std::string& path, Catalog* catalog,
                                const SnapshotBaseResolver& resolver = {});
};

}  // namespace sstore

#endif  // SSTORE_LOG_SNAPSHOT_H_
