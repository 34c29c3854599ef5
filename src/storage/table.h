#ifndef SSTORE_STORAGE_TABLE_H_
#define SSTORE_STORAGE_TABLE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "common/value.h"
#include "storage/schema.h"

namespace sstore {

/// Stable identifier of a row within one table (slot index; reused after
/// deletion, so holders must not cache RowIds across deletes they don't own).
using RowId = uint64_t;

/// How a table participates in the S-Store state model (paper §2):
/// public shared tables, streams (ordered, batch-structured), and windows
/// (private to the owning stored procedure's transaction executions).
enum class TableKind : uint8_t {
  kBase = 0,
  kStream = 1,
  kWindow = 2,
};

const char* TableKindToString(TableKind kind);

/// Per-row metadata maintained by the storage layer. Streams use `batch_id`
/// and `seq` (arrival order); windows additionally use `active` to implement
/// the paper's "staging" state (§3.2.2): staged tuples are invisible to
/// queries until the window slides.
struct RowMeta {
  int64_t batch_id = 0;
  uint64_t seq = 0;     // assigned by the table, monotone per table
  bool active = true;   // false == staged (windows only)
};

class Table;

/// A secondary hash index over a subset of columns. Maintained inline by the
/// owning table on every mutation. Unique indexes reject duplicate keys with
/// kConstraintViolation before the table is modified.
///
/// An entry holds only the key's hash (HashTuple of the key columns) and the
/// RowId; the key itself stays in the table's row. Every probe re-checks each
/// candidate's key columns in its slot with Value::Equals, so a hash
/// collision never yields a wrong row.
class HashIndex {
 public:
  HashIndex(const Table* table, std::string name,
            std::vector<size_t> key_columns, bool unique)
      : table_(table),
        name_(std::move(name)),
        key_columns_(std::move(key_columns)),
        unique_(unique) {}

  const std::string& name() const { return name_; }
  const std::vector<size_t>& key_columns() const { return key_columns_; }
  bool unique() const { return unique_; }

  Tuple ExtractKey(const Tuple& row) const;

  /// All row ids matching `key` (empty vector when none).
  std::vector<RowId> Lookup(const Tuple& key) const;
  bool Contains(const Tuple& key) const;
  size_t EntryCount() const { return map_.size(); }

 private:
  friend class Table;

  /// HashTuple(ExtractKey(row)), computed in place.
  size_t KeyHash(const Tuple& row) const;
  /// Whether the row at `rid` (which must be live) agrees with `key`, given
  /// as a key tuple (`key_is_row` false) or as a full row.
  bool RowHasKey(RowId rid, const Tuple& key, bool key_is_row) const;
  /// Whether an entry under `hash` is a row that has `key` (as above).
  bool AnyRowHasKey(size_t hash, const Tuple& key, bool key_is_row) const;
  /// Whether an indexed row agrees with `row` on every key column.
  bool ContainsKeyOf(const Tuple& row) const;

  // Mutation hooks called by Table; neither checks uniqueness.
  void Add(const Tuple& row, RowId rid) { map_.emplace(KeyHash(row), rid); }
  void Remove(const Tuple& row, RowId rid);
  void Clear() { map_.clear(); }

  const Table* table_;
  std::string name_;
  std::vector<size_t> key_columns_;
  bool unique_;
  std::unordered_multimap<size_t, RowId> map_;  // key hash -> row
};

/// In-memory row store with stable slots, free-list reuse, inline-maintained
/// hash indexes, and per-row stream/window metadata. Tables are single-
/// partition objects: all access happens on the owning partition's thread
/// (H-Store's serial execution model), so there is no internal locking.
class Table {
 public:
  Table(std::string name, Schema schema, TableKind kind = TableKind::kBase);

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  TableKind kind() const { return kind_; }

  /// Number of live rows (active + staged).
  size_t row_count() const { return live_count_; }
  /// Number of live rows visible to queries (active only).
  size_t active_count() const { return active_count_; }
  /// Number of staged (inactive) rows.
  size_t staged_count() const { return live_count_ - active_count_; }

  /// Inserts a row (validated against the schema and all unique indexes).
  Result<RowId> Insert(Tuple row) { return Insert(std::move(row), RowMeta{}); }
  Result<RowId> Insert(Tuple row, RowMeta meta);

  /// Removes a row and returns its former contents (for undo logging).
  Result<Tuple> Delete(RowId rid);

  /// Replaces a row in place; returns the before-image (for undo logging).
  /// Indexes whose key columns keep the same type and value are not touched.
  Result<Tuple> Update(RowId rid, Tuple row);

  /// Re-inserts a previously deleted row at a specific slot; used only by
  /// transaction undo so that RowIds recorded in the undo log stay valid.
  Status UndoDeleteAt(RowId rid, Tuple row, RowMeta meta);

  /// Returns the row at `rid`, or kNotFound when the slot is empty.
  Result<const Tuple*> Get(RowId rid) const;
  Result<const RowMeta*> GetMeta(RowId rid) const;

  /// Flips the window staging flag of one row.
  Status SetActive(RowId rid, bool active);

  /// Visits live rows in slot order. When `include_staged` is false (the
  /// default for query execution), staged rows are skipped per the paper's
  /// window-staging visibility rule. `fn(RowId, const Tuple&, const
  /// RowMeta&)` returns false to stop early.
  template <typename Fn>
  void ForEach(Fn&& fn, bool include_staged = false) const {
    for (RowId rid = 0; rid < slots_.size(); ++rid) {
      const Slot& slot = slots_[rid];
      if (!slot.row.has_value()) continue;
      if (!include_staged && !slot.meta.active) continue;
      if (!fn(rid, *slot.row, slot.meta)) return;
    }
  }

  /// Live row ids sorted by arrival sequence (oldest first). Streams and
  /// windows use this for order-sensitive operations.
  std::vector<RowId> RowIdsBySeq(bool include_staged = false) const;

  /// Removes every live row. Returns the number removed.
  size_t Clear();

  // ---- Indexes ----

  /// Creates and backfills a hash index. Fails with kAlreadyExists for a
  /// duplicate name, kConstraintViolation if existing data violates
  /// uniqueness, kInvalidArgument for bad column indexes.
  Status CreateIndex(const std::string& index_name,
                     const std::vector<std::string>& column_names,
                     bool unique);
  Result<const HashIndex*> GetIndex(const std::string& index_name) const;
  const std::vector<std::unique_ptr<HashIndex>>& indexes() const {
    return indexes_;
  }

  /// Looks up row ids via the named index.
  Result<std::vector<RowId>> IndexLookup(const std::string& index_name,
                                         const Tuple& key) const;

  // ---- Checkpoint support ----

  /// Writes schema + live rows + metadata. Indexes are not serialized; they
  /// are rebuilt on load.
  void SerializeTo(ByteWriter* out) const;

  /// Replaces this table's contents from a snapshot produced by SerializeTo.
  /// The serialized schema must equal this table's schema.
  Status DeserializeContentsFrom(ByteReader* in);

  /// Monotone sequence counter (next value to be assigned).
  uint64_t next_seq() const { return next_seq_; }

  /// Monotone mutation counter: bumped by every state change (insert,
  /// delete, update, staging flips, clear, undo, snapshot restore). Two
  /// equal readings bracket a window with no mutation — the delta-snapshot
  /// machinery (log/snapshot.h) uses this to skip tables unchanged since
  /// the last checkpoint epoch. Conservative by design: an undone write
  /// still counts (the table is re-snapshotted even though its net content
  /// is unchanged).
  uint64_t version() const { return version_; }

 private:
  friend class HashIndex;  // reads candidate rows straight from slots_

  struct Slot {
    std::optional<Tuple> row;
    RowMeta meta;
  };

  Status CheckUniqueForInsert(const Tuple& row) const;

  std::string name_;
  Schema schema_;
  TableKind kind_;
  std::vector<Slot> slots_;
  std::vector<RowId> free_list_;
  size_t live_count_ = 0;
  size_t active_count_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t version_ = 0;
  std::vector<std::unique_ptr<HashIndex>> indexes_;
};

}  // namespace sstore

#endif  // SSTORE_STORAGE_TABLE_H_
