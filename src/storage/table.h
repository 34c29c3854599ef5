#ifndef SSTORE_STORAGE_TABLE_H_
#define SSTORE_STORAGE_TABLE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <new>
#include <string>
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

/// A growable array whose elements never move: segments of 64, 64, 128,
/// 256, ... elements (segment s > 0 holds indexes [2^(s+5), 2^(s+6))). A
/// segment is allocated raw when its first element is appended, and each
/// element is constructed as it is appended, so growth copies nothing, a
/// reference stays valid until Clear, and the pages past the last element
/// are never written. The table's slots and its indexes' entries live in
/// one each.
template <typename T>
class SegmentedArray {
 public:
  SegmentedArray() = default;
  ~SegmentedArray() {
    Clear();
    for (T* segment : segments_) ::operator delete(segment);
  }
  SegmentedArray(const SegmentedArray&) = delete;
  SegmentedArray& operator=(const SegmentedArray&) = delete;

  size_t size() const { return size_; }
  T& operator[](size_t i) { return segments_[Segment(i)][Offset(i)]; }
  const T& operator[](size_t i) const {
    return segments_[Segment(i)][Offset(i)];
  }

  /// Constructs a T() at index size() and returns that index.
  size_t Append() {
    size_t i = size_;
    size_t s = Segment(i);
    if (s == segments_.size()) {
      segments_.reserve(s + 1);  // so the push_back cannot throw and leak
      segments_.push_back(
          static_cast<T*>(::operator new(SegmentSize(s) * sizeof(T))));
    }
    new (&segments_[s][Offset(i)]) T();
    ++size_;
    return i;
  }

  /// Destroys every element; the segments stay allocated for reuse.
  void Clear() {
    for (size_t i = 0; i < size_; ++i) (*this)[i].~T();
    size_ = 0;
  }

  /// Calls `fn(i, element)` on every element in index order until it
  /// returns false. Forced inline, with Table::ForEach, so a caller's loop
  /// body is compiled into the caller.
  template <typename Fn>
  [[gnu::always_inline]] void ForEach(Fn&& fn) const {
    size_t base = 0;
    for (size_t s = 0; base < size_; ++s) {
      const T* segment = segments_[s];
      size_t end = std::min(size_, base + SegmentSize(s));
      for (size_t i = base; i < end; ++i) {
        if (!fn(i, segment[i - base])) return;
      }
      base = end;
    }
  }

 private:
  static size_t SegmentSize(size_t s) { return s == 0 ? 64 : size_t{32} << s; }
  static size_t Segment(size_t i) {
    return i < 64 ? 0 : 58 - static_cast<size_t>(__builtin_clzll(i));
  }
  static size_t Offset(size_t i) {
    return i < 64 ? i : i - (size_t{1} << (63 - __builtin_clzll(i)));
  }

  std::vector<T*> segments_;
  size_t size_ = 0;
};

/// A secondary hash index over a subset of columns. Maintained inline by the
/// owning table on every mutation. Unique indexes reject duplicate keys with
/// kConstraintViolation before the table is modified.
///
/// An entry is 12 bytes: 32 bits of the key's hash, the link to the next
/// entry in its bucket's chain, and the row's slot index as 32 bits (a
/// table's slots stay below Table::kMaxSlots, so it fits); the key itself
/// stays in the table's row. Entries live in a SegmentedArray and never
/// move; buckets are 32-bit chain heads, doubled at load 2 (two entries per
/// bucket on average), and a removed entry is reused.
/// Every probe re-checks each candidate's key columns in its slot with
/// Value::Equals, so a hash collision never yields a wrong row. Rows with
/// equal keys come back newest first. An index holds fewer than 2^32 - 1
/// entries.
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
  size_t EntryCount() const { return count_; }

 private:
  friend class Table;

  struct Entry {
    uint32_t hash;  // Hash32 of the row's key
    uint32_t next;  // next entry in the bucket's chain, or kNone
    uint32_t rid;   // the row's slot, below Table::kMaxSlots
  };
  static_assert(sizeof(Entry) == 12, "an index entry is 12 bytes");
  static constexpr uint32_t kNone = ~uint32_t{0};

  /// The 32 bits of a key hash (HashTuple of the key columns) an entry
  /// keeps: the high half of its product with the golden-ratio constant,
  /// so they depend on every bit of the key hash. A bucket is their top
  /// bits.
  static uint32_t Hash32(size_t key_hash) {
    return static_cast<uint32_t>((key_hash * 0x9e3779b97f4a7c15ull) >> 32);
  }
  /// The chain head of `hash`'s bucket; buckets_ must not be empty.
  uint32_t& Head(uint32_t hash) { return buckets_[hash >> shift_]; }
  uint32_t Head(uint32_t hash) const {
    return buckets_.empty() ? kNone : buckets_[hash >> shift_];
  }
  /// Hash32 of HashTuple(ExtractKey(row)), computed in place.
  uint32_t KeyHash(const Tuple& row) const;
  /// Whether the row at `rid` (which must be live) agrees with `key`, given
  /// as a key tuple (`key_is_row` false) or as a full row.
  bool RowHasKey(RowId rid, const Tuple& key, bool key_is_row) const;
  /// Whether an entry under `hash` is a row that has `key` (as above).
  bool AnyRowHasKey(uint32_t hash, const Tuple& key, bool key_is_row) const;
  /// Whether an indexed row agrees with `row` on every key column.
  bool ContainsKeyOf(const Tuple& row) const;

  // Mutation hooks called by Table; neither checks uniqueness.
  void Add(const Tuple& row, RowId rid);
  void Remove(const Tuple& row, RowId rid);
  void Clear();
  /// Doubles the buckets (16 at first). Bucket b splits into 2b and 2b + 1
  /// with each chain's order kept.
  void Grow();

  const Table* table_;
  std::string name_;
  std::vector<size_t> key_columns_;
  bool unique_;
  SegmentedArray<Entry> entries_;
  std::vector<uint32_t> buckets_;  // chain heads; a power-of-two count
  int shift_ = 32;                 // 32 - log2(buckets_.size())
  uint32_t free_ = kNone;          // chain of removed entries, via next
  size_t count_ = 0;               // entries in buckets
};

/// In-memory row store with stable slots, free-list reuse, inline-maintained
/// hash indexes, and per-row stream/window metadata. Slots never move: a
/// `const Tuple*` from Get stays valid until that row is deleted or
/// updated, however many rows are inserted after it. Tables are single-
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

  /// A table holds fewer than this many slots (live rows plus reusable
  /// free slots), so a slot index fits an index entry's 32 bits.
  static constexpr uint64_t kMaxSlots = ~uint32_t{0};

  /// Inserts a row (validated against the schema and all unique indexes).
  /// kOutOfRange once the table has used every sequence below 2^62, or
  /// when the row would need a slot at index kMaxSlots or beyond.
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
  /// Returns a copy of the metadata of the row at `rid` (kNotFound as Get).
  Result<RowMeta> GetMeta(RowId rid) const;

  /// Flips the window staging flag of one row.
  Status SetActive(RowId rid, bool active);

  /// Visits live rows in slot order. When `include_staged` is false (the
  /// default for query execution), staged rows are skipped per the paper's
  /// window-staging visibility rule. `fn(RowId, const Tuple&, const
  /// RowMeta&)` returns false to stop early.
  template <typename Fn>
  [[gnu::always_inline]] void ForEach(Fn&& fn,
                                      bool include_staged = false) const {
    slots_.ForEach([&](RowId rid, const Slot& slot) {
      if (!slot.live() || (!include_staged && !slot.active())) return true;
      return fn(rid, slot.row, slot.meta());
    });
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

  /// Sequences stay below this bound (a slot packs them into 62 bits).
  static constexpr uint64_t kSeqLimit = uint64_t{1} << 62;

  /// One row slot in 40 bytes: the row, its batch id, and its arrival
  /// sequence packed with the staging flag and a live bit, as
  /// `seq << 2 | active << 1 | live`. A free slot holds an empty row and a
  /// clear live bit. Sequences stay below kSeqLimit.
  struct Slot {
    static constexpr uint64_t kLive = 1;
    static constexpr uint64_t kActive = 2;

    Tuple row;
    int64_t batch_id = 0;
    uint64_t bits = 0;

    bool live() const { return (bits & kLive) != 0; }
    bool active() const { return (bits & kActive) != 0; }
    uint64_t seq() const { return bits >> 2; }
    RowMeta meta() const { return RowMeta{batch_id, seq(), active()}; }
    /// Marks the slot live with `meta`'s batch id, sequence and flag.
    void SetLive(const RowMeta& meta) {
      batch_id = meta.batch_id;
      bits = meta.seq << 2 | (meta.active ? kActive : 0) | kLive;
    }
    void SetActive(bool on) { bits = on ? bits | kActive : bits & ~kActive; }
  };
  static_assert(sizeof(Slot) == sizeof(Tuple) + 16, "a slot is 40 bytes");

  Status CheckUniqueForInsert(const Tuple& row) const;

  std::string name_;
  Schema schema_;
  TableKind kind_;
  SegmentedArray<Slot> slots_;
  std::vector<RowId> free_list_;
  size_t live_count_ = 0;
  size_t active_count_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t version_ = 0;
  std::vector<std::unique_ptr<HashIndex>> indexes_;
};

}  // namespace sstore

#endif  // SSTORE_STORAGE_TABLE_H_
