#include "storage/table.h"

#include <algorithm>

namespace sstore {

const char* TableKindToString(TableKind kind) {
  switch (kind) {
    case TableKind::kBase:
      return "BASE";
    case TableKind::kStream:
      return "STREAM";
    case TableKind::kWindow:
      return "WINDOW";
  }
  return "UNKNOWN";
}

Tuple HashIndex::ExtractKey(const Tuple& row) const {
  Tuple key;
  key.reserve(key_columns_.size());
  for (size_t c : key_columns_) key.push_back(row[c]);
  return key;
}

uint32_t HashIndex::KeyHash(const Tuple& row) const {
  size_t h = kTupleHashSeed;
  for (size_t c : key_columns_) h = HashCombine(h, row[c]);
  return Hash32(h);
}

bool HashIndex::RowHasKey(RowId rid, const Tuple& key, bool key_is_row) const {
  const Tuple& stored = table_->slots_[rid].row;
  for (size_t i = 0; i < key_columns_.size(); ++i) {
    size_t c = key_columns_[i];
    if (!stored[c].Equals(key[key_is_row ? c : i])) return false;
  }
  return true;
}

std::vector<RowId> HashIndex::Lookup(const Tuple& key) const {
  std::vector<RowId> out;
  if (key.size() != key_columns_.size()) return out;
  uint32_t hash = Hash32(HashTuple(key));
  for (uint32_t e = Head(hash); e != kNone; e = entries_[e].next) {
    const Entry& entry = entries_[e];
    if (entry.hash == hash && RowHasKey(entry.rid, key, /*key_is_row=*/false)) {
      out.push_back(entry.rid);
    }
  }
  return out;
}

bool HashIndex::AnyRowHasKey(uint32_t hash, const Tuple& key,
                             bool key_is_row) const {
  for (uint32_t e = Head(hash); e != kNone; e = entries_[e].next) {
    const Entry& entry = entries_[e];
    if (entry.hash == hash && RowHasKey(entry.rid, key, key_is_row)) {
      return true;
    }
  }
  return false;
}

bool HashIndex::Contains(const Tuple& key) const {
  return key.size() == key_columns_.size() &&
         AnyRowHasKey(Hash32(HashTuple(key)), key, /*key_is_row=*/false);
}

bool HashIndex::ContainsKeyOf(const Tuple& row) const {
  return AnyRowHasKey(KeyHash(row), row, /*key_is_row=*/true);
}

void HashIndex::Add(const Tuple& row, RowId rid) {
  if (count_ >= 2 * buckets_.size()) Grow();
  uint32_t e = free_;
  if (e != kNone) {
    free_ = entries_[e].next;
  } else {
    e = static_cast<uint32_t>(entries_.Append());
  }
  uint32_t hash = KeyHash(row);
  uint32_t& head = Head(hash);
  entries_[e] = Entry{hash, head, static_cast<uint32_t>(rid)};
  head = e;
  ++count_;
}

void HashIndex::Remove(const Tuple& row, RowId rid) {
  if (buckets_.empty()) return;
  uint32_t hash = KeyHash(row);
  for (uint32_t* link = &Head(hash); *link != kNone;
       link = &entries_[*link].next) {
    Entry& entry = entries_[*link];
    if (entry.rid != rid) continue;
    uint32_t e = *link;
    *link = entry.next;
    entry.next = free_;
    free_ = e;
    --count_;
    return;
  }
}

void HashIndex::Clear() {
  entries_.Clear();
  buckets_.clear();
  shift_ = 32;
  free_ = kNone;
  count_ = 0;
}

void HashIndex::Grow() {
  if (buckets_.empty()) {
    buckets_.assign(16, kNone);
    shift_ = 28;
    return;
  }
  std::vector<uint32_t> grown(2 * buckets_.size(), kNone);
  for (size_t b = 0; b < buckets_.size(); ++b) {
    // Each entry of bucket b goes to 2b or 2b + 1 (the next hash bit down),
    // appended at that chain's tail, so both chains keep their order.
    uint32_t* tail[2] = {&grown[2 * b], &grown[2 * b + 1]};
    for (uint32_t e = buckets_[b]; e != kNone;) {
      Entry& entry = entries_[e];
      uint32_t next = entry.next;
      uint32_t** to = &tail[(entry.hash >> (shift_ - 1)) & 1];
      **to = e;
      *to = &entry.next;
      e = next;
    }
    *tail[0] = kNone;
    *tail[1] = kNone;
  }
  buckets_.swap(grown);
  --shift_;
}

namespace {

/// Whether rows `a` and `b` agree on every key column of `idx`. By value,
/// BIGINT 5 equals TIMESTAMP 5. `exact` also demands the same type, and for
/// DOUBLE `==` equality (NaN compares equal to every number under
/// Value::Equals): only an exact match lets an index entry stand as is.
bool SameKey(const HashIndex& idx, const Tuple& a, const Tuple& b, bool exact) {
  for (size_t c : idx.key_columns()) {
    const Value& x = a[c];
    const Value& y = b[c];
    if (!x.Equals(y)) return false;
    if (!exact) continue;
    if (x.type() != y.type()) return false;
    if (x.type() == ValueType::kDouble && !(x.as_double() == y.as_double())) {
      return false;
    }
  }
  return true;
}

}  // namespace

Table::Table(std::string name, Schema schema, TableKind kind)
    : name_(std::move(name)), schema_(std::move(schema)), kind_(kind) {}

Status Table::CheckUniqueForInsert(const Tuple& row) const {
  for (const auto& idx : indexes_) {
    if (!idx->unique()) continue;
    if (idx->ContainsKeyOf(row)) {
      return Status::ConstraintViolation("unique index '" + idx->name() +
                                         "' rejects duplicate key in table '" +
                                         name_ + "'");
    }
  }
  return Status::OK();
}

Result<RowId> Table::Insert(Tuple row, RowMeta meta) {
  SSTORE_RETURN_NOT_OK(schema_.ValidateTuple(row));
  SSTORE_RETURN_NOT_OK(CheckUniqueForInsert(row));
  if (next_seq_ >= kSeqLimit) {
    return Status::OutOfRange("table '" + name_ +
                              "' has used every row sequence below 2^62");
  }

  if (free_list_.empty() && slots_.size() >= kMaxSlots) {
    return Status::OutOfRange("table '" + name_ + "' has every slot below " +
                              std::to_string(kMaxSlots) + " in use");
  }

  meta.seq = next_seq_++;
  RowId rid;
  if (!free_list_.empty()) {
    rid = free_list_.back();
    free_list_.pop_back();
  } else {
    rid = slots_.Append();
  }
  Slot& slot = slots_[rid];
  for (const auto& idx : indexes_) idx->Add(row, rid);
  slot.row = std::move(row);
  slot.SetLive(meta);
  ++live_count_;
  if (meta.active) ++active_count_;
  ++version_;
  return rid;
}

Result<Tuple> Table::Delete(RowId rid) {
  if (rid >= slots_.size() || !slots_[rid].live()) {
    return Status::NotFound("no row " + std::to_string(rid) + " in table '" +
                            name_ + "'");
  }
  Slot& slot = slots_[rid];
  for (const auto& idx : indexes_) idx->Remove(slot.row, rid);
  Tuple out = std::move(slot.row);  // leaves slot.row empty
  --live_count_;
  if (slot.active()) --active_count_;
  slot.bits = 0;
  free_list_.push_back(rid);
  ++version_;
  return out;
}

Result<Tuple> Table::Update(RowId rid, Tuple row) {
  if (rid >= slots_.size() || !slots_[rid].live()) {
    return Status::NotFound("no row " + std::to_string(rid) + " in table '" +
                            name_ + "'");
  }
  SSTORE_RETURN_NOT_OK(schema_.ValidateTuple(row));
  Slot& slot = slots_[rid];
  // Unique check must ignore this row's own current key.
  for (const auto& idx : indexes_) {
    if (!idx->unique() || SameKey(*idx, slot.row, row, /*exact=*/false)) {
      continue;
    }
    if (idx->ContainsKeyOf(row)) {
      return Status::ConstraintViolation("unique index '" + idx->name() +
                                         "' rejects duplicate key in table '" +
                                         name_ + "'");
    }
  }
  // An index whose key the update leaves untouched keeps its entry.
  for (const auto& idx : indexes_) {
    if (SameKey(*idx, slot.row, row, /*exact=*/true)) continue;
    idx->Remove(slot.row, rid);
    idx->Add(row, rid);
  }
  Tuple before = std::move(slot.row);
  slot.row = std::move(row);
  ++version_;
  return before;
}

Status Table::UndoDeleteAt(RowId rid, Tuple row, RowMeta meta) {
  if (rid >= slots_.size()) {
    return Status::Internal("undo targets slot beyond table size");
  }
  if (slots_[rid].live()) {
    return Status::Internal("undo targets an occupied slot");
  }
  auto it = std::find(free_list_.begin(), free_list_.end(), rid);
  if (it == free_list_.end()) {
    return Status::Internal("undo targets a slot missing from the free list");
  }
  free_list_.erase(it);
  for (const auto& idx : indexes_) idx->Add(row, rid);
  Slot& slot = slots_[rid];
  slot.row = std::move(row);
  slot.SetLive(meta);
  ++live_count_;
  if (meta.active) ++active_count_;
  ++version_;
  return Status::OK();
}

Result<const Tuple*> Table::Get(RowId rid) const {
  if (rid >= slots_.size() || !slots_[rid].live()) {
    return Status::NotFound("no row " + std::to_string(rid) + " in table '" +
                            name_ + "'");
  }
  return &slots_[rid].row;
}

Result<RowMeta> Table::GetMeta(RowId rid) const {
  if (rid >= slots_.size() || !slots_[rid].live()) {
    return Status::NotFound("no row " + std::to_string(rid) + " in table '" +
                            name_ + "'");
  }
  return slots_[rid].meta();
}

Status Table::SetActive(RowId rid, bool active) {
  if (rid >= slots_.size() || !slots_[rid].live()) {
    return Status::NotFound("no row " + std::to_string(rid) + " in table '" +
                            name_ + "'");
  }
  Slot& slot = slots_[rid];
  if (slot.active() != active) {
    slot.SetActive(active);
    active_count_ += active ? 1 : -1;
    ++version_;
  }
  return Status::OK();
}

std::vector<RowId> Table::RowIdsBySeq(bool include_staged) const {
  std::vector<RowId> out;
  out.reserve(live_count_);
  ForEach(
      [&](RowId rid, const Tuple&, const RowMeta&) {
        out.push_back(rid);
        return true;
      },
      include_staged);
  std::sort(out.begin(), out.end(), [this](RowId a, RowId b) {
    return slots_[a].seq() < slots_[b].seq();
  });
  return out;
}

size_t Table::Clear() {
  size_t removed = live_count_;
  slots_.Clear();
  free_list_.clear();
  live_count_ = 0;
  active_count_ = 0;
  for (const auto& idx : indexes_) idx->Clear();
  if (removed != 0) ++version_;
  return removed;
}

Status Table::CreateIndex(const std::string& index_name,
                          const std::vector<std::string>& column_names,
                          bool unique) {
  for (const auto& idx : indexes_) {
    if (idx->name() == index_name) {
      return Status::AlreadyExists("index '" + index_name +
                                   "' already exists on table '" + name_ + "'");
    }
  }
  std::vector<size_t> cols;
  cols.reserve(column_names.size());
  for (const std::string& cn : column_names) {
    SSTORE_ASSIGN_OR_RETURN(size_t ci, schema_.ColumnIndex(cn));
    cols.push_back(ci);
  }
  if (cols.empty()) {
    return Status::InvalidArgument("index requires at least one column");
  }
  auto idx =
      std::make_unique<HashIndex>(this, index_name, std::move(cols), unique);
  // Backfill; a uniqueness violation aborts creation.
  Status backfill = Status::OK();
  ForEach(
      [&](RowId rid, const Tuple& row, const RowMeta&) {
        if (unique && idx->ContainsKeyOf(row)) {
          backfill = Status::ConstraintViolation(
              "unique index '" + index_name + "' rejects duplicate key " +
              TupleToString(idx->ExtractKey(row)));
          return false;
        }
        idx->Add(row, rid);
        return true;
      },
      /*include_staged=*/true);
  SSTORE_RETURN_NOT_OK(backfill);
  indexes_.push_back(std::move(idx));
  return Status::OK();
}

Result<const HashIndex*> Table::GetIndex(const std::string& index_name) const {
  for (const auto& idx : indexes_) {
    if (idx->name() == index_name) return static_cast<const HashIndex*>(idx.get());
  }
  return Status::NotFound("no index '" + index_name + "' on table '" + name_ +
                          "'");
}

Result<std::vector<RowId>> Table::IndexLookup(const std::string& index_name,
                                              const Tuple& key) const {
  SSTORE_ASSIGN_OR_RETURN(const HashIndex* idx, GetIndex(index_name));
  return idx->Lookup(key);
}

void Table::SerializeTo(ByteWriter* out) const {
  schema_.SerializeTo(out);
  out->PutU64(next_seq_);
  out->PutU32(static_cast<uint32_t>(live_count_));
  ForEach(
      [&](RowId, const Tuple& row, const RowMeta& meta) {
        out->PutTuple(row);
        out->PutI64(meta.batch_id);
        out->PutU64(meta.seq);
        out->PutU8(meta.active ? 1 : 0);
        return true;
      },
      /*include_staged=*/true);
}

Status Table::DeserializeContentsFrom(ByteReader* in) {
  SSTORE_ASSIGN_OR_RETURN(Schema schema, Schema::DeserializeFrom(in));
  if (!schema.Equals(schema_)) {
    return Status::Corruption("snapshot schema " + schema.ToString() +
                              " does not match table '" + name_ + "' schema " +
                              schema_.ToString());
  }
  SSTORE_ASSIGN_OR_RETURN(uint64_t next_seq, in->GetU64());
  if (next_seq > kSeqLimit) {
    return Status::Corruption("snapshot of table '" + name_ +
                              "' has next sequence " +
                              std::to_string(next_seq) + " past 2^62");
  }
  SSTORE_ASSIGN_OR_RETURN(uint32_t n, in->GetU32());
  Clear();
  for (uint32_t i = 0; i < n; ++i) {
    SSTORE_ASSIGN_OR_RETURN(Tuple row, in->GetTuple());
    RowMeta meta;
    SSTORE_ASSIGN_OR_RETURN(meta.batch_id, in->GetI64());
    SSTORE_ASSIGN_OR_RETURN(meta.seq, in->GetU64());
    if (meta.seq >= next_seq) {
      return Status::Corruption("snapshot row of table '" + name_ +
                                "' has sequence " + std::to_string(meta.seq) +
                                " at or past the table's next sequence");
    }
    SSTORE_ASSIGN_OR_RETURN(uint8_t active, in->GetU8());
    meta.active = active != 0;
    SSTORE_ASSIGN_OR_RETURN(RowId rid, Insert(std::move(row), meta));
    // Insert overwrites seq; restore the snapshotted arrival order.
    slots_[rid].SetLive(meta);
  }
  next_seq_ = next_seq;
  return Status::OK();
}

}  // namespace sstore
