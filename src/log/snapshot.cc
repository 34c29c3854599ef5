#include "log/snapshot.h"

#include <map>
#include <set>
#include <vector>

#include "common/bytes.h"

namespace sstore {

namespace {

// Per-table entries are (full | reference-to-earlier-checkpoint), full
// entries length-prefixed so readers can skip without deserializing. The
// "03" is the format version; no other version is written or read.
constexpr uint64_t kSnapshotMagic = 0x53534e4150533033ull;  // "SSNAPS03"

constexpr uint8_t kEntryFull = 0;
constexpr uint8_t kEntryRef = 1;

/// A snapshot's references: base checkpoint id -> the tables it holds.
using SnapshotRefs = std::map<uint64_t, std::set<std::string>>;

/// The one snapshot reader, for a checkpoint's own file and for the delta
/// bases its references name. Each entry is a table name, its kind, and
/// either a reference (base checkpoint id) or a full, length-prefixed body.
/// A full entry is restored into `catalog` when `wanted` is null or names
/// it, and skipped by its length otherwise; its body must decode to exactly
/// its length. References are collected into `refs`; a base file is read
/// with a null `refs`, and a reference to a wanted table there is
/// corruption (the tracker only references a checkpoint that wrote the
/// table in full). Returns the names restored or referenced. Anything the
/// writer does not produce (another magic, an unknown entry kind, a short
/// body, trailing bytes) is kCorruption.
Result<std::set<std::string>> ReadEntries(const std::string& path,
                                          const std::set<std::string>* wanted,
                                          Catalog* catalog,
                                          SnapshotRefs* refs) {
  SSTORE_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, ReadFile(path));
  ByteReader in(bytes);
  SSTORE_ASSIGN_OR_RETURN(uint64_t magic, in.GetU64());
  if (magic != kSnapshotMagic) {
    return Status::Corruption("bad snapshot magic in " + path);
  }
  SSTORE_ASSIGN_OR_RETURN(uint32_t n, in.GetU32());
  std::set<std::string> names;
  for (uint32_t i = 0; i < n; ++i) {
    SSTORE_ASSIGN_OR_RETURN(std::string name, in.GetString());
    SSTORE_ASSIGN_OR_RETURN(uint8_t kind, in.GetU8());
    SSTORE_ASSIGN_OR_RETURN(uint8_t entry, in.GetU8());
    const bool want = wanted == nullptr || wanted->count(name) != 0;
    if (entry == kEntryRef) {
      SSTORE_ASSIGN_OR_RETURN(uint64_t base, in.GetU64());
      if (refs != nullptr) {
        (*refs)[base].insert(name);
        names.insert(name);
      } else if (want) {
        return Status::Corruption("delta base snapshot " + path +
                                  " holds table '" + name +
                                  "' as a reference, not a full copy");
      }
      continue;
    }
    if (entry != kEntryFull) {
      return Status::Corruption("unknown entry kind for table '" + name +
                                "' in snapshot " + path);
    }
    SSTORE_ASSIGN_OR_RETURN(uint32_t len, in.GetU32());
    if (in.remaining() < len) {
      return Status::Corruption("truncated table entry '" + name +
                                "' in snapshot " + path);
    }
    if (want) {
      SSTORE_ASSIGN_OR_RETURN(Table * table, catalog->GetTable(name));
      if (static_cast<uint8_t>(table->kind()) != kind) {
        return Status::Corruption("snapshot table kind mismatch for '" +
                                  name + "'");
      }
      ByteReader body(bytes.data() + (bytes.size() - in.remaining()), len);
      SSTORE_RETURN_NOT_OK(table->DeserializeContentsFrom(&body));
      if (!body.AtEnd()) {
        return Status::Corruption("table entry '" + name + "' in snapshot " +
                                  path + " is longer than its contents");
      }
      names.insert(name);
    }
    SSTORE_RETURN_NOT_OK(in.Skip(len));
  }
  if (!in.AtEnd()) {
    return Status::Corruption("trailing bytes after the last entry of " +
                              path);
  }
  return names;
}

}  // namespace

Status SnapshotManager::WriteSnapshot(const std::string& path,
                                      const Catalog& catalog,
                                      const SnapshotDeltaSpec* delta,
                                      SnapshotWriteStats* stats) {
  ByteWriter out;
  out.PutU64(kSnapshotMagic);
  std::vector<std::string> names = catalog.TableNames();
  out.PutU32(static_cast<uint32_t>(names.size()));
  SnapshotWriteStats local;
  for (const std::string& name : names) {
    Result<Table*> table = catalog.GetTable(name);
    if (!table.ok()) return table.status();
    out.PutString(name);
    out.PutU8(static_cast<uint8_t>((*table)->kind()));
    bool as_ref = false;
    uint64_t base = 0;
    if (delta != nullptr) {
      auto ref = delta->unchanged.find(name);
      if (ref != delta->unchanged.end()) {
        as_ref = true;
        base = ref->second;
      }
    }
    if (as_ref) {
      out.PutU8(kEntryRef);
      out.PutU64(base);
      ++local.tables_delta;
    } else {
      out.PutU8(kEntryFull);
      ByteWriter body;
      (*table)->SerializeTo(&body);
      out.PutU32(static_cast<uint32_t>(body.data().size()));
      out.PutBytes(body.data().data(), body.data().size());
      ++local.tables_full;
    }
  }
  local.bytes = out.data().size();
  SSTORE_RETURN_NOT_OK(WriteFileAtomic(path, out.data(), "snapshot"));
  if (stats != nullptr) *stats = local;
  return Status::OK();
}

Status SnapshotManager::RestoreSnapshot(const std::string& path,
                                        Catalog* catalog,
                                        const SnapshotBaseResolver& resolver) {
  SnapshotRefs refs;
  SSTORE_ASSIGN_OR_RETURN(std::set<std::string> restored,
                          ReadEntries(path, nullptr, catalog, &refs));
  if (!refs.empty() && !resolver) {
    return Status::InvalidArgument(
        "snapshot " + path +
        " holds delta references but no base resolver was provided");
  }
  for (const auto& [base, wanted] : refs) {
    std::string base_path = resolver(base);
    SSTORE_ASSIGN_OR_RETURN(std::set<std::string> found,
                            ReadEntries(base_path, &wanted, catalog, nullptr));
    if (found.size() != wanted.size()) {
      return Status::Corruption("delta base snapshot " + base_path + " lacks " +
                                std::to_string(wanted.size() - found.size()) +
                                " referenced table(s)");
    }
  }

  // Tables in the catalog but absent from the snapshot are cleared.
  for (const std::string& name : catalog->TableNames()) {
    if (restored.count(name) != 0) continue;
    SSTORE_ASSIGN_OR_RETURN(Table * table, catalog->GetTable(name));
    table->Clear();
  }
  return Status::OK();
}

}  // namespace sstore
