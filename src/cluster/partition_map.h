#ifndef SSTORE_CLUSTER_PARTITION_MAP_H_
#define SSTORE_CLUSTER_PARTITION_MAP_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"

namespace sstore {

class ByteReader;
class ByteWriter;

/// Hard ceiling on the number of partitions a cluster can grow to at
/// runtime. It bounds two things at once: the Cluster's store registry is
/// reserved to this capacity up front (so growing never reallocates under
/// concurrent readers), and cross-partition stream channels encode the
/// producer lane into batch ids modulo this stride (so the encoding stays
/// stable while the cluster grows — see cluster/stream_channel.h).
inline constexpr size_t kMaxClusterPartitions = 1024;

/// Deterministic key -> partition routing for a shared-nothing cluster
/// (paper §4.7: the input stream is partitioned by a key column — x-way for
/// Linear Road — and each partition runs the complete workflow serially for
/// its share of the key space).
///
/// Routing is two-level so a live cluster can be rebalanced without
/// changing where any *unmoved* key routes:
///
///  1. The legacy rule maps the key to a **bucket**: a mixed hash modulo
///     the bucket count (kHash), or `key % buckets` for integer keys
///     (kModulo — exact, humanly predictable assignment for dense key
///     spaces like x-way ids). The bucket count is fixed at construction,
///     and a freshly constructed map with N partitions routes every key to
///     bucket == partition — byte-identical to the historical frozen map.
///
///  2. Each bucket owns a **range table** over a secondary 64-bit
///     *sub-point* (an independent mix of the key): sorted range starts,
///     each range owned by one partition. A fresh map has one range per
///     bucket ([0, 2^64) -> bucket id); `WithSplit` halves the widest range
///     a partition owns and hands the upper half to a new owner, `WithMerge`
///     gives a partition's ranges back to an adjacent owner. In expectation
///     a split moves half of the bucket's keys, whatever their skew.
///
/// Every refinement bumps `version()`, which is how injectors and the
/// cluster detect a concurrent `Cluster::Rebalance`. Maps are plain values:
/// copyable, comparable by version, and serializable into the checkpoint
/// manifest (EncodeTo/DecodeFrom) so recovery lands on exactly the map the
/// cutover published.
///
/// Routing stays a pure function of (key, map contents): two maps with
/// equal contents agree on every key, which is what makes recovery and
/// multi-client injection deterministic.
class PartitionMap {
 public:
  /// The values are the mode byte EncodeTo writes.
  enum class Mode { kHash = 0, kModulo = 1 };

  explicit PartitionMap(size_t num_partitions, Mode mode = Mode::kHash);

  /// Partition ids in use, *including* retired ones (a merged-away
  /// partition keeps its id — and its slot in the cluster — but owns no
  /// keys; see OwnsKeys).
  size_t num_partitions() const { return num_partitions_; }
  /// First-level bucket count — frozen at construction.
  size_t num_buckets() const { return buckets_.size(); }
  Mode mode() const { return mode_; }
  /// 1 at construction; +1 per WithSplit/WithMerge refinement.
  uint64_t version() const { return version_; }

  /// Owning partition of a key column value.
  size_t PartitionOf(const Value& key) const {
    if (mode_ == Mode::kModulo && (key.type() == ValueType::kBigInt ||
                                   key.type() == ValueType::kTimestamp)) {
      uint64_t k = static_cast<uint64_t>(key.as_int64());
      return OwnerOf(static_cast<size_t>(k % buckets_.size()),
                     Mix(k ^ kSubPointSalt));
    }
    uint64_t h = static_cast<uint64_t>(key.Hash());
    return OwnerOf(static_cast<size_t>(Mix(h) % buckets_.size()),
                   Mix(h ^ kSubPointSalt));
  }

  /// Owning partition of an integer id (e.g. a batch id when the workload
  /// has no natural key column).
  size_t PartitionOfId(int64_t id) const {
    uint64_t k = static_cast<uint64_t>(id);
    size_t bucket =
        mode_ == Mode::kModulo
            ? static_cast<size_t>(k % buckets_.size())
            : static_cast<size_t>(Mix(Mix(k)) % buckets_.size());
    return OwnerOf(bucket, Mix(k ^ kSubPointSalt));
  }

  /// Does any key route to `p`? False for a freshly split-off target that
  /// was never assigned, and for a partition retired by WithMerge.
  bool OwnsKeys(size_t p) const;

  // ---- Rebalancing refinements (pure: return the successor map) ----

  /// Splits the widest range `source` owns at its midpoint and assigns the
  /// upper half to `target` (typically num_partitions(), growing the map).
  /// Errors: source owns nothing, the range is too narrow to halve, or
  /// target would exceed kMaxClusterPartitions.
  Result<PartitionMap> WithSplit(size_t source, size_t target) const;

  /// Reassigns every range owned by `source` to `into` and coalesces. Each
  /// of source's ranges must be adjacent (same bucket) to a range `into`
  /// already owns — the merge-of-adjacent-ranges the cutover protocol
  /// migrates in one pass. Afterwards `source` owns no keys (retired).
  Result<PartitionMap> WithMerge(size_t source, size_t into) const;

  // ---- Manifest serialization ----

  /// Appends the map to the checkpoint manifest: version (u64), mode (u8),
  /// bucket and partition counts (u32), then per bucket its range count
  /// (u32) and each range's start (u64) and owner (u32).
  void EncodeTo(ByteWriter* out) const;
  /// Reads what EncodeTo wrote. kCorruption for anything EncodeTo cannot
  /// produce: an unknown mode byte, zero or too many partitions, a bucket
  /// whose ranges do not start at 0 or do not ascend, an owner out of
  /// range, or a count past the bytes left.
  static Result<PartitionMap> DecodeFrom(ByteReader* in);

  /// "v3 hash buckets=2 partitions=3; b1:[0,8000...)→1 [8000...,max]→2".
  std::string Describe() const;

  friend bool operator==(const PartitionMap& a, const PartitionMap& b) {
    return a.mode_ == b.mode_ && a.num_partitions_ == b.num_partitions_ &&
           a.version_ == b.version_ && a.buckets_ == b.buckets_;
  }

 private:
  /// Decorrelates the sub-point from the bucket choice: both derive from
  /// the same hash, but through Mix of different pre-images.
  static constexpr uint64_t kSubPointSalt = 0x9e3779b97f4a7c15ull;

  /// Finalizing mixer (splitmix64) so low-entropy hashes still spread.
  static uint64_t Mix(uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  size_t OwnerOf(size_t bucket, uint64_t sub_point) const {
    const auto& table = buckets_[bucket];
    if (table.size() == 1) return table[0].second;  // unsplit fast path
    // Last range whose start <= sub_point (starts ascend; first is 0).
    size_t lo = 0;
    size_t hi = table.size();
    while (hi - lo > 1) {
      size_t mid = lo + (hi - lo) / 2;
      if (table[mid].first <= sub_point) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    return table[lo].second;
  }

  size_t num_partitions_;
  Mode mode_;
  uint64_t version_ = 1;
  /// buckets_[b]: ascending (range start, owner) pairs covering [0, 2^64);
  /// the first start is always 0.
  std::vector<std::vector<std::pair<uint64_t, size_t>>> buckets_;
};

const char* PartitionMapModeToString(PartitionMap::Mode mode);

}  // namespace sstore

#endif  // SSTORE_CLUSTER_PARTITION_MAP_H_
