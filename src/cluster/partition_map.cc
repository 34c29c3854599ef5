#include "cluster/partition_map.h"

#include <cinttypes>
#include <cstdio>
#include <sstream>

namespace sstore {

namespace {

/// Span of the range starting at `start` whose successor starts at
/// `next_start` (0 == the bucket wraps to the top). 128-bit so the full
/// single-range bucket ([0, 2^64)) has a representable width.
unsigned __int128 RangeSpan(uint64_t start, uint64_t next_start) {
  unsigned __int128 end =
      next_start == 0 ? (static_cast<unsigned __int128>(1) << 64)
                      : static_cast<unsigned __int128>(next_start);
  return end - start;
}

uint64_t NextStart(const std::vector<std::pair<uint64_t, size_t>>& table,
                   size_t i) {
  return i + 1 < table.size() ? table[i + 1].first : 0;
}

}  // namespace

const char* PartitionMapModeToString(PartitionMap::Mode mode) {
  return mode == PartitionMap::Mode::kModulo ? "modulo" : "hash";
}

PartitionMap::PartitionMap(size_t num_partitions, Mode mode)
    : num_partitions_(num_partitions == 0 ? 1 : num_partitions), mode_(mode) {
  buckets_.resize(num_partitions_);
  for (size_t b = 0; b < buckets_.size(); ++b) {
    buckets_[b] = {{0, b}};
  }
}

bool PartitionMap::OwnsKeys(size_t p) const {
  for (const auto& table : buckets_) {
    for (const auto& [start, owner] : table) {
      (void)start;
      if (owner == p) return true;
    }
  }
  return false;
}

Result<PartitionMap> PartitionMap::WithSplit(size_t source,
                                             size_t target) const {
  if (source >= num_partitions_) {
    return Status::InvalidArgument("split source partition " +
                                   std::to_string(source) + " out of range");
  }
  if (target >= kMaxClusterPartitions) {
    return Status::InvalidArgument(
        "split target partition " + std::to_string(target) +
        " exceeds the cluster ceiling of " +
        std::to_string(kMaxClusterPartitions));
  }
  if (target == source) {
    return Status::InvalidArgument("split target equals source");
  }
  // Widest range owned by the source — splitting it moves the most keys
  // per refinement (half of them, in expectation).
  size_t best_bucket = 0;
  size_t best_index = 0;
  unsigned __int128 best_span = 0;
  for (size_t b = 0; b < buckets_.size(); ++b) {
    const auto& table = buckets_[b];
    for (size_t i = 0; i < table.size(); ++i) {
      if (table[i].second != source) continue;
      unsigned __int128 span = RangeSpan(table[i].first, NextStart(table, i));
      if (span > best_span) {
        best_span = span;
        best_bucket = b;
        best_index = i;
      }
    }
  }
  if (best_span == 0) {
    return Status::InvalidArgument("partition " + std::to_string(source) +
                                   " owns no key range to split");
  }
  if (best_span < 2) {
    return Status::InvalidArgument("partition " + std::to_string(source) +
                                   "'s widest range is too narrow to split");
  }
  PartitionMap out = *this;
  auto& table = out.buckets_[best_bucket];
  uint64_t start = table[best_index].first;
  uint64_t mid = start + static_cast<uint64_t>(best_span / 2);
  table.insert(table.begin() + static_cast<long>(best_index) + 1,
               {mid, target});
  if (target >= out.num_partitions_) out.num_partitions_ = target + 1;
  ++out.version_;
  return out;
}

Result<PartitionMap> PartitionMap::WithMerge(size_t source,
                                             size_t into) const {
  if (source >= num_partitions_ || into >= num_partitions_) {
    return Status::InvalidArgument("merge partitions out of range");
  }
  if (source == into) {
    return Status::InvalidArgument("merge source equals target");
  }
  PartitionMap out = *this;
  bool any = false;
  for (auto& table : out.buckets_) {
    for (size_t i = 0; i < table.size(); ++i) {
      if (table[i].second != source) continue;
      bool adjacent = (i > 0 && table[i - 1].second == into) ||
                      (i + 1 < table.size() && table[i + 1].second == into);
      if (!adjacent) {
        return Status::InvalidArgument(
            "partition " + std::to_string(source) +
            " owns a range not adjacent to any range of partition " +
            std::to_string(into) + "; merge requires adjacency");
      }
      table[i].second = into;
      any = true;
    }
    // Coalesce runs of same-owner ranges left by the reassignment.
    std::vector<std::pair<uint64_t, size_t>> merged;
    for (const auto& entry : table) {
      if (!merged.empty() && merged.back().second == entry.second) continue;
      merged.push_back(entry);
    }
    table = std::move(merged);
  }
  if (!any) {
    return Status::InvalidArgument("partition " + std::to_string(source) +
                                   " owns no key range to merge");
  }
  ++out.version_;
  return out;
}

std::string PartitionMap::Encode() const {
  std::string out;
  char line[96];
  std::snprintf(line, sizeof(line), "map_version %" PRIu64 "\n", version_);
  out += line;
  out += std::string("map_mode ") + PartitionMapModeToString(mode_) + "\n";
  std::snprintf(line, sizeof(line), "map_buckets %zu\n", buckets_.size());
  out += line;
  std::snprintf(line, sizeof(line), "map_partitions %zu\n", num_partitions_);
  out += line;
  for (size_t b = 0; b < buckets_.size(); ++b) {
    for (const auto& [start, owner] : buckets_[b]) {
      std::snprintf(line, sizeof(line), "map_range %zu %" PRIu64 " %zu\n", b,
                    start, owner);
      out += line;
    }
  }
  return out;
}

Result<PartitionMap> PartitionMap::Decode(const std::string& text) {
  uint64_t version = 0;
  size_t num_buckets = 0;
  size_t num_partitions = 0;
  Mode mode = Mode::kHash;
  bool have_version = false;
  std::vector<std::vector<std::pair<uint64_t, size_t>>> buckets;

  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    char mode_word[16];
    uint64_t u = 0;
    size_t a = 0;
    size_t b = 0;
    if (std::sscanf(line.c_str(), "map_version %" SCNu64, &u) == 1) {
      version = u;
      have_version = true;
    } else if (std::sscanf(line.c_str(), "map_mode %15s", mode_word) == 1) {
      mode = std::string(mode_word) == "modulo" ? Mode::kModulo : Mode::kHash;
    } else if (std::sscanf(line.c_str(), "map_buckets %zu", &a) == 1) {
      num_buckets = a;
      buckets.assign(num_buckets, {});
    } else if (std::sscanf(line.c_str(), "map_partitions %zu", &a) == 1) {
      num_partitions = a;
    } else if (std::sscanf(line.c_str(), "map_range %zu %" SCNu64 " %zu", &a,
                           &u, &b) == 3) {
      if (a >= buckets.size()) {
        return Status::Corruption("partition map range names bucket " +
                                  std::to_string(a) + " of " +
                                  std::to_string(buckets.size()));
      }
      buckets[a].push_back({u, b});
    }
  }
  if (!have_version) {
    return Status::NotFound("no partition map block in manifest");
  }
  if (num_buckets == 0 || num_partitions == 0 ||
      num_partitions > kMaxClusterPartitions) {
    return Status::Corruption("malformed partition map header");
  }
  for (size_t b = 0; b < buckets.size(); ++b) {
    auto& table = buckets[b];
    if (table.empty() || table[0].first != 0) {
      return Status::Corruption("partition map bucket " + std::to_string(b) +
                                " does not start at 0");
    }
    for (size_t i = 0; i < table.size(); ++i) {
      if (i > 0 && table[i].first <= table[i - 1].first) {
        return Status::Corruption("partition map bucket " +
                                  std::to_string(b) +
                                  " range starts not ascending");
      }
      if (table[i].second >= num_partitions) {
        return Status::Corruption("partition map range owner out of range");
      }
    }
  }
  PartitionMap out(num_partitions, mode);
  out.version_ = version;
  out.buckets_ = std::move(buckets);
  return out;
}

std::string PartitionMap::Describe() const {
  std::string out = "v" + std::to_string(version_) + " " +
                    PartitionMapModeToString(mode_) +
                    " buckets=" + std::to_string(buckets_.size()) +
                    " partitions=" + std::to_string(num_partitions_);
  for (size_t b = 0; b < buckets_.size(); ++b) {
    if (buckets_[b].size() == 1 && buckets_[b][0].second == b) continue;
    out += "; b" + std::to_string(b) + ":";
    const auto& table = buckets_[b];
    for (size_t i = 0; i < table.size(); ++i) {
      char begin[24];
      char end[24] = "max";
      std::snprintf(begin, sizeof(begin), "%016" PRIx64, table[i].first);
      if (i + 1 < table.size()) {
        std::snprintf(end, sizeof(end), "%016" PRIx64, table[i + 1].first - 1);
      }
      out += " [" + std::string(begin) + "," + std::string(end) + "]->" +
             std::to_string(table[i].second);
    }
  }
  return out;
}

}  // namespace sstore
