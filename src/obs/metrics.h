#ifndef SSTORE_OBS_METRICS_H_
#define SSTORE_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace sstore {

/// The observability substrate (docs/ARCHITECTURE.md "Observability"): the
/// hot-path latency histogram plus the Prometheus-style text exposition.
/// Counters live in each subsystem's typed Stats struct (ClusterStats,
/// WireServer::Stats, ...); a MetricsSnapshot is a plain list of named
/// samples built from those structs at read time (Cluster::SnapshotMetrics)
/// and rendered with RenderPrometheusText.

/// Lock-free fixed-bucket histogram for hot-path latencies: values land in
/// log2-scale buckets (bucket b covers [2^b, 2^(b+1))), spread over a small
/// set of cache-line-sized per-thread shards so concurrent recorders never
/// share a line. Record() is a handful of relaxed atomic adds — no mutex, no
/// allocation, no sort — which is what lets it live inside the partition
/// worker and across many producer threads at once. Percentiles are reconstructed
/// from the merged buckets with linear interpolation inside the winning
/// bucket, so they are approximate (bounded by the bucket's 2x width); Max
/// is exact.
class LatencyHistogram {
 public:
  static constexpr size_t kBuckets = 64;  // indices 0..62 used; 63 spare
  static constexpr size_t kShards = 8;

  /// Any thread. Negative values clamp to 0.
  void Record(int64_t value);

  /// Merged view over all shards (live approximation under concurrent
  /// recording, same caveat as every stats read in this codebase).
  struct Snapshot {
    uint64_t count = 0;
    uint64_t sum = 0;
    int64_t max = 0;
    std::array<uint64_t, kBuckets> buckets{};

    /// p in [0,100]; p == 100 returns the exact max. 0 when empty.
    int64_t Percentile(double p) const;
    double Mean() const {
      return count == 0 ? 0.0
                        : static_cast<double>(sum) / static_cast<double>(count);
    }
  };
  /// Everything recorded since construction.
  Snapshot snapshot() const;

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> buckets[kBuckets];
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum{0};
    std::atomic<int64_t> max{0};
    Shard() {
      for (auto& b : buckets) b.store(0, std::memory_order_relaxed);
    }
  };

  static size_t BucketOf(int64_t v);
  static size_t ShardIndex();

  Shard shards_[kShards];
};

// ---- Snapshot & exposition -------------------------------------------------

enum class MetricKind { kCounter, kGauge, kHistogram };

/// One sample of the exposition: a full metric name (labels included, e.g.
/// `sstore_partition_committed_total{partition="3"}`) and its value. For
/// histograms, `value` is the sample count and `hist` carries the buckets.
struct MetricSample {
  std::string name;
  MetricKind kind = MetricKind::kGauge;
  double value = 0;
  LatencyHistogram::Snapshot hist;
};

struct MetricsSnapshot {
  std::vector<MetricSample> samples;

  /// Appends a counter or gauge sample.
  void Add(std::string name, MetricKind kind, double value);
  const MetricSample* Find(const std::string& name) const;
  /// Value of `name`, or `fallback` when absent.
  double Value(const std::string& name, double fallback = 0) const;
};

/// Prometheus-style text exposition of a snapshot: `# TYPE` headers, one
/// `name value` line per counter/gauge, and summary-style quantile lines
/// (`name{quantile="0.99"} v`, `name_sum`, `name_count`) per histogram.
std::string RenderPrometheusText(const MetricsSnapshot& snapshot);

/// Inverse of the exposition for tooling (sstore_top, tests): every
/// non-comment `name value` line, in document order. Histogram quantile
/// lines come back under their full name incl. the quantile label.
std::vector<std::pair<std::string, double>> ParseMetricsText(
    const std::string& text);

/// `base{label="<v>"}` helper for per-partition metric names.
std::string LabeledMetric(const std::string& base, const std::string& label,
                          const std::string& value);

}  // namespace sstore

#endif  // SSTORE_OBS_METRICS_H_
