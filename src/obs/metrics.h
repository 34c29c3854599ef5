#ifndef SSTORE_OBS_METRICS_H_
#define SSTORE_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace sstore {

/// The observability substrate (docs/ARCHITECTURE.md "Observability"): one
/// process-wide registry of named metrics behind a single snapshot +
/// Prometheus-style text exposition API. Every subsystem that used to hide
/// counters in its own Stats struct (Partition, ExecutionEngine,
/// TxnCoordinator, CommandLog, StreamChannel, Checkpointer, WireServer)
/// surfaces here — either as registry-owned instruments updated on the hot
/// path, or through pull-style providers that read the legacy structs at
/// snapshot time. The legacy structs stay for in-process callers; the
/// registry is the one pane of glass.

// ---- Instruments -----------------------------------------------------------

/// Monotonic counter. Add() is one relaxed fetch_add — safe on any path.
class Counter {
 public:
  void Add(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// Last-write-wins gauge.
class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

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
  Snapshot snapshot() const;

  /// Zeroes every shard. Not atomic with respect to concurrent Record():
  /// a racing sample may survive into the next epoch or be lost — the same
  /// semantics as every other stats reset here.
  void Reset();

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

// ---- Registry --------------------------------------------------------------

/// Named-metric registry: owns hot-path instruments (stable pointers for
/// recorders) and pull-providers that contribute samples at snapshot time.
/// Registration is mutex-guarded and expected at deploy/start time; the
/// instruments themselves are wait-free to update.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registered instruments live as long as the registry; the returned
  /// pointers are stable and safe to cache on hot paths.
  Counter* AddCounter(const std::string& name);
  Gauge* AddGauge(const std::string& name);
  LatencyHistogram* AddHistogram(const std::string& name);

  /// Pull-provider: called under the registry lock by Snapshot() to append
  /// samples (this is how the legacy Stats structs are absorbed without
  /// rewriting their counters). Must not call back into this registry.
  /// Returns a handle for RemoveProvider — components with a lifetime
  /// shorter than the registry (e.g. WireServer) must remove themselves.
  using Provider = std::function<void(std::vector<MetricSample>*)>;
  uint64_t AddProvider(Provider provider);
  void RemoveProvider(uint64_t handle);

  /// Reset hook: invoked by Reset() so external subsystems' counters reset
  /// in the same sweep as the registry-owned instruments — the one
  /// consistent reset epoch Cluster::ResetStats promises.
  uint64_t AddResetHook(std::function<void()> hook);
  void RemoveResetHook(uint64_t handle);

  /// Owned instruments first (registration order), then each provider's
  /// samples (registration order).
  MetricsSnapshot Snapshot() const;
  /// RenderPrometheusText(Snapshot()).
  std::string RenderText() const;

  /// Zeroes every owned counter/gauge/histogram, then runs the reset hooks.
  void Reset();

 private:
  struct Instrument {
    std::string name;
    MetricKind kind;
    // Exactly one is used, per kind. deque-stored so pointers are stable.
    Counter counter;
    Gauge gauge;
    LatencyHistogram histogram;
    explicit Instrument(std::string n, MetricKind k)
        : name(std::move(n)), kind(k) {}
  };

  mutable std::mutex mu_;
  std::deque<Instrument> instruments_;
  uint64_t next_handle_ = 1;
  std::map<uint64_t, Provider> providers_;
  std::map<uint64_t, std::function<void()>> reset_hooks_;
};

}  // namespace sstore

#endif  // SSTORE_OBS_METRICS_H_
