#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace sstore {

// ---- LatencyHistogram ------------------------------------------------------

size_t LatencyHistogram::BucketOf(int64_t v) {
  if (v <= 1) return 0;
  size_t b = 63 - static_cast<size_t>(__builtin_clzll(static_cast<uint64_t>(v)));
  return b > 62 ? 62 : b;
}

size_t LatencyHistogram::ShardIndex() {
  // Threads take the next shard round-robin on first use; the assignment is
  // sticky per thread, so a partition worker always hits the same line.
  static std::atomic<size_t> next{0};
  static thread_local size_t idx =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return idx;
}

void LatencyHistogram::Record(int64_t value) {
  if (value < 0) value = 0;
  Shard& s = shards_[ShardIndex()];
  s.buckets[BucketOf(value)].fetch_add(1, std::memory_order_relaxed);
  s.count.fetch_add(1, std::memory_order_relaxed);
  s.sum.fetch_add(static_cast<uint64_t>(value), std::memory_order_relaxed);
  int64_t cur = s.max.load(std::memory_order_relaxed);
  while (value > cur &&
         !s.max.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

LatencyHistogram::Snapshot LatencyHistogram::snapshot() const {
  Snapshot out;
  for (const Shard& s : shards_) {
    for (size_t b = 0; b < kBuckets; ++b) {
      out.buckets[b] += s.buckets[b].load(std::memory_order_relaxed);
    }
    out.count += s.count.load(std::memory_order_relaxed);
    out.sum += s.sum.load(std::memory_order_relaxed);
    out.max = std::max(out.max, s.max.load(std::memory_order_relaxed));
  }
  return out;
}

int64_t LatencyHistogram::Snapshot::Percentile(double p) const {
  if (count == 0) return 0;
  if (p <= 0) p = 0;
  if (p >= 100) return max;
  // 1-based rank of the sample that answers the percentile.
  double rank = (p / 100.0) * static_cast<double>(count - 1);
  uint64_t target = static_cast<uint64_t>(rank) + 1;
  uint64_t cum = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    if (buckets[b] == 0) continue;
    cum += buckets[b];
    if (cum < target) continue;
    int64_t lo = b == 0 ? 0 : (int64_t{1} << b);
    int64_t hi = (int64_t{1} << (b + 1)) - 1;
    uint64_t before = cum - buckets[b];
    double frac = buckets[b] <= 1
                      ? 0.0
                      : static_cast<double>(target - before - 1) /
                            static_cast<double>(buckets[b] - 1);
    int64_t v =
        lo + static_cast<int64_t>(frac * static_cast<double>(hi - lo));
    // The top bucket's interpolation ceiling is the observed max, not the
    // bucket's theoretical upper bound.
    return std::min(v, std::max(max, lo));
  }
  return max;
}

// ---- Snapshot & exposition -------------------------------------------------

void MetricsSnapshot::Add(std::string name, MetricKind kind, double value) {
  MetricSample s;
  s.name = std::move(name);
  s.kind = kind;
  s.value = value;
  samples.push_back(std::move(s));
}

const MetricSample* MetricsSnapshot::Find(const std::string& name) const {
  for (const MetricSample& s : samples) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

double MetricsSnapshot::Value(const std::string& name, double fallback) const {
  const MetricSample* s = Find(name);
  return s == nullptr ? fallback : s->value;
}

namespace {

std::string FormatValue(double v) {
  if (v == std::floor(v) && std::fabs(v) < 9.0e15) {
    return std::to_string(static_cast<long long>(v));
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// Metric name with any `{label="..."}` suffix stripped — the `# TYPE`
/// header applies to the base family.
std::string BaseName(const std::string& name) {
  size_t brace = name.find('{');
  return brace == std::string::npos ? name : name.substr(0, brace);
}

const char* KindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "summary";
  }
  return "gauge";
}

}  // namespace

std::string RenderPrometheusText(const MetricsSnapshot& snapshot) {
  std::string out;
  out.reserve(snapshot.samples.size() * 48);
  std::string last_family;
  for (const MetricSample& s : snapshot.samples) {
    std::string family = BaseName(s.name);
    if (family != last_family) {
      out += "# TYPE ";
      out += family;
      out += ' ';
      out += KindName(s.kind);
      out += '\n';
      last_family = family;
    }
    if (s.kind == MetricKind::kHistogram) {
      static const double kQuantiles[] = {50.0, 90.0, 99.0};
      static const char* kQuantileLabels[] = {"0.5", "0.9", "0.99"};
      for (size_t q = 0; q < 3; ++q) {
        out += family;
        out += "{quantile=\"";
        out += kQuantileLabels[q];
        out += "\"} ";
        out += FormatValue(
            static_cast<double>(s.hist.Percentile(kQuantiles[q])));
        out += '\n';
      }
      out += family + "{quantile=\"1\"} " +
             FormatValue(static_cast<double>(s.hist.max)) + '\n';
      out += family + "_sum " + FormatValue(static_cast<double>(s.hist.sum)) +
             '\n';
      out += family + "_count " +
             FormatValue(static_cast<double>(s.hist.count)) + '\n';
    } else {
      out += s.name;
      out += ' ';
      out += FormatValue(s.value);
      out += '\n';
    }
  }
  return out;
}

std::vector<std::pair<std::string, double>> ParseMetricsText(
    const std::string& text) {
  std::vector<std::pair<std::string, double>> out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    if (eol > pos && text[pos] != '#') {
      // Split on the last space: names may embed labels but never spaces
      // outside quoted label values, and our renderer never quotes spaces.
      size_t sp = text.rfind(' ', eol - 1);
      if (sp != std::string::npos && sp > pos) {
        std::string name = text.substr(pos, sp - pos);
        std::string value = text.substr(sp + 1, eol - sp - 1);
        char* end = nullptr;
        double v = std::strtod(value.c_str(), &end);
        if (end != value.c_str()) out.emplace_back(std::move(name), v);
      }
    }
    pos = eol + 1;
  }
  return out;
}

std::string LabeledMetric(const std::string& base, const std::string& label,
                          const std::string& value) {
  return base + "{" + label + "=\"" + value + "\"}";
}

}  // namespace sstore
