// sstore_top — top(1) for a running S-Store: polls a WireServer's kStats
// endpoint and renders per-partition throughput, ring depth, group-commit
// ratio, and txn latency quantiles as a refreshing one-screen report.
//
//   ./sstore_top --connect 127.0.0.1:7777                # refresh every 1s
//   ./sstore_top --connect 127.0.0.1:7777 --interval-ms 250
//   ./sstore_top --connect 127.0.0.1:7777 --once         # one snapshot, exit
//   ./sstore_top --connect 127.0.0.1:7777 --raw          # raw exposition
//
// Rates (tx/s) are deltas between consecutive polls; the first frame (and
// --once) shows totals only. Exits non-zero if the connection cannot be
// established or a poll fails — which makes `--once` a usable health probe.

#include <cinttypes>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "server/client.h"

namespace {

using sstore::LabeledMetric;
using sstore::ParseMetricsText;
using sstore::WireClient;

struct Args {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  int interval_ms = 1000;
  bool once = false;
  bool raw = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--connect") {
      std::string hp = next("--connect");
      size_t colon = hp.rfind(':');
      if (colon == std::string::npos) {
        std::fprintf(stderr, "--connect expects host:port\n");
        return false;
      }
      args->host = hp.substr(0, colon);
      args->port = static_cast<uint16_t>(std::atoi(hp.c_str() + colon + 1));
    } else if (a == "--interval-ms") {
      args->interval_ms = std::atoi(next("--interval-ms"));
    } else if (a == "--once") {
      args->once = true;
    } else if (a == "--raw") {
      args->raw = true;
    } else {
      std::fprintf(stderr,
                   "usage: sstore_top --connect host:port [--interval-ms N] "
                   "[--once] [--raw]\n");
      return false;
    }
  }
  if (args->port == 0) {
    std::fprintf(stderr, "sstore_top: --connect host:port is required\n");
    return false;
  }
  if (args->interval_ms < 1) args->interval_ms = 1;
  return true;
}

using MetricMap = std::map<std::string, double>;

double Get(const MetricMap& m, const std::string& name, double fallback = 0) {
  auto it = m.find(name);
  return it == m.end() ? fallback : it->second;
}

bool Has(const MetricMap& m, const std::string& name) {
  return m.find(name) != m.end();
}

/// tx/s between two polls; "-" when there is no previous frame.
std::string Rate(double now, double prev, double secs, bool have_prev) {
  char buf[32];
  if (!have_prev || secs <= 0) return "-";
  std::snprintf(buf, sizeof(buf), "%.0f", (now - prev) / secs);
  return buf;
}

void Render(const MetricMap& m, const MetricMap& prev, bool have_prev,
            double secs) {
  const int partitions = static_cast<int>(Get(m, "sstore_partitions"));
  const double committed = Get(m, "sstore_txn_committed_total");
  const double committed_prev = Get(prev, "sstore_txn_committed_total");

  std::printf("sstore_top  %d partition%s  interval %.1fs\n", partitions,
              partitions == 1 ? "" : "s", secs);
  std::printf(
      "  txn: %.0f committed (%s tx/s)  %.0f aborted  queue depth %.0f "
      "(hwm %.0f)\n",
      committed, Rate(committed, committed_prev, secs, have_prev).c_str(),
      Get(m, "sstore_txn_aborted_total"), Get(m, "sstore_queue_depth"),
      Get(m, "sstore_queue_high_watermark"));
  std::printf(
      "  latency us (sampled): p50 %.0f  p99 %.0f  max %.0f  (n=%.0f)\n",
      Get(m, "sstore_txn_latency_us{quantile=\"0.5\"}"),
      Get(m, "sstore_txn_latency_us{quantile=\"0.99\"}"),
      Get(m, "sstore_txn_latency_us{quantile=\"1\"}"),
      Get(m, "sstore_txn_latency_us_count"));
  std::printf(
      "  coord round us: p50 %.0f  p99 %.0f  max %.0f  (n=%.0f)\n",
      Get(m, "sstore_coord_round_latency_us{quantile=\"0.5\"}"),
      Get(m, "sstore_coord_round_latency_us{quantile=\"0.99\"}"),
      Get(m, "sstore_coord_round_latency_us{quantile=\"1\"}"),
      Get(m, "sstore_coord_round_latency_us_count"));
  std::printf(
      "  log: group-commit x%.1f  %.0f flushes  |  wire: busy-shed %.0f "
      "(%.0f in checkpoints)  proto-errs %.0f  overload-closed %.0f  "
      "max-inflight %.0f\n",
      Get(m, "sstore_log_group_commit_ratio"),
      Get(m, "sstore_log_flushes_total"),
      Get(m, "sstore_wire_busy_shed_total"),
      Get(m, "sstore_wire_busy_during_checkpoint_total"),
      Get(m, "sstore_wire_protocol_errors_total"),
      Get(m, "sstore_wire_overload_closed_total"),
      Get(m, "sstore_wire_max_conn_inflight"));
  std::printf(
      "  checkpoint: %.0f completed  last pause %.0f us  max pause %.0f us\n",
      Get(m, "sstore_checkpoint_completed_total"),
      Get(m, "sstore_checkpoint_last_barrier_pause_us"),
      Get(m, "sstore_checkpoint_max_barrier_pause_us"));

  std::printf("  %5s %10s %12s %9s %7s %6s %12s\n", "part", "tx/s",
              "committed", "aborted", "qdepth", "hwm", "log-records");
  for (int p = 0;; ++p) {
    const std::string label = std::to_string(p);
    const std::string committed_name =
        LabeledMetric("sstore_partition_committed_total", "partition", label);
    if (!Has(m, committed_name)) break;
    const double c = Get(m, committed_name);
    const double c_prev = Get(prev, committed_name);
    std::printf(
        "  %5d %10s %12.0f %9.0f %7.0f %6.0f %12.0f\n", p,
        Rate(c, c_prev, secs, have_prev).c_str(), c,
        Get(m, LabeledMetric("sstore_partition_aborted_total", "partition",
                             label)),
        Get(m,
            LabeledMetric("sstore_partition_queue_depth", "partition", label)),
        Get(m, LabeledMetric("sstore_partition_queue_high_watermark",
                             "partition", label)),
        Get(m, LabeledMetric("sstore_partition_log_records_total", "partition",
                             label)));
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;

  auto client_or = WireClient::Connect({args.host, args.port, 0});
  if (!client_or.ok()) {
    std::fprintf(stderr, "sstore_top: connect to %s:%u failed: %s\n",
                 args.host.c_str(), args.port,
                 client_or.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<WireClient> client = std::move(*client_or);

  MetricMap prev;
  bool have_prev = false;
  int consecutive_shed = 0;
  constexpr int kMaxConsecutiveShed = 5;
  auto last_poll = std::chrono::steady_clock::now();
  for (;;) {
    auto text_or = client->FetchStats();
    if (!text_or.ok()) {
      // Unavailable = the server shed the poll with kBusy (checkpoint or
      // rebalance barrier) even after the client's own retries. That is a
      // healthy server under a long pause, not a dead one — keep the screen
      // up and poll again, unless it persists long enough to look wedged.
      // --once stays strict so it remains a usable health probe.
      if (text_or.status().IsUnavailable() && !args.once &&
          ++consecutive_shed < kMaxConsecutiveShed) {
        std::fprintf(stderr, "sstore_top: stats poll shed busy (%d/%d): %s\n",
                     consecutive_shed, kMaxConsecutiveShed,
                     text_or.status().ToString().c_str());
        std::this_thread::sleep_for(
            std::chrono::milliseconds(args.interval_ms));
        continue;
      }
      std::fprintf(stderr, "sstore_top: stats fetch failed: %s\n",
                   text_or.status().ToString().c_str());
      return 1;
    }
    consecutive_shed = 0;
    auto now = std::chrono::steady_clock::now();
    double secs = std::chrono::duration<double>(now - last_poll).count();
    last_poll = now;

    if (args.raw) {
      std::fputs(text_or->c_str(), stdout);
    } else {
      MetricMap m;
      for (auto& [name, value] : ParseMetricsText(*text_or)) m[name] = value;
      if (m.empty()) {
        std::fprintf(stderr, "sstore_top: empty/unparseable exposition\n");
        return 1;
      }
      Render(m, prev, have_prev, secs);
      prev = std::move(m);
      have_prev = true;
    }
    if (args.once) return 0;
    std::printf("\n");
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::milliseconds(args.interval_ms));
  }
}
