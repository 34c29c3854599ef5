#include "cluster/checkpointer.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "cluster/cluster.h"

namespace sstore {

namespace {
using SteadyClock = std::chrono::steady_clock;

/// Each partition's cumulative command-log bytes, the bytes trigger's only
/// input. Read straight off the partitions rather than through
/// Cluster::GatherStats, which reads this checkpointer's stats() and so
/// must not be called while holding mu_.
std::vector<uint64_t> LogBytesPerPartition(Cluster& cluster) {
  std::vector<uint64_t> out(cluster.num_partitions());
  for (size_t p = 0; p < out.size(); ++p) {
    out[p] = cluster.partition(p).log_stats().bytes_written;
  }
  return out;
}
}  // namespace

Checkpointer::Checkpointer(Cluster* cluster) : cluster_(cluster) {}

Checkpointer::~Checkpointer() { Stop(); }

void Checkpointer::Start(const Options& options) {
  if (running()) return;
  options_ = options;
  stop_.store(false, std::memory_order_release);
  requested_.store(false, std::memory_order_release);
  {
    // Seed the bytes baseline at "now" so pre-Start log traffic (seeding,
    // recovery replay) does not immediately fire the bytes trigger.
    std::vector<uint64_t> bytes = LogBytesPerPartition(*cluster_);
    std::lock_guard<std::mutex> lock(mu_);
    bytes_baseline_ = std::move(bytes);
  }
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { Loop(); });
}

void Checkpointer::Stop() {
  if (!running()) return;
  stop_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(mu_);
    cv_.notify_all();
  }
  thread_.join();
  running_.store(false, std::memory_order_release);
}

void Checkpointer::Request() {
  requested_.store(true, std::memory_order_release);
}

bool Checkpointer::WaitForCompletions(uint64_t count, uint64_t timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  return cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), [&] {
    return stats_.completed >= count || stop_.load(std::memory_order_acquire);
  }) && stats_.completed >= count;
}

Checkpointer::Stats Checkpointer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

Status Checkpointer::last_error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_error_;
}

bool Checkpointer::BytesTriggerFired() {
  std::vector<uint64_t> bytes = LogBytesPerPartition(*cluster_);
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t p = 0; p < bytes.size(); ++p) {
    uint64_t base = p < bytes_baseline_.size() ? bytes_baseline_[p] : 0;
    if (bytes[p] - base >= options_.log_bytes_threshold) return true;
  }
  return false;
}

void Checkpointer::Loop() {
  SteadyClock::time_point cadence_anchor = SteadyClock::now();
  uint64_t backoff_ms = options_.initial_backoff_ms;
  // A fired trigger is latched until an attempt actually runs: a deferred
  // (busy) checkpoint is retried after backoff, not forgotten.
  bool pending = false;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      uint64_t sleep_ms = pending ? backoff_ms : options_.poll_ms;
      cv_.wait_for(lock, std::chrono::milliseconds(sleep_ms), [this] {
        return stop_.load(std::memory_order_acquire);
      });
    }
    if (stop_.load(std::memory_order_acquire)) return;

    if (!pending) {
      if (requested_.exchange(false, std::memory_order_acq_rel)) {
        pending = true;
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.triggered_manual;
      } else if (options_.interval_ms != 0 &&
                 SteadyClock::now() - cadence_anchor >=
                     std::chrono::milliseconds(options_.interval_ms)) {
        pending = true;
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.triggered_cadence;
      } else if (options_.log_bytes_threshold != 0 && BytesTriggerFired()) {
        pending = true;
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.triggered_bytes;
      }
    }
    if (!pending) continue;

    CheckpointReport report;
    Status st = cluster_->TryCheckpoint(options_.dir, &report,
                                        options_.quiesce_timeout_ms);
    if (st.IsUnavailable()) {
      // A rebalance holds the control plane, or in-flight multi-partition
      // work would not drain in time. Keep the latched trigger and retry
      // after exponential backoff — the data plane is never stalled by us.
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.busy_deferred;
      }
      backoff_ms = std::min(std::max<uint64_t>(backoff_ms, 1) * 2,
                            options_.max_backoff_ms);
      continue;
    }

    pending = false;
    backoff_ms = options_.initial_backoff_ms;
    cadence_anchor = SteadyClock::now();

    std::vector<uint64_t> bytes = LogBytesPerPartition(*cluster_);
    std::lock_guard<std::mutex> lock(mu_);
    if (st.ok()) {
      ++stats_.completed;
      stats_.last_checkpoint_id = report.checkpoint_id;
      stats_.last_barrier_pause_us = report.barrier_pause_us;
      stats_.max_barrier_pause_us =
          std::max(stats_.max_barrier_pause_us, report.barrier_pause_us);
      stats_.tables_full_total += report.tables_full;
      stats_.tables_delta_total += report.tables_delta;
      last_error_ = Status::OK();
      bytes_baseline_ = std::move(bytes);
      cv_.notify_all();
    } else {
      // A real checkpoint failure (I/O error, failpoint) is sticky in
      // last_error_ until a later attempt succeeds; the loop keeps trying
      // on the normal triggers.
      ++stats_.failed;
      last_error_ = st;
    }
  }
}

}  // namespace sstore
