#ifndef SSTORE_CLUSTER_CHECKPOINTER_H_
#define SSTORE_CLUSTER_CHECKPOINTER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"

namespace sstore {

class Cluster;

/// Background checkpoint driver (the "always-on durability" loop): a single
/// thread owned by the Cluster that triggers coordinated checkpoints on a
/// wall-clock cadence or when any partition has appended more than a
/// threshold of log bytes since the last completed checkpoint — whichever
/// fires first. Bytes-triggered checkpoints bound replay time under bursty
/// ingest; the cadence bounds it when the cluster is idle-ish.
///
/// The checkpointer never blocks the data plane waiting for the control
/// plane: it calls Cluster::TryCheckpoint, which fails fast with
/// kUnavailable when a Rebalance holds the control mutex or the coordinator
/// cannot quiesce within its bounded wait (a long-running multi-partition
/// transaction). Unavailable attempts back off exponentially (initial ->
/// max) and retry; the trigger condition is latched, so a deferred
/// checkpoint still happens as soon as the cluster lets it.
///
/// The Cluster owns one Checkpointer for its whole life; each
/// StartCheckpointer starts the same object with new options, so the
/// counters only go up across Stop/Start cycles.
///
/// Thread-safety: Start/Stop are for the owning thread (Cluster lifecycle);
/// stats() is readable from any thread.
class Checkpointer {
 public:
  struct Options {
    /// Directory every background checkpoint is written to.
    std::string dir;
    /// Cadence trigger: checkpoint when this many ms passed since the last
    /// completed (or attempted-and-failed) checkpoint. 0 disables it.
    uint64_t interval_ms = 0;
    /// Bytes trigger: checkpoint when any single partition appended this
    /// many command-log bytes since the last completed checkpoint.
    /// 0 disables it.
    uint64_t log_bytes_threshold = 0;
    /// How often the trigger conditions are polled.
    uint64_t poll_ms = 5;
    /// Bounded wait for the coordinator's in-flight multi-partition
    /// transactions to drain before giving up this attempt.
    int quiesce_timeout_ms = 50;
    /// Exponential backoff after a kUnavailable attempt.
    uint64_t initial_backoff_ms = 2;
    uint64_t max_backoff_ms = 200;
  };

  struct Stats {
    uint64_t triggered_cadence = 0;   // attempts initiated by the timer
    uint64_t triggered_bytes = 0;     // attempts initiated by log growth
    uint64_t triggered_manual = 0;    // attempts initiated by Request()
    uint64_t completed = 0;
    uint64_t failed = 0;              // non-Unavailable checkpoint errors
    uint64_t busy_deferred = 0;       // kUnavailable -> backed off
    uint64_t last_checkpoint_id = 0;
    uint64_t last_barrier_pause_us = 0;
    uint64_t max_barrier_pause_us = 0;
    uint64_t tables_full_total = 0;   // full table copies written
    uint64_t tables_delta_total = 0;  // tables written as delta references
  };

  explicit Checkpointer(Cluster* cluster);
  ~Checkpointer();

  Checkpointer(const Checkpointer&) = delete;
  Checkpointer& operator=(const Checkpointer&) = delete;

  /// Starts the loop with `options` (validated by Cluster::StartCheckpointer).
  /// No-op while running.
  void Start(const Options& options);
  void Stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Latches a manual trigger: the next loop iteration attempts a
  /// checkpoint regardless of cadence/bytes. Returns immediately.
  void Request();

  /// Blocks until at least `count` checkpoints completed over the
  /// checkpointer's life (stats().completed >= count). Test/ops helper;
  /// returns false if the checkpointer stopped first.
  bool WaitForCompletions(uint64_t count, uint64_t timeout_ms);

  /// Counters accumulated since construction; max_barrier_pause_us is the
  /// lifetime maximum.
  Stats stats() const;
  /// Last non-Unavailable error a checkpoint attempt returned (sticky until
  /// a later attempt succeeds).
  Status last_error() const;

 private:
  void Loop();
  /// True when any partition's cumulative log bytes grew past the threshold
  /// since the last completed checkpoint.
  bool BytesTriggerFired();

  Cluster* cluster_;
  /// Set by Start while the loop thread is not running; read by the loop.
  Options options_;

  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::atomic<bool> requested_{false};

  mutable std::mutex mu_;            // guards stats_, last_error_, baseline_
  std::condition_variable cv_;       // Stop() wakeup + WaitForCompletions
  Stats stats_;
  Status last_error_;
  /// Per-partition cumulative bytes_written observed at the last completed
  /// checkpoint; the bytes trigger compares against this.
  std::vector<uint64_t> bytes_baseline_;
};

}  // namespace sstore

#endif  // SSTORE_CLUSTER_CHECKPOINTER_H_
