#ifndef SSTORE_CLUSTER_STREAM_CHANNEL_H_
#define SSTORE_CLUSTER_STREAM_CHANNEL_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/partition_map.h"
#include "cluster/topology.h"
#include "common/status.h"
#include "engine/partition.h"

namespace sstore {

class Cluster;

/// Batch ids assigned by channels live in a disjoint range above every id an
/// injector or workflow round will ever produce, so raw (to-be-forwarded)
/// and delivered batches sharing one stream table are distinguishable — the
/// trigger layer's emitter filters and recovery reconciliation key on it.
inline constexpr int64_t kChannelBatchIdBase = int64_t{1} << 40;

/// Stride of the per-lane batch-id encoding: delivered ids are
/// `kChannelBatchIdBase + producer_batch * stride + lane`. The stride is a
/// fixed constant — NOT the current partition count — so ids encoded before
/// a Cluster::Rebalance grows the cluster still decode to the same lane
/// afterwards; it therefore also caps how many partitions can ever produce
/// into one channel (the cluster ceiling).
inline constexpr int64_t kChannelLaneStride =
    static_cast<int64_t>(kMaxClusterPartitions);

/// Name of the generated border procedure that applies one channel delivery
/// on a consumer partition.
std::string ChannelIngestProcName(const std::string& stream);
/// Name of the per-consumer-partition cursor table recording, per producer
/// lane, the last delivered channel batch id (durably, inside the delivery
/// transaction — recovery reconciliation reads it to restore exactly-once).
std::string ChannelCursorTableName(const std::string& stream);

/// Registers the channel's consumer-side plumbing on one store: the cursor
/// table and the delivery procedure. Called by Topology::ApplyTo on every
/// partition where the channel's consumer stage runs (including partitions
/// spun up later by Cluster::Rebalance — the batch-id encoding is
/// partition-count independent, so late installs decode identically).
Status InstallChannelConsumerSupport(SStore& store, const ChannelSpec& spec);

/// The transport of one placement boundary (paper §4.7, streams as the
/// transport between distributed workflow stages): a commit hook on every
/// partition where a producer stage runs watches for emissions into the
/// boundary stream and forwards each batch to the consumer stage's
/// partition(s) through the generated `__chan_ingest_<stream>` border
/// procedure — one logged, replayable transaction per delivery, riding the
/// partition's existing request queue.
///
/// Ordering (paper §2.2, the stream-order constraint): each producer
/// partition is one *lane*; forwarding happens on that partition's single
/// worker in commit order, and the channel batch id
/// `kChannelBatchIdBase + producer_batch * kChannelLaneStride + lane` is
/// strictly monotonic per lane — so every consumer sees each lane's batches
/// in the order the producer committed them. Lanes from different producer
/// partitions interleave arbitrarily (the shared-nothing bargain, same as
/// keyed injection).
///
/// Exactly-once: the delivery transaction appends the batch to the consumer
/// partition's stream table *and* advances that lane's cursor row in one
/// transaction, and the producer-side claim on the raw batch is released
/// only after the delivery ticket reports commit. A crash anywhere leaves
/// either the raw batch pending on the producer (re-forwarded by
/// ReconcileAfterRecovery) or the delivery durable on the consumer (the
/// cursor suppresses re-forwarding) — never both effects and never neither.
///
/// Cascades (a channel consumer feeding another channel) are supported only
/// when the upstream channel is single-lane (all its producers pinned to
/// one partition) — enforced by Topology::Channels — because a stage
/// fed by interleaved multi-lane deliveries would emit non-monotonic ids
/// downstream and defeat the cursor's duplicate detection.
class StreamChannel {
 public:
  struct Stats {
    uint64_t deliveries = 0;    // delivery transactions submitted
    uint64_t rows_forwarded = 0;
    uint64_t redeliveries_suppressed = 0;  // recovery found the cursor ahead
    uint64_t delivery_failures = 0;        // delivery transaction aborted
  };

  StreamChannel(Cluster* cluster, ChannelSpec spec);

  StreamChannel(const StreamChannel&) = delete;
  StreamChannel& operator=(const StreamChannel&) = delete;

  /// Installs the forwarding commit hook on every producer partition.
  /// Called once by Cluster::Deploy, before Start().
  void InstallHooks();

  /// Extends the channel to a partition added by Cluster::Rebalance: a
  /// fresh lane, plus the forwarding hook when a producer stage runs there.
  /// Call only while every worker is parked at the rebalance barrier (or
  /// stopped, during Recover) — lane storage is grown un-synchronized.
  void OnPartitionAdded(size_t p);

  /// Gate for recovery: replaying a producer's log re-fires its commit
  /// hooks, and those emissions were already transported pre-crash (or will
  /// be reconciled) — forwarding during replay would duplicate them.
  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_release);
  }

  /// Submits an ack-drain closure to every running producer partition (GC
  /// of raw batches whose delivery committed happens on the owning worker;
  /// stream tables are single-threaded). Drains inline where the worker is
  /// stopped.
  void ScheduleAckDrains();

  /// Post-recovery reconciliation: every raw batch still pending on a
  /// producer partition is re-routed deterministically; sub-deliveries the
  /// consumer's cursor already covers are suppressed (claim released), the
  /// rest are forwarded. Call with every partition stopped, after log
  /// replay, before re-enabling the channel.
  Status ReconcileAfterRecovery();

  const ChannelSpec& spec() const { return spec_; }
  int64_t EncodeBatchId(int64_t producer_batch, size_t lane) const;
  Stats stats() const;

 private:
  struct Delivery {
    int64_t producer_batch;
    std::vector<BatchTicketPtr> tickets;  // one-slot, one per target partition
  };
  struct Lane {
    std::mutex mu;
    std::deque<Delivery> inflight;  // FIFO; acked from the front only
    /// Mirrors inflight.size() so the per-commit DrainLane check on the
    /// producer hot path is one relaxed load, no mutex, when nothing is in
    /// flight (the overwhelmingly common case for non-boundary commits).
    std::atomic<size_t> inflight_count{0};
  };

  void OnProducerCommit(size_t lane, const TransactionExecution& te);
  /// Routes `rows` by the consumer placement, submits one delivery per
  /// target partition, and records the tickets for deferred GC. `cursors`
  /// (reconciliation only) suppresses targets already covered. Routing and
  /// enqueue happen under one Cluster::RoutingView so a concurrent
  /// rebalance flip cannot split them.
  void ForwardBatch(size_t lane, int64_t producer_batch,
                    std::vector<Tuple> rows,
                    const std::map<size_t, int64_t>* cursors);
  /// Target partition -> rows, per the consumer placement against `map`.
  /// Deterministic — reconciliation replays the same split.
  std::map<size_t, std::vector<Tuple>> RouteRows(std::vector<Tuple> rows,
                                                 const PartitionMap& map) const;
  /// GCs acknowledged deliveries of one lane. Must run on that partition's
  /// worker thread, or with it stopped.
  void DrainLane(size_t lane);
  Result<int64_t> ReadCursor(size_t consumer_partition, size_t lane) const;

  Cluster* cluster_;
  ChannelSpec spec_;
  std::string ingest_proc_;
  std::atomic<bool> enabled_{true};
  std::vector<std::unique_ptr<Lane>> lanes_;  // indexed by producer partition

  std::atomic<uint64_t> deliveries_{0};
  std::atomic<uint64_t> rows_forwarded_{0};
  std::atomic<uint64_t> redeliveries_suppressed_{0};
  std::atomic<uint64_t> delivery_failures_{0};
  /// 1-in-N countdown for channel_forward trace spans (obs/trace.h).
  std::atomic<uint64_t> trace_tick_{0};
};

}  // namespace sstore

#endif  // SSTORE_CLUSTER_STREAM_CHANNEL_H_
