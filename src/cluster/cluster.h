#ifndef SSTORE_CLUSTER_CLUSTER_H_
#define SSTORE_CLUSTER_CLUSTER_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "cluster/checkpointer.h"
#include "cluster/partition_map.h"
#include "cluster/stream_channel.h"
#include "cluster/topology.h"
#include "common/status.h"
#include "log/snapshot.h"
#include "engine/partition.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "streaming/sstore.h"
#include "txn_coord/txn_coordinator.h"

namespace sstore {

/// One live rebalancing step (see Cluster::Rebalance): split an overloaded
/// partition's key range in two and migrate the moving half onto a freshly
/// spun-up partition, or merge a partition's ranges back into an adjacent
/// owner and retire it.
struct RebalancePlan {
  enum class Kind { kSplit, kMerge };

  Kind kind = Kind::kSplit;
  /// kSplit: the partition whose widest key range is halved.
  /// kMerge: the partition being drained and retired.
  size_t source = 0;
  /// kSplit: the partition receiving the upper half. Defaults (SIZE_MAX) to
  /// a brand-new partition appended to the cluster; an existing *retired*
  /// partition id may be named to re-use its slot.
  /// kMerge: the surviving owner (must already own adjacent ranges).
  size_t target = static_cast<size_t>(-1);
  /// Which tables hold key-routed rows, and which column routes each. Rows
  /// of these tables migrate with their key range; tables not listed
  /// (replicated reference data, metadata singletons, channel cursors) stay
  /// where they are.
  std::map<std::string, int> keyed_tables;
  /// Where the cutover checkpoint lands. Required: the checkpoint manifest
  /// — which now records the partition map — is the atomic commit point of
  /// the whole migration. Recovering from this directory lands on the
  /// post-rebalance map; a kill before the manifest rename leaves the
  /// previous checkpoint (and the previous map) intact.
  std::string checkpoint_dir;
};

/// Observability record of one completed Rebalance.
struct RebalanceReport {
  uint64_t map_version = 0;  // version() of the published map
  size_t source = 0;
  size_t target = 0;
  uint64_t rows_migrated = 0;
  /// Time the routing table was locked exclusively (producers stalled).
  uint64_t routing_pause_us = 0;
  /// Time every worker was parked at the barrier (migration + checkpoint).
  uint64_t barrier_pause_us = 0;
};

/// Observability record of one completed coordinated checkpoint.
struct CheckpointReport {
  uint64_t checkpoint_id = 0;
  /// Time every worker was parked at the barrier (marks + snapshots +
  /// manifest + rotation) — the ingest pause the checkpoint cost.
  uint64_t barrier_pause_us = 0;
  /// Tables serialized in full across all partitions.
  uint64_t tables_full = 0;
  /// Tables written as delta references to an earlier checkpoint (their
  /// version counter did not move since their last full copy).
  uint64_t tables_delta = 0;
  /// Snapshot bytes written across all partitions.
  uint64_t snapshot_bytes = 0;
};

/// Observability record of the last Cluster::Recover. Replay (snapshot
/// restore, log replay, residual triggers) and the re-arming cut are timed
/// apart, so a recovery-time measurement (Figure 9b) can report replay alone.
struct RecoverStats {
  uint64_t replay_us = 0;
  uint64_t rearm_us = 0;  // zero when Recover ran without a log_dir
  uint64_t records_replayed = 0;
  uint64_t residual_triggers = 0;
  uint64_t in_doubt_committed = 0;  // in-doubt multi-partition txns
  uint64_t in_doubt_aborted = 0;    // resolved commit / abort
  uint64_t torn_nested_groups = 0;  // nested groups dropped, unmarked
};

/// Aggregate statistics snapshot of a Cluster — the one typed read API for
/// its counters, and what Cluster::SnapshotMetrics renders: the
/// partition-engine counters (Partition::Stats) and the execution-engine
/// counters (EngineStats), both summed into cluster totals and kept
/// per-partition for skew analysis, plus the coordinator, command-log,
/// stream-channel, background-checkpointer and last-recovery counters.
///
/// Snapshots are consistent when taken while the cluster is idle (after
/// WaitIdle() or Stop()); under load they are a live approximation, same as
/// reading a single partition's counters mid-run.
struct ClusterStats {
  /// Summed across partitions — except queue_high_watermark, which is the
  /// *max* across partitions (a sum of per-partition high-water marks has no
  /// admission-control meaning; the worst single backlog does).
  Partition::Stats txn;
  EngineStats engine;     // summed across partitions
  /// Cross-partition coordinator counters (prepares, aborts, in-doubt
  /// resolutions, 2PC round latency, checkpoints).
  CoordStats coord;
  /// Durability counters summed across partitions and rotation epochs
  /// (all zero when the cluster runs without a log_dir). flush_count vs
  /// log.records_appended is the realized group-commit amortization of
  /// Options::group_commit_size (paper §4.4).
  LogStats log;
  /// Stream-channel delivery counters summed across the deployed channels
  /// (all zero when the deploy has none).
  StreamChannel::Stats channel;
  /// Background checkpointer counters over the cluster's life (all zero
  /// until StartCheckpointer; they survive Stop/Start cycles).
  Checkpointer::Stats checkpoint;
  /// The last Recover's record (zero until one ran).
  RecoverStats recover;
  std::vector<Partition::Stats> per_partition;
  std::vector<EngineStats> per_partition_engine;
  std::vector<LogStats> per_partition_log;

  uint64_t committed() const { return txn.committed; }
  uint64_t aborted() const { return txn.aborted; }
  /// Total durable-flush (fsync) operations across the cluster.
  uint64_t flush_count() const { return log.flush_count; }
  /// Deepest request backlog any partition saw over the cluster's life.
  uint64_t max_queue_high_watermark() const {
    return txn.queue_high_watermark;
  }
  /// Total producer blocking events (a full queue, at queue_capacity).
  uint64_t producer_blocks() const { return txn.producer_blocks; }
};

/// A shared-nothing cluster of SStore partitions (paper §4.7 / Figure 11):
/// N complete single-partition engines — each with its own catalog, worker
/// thread, streams, triggers, and (optionally) command log — plus a
/// PartitionMap that routes keyed work to its owning partition. There is no
/// cross-partition coordination on the hot path; that absence is exactly the
/// near-linear multi-core scaling the paper measures.
///
/// Typical use:
///
///   Cluster cluster(Cluster::Options{4});
///   Topology app = BuildMyAppDeployment();
///   cluster.Deploy(app);             // identical DDL/SPs on every partition
///   cluster.Start();
///   ClusterInjector injector(&cluster, "ingest", {.key_column = 0});
///   injector.InjectAsync(tuple);     // routed by tuple[0]
class Cluster {
 public:
  struct Options {
    int num_partitions = 1;
    PartitionMap::Mode routing = PartitionMap::Mode::kHash;
    /// When non-empty, partition p logs to `<log_dir>/partition-<p>.log`,
    /// opened by Deploy (see there).
    std::string log_dir;
    size_t group_commit_size = 1;
    bool log_sync = true;
    RecoveryMode recovery_mode = RecoveryMode::kStrong;
    /// Per-partition request-ring capacity; 0 = Partition default.
    size_t queue_capacity = 0;

    // ---- Observability (src/obs/) ----
    //
    // Always-on by default: sampling keeps the instrumented hot path within
    // the ≤3% envelope the bench gate enforces, so there is no "observability
    // build" — a production cluster can always answer "where did the time
    // go".

    /// Sample 1 in N submitted invocations into the submit→complete latency
    /// histogram (`sstore_txn_latency_us`); a batch counts as one tick and
    /// stamps its last invocation. 0 disables latency sampling entirely.
    uint32_t latency_sample_every = 64;
    /// Of the latency-sampled invocations, capture full per-stage pipeline
    /// spans for 1 in M into the per-partition trace rings (DumpTraceJson).
    /// 0 disables span capture.
    uint32_t trace_sample_every = 32;
    /// Recent spans retained per partition (newest wins).
    size_t trace_ring_capacity = 4096;
  };

  explicit Cluster(const Options& options);
  explicit Cluster(int num_partitions);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Current partition count — grows when Rebalance splits. Readable from
  /// any thread; the count only ever grows, and store slots below it are
  /// immutable once published.
  size_t num_partitions() const {
    return num_partitions_.load(std::memory_order_acquire);
  }

  /// A stable view of the routing table: holds the shared side of the
  /// routing lock, so a concurrent Rebalance cannot flip the map while the
  /// view lives. Every keyed route + enqueue pair must happen under one
  /// view (the routed entry points below and ClusterInjector do this
  /// through one admission helper). NEVER block while holding a view — the
  /// rebalance flip waits on it exclusively, and workers take views in
  /// commit hooks.
  class RoutingView {
   public:
    const PartitionMap& map() const { return *map_; }

   private:
    friend class Cluster;
    RoutingView(std::shared_lock<std::shared_mutex> lock,
                const PartitionMap* map)
        : lock_(std::move(lock)), map_(map) {}
    std::shared_lock<std::shared_mutex> lock_;
    const PartitionMap* map_;
  };
  RoutingView LockRouting() const {
    return RoutingView(std::shared_lock<std::shared_mutex>(route_mu_), &map_);
  }

  /// Copy of the routing table (stable snapshot for inspection; the live
  /// table may move on under a concurrent Rebalance).
  PartitionMap partition_map() const {
    std::shared_lock<std::shared_mutex> lock(route_mu_);
    return map_;
  }

  /// The full single-partition engine backing partition `p`.
  SStore& store(size_t p) { return *stores_[p]; }
  const SStore& store(size_t p) const { return *stores_[p]; }
  Partition& partition(size_t p) { return stores_[p]->partition(); }

  /// Applies the application, in partition order: each partition receives
  /// its slice (shared DDL, the stage procedures and PE triggers whose
  /// placement runs there, channel plumbing where a boundary touches it),
  /// and one StreamChannel per placement-boundary stream is installed to
  /// transport batches from producer partitions to the consumer stage's
  /// partition. An all-kEverywhere topology puts the whole application on
  /// every partition. Fails with the topology's validation error, or fast
  /// on the first partition that rejects a step; partitions are then either
  /// all deployed or the cluster should be discarded (deployment is not
  /// transactional across partitions). A cluster deploys once: Rebalance
  /// and Recover rebuild partitions from the one retained topology, so a
  /// second Deploy returns kAlreadyExists. With a log_dir, a command log
  /// that cannot open fails the deploy before any slice is applied.
  Status Deploy(const Topology& topology);

  /// The live cross-partition stream transports of the deployed topology
  /// (empty for channel-free topologies).
  const std::vector<std::unique_ptr<StreamChannel>>& channels() const {
    return channels_;
  }

  // ---- Keyed routing (any thread) ----

  /// Snapshot route of one key (takes the shared routing lock). For a
  /// route that must stay valid across an enqueue, hold a RoutingView
  /// instead — a concurrent Rebalance may move the key after this returns.
  size_t PartitionOf(const Value& key) const {
    std::shared_lock<std::shared_mutex> lock(route_mu_);
    return map_.PartitionOf(key);
  }

  /// Keyed submit + wait (the H-Store client pattern, against one owner).
  /// Blocks while the owner's queue is at capacity; on a wholly stopped
  /// cluster runs inline on the caller.
  TxnOutcome ExecuteSync(const std::string& proc, Tuple params,
                         const Value& key, int64_t batch_id = 0);

  // ---- Batched submission (any thread) ----

  /// Routes each invocation by its batch id (for workloads with no natural
  /// key column), groups per owning partition, and submits one batch per
  /// partition — one completion ticket per touched partition instead of per
  /// invocation. Blocks while a touched partition's queue is at capacity.
  /// Tickets come back in partition order of first touch.
  std::vector<BatchTicketPtr> SubmitBatchAsync(std::vector<Invocation> invs);

  /// Explicit placement of a whole batch on one partition (blocks at
  /// capacity like Partition::SubmitBatchAsync).
  BatchTicketPtr SubmitBatchToPartition(size_t p,
                                        std::vector<Invocation> invs);

  // ---- Multi-partition transactions (any thread) ----

  /// The coordinator executing multi-key transactions atomically across
  /// partitions (presumed-abort 2PC in deterministic global order).
  TxnCoordinator& coordinator() { return *coordinator_; }

  /// Submits one atomic transaction whose ops are routed by key: each
  /// (key, params) pair becomes a fragment on the key's owning partition,
  /// all fragments commit or all abort. The ticket has one slot per pair,
  /// in submission order. Returns once the fragments are enqueued (on a
  /// stopped cluster, once the transaction has run inline).
  BatchTicketPtr SubmitMulti(const std::string& proc,
                             std::vector<std::pair<Value, Tuple>> ops);

  /// Submit + Wait for the keyed form.
  std::vector<TxnOutcome> ExecuteMulti(
      const std::string& proc, std::vector<std::pair<Value, Tuple>> ops);

  /// Runs one OLTP-style request on *every* partition as a single atomic
  /// multi-partition transaction: either every partition commits its
  /// fragment or every partition rolls back (an abort vote on one
  /// participant aborts them all). Outcomes are returned indexed by
  /// partition id, deterministically — outcome[p] is partition p's. The
  /// partition set is read once the transaction is admitted, so a
  /// concurrent Rebalance split's new partition is either wholly in or the
  /// split waits for this transaction to finish.
  std::vector<TxnOutcome> ExecuteOnAll(const std::string& proc, Tuple params);

  // ---- Coordinated checkpoint & recovery ----

  /// Quiesces the coordinator (no multi-partition transaction spans the
  /// cut), pauses every partition worker at a barrier, then writes one
  /// snapshot per partition into `dir` plus a manifest, and appends a
  /// checkpoint mark to each partition's command log. The result is a
  /// consistent cluster-wide cut: restoring the snapshots (plus replaying
  /// the post-mark log suffix) can never observe half of a multi-partition
  /// transaction. Callable while the cluster is running (concurrent
  /// single-partition submissions keep queueing behind the barrier) or
  /// stopped; not concurrently with Stop().
  ///
  /// When logging is attached, each partition's command log is also
  /// *rotated* inside the barrier: a fresh epoch log (named
  /// `partition-<p>.e<checkpoint_id>.log`) starts with the checkpoint mark,
  /// the manifest records the epoch, and the previous epoch's files are
  /// deleted once the manifest is durable — so logs no longer grow without
  /// bound across checkpoints.
  ///
  /// Tables whose mutation counter (Table::version) did not move since
  /// their last full copy *into the same directory* are written as delta
  /// references to that earlier checkpoint's snapshot file, shrinking the
  /// barrier pause for cold tables. Recovery resolves the references
  /// transparently.
  Status Checkpoint(const std::string& dir) {
    return Checkpoint(dir, nullptr);
  }
  Status Checkpoint(const std::string& dir, CheckpointReport* report);

  /// Non-blocking Checkpoint for the background checkpointer: fails fast
  /// with kUnavailable instead of waiting when another control-plane
  /// operation (Rebalance, Checkpoint) holds the control mutex, or when the
  /// coordinator's in-flight multi-partition transactions do not drain
  /// within `quiesce_timeout_ms`. Any other error is a real checkpoint
  /// failure. Safe from any thread.
  Status TryCheckpoint(const std::string& dir,
                       CheckpointReport* report = nullptr,
                       int quiesce_timeout_ms = 50);

  /// True while a checkpoint/rebalance barrier holds every worker parked
  /// (between the barrier closures being posted and their release). The
  /// serving layer sheds load with kBusy instead of queueing behind the
  /// barrier — clients retry instead of piling onto the paused cluster.
  bool CheckpointBarrierClosed() const {
    return checkpoint_gate_closed_.load(std::memory_order_acquire);
  }

  /// Test hook: forces the serving-layer gate without running a checkpoint,
  /// so the wire server's shed path is testable deterministically (a real
  /// barrier pause is microseconds wide).
  void SetCheckpointGateClosedForTest(bool closed) {
    checkpoint_gate_closed_.store(closed, std::memory_order_release);
  }

  // ---- Background checkpointer ----

  /// Starts the background checkpoint thread (see cluster/checkpointer.h)
  /// with `options`, on the one Checkpointer the cluster owns for its life.
  /// Call after Start(); Stop()/~Cluster stop it first, before the workers,
  /// so a barrier never races shutdown.
  Status StartCheckpointer(const Checkpointer::Options& options);
  void StopCheckpointer();
  /// Never null; the same object for the cluster's life.
  Checkpointer* checkpointer() { return &checkpointer_; }

  /// Restores every partition to the consistent cut of the last checkpoint
  /// in `dir`, then replays each partition's post-checkpoint log suffix
  /// from `log_dir`, resolving in-doubt multi-partition transactions
  /// against the coordinator's decision log (the rotation epoch's file, per
  /// the manifest). Call on a freshly constructed cluster (the *original*
  /// partition count, same Deploy()ed topology, *no* log_dir in its
  /// Options — attaching logs would truncate the files being replayed)
  /// before Start(), with the recovery_mode the logs were written under.
  /// An empty `log_dir` restores the snapshots only. The manifest's log
  /// epoch selects which rotation's files are replayed. Replay runs inline,
  /// each record paying the partition's modeled client round trip.
  ///
  /// When the checkpoint was cut after a Rebalance split grew the cluster,
  /// the manifest records more partitions than were constructed: Recover
  /// spins the missing ones up from the deployed topology and adopts
  /// the manifest's partition map, so the cluster restarts on exactly the
  /// routing table the cutover published.
  ///
  /// For placed topologies, channels are disabled during replay and then
  /// reconciled: raw boundary-stream batches the consumer's durable cursor
  /// does not cover are re-forwarded (queued until Start()), covered ones
  /// are released — the placed workflow replays to the same consistent cut
  /// as a replicated one.
  ///
  /// Recovery is *composable*: after replay, a non-empty `log_dir` becomes
  /// the cluster's log directory and durability is re-armed by one ordinary
  /// checkpoint cut into `dir` (CheckpointAtBarrier, the workers being
  /// stopped): full snapshots of the recovered state, a manifest naming a
  /// fresh epoch, fresh epoch command logs and decision log (with the
  /// Options' group_commit_size / log_sync / recovery_mode), then the
  /// replayed epoch's files deleted. It hits the same failpoint sites as a
  /// live checkpoint, and a kill inside it recovers the same way. The
  /// recovered cluster is again fully durable: kill -> Recover -> kill ->
  /// Recover converges instead of losing everything after the first cut.
  Status Recover(const std::string& dir, const std::string& log_dir);

  // ---- Live rebalancing ----

  /// Splits or merges key ranges of a *running* (or uniformly stopped)
  /// cluster and live-migrates the moving slice. The protocol:
  ///
  ///  1. Prepare: for a split onto a new partition, a complete store is
  ///     constructed and the deployed topology slice applied to it —
  ///     outside any pause.
  ///  2. The coordinator quiesces (in-flight multi-partition transactions
  ///     drain; new ones block at the admission gate).
  ///  3. The routing lock is taken exclusively — for microseconds: the new
  ///     store is published, barrier closures are enqueued on every running
  ///     partition (spill policy: nothing blocks under this lock), and the
  ///     new map version is published. Work routed with the old map is, by
  ///     FIFO order, *ahead* of the barrier on its old owner; work routed
  ///     with the new map lands behind it (or queues on the not-yet-started
  ///     new store).
  ///  4. Workers drain everything routed with the old map, then park.
  ///  5. At the barrier: channels grow lanes/hooks onto a new partition,
  ///     rows of `plan.keyed_tables` whose key now routes elsewhere are
  ///     migrated, and the coordinated checkpoint (marks, snapshots of
  ///     every partition including the new one, manifest + map, log and
  ///     decision-log rotation) commits the cutover. The manifest rename is
  ///     the atomic commit point: a kill before it recovers to the
  ///     pre-rebalance map and data, after it to the post-rebalance state —
  ///     never in between, and no key is ever owned by two partitions.
  ///  6. Release; the new partition's worker starts and consumes whatever
  ///     queued behind the flip.
  ///
  /// A merge is the same cutover with the `source`'s ranges handed to the
  /// adjacent `target` and every keyed row drained off `source`; the
  /// retired partition keeps running (channels or pinned stages may still
  /// live there) but owns no keys.
  Status Rebalance(const RebalancePlan& plan,
                   RebalanceReport* report = nullptr);

  // ---- Lifecycle ----

  void Start();
  void Stop();
  bool running() const;

  /// Blocks until every partition's queue is empty (all submitted work and
  /// the PE-triggered interiors it cascaded into have drained). Sleeps on
  /// each partition's idle condition variable — no spinning. With channels
  /// deployed, repeats until a full pass observes no cross-partition
  /// deliveries in flight, then lets each channel GC acknowledged
  /// deliveries on the owning workers.
  void WaitIdle();

  // ---- Stats ----

  /// Aggregates every subsystem's counters (see ClusterStats). Any thread.
  /// Every counter only goes up from construction (high-watermarks are
  /// lifetime maxima), so rates are deltas between two reads.
  ClusterStats GatherStats() const;

  // ---- Observability ----

  /// The cluster's metrics as named samples: the latency histogram, then
  /// the cluster families rendered from one GatherStats() (the
  /// `sstore_*` names pinned by tools/golden_metrics.txt). The wire
  /// server's kStats answer is this plus its own `sstore_wire_*` samples.
  MetricsSnapshot SnapshotMetrics() const;

  /// The shared submit→complete latency histogram every partition records
  /// into (sampled per Options::latency_sample_every).
  const LatencyHistogram* txn_latency_histogram() const {
    return &txn_latency_;
  }

  /// Partition p's ring of recent pipeline spans; nullptr when tracing is
  /// disabled or p has no ring yet. Stable once returned.
  TraceRing* trace_ring(size_t p) {
    return p < trace_rings_.size() ? trace_rings_[p].get() : nullptr;
  }

  /// All retained pipeline spans across partitions as chrome://tracing JSON
  /// (load via chrome://tracing or ui.perfetto.dev). Spans keep flowing
  /// while this runs; the dump is the rings' live contents.
  std::string DumpTraceJson() const;

 private:
  /// Sum of all partition request-queue depths (approximate); WaitIdle's
  /// loop condition.
  size_t TotalQueueDepth();
  std::string SnapshotPath(const std::string& dir, uint64_t checkpoint_id,
                           size_t p) const;
  /// Partition p's command-log path for one rotation epoch (epoch 0 is the
  /// pre-rotation name `partition-<p>.log`).
  std::string LogPath(const std::string& log_dir, uint64_t epoch,
                      size_t p) const;
  /// Coordinator decision-log path for one rotation epoch (epoch 0 is the
  /// pre-rotation name `coord-decisions.log`).
  std::string DecisionLogPath(const std::string& log_dir,
                              uint64_t epoch) const;
  /// Run once cut `checkpoint_id` has committed (manifest durable, logs
  /// rotated to its epoch): deletes what no recovery can read any more. In
  /// `dir` that is every snapshot file that is neither the cut's own nor
  /// one of its partition's delta bases (`specs[p]`); in the Options'
  /// log_dir, every command log and decision log of an earlier epoch. So
  /// files a crash orphaned — between a manifest rename and the old
  /// epoch's deletion, or by a cut that never committed — go with the next
  /// cut. A file counts as a snapshot or log only when SnapshotPath,
  /// LogPath or DecisionLogPath rebuilds its name exactly.
  void DeleteDeadFiles(const std::string& dir, uint64_t checkpoint_id,
                       const std::vector<SnapshotDeltaSpec>& specs) const;
  /// Constructs the store for partition `p` with the cluster's options,
  /// without a log.
  std::unique_ptr<SStore> MakeStore(size_t p) const;
  /// The one place a partition log is opened (Deploy, a Rebalance split
  /// target, and every checkpoint cut's rotation, Recover's re-arm
  /// included): partition p's log for rotation `epoch` under the Options'
  /// log_dir, with its group size, sync and recovery mode, replacing the
  /// partition's current log (Partition::AttachCommandLog). A no-op for a
  /// cluster without a log_dir.
  Status AttachLog(SStore& store, size_t p, uint64_t epoch) const;
  /// Shared Checkpoint/TryCheckpoint body: expects control_mu_ held and the
  /// coordinator quiesced; parks the workers, runs CheckpointAtBarrier,
  /// releases, un-quiesces. Always ends the quiesce.
  Status CheckpointQuiesced(const std::string& dir, CheckpointReport* report);
  /// Returns non-OK unless every partition is running or every partition is
  /// stopped (a mixed cluster has no consistent barrier).
  Status CheckUniformlyRunning(size_t* running_count) const;
  /// The checkpoint body and the one epoch cut: marks, snapshots, manifest
  /// (with the current map), log + decision-log rotation, old-epoch files
  /// deleted. Live checkpoints, a Rebalance cutover and Recover's re-arm
  /// all cut through here. Requires every worker parked at a barrier or
  /// stopped, and no multi-partition transaction in flight.
  Status CheckpointAtBarrier(const std::string& dir, CheckpointReport* report);
  /// Moves rows of `plan.keyed_tables` off `plan.source` to wherever the
  /// (already published) map now routes their key. Requires workers parked
  /// or stopped.
  Status MigrateKeyedRows(const RebalancePlan& plan, uint64_t* rows_moved);

  /// Attaches the cluster's histogram and partition p's trace ring to a
  /// store's partition (growing trace_rings_ on demand). Called wherever a
  /// store is created: construction, Rebalance split, Recover regrow.
  void InstrumentStore(SStore& store, size_t p);

  friend class ClusterInjector;

  /// Routed admission — the one place that knows the protocol. Under one
  /// RoutingView, `route(map)` routes the work (keeping whatever the
  /// enqueue needs) and returns the ids of the partitions it touches. When
  /// each of them is below its queue_capacity() or not running (a
  /// rebalance target before its cutover Start has no worker to wait on),
  /// `enqueue()` runs under that same view and returns the result; it must
  /// enqueue with EnqueuePolicy::kSpillWhenFull, since blocking under a
  /// view could deadlock the rebalance flip. Otherwise the view is dropped,
  /// the producer sleeps until the saturated partition drains below
  /// capacity, and the work is routed afresh — the map may have moved.
  /// Producers that pass the check together may each overshoot the
  /// capacity by what they admit.
  template <typename Route, typename Enqueue>
  auto AdmitRouted(Route&& route, Enqueue&& enqueue) {
    for (;;) {
      Partition* saturated = nullptr;
      {
        RoutingView view = LockRouting();
        for (size_t p : route(view.map())) {
          Partition& part = partition(p);
          if (part.running() && part.QueueDepth() >= part.queue_capacity()) {
            saturated = &part;
            break;
          }
        }
        if (saturated == nullptr) return enqueue();
      }
      saturated->WaitForQueueBelow();
    }
  }

  Options options_;

  /// Observability substrate. Declared before stores_ so partitions (whose
  /// workers record into the histogram/rings until Stop()) are destroyed
  /// first. Cache-line-sharded, so one histogram serves every partition
  /// without contention.
  LatencyHistogram txn_latency_;
  /// Per-partition span rings; reserved to kMaxClusterPartitions so runtime
  /// growth never reallocates under concurrent trace_ring() readers.
  std::vector<std::unique_ptr<TraceRing>> trace_rings_;
  /// Serializes the control plane: Checkpoint and Rebalance compute
  /// successor state (maps, epochs) outside the routing lock, so two of
  /// them must not interleave.
  std::mutex control_mu_;
  /// The routing table. Guarded by route_mu_: keyed producers hold the
  /// shared side across their route + (non-blocking) enqueue, Rebalance
  /// holds the exclusive side for the brief flip.
  mutable std::shared_mutex route_mu_;
  PartitionMap map_;
  /// Published partition count; trails stores_.push_back with release order
  /// so readers of the count see initialized slots.
  std::atomic<size_t> num_partitions_{0};
  /// Capacity is reserved to kMaxClusterPartitions at construction, so
  /// runtime growth never reallocates under concurrent partition(p) calls.
  std::vector<std::unique_ptr<SStore>> stores_;
  /// What Deploy() applied — retained so Rebalance and Recover can stamp
  /// the identical slice onto partitions added later.
  std::optional<Topology> deployed_;
  /// Declared after stores_ so participant closures (which reference the
  /// coordinator) are drained by Stop() while it is still alive.
  std::unique_ptr<TxnCoordinator> coordinator_;
  /// Cross-partition stream transports of a deployed topology. Their commit
  /// hooks reference partitions in stores_, so they are destroyed first
  /// (declared after) while the hooks can no longer fire (Stop() in ~Cluster
  /// precedes member destruction).
  std::vector<std::unique_ptr<StreamChannel>> channels_;
  uint64_t next_checkpoint_id_ = 1;
  /// Epoch of the currently attached command logs (advanced by Checkpoint's
  /// rotation; the previous epoch's files are deleted once the manifest
  /// naming the new epoch is durable).
  uint64_t log_epoch_ = 0;

  /// Delta-snapshot tracking: for partition p and table name, the last
  /// checkpoint that wrote the table in full and the table's version at
  /// that moment. Valid only for checkpoints into snapshot_baseline_dir_;
  /// checkpointing into a different directory resets the tracking (a ref
  /// must resolve inside its own directory). Guarded by control_mu_ /
  /// the barrier (only checkpoint code touches it).
  struct TableBaseline {
    uint64_t checkpoint_id = 0;
    uint64_t version = 0;
  };
  std::vector<std::map<std::string, TableBaseline>> snapshot_baselines_;
  std::string snapshot_baseline_dir_;

  /// Set while barrier closures hold (or are about to hold) every worker
  /// parked, for Checkpoint and Rebalance alike; the wire server sheds
  /// kBusy while it is up instead of queueing behind the barrier.
  std::atomic<bool> checkpoint_gate_closed_{false};

  /// Guards last_recover_ against the off-thread stats readers (a kStats
  /// request on a wire I/O thread).
  mutable std::mutex stats_mu_;
  RecoverStats last_recover_;

  /// Background checkpoint driver; declared last so it is destroyed first
  /// (its loop references everything above). Stop() halts it before the
  /// workers so an in-flight barrier completes or aborts cleanly.
  Checkpointer checkpointer_{this};
};

}  // namespace sstore

#endif  // SSTORE_CLUSTER_CLUSTER_H_
