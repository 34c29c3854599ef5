#ifndef SSTORE_ENGINE_PARTITION_H_
#define SSTORE_ENGINE_PARTITION_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "engine/execution_engine.h"
#include "engine/procedure.h"
#include "engine/txn.h"
#include "log/command_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/catalog.h"

namespace sstore {

/// Recovery mode (paper §2.4 / §3.2.5) — decides which stored-procedure
/// kinds the command log records during normal operation.
enum class RecoveryMode {
  kStrong,  // log every transaction (OLTP + border + interior)
  kWeak,    // log OLTP + border only; interior TEs regenerate via PE triggers
};

/// A request to execute one stored procedure.
struct Invocation {
  std::string proc;
  Tuple params;
  int64_t batch_id = 0;
};

/// Hot-path observability hooks a partition records into (src/obs/). All
/// pointers are borrowed and must outlive the partition's running worker;
/// Cluster wires its latency histogram and per-partition trace rings
/// here. Sampling is 1-in-N at submit time: an unsampled invocation pays one
/// thread-local countdown, a sampled one adds two clock reads and a
/// histogram Record, and 1-in-(N*M) additionally captures per-stage trace
/// spans (queue_wait / execute / log_append / commit_hooks).
struct PartitionInstruments {
  /// Submit→complete latency sink (microseconds). nullptr disables all
  /// sampling.
  LatencyHistogram* latency_us = nullptr;
  /// Sample 1 in N submitted invocations (batches stamp their last
  /// invocation, so one sample ≈ one whole-batch latency). 0 disables.
  uint32_t latency_sample_every = 0;
  /// Span sink for the traced subset. nullptr disables span capture.
  TraceRing* trace = nullptr;
  /// Of the latency-sampled invocations, trace 1 in M. 0 disables.
  uint32_t trace_sample_every = 0;
};

/// What an enqueue does when the request queue is at capacity while the
/// worker runs.
enum class EnqueuePolicy {
  /// Sleep until the worker retires work — the bounded-memory default.
  kBlockWhenFull,
  /// Append past the capacity instead of waiting. For callers that must not
  /// stall while holding their own locks: the cluster's routed admission
  /// (under a routing view and, for ClusterInjector, a batch-id lane) waits
  /// for room beforehand, outside those locks, via WaitForQueueBelow; the
  /// rebalance flip and the wire server's event loop never wait (the server
  /// sheds kBusy at capacity instead). FIFO order is preserved.
  kSpillWhenFull,
};

/// The one completion handle for client-visible work: one allocation and
/// one mutex/cv for N outcome slots, signalled once, when the last slot is
/// filled. A single submit (SubmitAsync, a nested group) is a one-slot
/// ticket; a batch has one slot per invocation, each committing or aborting
/// independently (a batch is not a nested transaction); a multi-partition
/// transaction has one slot per op, filled by the participant that ran it.
/// Waiting on it is the client<->PE round trip whose cost Figures 6 and 8
/// measure.
///
/// Timing: the worker fills a slot when the task that ran it finishes —
/// after its commit record (if the recovery mode logs one) is appended to
/// the command log, but not necessarily flushed. With `group_commit_size` 1
/// every append flushes, so an outcome is durable before it is visible;
/// with a larger group the record may still sit in the log buffer, and a
/// crash can lose a commit the client already saw (ROADMAP item 1).
class BatchTicket {
 public:
  explicit BatchTicket(size_t size)
      : outcomes_(size), remaining_(size), done_(size == 0) {}

  BatchTicket(const BatchTicket&) = delete;
  BatchTicket& operator=(const BatchTicket&) = delete;

  /// Blocks until every slot is filled; returns outcomes() (empty when a
  /// completion hook took them).
  const std::vector<TxnOutcome>& Wait();
  /// Non-blocking: true once every slot is filled.
  bool TryWait();

  size_t size() const { return outcomes_.size(); }
  /// Live counters; exact once Wait()/TryWait() reports completion.
  size_t committed() const { return committed_.load(std::memory_order_acquire); }
  size_t aborted() const { return aborted_.load(std::memory_order_acquire); }
  bool all_committed() const { return committed() == size(); }

  /// Per-invocation outcomes, indexed by submission order. Valid after
  /// Wait() (or once TryWait() returns true).
  const std::vector<TxnOutcome>& outcomes() const { return outcomes_; }
  const TxnOutcome& outcome(size_t i) const { return outcomes_[i]; }

  /// Registers `fn` to run — on the worker thread that fulfills the final
  /// invocation — once the whole batch is complete; when the batch already
  /// completed, runs it inline on the caller. At most one callback per
  /// ticket. The outcomes are handed to `fn` (moved out: outcomes() is
  /// empty afterwards), so the hook never needs to own its ticket — a
  /// closure that did would form a shared_ptr cycle that leaks whenever
  /// the batch is dropped unrun. This is how completion gets back onto an
  /// event loop without a waiter thread: the serving layer's hook posts the
  /// outcomes to the connection's I/O loop, so `fn` must not block (it runs
  /// inside the partition worker's commit path).
  using CompletionHook = std::function<void(std::vector<TxnOutcome>)>;
  void SetOnComplete(CompletionHook fn);

 private:
  friend class Partition;
  friend class TxnCoordinator;
  /// The only place a worker publishes a client-visible outcome. Once per
  /// slot; slots are distinct so no lock is needed until the final
  /// completion flips `done_`.
  void Fulfill(size_t slot, TxnOutcome outcome);

  std::vector<TxnOutcome> outcomes_;
  std::atomic<size_t> remaining_;
  std::atomic<size_t> committed_{0};
  std::atomic<size_t> aborted_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_;
  CompletionHook on_complete_;
};

using BatchTicketPtr = std::shared_ptr<BatchTicket>;

/// Fired on the worker thread after a transaction commits; the streaming
/// layer uses this to implement PE triggers.
using CommitHook =
    std::function<void(Partition& partition, const TransactionExecution& te)>;

/// One H-Store/S-Store partition: a catalog slice, an execution engine, a
/// transaction request queue, and a single worker thread that executes
/// transactions serially (paper §3.1: single-sited transactions run serially,
/// eliminating fine-grained locks and latches).
///
/// The request queue is one deque under one mutex. Producers append under
/// the lock (a whole batch per acquisition); the worker swaps the shared
/// deque into a worker-local one and runs those tasks without the lock.
/// `queue_capacity` bounds the depth: under kBlockWhenFull a producer that
/// finds the queue full sleeps until the worker retires work, so memory
/// stays bounded and a throttled producer burns no CPU. EnqueueFront
/// fast-tracks PE-triggered transactions onto the front of the worker-local
/// deque, ahead of all queued client work (the streaming scheduler, paper
/// §3.2.4); it never blocks, because it is called from commit hooks on the
/// worker thread itself.
class Partition {
 public:
  /// Queue capacity used when the caller passes 0.
  static constexpr size_t kDefaultQueueCapacity = 4096;

  explicit Partition(int partition_id = 0, size_t queue_capacity = 0);
  ~Partition();

  Partition(const Partition&) = delete;
  Partition& operator=(const Partition&) = delete;

  int partition_id() const { return partition_id_; }
  Catalog& catalog() { return catalog_; }
  ExecutionEngine& ee() { return ee_; }

  // ---- Procedure registry ----

  Status RegisterProcedure(const std::string& name, SpKind kind,
                           std::shared_ptr<StoredProcedure> proc);
  Result<SpKind> ProcedureKind(const std::string& name) const;
  bool HasProcedure(const std::string& name) const;

  // ---- Client API (any thread) ----

  /// Enqueues at the back of the FIFO queue (ordinary client request) with a
  /// one-slot ticket: SubmitBatchAsync of one invocation, without building
  /// the batch vector.
  BatchTicketPtr SubmitAsync(
      Invocation inv, EnqueuePolicy policy = EnqueuePolicy::kBlockWhenFull);

  /// Enqueues a whole batch of independent invocations with a single shared
  /// completion ticket: one allocation and one wait for the entire batch.
  /// The invocations run in submission order (other producers may
  /// interleave) and commit/abort independently.
  BatchTicketPtr SubmitBatchAsync(
      std::vector<Invocation> batch,
      EnqueuePolicy policy = EnqueuePolicy::kBlockWhenFull);

  /// Submit + Wait: the H-Store client pattern, paying a full round trip.
  TxnOutcome ExecuteSync(const std::string& proc, Tuple params,
                         int64_t batch_id = 0);

  /// Submits a nested transaction (paper §2.3): the children execute
  /// back-to-back as one isolation unit; if any child aborts, all children
  /// roll back; commit hooks apply only when all commit. The group is one
  /// unit in the command log too: kPrepare records under a negative
  /// partition-local id, closed by a kCommitMark (RunNestedGroup). The
  /// one-slot ticket carries the group's outcome.
  BatchTicketPtr SubmitNestedAsync(std::vector<Invocation> children);
  TxnOutcome ExecuteNestedSync(std::vector<Invocation> children);

  // ---- Internal API (worker thread: PE triggers; or inline mode) ----

  /// Streaming-scheduler fast-track: enqueue at the *front* of the queue,
  /// so the newest front enqueue runs next. Touches the worker-local head
  /// without a lock, so only the worker thread (a commit hook) or an inline
  /// caller may call it.
  void EnqueueFront(Invocation inv);
  /// Internal enqueue preserving FIFO order.
  void EnqueueBack(Invocation inv);

  /// Enqueues a closure to run on the worker thread at its FIFO queue
  /// position. The closure may block the worker (that is the point: the
  /// cross-partition coordinator parks a participant between prepare and
  /// decision here, and the coordinated checkpoint pauses every worker at a
  /// barrier closure). No ticket; completion is whatever the closure signals.
  /// Callers that must not stall on a full queue — e.g. Cluster::Rebalance
  /// submitting barrier closures while holding the routing lock every
  /// producer needs to make progress — pass kSpillWhenFull.
  void SubmitClosure(std::function<void(Partition&)> fn,
                     EnqueuePolicy policy = EnqueuePolicy::kBlockWhenFull);

  // ---- Multi-partition participation (driven by txn_coord) ----
  //
  // A participant's slice of one multi-partition transaction runs in three
  // steps on the worker thread (or inline while the worker is stopped):
  // PrepareMulti executes the fragments but defers every commit side effect,
  // keeping the undo logs (query/mutation_log.h before-images) alive as the
  // prepared state and force-flushing kPrepare records so the vote is
  // durable; CommitMulti / AbortMulti then apply the coordinator's decision.

  /// Prepared-but-undecided state of this partition's fragments. When
  /// `vote` is non-OK the fragments have already been rolled back and
  /// `tes` is empty — the participant must still vote abort so its peers
  /// roll back too.
  struct PreparedMulti {
    std::vector<std::unique_ptr<TransactionExecution>> tes;
    std::vector<SpKind> kinds;
    Status vote;  // OK == ready to commit
  };

  /// Executes `fragments` back-to-back as one isolation unit WITHOUT
  /// committing: no log-commit records, no undo release, no commit hooks.
  /// On success, appends one kPrepare record per fragment (tagged with the
  /// coordinator's `global_txn_id`) and flushes, so a crash after the vote
  /// leaves a resolvable in-doubt transaction. On any failure the executed
  /// fragments are rolled back newest-first and `vote` carries the cause.
  /// Worker thread (or stopped-worker inline) only.
  PreparedMulti PrepareMulti(std::vector<Invocation> fragments,
                             int64_t global_txn_id);

  /// Applies a commit decision: appends a kCommitMark (group-commit policy;
  /// durability of the decision itself is the coordinator's decision log),
  /// releases the undo logs, fires commit hooks, and appends each
  /// fragment's outcome to `outcomes` in fragment order.
  void CommitMulti(PreparedMulti& prepared, int64_t global_txn_id,
                   std::vector<TxnOutcome>* outcomes);

  /// Applies an abort decision: rolls back newest-first and appends a
  /// kAbortMark so replay drops any already-durable kPrepare records.
  void AbortMulti(PreparedMulti& prepared, int64_t global_txn_id);

  /// Appends a kCheckpointMark carrying `checkpoint_id` and flushes. Called
  /// by the coordinated checkpoint while this worker is paused at the
  /// barrier (the log is single-writer; a paused worker cannot race this).
  /// No-op without an attached log.
  Status AppendCheckpointMark(uint64_t checkpoint_id);

  void AddCommitHook(CommitHook hook) {
    commit_hooks_.push_back(std::move(hook));
  }

  /// Models the client<->PE round-trip cost of a real deployment (network
  /// stack + client-side serialization). Applied on the *caller's* side of
  /// every Partition::ExecuteSync, run by the worker or inline (the
  /// recovery replay client); the engine itself is never slowed. Figures
  /// 6/8/9(b) use this: H-Store-style clients pay it once per transaction,
  /// S-Store's PE triggers never do.
  /// Default 0 (pure thread handoff).
  void SetClientRoundTripMicros(int64_t micros) { client_rtt_micros_ = micros; }
  int64_t client_round_trip_micros() const { return client_rtt_micros_; }
  /// Spends the modeled round trip on the calling thread — what
  /// Partition::ExecuteSync does after its ticket resolves; cluster-level
  /// synchronous clients call it for the same modeling after theirs.
  void PayClientRoundTrip() const;

  /// Consulted by ProcContext::table on every lookup; returning non-OK
  /// denies the access. The streaming layer installs window scoping here.
  using TableAccessGuard =
      std::function<Status(const Table& table, const std::string& proc_name)>;
  void SetTableAccessGuard(TableAccessGuard guard) {
    access_guard_ = std::move(guard);
  }
  const TableAccessGuard& table_access_guard() const { return access_guard_; }

  // ---- Lifecycle ----

  void Start();
  /// Runs every request queued before the call, then joins the worker.
  /// Producers blocked on a full queue are released first, and their
  /// requests run before the worker exits; requests submitted after that
  /// stay queued for a restart or DrainQueueInline().
  void Stop();
  /// Any thread: a routed producer reads it while the owner Start()s a
  /// rebalance target, so it is a flag rather than worker_.joinable().
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Executes an invocation synchronously on the calling thread, bypassing
  /// the queue. Valid only when the worker is not running (recovery replay,
  /// single-threaded tests) or from within the worker thread itself.
  TxnOutcome RunInline(Invocation inv);

  /// Runs queued tasks on the calling thread until the queue is empty.
  /// Valid only when the worker is not running. Returns tasks executed.
  size_t DrainQueueInline();

  // ---- Backpressure (any thread) ----

  /// Blocks until QueueDepth() < queue_capacity(), sleeping on a condition
  /// variable the worker signals as it retires work. Returns immediately
  /// when the partition is not accepting work (worker stopped/stopping), so
  /// a producer can never deadlock against a dead worker.
  void WaitForQueueBelow();

  /// Blocks until the partition is truly idle (QueueDepth() == 0) or the
  /// worker stops. When the worker is not running, returns immediately —
  /// callers in inline mode drain with DrainQueueInline() instead.
  void WaitIdle();

  // ---- Durability ----

  /// The one attach path: opens a command log at `options.path` (`mode`
  /// selects which SpKinds get logged) and replaces the current log, if
  /// any, after flushing and closing it; the replaced log's counters are
  /// retired into log_stats(). The checkpoint cut rotates logs through
  /// here. When the old log cannot close or the new one cannot open, the
  /// old log stays attached but closed: every later logged commit aborts
  /// with "command log is closed" instead of being acked unlogged, until
  /// the cluster is recovered. The log is single-writer: call while the
  /// worker is stopped or parked at a barrier (or from the worker itself).
  Status AttachCommandLog(CommandLog::Options options, RecoveryMode mode);
  CommandLog* command_log() { return log_.get(); }
  RecoveryMode recovery_mode() const { return recovery_mode_; }
  /// Detaches and closes the current command log.
  Status DetachCommandLog();

  /// Durability counters, cumulative across rotation epochs (the current
  /// log's live counters plus every previously rotated/detached log's
  /// totals). All zero when no log was ever attached. Readable from any
  /// thread; same live-approximation caveat as stats(). The ratio
  /// records_appended / flush_count is the realized group-commit factor
  /// (§4.4) — ClusterStats surfaces the cluster-wide sum.
  LogStats log_stats() const;

  // ---- Stats ----

  struct Stats {
    uint64_t committed = 0;
    uint64_t aborted = 0;
    uint64_t client_requests = 0;
    uint64_t internal_requests = 0;
    uint64_t nested_groups = 0;
    /// Deepest QueueDepth() observed at enqueue over the partition's life —
    /// admission control reads this to see how close the partition runs to
    /// its bound.
    uint64_t queue_high_watermark = 0;
    /// Times a producer blocked on a full queue (at queue_capacity()).
    uint64_t producer_blocks = 0;
  };
  /// Point-in-time snapshot (counters are updated from several threads).
  Stats stats() const;

  /// Installs the observability hooks (histogram + trace ring). Call before
  /// Start() or while the worker is stopped — the struct is read without
  /// synchronization on the submit and worker paths.
  void SetInstruments(const PartitionInstruments& instruments) {
    instruments_ = instruments;
  }
  const PartitionInstruments& instruments() const { return instruments_; }

  /// Pending work: queued requests plus the task currently executing on the
  /// worker (if any), so depth 0 means the partition is truly idle — what
  /// Cluster::WaitIdle and client backpressure rely on.
  size_t QueueDepth() const;

  size_t queue_capacity() const { return capacity_; }

 private:
  struct Task {
    Invocation inv;
    std::function<void(Partition&)> fn;  // non-null == closure task
    BatchTicketPtr batch;                // null for internal work
    uint32_t batch_index = 0;            // this invocation's slot in `batch`
    bool stop = false;
    /// Observability stamp set at submit: 0 = unsampled; >0 = submit time
    /// (µs, trace timebase) of a latency-sampled invocation; <0 = negated
    /// submit time of an invocation that also captures trace spans.
    int64_t sample_ts = 0;
  };

  /// Per-stage scratch for the currently traced task; worker-thread only.
  struct TraceScratch {
    int64_t txn_id = 0;
    int64_t exec_done_us = 0;   // stored-procedure Run finished
    int64_t log_done_us = 0;    // LogCommit appended (0 when not logging)
    int64_t hooks_done_us = 0;  // commit hooks fired (0 on abort)
  };

  void WorkerLoop();
  void RunTask(Task& task);
  /// Submit-side 1-in-N countdown; returns the Task::sample_ts encoding.
  int64_t SampleStamp();
  /// Consumes a sampled task's stamp after RunTask: records the end-to-end
  /// latency and, for traced tasks, pushes the per-stage span events.
  void FinishSampledTask(int64_t sample_ts, int64_t dequeue_us,
                         const TraceScratch& scratch);
  /// Executes one invocation, consuming it (params move into the TE — no
  /// copy on the hot path); on commit appends to the command log (by policy)
  /// and fires commit hooks.
  TxnOutcome ExecuteInvocation(Invocation&& inv);
  /// Runs `invs` back to back as one isolation unit (a nested group or a
  /// multi-partition slice), consuming them and appending each executed TE
  /// and its kind to `group`. On the first failure the group is aborted
  /// (AbortGroup) and the cause returned.
  Status ExecuteGroup(std::vector<Invocation>& invs, PreparedMulti* group);
  /// Rolls back every TE in `group` newest first, counts each as aborted,
  /// and empties the group.
  void AbortGroup(PreparedMulti* group);
  /// Releases every TE's undo in `group`, counts each as committed, appends
  /// each outcome to `outcomes` in group order, then fires the commit hooks
  /// in the same order, and empties the group.
  void CommitGroup(PreparedMulti& group, std::vector<TxnOutcome>* outcomes);
  /// A nested transaction on the worker thread (or inline while stopped):
  /// ExecuteGroup, one kPrepare per child ShouldLog selects, all under the
  /// negated txn id of the first child, then a kCommitMark that decides the
  /// group (a failed append aborts it), then CommitGroup. The outcome
  /// carries the last child's txn id and every child's output in order.
  TxnOutcome RunNestedGroup(std::vector<Invocation> children);
  bool ShouldLog(SpKind kind) const;
  Status LogCommit(const TransactionExecution& te, SpKind kind);
  void FireCommitHooks(const TransactionExecution& te);

  /// FIFO enqueue of `count` tasks, each built in place by `fill(task, i)`,
  /// under one lock acquisition. Under kBlockWhenFull a producer that finds
  /// the queue at capacity while the worker is accepting waits for space.
  template <typename Fill>
  void PushBack(size_t count, EnqueuePolicy policy, Fill&& fill);
  /// Runs one task and retires it from the depth count. Worker thread, or
  /// inline mode.
  void RunAndRetire(Task& task);
  /// Waits (holding `lock` on queue_mu_) until QueueDepth() < limit or the
  /// partition stops accepting. The waiter is counted in depth_waiters_, so
  /// the worker notifies as depth falls and Stop() waits for it to leave.
  void WaitForDepthBelow(std::unique_lock<std::mutex>& lock, size_t limit);
  void NoteWatermark();

  int partition_id_;
  Catalog catalog_;
  ExecutionEngine ee_;

  struct ProcEntry {
    std::shared_ptr<StoredProcedure> proc;
    SpKind kind;
  };
  std::unordered_map<std::string, ProcEntry> procs_;
  std::vector<CommitHook> commit_hooks_;
  TableAccessGuard access_guard_;

  // ---- Request queue ----

  const size_t capacity_;
  /// Guards queue_, accepting_ and worker_waiting_.
  std::mutex queue_mu_;
  /// Shared FIFO tail every producer appends to.
  std::deque<Task> queue_;
  /// Worker-local head: the worker swaps queue_ in here when it runs dry.
  /// Touched only by the worker thread (or the inline caller).
  std::deque<Task> local_;
  /// True while the worker is running and not stopping. Producers never wait
  /// for space when false: they append past the capacity instead.
  bool accepting_ = false;
  /// Set while the worker waits on work_cv_, so producers notify only then.
  bool worker_waiting_ = false;
  std::condition_variable work_cv_;
  /// Queued plus executing tasks; decremented only after a task has run, so
  /// depth 0 means the partition is truly idle.
  std::atomic<size_t> depth_{0};
  /// Threads waiting on space_cv_ for the depth to fall (blocked producers,
  /// WaitForQueueBelow, WaitIdle). The worker notifies only while non-zero.
  std::atomic<size_t> depth_waiters_{0};
  std::condition_variable space_cv_;

  std::thread worker_;
  /// Whether worker_ holds a live thread; written by Start()/Stop() only.
  std::atomic<bool> running_{false};

  /// Guards replacing log_ (attach, detach) and retired_log_
  /// against off-thread log_stats() readers (the checkpointer, a kStats
  /// request). The worker appends through log_ without it: the log is only
  /// replaced while the worker is parked or stopped.
  mutable std::mutex log_mu_;
  std::unique_ptr<CommandLog> log_;
  RecoveryMode recovery_mode_ = RecoveryMode::kStrong;
  /// Durability counters of logs already rotated away or detached, so
  /// log_stats() stays cumulative across checkpoint rotations.
  LogStats retired_log_;

  int64_t next_txn_id_ = 1;
  int64_t client_rtt_micros_ = 0;

  /// Observability hooks; set while stopped, read lock-free on hot paths.
  PartitionInstruments instruments_;
  /// Points at the stack scratch of the currently traced task so
  /// ExecuteInvocation/LogCommit can stamp stage boundaries. Worker thread
  /// only; null when the running task is untraced.
  TraceScratch* active_span_ = nullptr;

  // Written only by the worker thread (inline mode mutates them from the
  // caller thread, which is the de-facto worker then), but read by stats()
  // from arbitrary threads — relaxed atomics keep those live reads defined.
  std::atomic<uint64_t> committed_{0};
  std::atomic<uint64_t> aborted_{0};
  std::atomic<uint64_t> nested_groups_{0};
  // Producer-side counters.
  std::atomic<uint64_t> client_requests_{0};
  std::atomic<uint64_t> internal_requests_{0};
  std::atomic<uint64_t> queue_hwm_{0};
  std::atomic<uint64_t> producer_blocks_{0};
};

}  // namespace sstore

#endif  // SSTORE_ENGINE_PARTITION_H_
