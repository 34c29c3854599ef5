#ifndef SSTORE_TXN_COORD_TXN_COORDINATOR_H_
#define SSTORE_TXN_COORD_TXN_COORDINATOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "engine/partition.h"
#include "log/command_log.h"
#include "obs/metrics.h"

namespace sstore {

/// One fragment of a multi-partition transaction: which partition runs it
/// and what it runs. The coordinator groups ops by partition; each
/// participant executes its ops back-to-back as one isolation unit.
struct MultiOp {
  size_t partition = 0;
  Invocation inv;
};

/// Aggregate coordinator counters, surfaced through ClusterStats.
struct CoordStats {
  uint64_t multi_txns = 0;   // multi-partition transactions submitted
  uint64_t prepares = 0;     // participant fragments prepared
  uint64_t commits = 0;      // transactions decided commit
  uint64_t aborts = 0;       // transactions decided abort
  uint64_t in_doubt_committed = 0;  // resolved commit during recovery
  uint64_t in_doubt_aborted = 0;    // presumed abort during recovery
  uint64_t checkpoints = 0;         // coordinated cluster checkpoints

  /// Completed coordination rounds: every round ends in one decision.
  uint64_t rounds() const { return commits + aborts; }
};

/// Rendezvous used by the coordinated checkpoint: every partition worker
/// parks in ArriveAndWait() (via a closure task), the checkpoint thread
/// proceeds once WaitAllArrived() returns, and Release() resumes the
/// workers after the snapshots are on disk.
class WorkerBarrier {
 public:
  explicit WorkerBarrier(size_t expected) : expected_(expected) {}

  void ArriveAndWait();
  void WaitAllArrived();
  void Release();

 private:
  size_t expected_;
  size_t arrived_ = 0;
  bool released_ = false;
  std::mutex mu_;
  std::condition_variable cv_;
};

/// Executes multi-key transactions atomically across partitions (the
/// ROADMAP's cross-partition item; the coordination layer kvpaxos-style
/// partitioned designs put between clients and shards).
///
/// Protocol (presumed-abort 2PC over serial partition workers): fragments
/// are enqueued as closure tasks; each participant worker prepares its
/// fragments (undo kept alive, kPrepare records force-flushed), votes, and
/// blocks until the decision. The last voter makes the decision durable in
/// the coordinator's decision log *before* publishing it, then every
/// participant applies commit (undo release + commit hooks + kCommitMark)
/// or abort (rollback + kAbortMark). A crash leaves either no decision
/// (every prepared fragment aborts on recovery — presumed abort) or a
/// durable commit decision (every in-doubt fragment re-executes), never a
/// partial commit.
///
/// Schedule (deterministic global order): a single sequencer assigns
/// monotonic global transaction ids and enqueues every participant's
/// fragments under one lock, so all partitions see multi-partition
/// transactions in the same gid order. Many rounds can be in flight at once
/// without deadlock: the vote barrier of txn `g` is reachable on every
/// participant once all txns < g have decided — a total order, no cycles.
///
/// When no partition worker is running, transactions execute inline on the
/// calling thread (sequential prepare/decide/apply) — the same rule as
/// Partition::RunInline, used by tests and recovery replay.
class TxnCoordinator {
 public:
  struct Options {
    /// When non-empty, commit decisions are force-flushed here before any
    /// participant applies them; recovery reads this to resolve in-doubt
    /// transactions. Empty = decisions are not durable (non-logged cluster).
    std::string decision_log_path;
    bool log_sync = true;
  };

  TxnCoordinator(std::vector<Partition*> partitions, Options options);
  ~TxnCoordinator();

  TxnCoordinator(const TxnCoordinator&) = delete;
  TxnCoordinator& operator=(const TxnCoordinator&) = delete;

  /// Submits one atomic multi-partition transaction whose ops `route`
  /// produces *after* the admission gate admits it. Returns once every
  /// participant's fragments are enqueued (on the inline path, once the
  /// transaction has run); the ticket has one slot per op, in submission
  /// order, each filled by the participant that ran the op. On abort, ops
  /// on a participant that voted abort carry its own failure; the rest
  /// carry kAborted. The ticket completes only after the round's stats and
  /// admission-gate release are done. Ops may target any subset of
  /// partitions, repeats allowed; an empty op list completes at once with
  /// no outcomes.
  ///
  /// Routing inside the gate is what makes the ops valid: a Rebalance
  /// quiesces this gate before it flips the partition map or grows the
  /// cluster, so an admitted transaction either routed before the quiesce
  /// (and fully drains before the flip) or after the new map — and any new
  /// partition — was published.
  BatchTicketPtr SubmitMulti(std::function<std::vector<MultiOp>()> route);

  /// Registers a partition spun up by Cluster::Rebalance. Call only while
  /// the gate is quiesced (no multi-partition transaction in flight reads
  /// the participant vector concurrently).
  void AddPartition(Partition* partition);

  // ---- Checkpoint support ----

  /// Blocks new multi-partition submissions and waits until none are in
  /// flight; afterwards no queue holds a participant fragment, so a
  /// partition-by-partition barrier cuts between — never inside — multi-
  /// partition transactions. Pair with QuiesceEnd().
  void QuiesceBegin();
  void QuiesceEnd();

  /// Non-blocking QuiesceBegin for the background checkpointer: fails
  /// immediately when another quiescer holds the gate, and gives in-flight
  /// rounds at most `timeout_ms` to drain before releasing the gate and
  /// failing. True = quiesced (pair with QuiesceEnd()); false = busy, retry
  /// with backoff.
  bool TryQuiesceBegin(int timeout_ms);
  void NoteCheckpoint() { checkpoints_.fetch_add(1); }

  // ---- Recovery support ----

  /// Reads a decision log and returns the set of committed global txn ids.
  /// A missing file is an empty set (no decisions were ever made durable).
  static Result<std::vector<int64_t>> ReadCommittedGids(
      const std::string& decision_log_path);

  /// The one attach path for the decision log: closes the current one (if
  /// any) and starts a fresh file at `path`, with the Options' log_sync.
  /// The checkpoint cut calls it with the new epoch's file, both on a live
  /// cluster and in Recover's re-arm. Decisions for transactions that
  /// completed before the cut are subsumed by the snapshots — the quiesced
  /// gate guarantees no in-flight transaction spans it — so only post-cut
  /// decisions need the new file. A file that cannot open is kept in
  /// decision_log_error_: every later commit decision aborts.
  Status AttachDecisionLog(const std::string& path);

  /// Restart the sequencer above every gid seen in recovered logs so new
  /// transactions never collide with old decision records.
  void SetNextGlobalTxnId(int64_t gid);
  void NoteInDoubt(uint64_t committed, uint64_t aborted);

  // ---- Stats ----

  CoordStats stats() const;
  /// Round latency (µs): submit -> every participant applied the decision.
  const LatencyHistogram& round_latency_us() const {
    return round_latency_us_;
  }

 private:
  /// A completed ticket whose `num_ops` slots all carry `status`.
  static BatchTicketPtr ErrorTicket(size_t num_ops, const Status& status);
  /// Drops the admission gate's in-flight count: once a round's last
  /// participant has applied the decision, or on a path that errors out
  /// after admission.
  void ReleaseGate();
  /// Force-flushes a commit decision for `gid`; OK when decisions are not
  /// durable. Any-thread safe (the last voter runs on a partition worker).
  Status AppendCommitDecision(int64_t gid);
  /// Applies the decision on one participant and returns one outcome per
  /// fragment: commit runs CommitMulti (on the inline path also draining
  /// the PE-triggered work its commit hooks queued, as no worker will);
  /// abort rolls back and gives each op the participant's own failure if
  /// it voted abort, else a peer abort carrying `reason`.
  static std::vector<TxnOutcome> ApplyDecision(
      Partition& part, Partition::PreparedMulti& prepared, size_t num_ops,
      int64_t gid, bool commit, const Status& reason, bool inline_run);
  /// Fills `ticket`'s slots `op_idx` with one participant's outcomes.
  static void FulfillOps(BatchTicket& ticket, const std::vector<size_t>& op_idx,
                         std::vector<TxnOutcome> outs);
  /// Runs once per round, after every participant applied the decision:
  /// the decision count, the round latency and the gate release.
  void CompleteTxn(bool commit, int64_t start_us);
  /// Sequential prepare/decide/apply on the calling thread (no workers).
  void RunInlineMulti(BatchTicket& ticket,
                      std::vector<std::vector<Invocation>> frags_of,
                      const std::vector<std::vector<size_t>>& ops_of,
                      const std::vector<size_t>& parts, int64_t gid,
                      int64_t start_us);

  std::vector<Partition*> partitions_;
  Options options_;

  std::unique_ptr<CommandLog> decision_log_;
  /// Non-OK when a configured decision log failed to open: commit decisions
  /// then fail (aborting the transaction) instead of silently losing
  /// durability.
  Status decision_log_error_;
  std::mutex decision_log_mu_;

  /// Sequencer: gid assignment and fragment enqueue are atomic so every
  /// partition sees multi-partition transactions in gid order.
  std::mutex seq_mu_;
  std::atomic<int64_t> next_gid_{1};

  /// Admission gate for checkpoint quiescence.
  std::mutex gate_mu_;
  std::condition_variable gate_cv_;
  bool quiescing_ = false;
  size_t in_flight_ = 0;

  WallClock clock_;

  std::atomic<uint64_t> multi_txns_{0};
  std::atomic<uint64_t> prepares_{0};
  std::atomic<uint64_t> commits_{0};
  std::atomic<uint64_t> aborts_{0};
  std::atomic<uint64_t> in_doubt_committed_{0};
  std::atomic<uint64_t> in_doubt_aborted_{0};
  std::atomic<uint64_t> checkpoints_{0};
  LatencyHistogram round_latency_us_;
};

}  // namespace sstore

#endif  // SSTORE_TXN_COORD_TXN_COORDINATOR_H_
