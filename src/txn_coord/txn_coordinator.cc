#include "txn_coord/txn_coordinator.h"

#include <sys/stat.h>

#include <chrono>
#include <utility>

namespace sstore {

// ---- WorkerBarrier ---------------------------------------------------------

void WorkerBarrier::ArriveAndWait() {
  std::unique_lock<std::mutex> lock(mu_);
  if (++arrived_ == expected_) cv_.notify_all();
  cv_.wait(lock, [this] { return released_; });
}

void WorkerBarrier::WaitAllArrived() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return arrived_ == expected_; });
}

void WorkerBarrier::Release() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
  }
  cv_.notify_all();
}

namespace {

/// Vote rendezvous for one multi-partition transaction. Participants call
/// VoteAndWait from their worker threads; the last voter computes the
/// decision, makes a commit durable through `durable_commit`, and wakes the
/// rest. A durable-commit failure demotes the decision to abort — an
/// un-loggable decision must never be applied anywhere. After applying the
/// decision each participant calls Applied(); it returns true for the last.
class MultiTxnControl {
 public:
  MultiTxnControl(size_t participants, std::function<Status()> durable_commit)
      : participants_(participants),
        unapplied_(participants),
        durable_commit_(std::move(durable_commit)) {}

  /// Returns the decision (true == commit); `abort_reason` is the first
  /// abort vote (or the durable-commit failure) when false.
  bool VoteAndWait(const Status& vote, Status* abort_reason) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!vote.ok() && first_abort_.ok()) first_abort_ = vote;
    if (++votes_ == participants_) {
      bool commit = first_abort_.ok();
      if (commit && durable_commit_) {
        // Holding mu_ across the flush is fine: every other participant is
        // parked in the wait below and the decision must precede them all.
        Status st = durable_commit_();
        if (!st.ok()) {
          commit = false;
          first_abort_ = st;
        }
      }
      decided_ = true;
      commit_ = commit;
      cv_.notify_all();
    } else {
      cv_.wait(lock, [this] { return decided_; });
    }
    *abort_reason = first_abort_;
    return commit_;
  }

  bool Applied() {
    return unapplied_.fetch_sub(1, std::memory_order_acq_rel) == 1;
  }

 private:
  size_t participants_;
  std::atomic<size_t> unapplied_;
  std::function<Status()> durable_commit_;
  std::mutex mu_;
  std::condition_variable cv_;
  size_t votes_ = 0;
  bool decided_ = false;
  bool commit_ = false;
  Status first_abort_;
};

Status PeerAbort(const Status& reason) {
  return Status::Aborted("aborted with peer partition: " + reason.message());
}

}  // namespace

// ---- TxnCoordinator --------------------------------------------------------

TxnCoordinator::TxnCoordinator(std::vector<Partition*> partitions,
                               Options options)
    : partitions_(std::move(partitions)), options_(std::move(options)) {
  if (!options_.decision_log_path.empty()) {
    // A failure stays in decision_log_error_ (see AttachDecisionLog).
    AttachDecisionLog(options_.decision_log_path).ok();
  }
}

TxnCoordinator::~TxnCoordinator() = default;

BatchTicketPtr TxnCoordinator::ErrorTicket(size_t num_ops,
                                           const Status& status) {
  auto ticket = std::make_shared<BatchTicket>(num_ops);
  for (size_t i = 0; i < num_ops; ++i) {
    TxnOutcome out;
    out.status = status;
    ticket->Fulfill(i, std::move(out));
  }
  return ticket;
}

void TxnCoordinator::FulfillOps(BatchTicket& ticket,
                                const std::vector<size_t>& op_idx,
                                std::vector<TxnOutcome> outs) {
  for (size_t i = 0; i < op_idx.size(); ++i) {
    ticket.Fulfill(op_idx[i], std::move(outs[i]));
  }
}

Status TxnCoordinator::AppendCommitDecision(int64_t gid) {
  std::lock_guard<std::mutex> lock(decision_log_mu_);
  if (decision_log_ == nullptr) return decision_log_error_;
  LogRecord record;
  record.record_type = static_cast<uint8_t>(LogRecordType::kCommitMark);
  record.global_txn_id = gid;
  return decision_log_->Append(record);  // group_size 1: appends flush
}

void TxnCoordinator::CompleteTxn(bool commit, int64_t start_us) {
  (commit ? commits_ : aborts_).fetch_add(1, std::memory_order_relaxed);
  round_latency_us_.Record(clock_.NowMicros() - start_us);
  ReleaseGate();
}

void TxnCoordinator::ReleaseGate() {
  {
    std::lock_guard<std::mutex> lock(gate_mu_);
    --in_flight_;
  }
  gate_cv_.notify_all();
}

BatchTicketPtr TxnCoordinator::SubmitMulti(
    std::function<std::vector<MultiOp>()> route) {
  // Admission gate first: checkpoints and rebalances quiesce here, and the
  // routing callback must observe the partition map only once this
  // transaction is counted in flight (see the header contract).
  {
    std::unique_lock<std::mutex> lock(gate_mu_);
    gate_cv_.wait(lock, [this] { return !quiescing_; });
    ++in_flight_;
  }
  std::vector<MultiOp> ops = route();
  if (ops.empty()) {
    ReleaseGate();
    return std::make_shared<BatchTicket>(0);
  }
  for (const MultiOp& op : ops) {
    if (op.partition >= partitions_.size()) {
      ReleaseGate();
      return ErrorTicket(ops.size(),
                         Status::InvalidArgument("op targets partition " +
                                                 std::to_string(op.partition) +
                                                 " of " +
                                                 std::to_string(
                                                     partitions_.size())));
    }
  }

  // Group ops per participant, preserving submission order within each.
  std::vector<std::vector<size_t>> ops_of(partitions_.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    ops_of[ops[i].partition].push_back(i);
  }
  std::vector<size_t> parts;
  for (size_t p = 0; p < partitions_.size(); ++p) {
    if (!ops_of[p].empty()) parts.push_back(p);
  }
  std::vector<std::vector<Invocation>> frags_of(partitions_.size());
  for (size_t p : parts) {
    frags_of[p].reserve(ops_of[p].size());
    for (size_t i : ops_of[p]) frags_of[p].push_back(std::move(ops[i].inv));
  }

  size_t running = 0;
  for (size_t p : parts) {
    if (partitions_[p]->running()) ++running;
  }
  if (running != 0 && running != parts.size()) {
    ReleaseGate();
    return ErrorTicket(ops.size(),
                       Status::Internal("participants are part running, part "
                                        "stopped; multi-partition execution "
                                        "needs a uniform cluster state"));
  }
  bool inline_mode = running == 0;

  multi_txns_.fetch_add(1, std::memory_order_relaxed);
  int64_t start_us = clock_.NowMicros();

  auto ticket = std::make_shared<BatchTicket>(ops.size());

  // Sequencer critical section: the gid and every participant's enqueue
  // happen atomically, so per-partition queue order == gid order.
  std::lock_guard<std::mutex> seq(seq_mu_);
  int64_t gid = next_gid_.fetch_add(1, std::memory_order_relaxed);
  if (inline_mode) {
    RunInlineMulti(*ticket, std::move(frags_of), ops_of, parts, gid, start_us);
    return ticket;
  }
  auto control = std::make_shared<MultiTxnControl>(
      parts.size(), [this, gid] { return AppendCommitDecision(gid); });
  for (size_t p : parts) {
    partitions_[p]->SubmitClosure(
        [this, control, ticket, gid, start_us, frags = std::move(frags_of[p]),
         op_idx = std::move(ops_of[p])](Partition& part) mutable {
          prepares_.fetch_add(frags.size(), std::memory_order_relaxed);
          Partition::PreparedMulti prepared =
              part.PrepareMulti(std::move(frags), gid);
          Status reason;
          bool commit = control->VoteAndWait(prepared.vote, &reason);
          std::vector<TxnOutcome> outs =
              ApplyDecision(part, prepared, op_idx.size(), gid, commit,
                            reason, /*inline_run=*/false);
          // The last participant completes the round before filling its
          // slots, so a completed ticket implies a released gate.
          if (control->Applied()) CompleteTxn(commit, start_us);
          FulfillOps(*ticket, op_idx, std::move(outs));
        });
  }
  return ticket;
}

std::vector<TxnOutcome> TxnCoordinator::ApplyDecision(
    Partition& part, Partition::PreparedMulti& prepared, size_t num_ops,
    int64_t gid, bool commit, const Status& reason, bool inline_run) {
  if (commit) {
    std::vector<TxnOutcome> outs;
    outs.reserve(num_ops);
    part.CommitMulti(prepared, gid, &outs);
    // Commit hooks may have PE-triggered interior work; drain it the
    // inline way, as Partition::ExecuteSync does.
    if (inline_run) part.DrainQueueInline();
    return outs;
  }
  part.AbortMulti(prepared, gid);
  std::vector<TxnOutcome> outs(num_ops);
  for (TxnOutcome& out : outs) {
    out.status = prepared.vote.ok() ? PeerAbort(reason) : prepared.vote;
  }
  return outs;
}

void TxnCoordinator::RunInlineMulti(
    BatchTicket& ticket, std::vector<std::vector<Invocation>> frags_of,
    const std::vector<std::vector<size_t>>& ops_of,
    const std::vector<size_t>& parts, int64_t gid, int64_t start_us) {
  std::vector<Partition::PreparedMulti> prepared(parts.size());
  Status first_abort;
  for (size_t j = 0; j < parts.size(); ++j) {
    size_t p = parts[j];
    prepares_.fetch_add(frags_of[p].size(), std::memory_order_relaxed);
    prepared[j] = partitions_[p]->PrepareMulti(std::move(frags_of[p]), gid);
    if (!prepared[j].vote.ok() && first_abort.ok()) {
      first_abort = prepared[j].vote;
    }
  }
  bool commit = first_abort.ok();
  if (commit) {
    Status st = AppendCommitDecision(gid);
    if (!st.ok()) {
      commit = false;
      first_abort = st;
    }
  }
  std::vector<std::vector<TxnOutcome>> outs_of(parts.size());
  for (size_t j = 0; j < parts.size(); ++j) {
    outs_of[j] = ApplyDecision(*partitions_[parts[j]], prepared[j],
                               ops_of[parts[j]].size(), gid, commit,
                               first_abort, /*inline_run=*/true);
  }
  CompleteTxn(commit, start_us);
  for (size_t j = 0; j < parts.size(); ++j) {
    FulfillOps(ticket, ops_of[parts[j]], std::move(outs_of[j]));
  }
}

void TxnCoordinator::AddPartition(Partition* partition) {
  partitions_.push_back(partition);
}

Status TxnCoordinator::AttachDecisionLog(const std::string& path) {
  std::lock_guard<std::mutex> lock(decision_log_mu_);
  decision_log_.reset();  // flush + close the finished epoch (if any)
  CommandLog::Options log_opts;
  log_opts.path = path;
  log_opts.group_size = 1;  // a decision is durable or it does not exist
  log_opts.sync = options_.log_sync;
  log_opts.failpoint_scope = "decision_log";
  Result<std::unique_ptr<CommandLog>> log = CommandLog::Open(log_opts);
  if (!log.ok()) {
    // A configured-but-unopenable decision log must not silently demote
    // the cluster to non-durable decisions: every commit attempt will
    // surface this error and abort instead (presumed abort everywhere is
    // still atomic; silent non-durability is not).
    decision_log_error_ = log.status();
    return log.status();
  }
  decision_log_ = std::move(log).value();
  decision_log_error_ = Status::OK();
  return Status::OK();
}

void TxnCoordinator::QuiesceBegin() {
  std::unique_lock<std::mutex> lock(gate_mu_);
  // Serialize concurrent checkpointers on the same gate.
  gate_cv_.wait(lock, [this] { return !quiescing_; });
  quiescing_ = true;
  gate_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

bool TxnCoordinator::TryQuiesceBegin(int timeout_ms) {
  std::unique_lock<std::mutex> lock(gate_mu_);
  // Another quiescer (a rebalance, a manual checkpoint) holds the gate:
  // yield immediately — the background checkpointer retries with backoff
  // rather than queueing behind a control-plane operation of unknown length.
  if (quiescing_) return false;
  quiescing_ = true;
  // The gate is closed, so in_flight_ can only fall. Wait a bounded time
  // for the tail of in-flight multi-partition rounds to drain; rounds are
  // short (participant execution + one decision flush), so a timeout here
  // means sustained multi-partition load — back off and let it through.
  bool drained = gate_cv_.wait_for(
      lock, std::chrono::milliseconds(timeout_ms),
      [this] { return in_flight_ == 0; });
  if (!drained) {
    quiescing_ = false;
    lock.unlock();
    gate_cv_.notify_all();
    return false;
  }
  return true;
}

void TxnCoordinator::QuiesceEnd() {
  {
    std::lock_guard<std::mutex> lock(gate_mu_);
    quiescing_ = false;
  }
  gate_cv_.notify_all();
}

Result<std::vector<int64_t>> TxnCoordinator::ReadCommittedGids(
    const std::string& decision_log_path) {
  // A decision log that never existed means no decision was ever made
  // durable: every in-doubt transaction is presumed aborted. A log that
  // exists but cannot be read is NOT that — recovery must fail loudly
  // rather than presume aborts over unreadable decisions.
  struct stat st;
  if (::stat(decision_log_path.c_str(), &st) != 0) {
    return std::vector<int64_t>{};
  }
  // Tolerant of a torn tail: a decision whose record did not fully flush
  // was never durable, so the transaction is presumed aborted — exactly the
  // crash-consistency contract. Mid-file garbage still stops the read early,
  // which is conservative (presumed abort, never a phantom commit).
  Result<CommandLog::TolerantRead> read =
      CommandLog::ReadTolerant(decision_log_path);
  if (!read.ok()) return read.status();
  std::vector<int64_t> gids;
  for (const LogRecord& r : read->records) {
    if (r.type() == LogRecordType::kCommitMark) gids.push_back(r.global_txn_id);
  }
  return gids;
}

void TxnCoordinator::SetNextGlobalTxnId(int64_t gid) {
  next_gid_.store(gid, std::memory_order_relaxed);
}

void TxnCoordinator::NoteInDoubt(uint64_t committed, uint64_t aborted) {
  in_doubt_committed_.fetch_add(committed, std::memory_order_relaxed);
  in_doubt_aborted_.fetch_add(aborted, std::memory_order_relaxed);
}

CoordStats TxnCoordinator::stats() const {
  CoordStats out;
  out.multi_txns = multi_txns_.load(std::memory_order_relaxed);
  out.prepares = prepares_.load(std::memory_order_relaxed);
  out.commits = commits_.load(std::memory_order_relaxed);
  out.aborts = aborts_.load(std::memory_order_relaxed);
  out.in_doubt_committed = in_doubt_committed_.load(std::memory_order_relaxed);
  out.in_doubt_aborted = in_doubt_aborted_.load(std::memory_order_relaxed);
  out.checkpoints = checkpoints_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace sstore
