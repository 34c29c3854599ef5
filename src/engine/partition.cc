#include "engine/partition.h"

#include <chrono>
#include <iterator>
#include <utility>

namespace sstore {

const char* SpKindToString(SpKind kind) {
  switch (kind) {
    case SpKind::kOltp:
      return "OLTP";
    case SpKind::kBorder:
      return "BORDER";
    case SpKind::kInterior:
      return "INTERIOR";
  }
  return "UNKNOWN";
}

const std::vector<TxnOutcome>& BatchTicket::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return done_; });
  return outcomes_;
}

bool BatchTicket::TryWait() {
  std::lock_guard<std::mutex> lock(mu_);
  return done_;
}

void BatchTicket::Fulfill(size_t slot, TxnOutcome outcome) {
  bool ok = outcome.committed();
  outcomes_[slot] = std::move(outcome);
  (ok ? committed_ : aborted_).fetch_add(1, std::memory_order_release);
  if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    CompletionHook callback;
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
      callback = std::move(on_complete_);
    }
    cv_.notify_all();
    if (callback) callback(std::move(outcomes_));
  }
}

void BatchTicket::SetOnComplete(CompletionHook fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!done_) {
      on_complete_ = std::move(fn);
      return;
    }
  }
  fn(std::move(outcomes_));  // already complete — the caller runs it
}

Partition::Partition(int partition_id, size_t queue_capacity)
    : partition_id_(partition_id),
      ee_(&catalog_),
      capacity_(queue_capacity == 0 ? kDefaultQueueCapacity
                                    : queue_capacity) {}

Partition::~Partition() { Stop(); }

Status Partition::RegisterProcedure(const std::string& name, SpKind kind,
                                    std::shared_ptr<StoredProcedure> proc) {
  if (proc == nullptr) {
    return Status::InvalidArgument("null stored procedure");
  }
  if (procs_.find(name) != procs_.end()) {
    return Status::AlreadyExists("procedure '" + name + "' already registered");
  }
  procs_.emplace(name, ProcEntry{std::move(proc), kind});
  return Status::OK();
}

Result<SpKind> Partition::ProcedureKind(const std::string& name) const {
  auto it = procs_.find(name);
  if (it == procs_.end()) {
    return Status::NotFound("no procedure named '" + name + "'");
  }
  return it->second.kind;
}

bool Partition::HasProcedure(const std::string& name) const {
  return procs_.find(name) != procs_.end();
}

// ---- Queue plumbing --------------------------------------------------------

void Partition::NoteWatermark() {
  uint64_t depth = QueueDepth();
  uint64_t cur = queue_hwm_.load(std::memory_order_relaxed);
  while (depth > cur &&
         !queue_hwm_.compare_exchange_weak(cur, depth,
                                           std::memory_order_relaxed)) {
  }
}

template <typename Fill>
void Partition::PushBack(size_t count, EnqueuePolicy policy, Fill&& fill) {
  std::unique_lock<std::mutex> lock(queue_mu_);
  for (size_t i = 0; i < count; ++i) {
    if (policy == EnqueuePolicy::kBlockWhenFull && accepting_ &&
        depth_.load(std::memory_order_seq_cst) >= capacity_) {
      // Full while the worker runs: sleep until it retires work. Tasks this
      // call already appended must not wait behind our wait. The full depth
      // is the high-water mark — the worker may drain below it before the
      // batch's last append.
      producer_blocks_.fetch_add(1, std::memory_order_relaxed);
      NoteWatermark();
      if (worker_waiting_) work_cv_.notify_one();
      WaitForDepthBelow(lock, capacity_);
    }
    queue_.emplace_back();
    fill(queue_.back(), i);
    depth_.fetch_add(1, std::memory_order_seq_cst);
  }
  NoteWatermark();
  if (worker_waiting_) work_cv_.notify_one();
}

void Partition::WaitForDepthBelow(std::unique_lock<std::mutex>& lock,
                                  size_t limit) {
  // seq_cst on depth_waiters_ and depth_: either RunAndRetire sees this
  // waiter and notifies under queue_mu_, or the predicate sees its decrement.
  depth_waiters_.fetch_add(1, std::memory_order_seq_cst);
  space_cv_.wait(lock, [this, limit] {
    return !accepting_ || depth_.load(std::memory_order_seq_cst) < limit;
  });
  if (depth_waiters_.fetch_sub(1, std::memory_order_seq_cst) == 1 &&
      !accepting_) {
    space_cv_.notify_all();  // the last waiter out releases Stop()
  }
}

void Partition::RunAndRetire(Task& task) {
  RunTask(task);
  // Retired only after RunTask's side effects (commit hooks, PE-trigger
  // enqueues) are done, so "depth == 0" really means idle.
  depth_.fetch_sub(1, std::memory_order_seq_cst);
  if (depth_waiters_.load(std::memory_order_seq_cst) > 0) {
    std::lock_guard<std::mutex> lock(queue_mu_);
    space_cv_.notify_all();
  }
}

size_t Partition::QueueDepth() const {
  return depth_.load(std::memory_order_seq_cst);
}

void Partition::WaitForQueueBelow() {
  if (QueueDepth() < capacity_) return;
  producer_blocks_.fetch_add(1, std::memory_order_relaxed);
  std::unique_lock<std::mutex> lock(queue_mu_);
  WaitForDepthBelow(lock, capacity_);
}

void Partition::WaitIdle() {
  if (!running()) return;
  if (QueueDepth() == 0) return;
  std::unique_lock<std::mutex> lock(queue_mu_);
  WaitForDepthBelow(lock, 1);
}

// ---- Client API ------------------------------------------------------------

int64_t Partition::SampleStamp() {
  if (instruments_.latency_us == nullptr ||
      instruments_.latency_sample_every == 0) {
    return 0;
  }
  // Thread-local countdowns (shared across partitions a producer feeds):
  // the unsampled path is one decrement + branch, no clock read.
  static thread_local uint32_t latency_left = 1;
  if (--latency_left != 0) return 0;
  latency_left = instruments_.latency_sample_every;
  int64_t now = TraceNowMicros();
  if (now <= 0) now = 1;  // keep the "0 == unsampled" encoding unambiguous
  if (instruments_.trace != nullptr && instruments_.trace_sample_every != 0) {
    static thread_local uint32_t trace_left = 1;
    if (--trace_left == 0) {
      trace_left = instruments_.trace_sample_every;
      return -now;
    }
  }
  return now;
}

BatchTicketPtr Partition::SubmitAsync(Invocation inv, EnqueuePolicy policy) {
  auto ticket = std::make_shared<BatchTicket>(1);
  const int64_t stamp = SampleStamp();
  client_requests_.fetch_add(1, std::memory_order_relaxed);
  PushBack(1, policy, [&](Task& task, size_t) {
    task.inv = std::move(inv);
    task.batch = ticket;
    task.sample_ts = stamp;
  });
  return ticket;
}

BatchTicketPtr Partition::SubmitBatchAsync(std::vector<Invocation> batch,
                                           EnqueuePolicy policy) {
  auto ticket = std::make_shared<BatchTicket>(batch.size());
  if (batch.empty()) return ticket;
  client_requests_.fetch_add(batch.size(), std::memory_order_relaxed);
  // One countdown tick per batch; the stamp rides the *last* invocation so
  // a sample measures submit→batch-complete (FIFO makes the last task the
  // one that resolves the ticket).
  const int64_t stamp = SampleStamp();
  const size_t last = batch.size() - 1;
  PushBack(batch.size(), policy, [&](Task& task, size_t i) {
    task.inv = std::move(batch[i]);
    task.batch = ticket;
    task.batch_index = static_cast<uint32_t>(i);
    if (i == last) task.sample_ts = stamp;
  });
  return ticket;
}

namespace {

// Busy-spin for the modeled client-side network turnaround. A spin keeps
// microsecond accuracy (sleep granularity is far coarser) and matches what
// the client core would spend in its RPC stack.
void SpendClientRoundTrip(int64_t micros) {
  if (micros <= 0) return;
  auto until =
      std::chrono::steady_clock::now() + std::chrono::microseconds(micros);
  while (std::chrono::steady_clock::now() < until) {
  }
}

}  // namespace

void Partition::PayClientRoundTrip() const {
  SpendClientRoundTrip(client_rtt_micros_);
}

TxnOutcome Partition::ExecuteSync(const std::string& proc, Tuple params,
                                  int64_t batch_id) {
  Invocation inv{proc, std::move(params), batch_id};
  TxnOutcome outcome;
  if (running()) {
    outcome = SubmitAsync(std::move(inv))->Wait()[0];
  } else {
    // Inline mode for single-threaded tests and recovery replay: run the
    // transaction and then drain anything PE triggers enqueued.
    outcome = RunInline(std::move(inv));
    DrainQueueInline();
  }
  SpendClientRoundTrip(client_rtt_micros_);
  return outcome;
}

BatchTicketPtr Partition::SubmitNestedAsync(
    std::vector<Invocation> children) {
  auto ticket = std::make_shared<BatchTicket>(1);
  client_requests_.fetch_add(1, std::memory_order_relaxed);
  PushBack(1, EnqueuePolicy::kBlockWhenFull, [&](Task& task, size_t) {
    task.fn = [ticket, children = std::move(children)](Partition& p) mutable {
      ticket->Fulfill(0, p.RunNestedGroup(std::move(children)));
    };
  });
  return ticket;
}

TxnOutcome Partition::ExecuteNestedSync(std::vector<Invocation> children) {
  if (!running()) {
    TxnOutcome outcome = RunNestedGroup(std::move(children));
    DrainQueueInline();
    return outcome;
  }
  TxnOutcome outcome = SubmitNestedAsync(std::move(children))->Wait()[0];
  SpendClientRoundTrip(client_rtt_micros_);
  return outcome;
}

void Partition::EnqueueFront(Invocation inv) {
  // Worker thread (or inline mode) only, so the worker-local head needs no
  // lock: the newest front push runs next, ahead of everything queued.
  local_.emplace_front();
  local_.front().inv = std::move(inv);
  depth_.fetch_add(1, std::memory_order_seq_cst);
  internal_requests_.fetch_add(1, std::memory_order_relaxed);
  NoteWatermark();
}

void Partition::EnqueueBack(Invocation inv) {
  internal_requests_.fetch_add(1, std::memory_order_relaxed);
  PushBack(1, EnqueuePolicy::kBlockWhenFull,
           [&](Task& task, size_t) { task.inv = std::move(inv); });
}

void Partition::SubmitClosure(std::function<void(Partition&)> fn,
                              EnqueuePolicy policy) {
  internal_requests_.fetch_add(1, std::memory_order_relaxed);
  PushBack(1, policy, [&](Task& task, size_t) { task.fn = std::move(fn); });
}

// ---- Groups: multi-partition slices and nested transactions -------------

namespace {

// The one builder for records that carry a transaction: a kTxn commit
// record, or a kPrepare record of group `group_id` (a coordinator gid, or a
// nested group's negative partition-local id).
LogRecord CommandRecord(const TransactionExecution& te, SpKind kind,
                        LogRecordType type, int64_t group_id) {
  LogRecord record;
  record.txn_id = te.txn_id();
  record.proc = te.proc_name();
  record.params = te.params();
  record.batch_id = te.batch_id();
  record.sp_kind = static_cast<uint8_t>(kind);
  record.record_type = static_cast<uint8_t>(type);
  record.global_txn_id = group_id;
  return record;
}

LogRecord MarkRecord(LogRecordType type, int64_t id) {
  LogRecord mark;
  mark.record_type = static_cast<uint8_t>(type);
  mark.global_txn_id = id;
  return mark;
}

}  // namespace

Partition::PreparedMulti Partition::PrepareMulti(
    std::vector<Invocation> fragments, int64_t global_txn_id) {
  PreparedMulti out;
  out.vote = ExecuteGroup(fragments, &out);
  if (!out.vote.ok()) return out;
  // Durable prepare: every fragment is logged regardless of SpKind/recovery
  // mode — the atomicity machinery needs the complete fragment set to
  // re-execute a committed-in-doubt transaction. Flushed before the vote.
  // A partial append followed by a crash is safe under presumed abort: the
  // coordinator cannot have logged a commit decision for an unvoted txn.
  if (log_ != nullptr) {
    Status log_st;
    for (size_t i = 0; log_st.ok() && i < out.tes.size(); ++i) {
      log_st = log_->Append(CommandRecord(*out.tes[i], out.kinds[i],
                                          LogRecordType::kPrepare,
                                          global_txn_id));
    }
    if (log_st.ok()) log_st = log_->Flush();
    if (!log_st.ok()) {
      AbortGroup(&out);
      out.vote = log_st;
    }
  }
  return out;
}

TxnOutcome Partition::RunNestedGroup(std::vector<Invocation> children) {
  TxnOutcome outcome;
  if (children.empty()) {
    outcome.status =
        Status::InvalidArgument("nested transaction needs children");
    return outcome;
  }
  nested_groups_.fetch_add(1, std::memory_order_relaxed);
  PreparedMulti group;
  outcome.status = ExecuteGroup(children, &group);
  if (!outcome.status.ok()) return outcome;
  // The group is one unit in the log as well: its records share one
  // partition-local negative id (coordinator gids start at 1) and replay
  // applies them only at the closing kCommitMark, so a group torn before
  // its mark replays as an in-doubt abort. Weak mode skips interior
  // children, as for single transactions.
  const int64_t group_id = -group.tes.front()->txn_id();
  bool logged = false;
  for (size_t i = 0; outcome.status.ok() && i < group.tes.size(); ++i) {
    if (!ShouldLog(group.kinds[i])) continue;
    outcome.status =
        log_->Append(CommandRecord(*group.tes[i], group.kinds[i],
                                   LogRecordType::kPrepare, group_id));
    logged = true;
  }
  // No coordinator holds this group's decision: the mark is the commit, so
  // a mark that cannot be appended aborts the group.
  if (outcome.status.ok() && logged) {
    outcome.status =
        log_->Append(MarkRecord(LogRecordType::kCommitMark, group_id));
  }
  if (!outcome.status.ok()) {
    AbortGroup(&group);
    return outcome;
  }
  std::vector<TxnOutcome> children_out;
  CommitGroup(group, &children_out);
  for (TxnOutcome& child : children_out) {
    outcome.txn_id = child.txn_id;
    for (Tuple& row : child.output) outcome.output.push_back(std::move(row));
  }
  return outcome;
}

Status Partition::ExecuteGroup(std::vector<Invocation>& invs,
                               PreparedMulti* group) {
  for (Invocation& inv : invs) {
    auto it = procs_.find(inv.proc);
    if (it == procs_.end()) {
      AbortGroup(group);
      return Status::NotFound("no procedure named '" + inv.proc + "'");
    }
    auto te = std::make_unique<TransactionExecution>(
        next_txn_id_++, std::move(inv.proc), std::move(inv.params),
        inv.batch_id);
    ProcContext ctx(this, &ee_, te.get());
    Status st = it->second.proc->Run(ctx);
    group->kinds.push_back(it->second.kind);
    group->tes.push_back(std::move(te));
    if (!st.ok()) {
      // The failed invocation ran, so it rolls back and counts with the
      // rest; those past it never ran and are not counted.
      AbortGroup(group);
      return st;
    }
  }
  return Status::OK();
}

void Partition::AbortGroup(PreparedMulti* group) {
  for (auto it = group->tes.rbegin(); it != group->tes.rend(); ++it) {
    (*it)->undo().Rollback().ok();
  }
  aborted_.fetch_add(group->tes.size(), std::memory_order_relaxed);
  group->tes.clear();
  group->kinds.clear();
}

void Partition::CommitGroup(PreparedMulti& group,
                            std::vector<TxnOutcome>* outcomes) {
  for (auto& te : group.tes) {
    te->undo().Release();
    committed_.fetch_add(1, std::memory_order_relaxed);
    TxnOutcome out;
    out.txn_id = te->txn_id();
    out.output = std::move(te->output());
    outcomes->push_back(std::move(out));
  }
  // Hooks fire after the whole group committed, preserving its isolation
  // unit: PE-triggered cascades start only once every member is in.
  for (auto& te : group.tes) FireCommitHooks(*te);
  group.tes.clear();
  group.kinds.clear();
}

void Partition::CommitMulti(PreparedMulti& prepared, int64_t global_txn_id,
                            std::vector<TxnOutcome>* outcomes) {
  if (log_ != nullptr) {
    // Deliberate discard: the global decision is already durable in the
    // coordinator's decision log; this mark only speeds up replay. A failed
    // append freezes the log (sticky error), so the next LogCommit/Flush on
    // this partition surfaces the fault — it is delayed, never lost.
    log_->Append(MarkRecord(LogRecordType::kCommitMark, global_txn_id)).ok();
  }
  CommitGroup(prepared, outcomes);
}

void Partition::AbortMulti(PreparedMulti& prepared, int64_t global_txn_id) {
  AbortGroup(&prepared);
  // The mark lets replay drop already-durable kPrepare records promptly
  // instead of carrying them to the in-doubt resolution at log end.
  if (log_ != nullptr) {
    // Deliberate discard (presumed abort): replay treats an undecided
    // prepare as aborted anyway, and a failed append leaves the log with a
    // sticky error the next durable operation reports.
    log_->Append(MarkRecord(LogRecordType::kAbortMark, global_txn_id)).ok();
  }
}

Status Partition::AppendCheckpointMark(uint64_t checkpoint_id) {
  if (log_ == nullptr) return Status::OK();
  SSTORE_RETURN_NOT_OK(
      log_->Append(MarkRecord(LogRecordType::kCheckpointMark,
                              static_cast<int64_t>(checkpoint_id))));
  return log_->Flush();
}

void Partition::Start() {
  if (running()) return;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    accepting_ = true;
  }
  worker_ = std::thread([this] { WorkerLoop(); });
  running_.store(true, std::memory_order_release);
}

void Partition::Stop() {
  if (!running()) return;
  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    // Producers blocked on a full queue wake and append without waiting;
    // their tasks predate this Stop() and must land ahead of the sentinel,
    // so wait for every depth waiter to leave before pushing it.
    accepting_ = false;
    space_cv_.notify_all();
    space_cv_.wait(lock, [this] {
      return depth_waiters_.load(std::memory_order_seq_cst) == 0;
    });
    queue_.emplace_back().stop = true;
    if (worker_waiting_) work_cv_.notify_one();
  }
  worker_.join();
  running_.store(false, std::memory_order_release);
}

void Partition::WorkerLoop() {
  while (true) {
    if (local_.empty()) {
      std::unique_lock<std::mutex> lock(queue_mu_);
      if (queue_.empty() && log_ != nullptr && log_->pending() > 0) {
        // Idle moment: group-commit boundary. Flush the log so no durable
        // record is delayed past the queue running dry. Wait for work
        // either way: a *failing* flush (disk full, fsync error) freezes the
        // log with a sticky error — the next transaction's LogCommit reports
        // it and aborts, so the worker never busy-loops on a dead disk.
        lock.unlock();
        log_->Flush().ok();
        lock.lock();
      }
      worker_waiting_ = true;
      work_cv_.wait(lock, [this] { return !queue_.empty(); });
      worker_waiting_ = false;
      local_.swap(queue_);
    }
    Task task = std::move(local_.front());
    local_.pop_front();
    if (task.stop) break;
    RunAndRetire(task);
  }
  {
    // Tasks behind the sentinel go back to the head of the shared queue, for
    // a restart or DrainQueueInline.
    std::lock_guard<std::mutex> lock(queue_mu_);
    queue_.insert(queue_.begin(), std::make_move_iterator(local_.begin()),
                  std::make_move_iterator(local_.end()));
    local_.clear();
  }
  if (log_ != nullptr) log_->Flush().ok();
}

void Partition::RunTask(Task& task) {
  if (task.fn) {
    // Closure task: the participant protocol, a nested group or a
    // checkpoint barrier. The closure owns its own completion signaling.
    task.fn(*this);
    return;
  }
  TxnOutcome outcome;
  if (task.sample_ts == 0) {
    outcome = ExecuteInvocation(std::move(task.inv));
  } else {
    // Sampled invocation: time the stages. The scratch lives on this
    // frame; active_span_ exposes it to ExecuteInvocation's stamps.
    const int64_t dequeue_us = TraceNowMicros();
    TraceScratch scratch;
    if (task.sample_ts < 0 && instruments_.trace != nullptr) {
      active_span_ = &scratch;
    }
    outcome = ExecuteInvocation(std::move(task.inv));
    active_span_ = nullptr;
    scratch.txn_id = outcome.txn_id;
    FinishSampledTask(task.sample_ts, dequeue_us, scratch);
  }
  if (task.batch != nullptr) {
    task.batch->Fulfill(task.batch_index, std::move(outcome));
  }
}

TxnOutcome Partition::ExecuteInvocation(Invocation&& inv) {
  TxnOutcome outcome;
  auto it = procs_.find(inv.proc);
  if (it == procs_.end()) {
    outcome.status = Status::NotFound("no procedure named '" + inv.proc + "'");
    return outcome;
  }
  // The invocation's name and params move into the TE — the tuple a client
  // handed to SubmitAsync reaches the stored procedure without ever being
  // copied.
  TransactionExecution te(next_txn_id_++, std::move(inv.proc),
                          std::move(inv.params), inv.batch_id);
  ProcContext ctx(this, &ee_, &te);
  Status st = it->second.proc->Run(ctx);
  outcome.txn_id = te.txn_id();
  if (active_span_ != nullptr) active_span_->exec_done_us = TraceNowMicros();
  if (!st.ok()) {
    Status undo_st = te.undo().Rollback();
    aborted_.fetch_add(1, std::memory_order_relaxed);
    outcome.status = undo_st.ok() ? st : undo_st;
    return outcome;
  }
  Status log_st = LogCommit(te, it->second.kind);
  if (active_span_ != nullptr && log_ != nullptr) {
    active_span_->log_done_us = TraceNowMicros();
  }
  if (!log_st.ok()) {
    te.undo().Rollback().ok();
    aborted_.fetch_add(1, std::memory_order_relaxed);
    outcome.status = log_st;
    return outcome;
  }
  te.undo().Release();
  committed_.fetch_add(1, std::memory_order_relaxed);
  outcome.output = std::move(te.output());
  FireCommitHooks(te);
  if (active_span_ != nullptr) {
    active_span_->hooks_done_us = TraceNowMicros();
  }
  return outcome;
}

bool Partition::ShouldLog(SpKind kind) const {
  if (log_ == nullptr) return false;
  if (recovery_mode_ == RecoveryMode::kStrong) return true;
  return kind != SpKind::kInterior;  // weak recovery: upstream backup
}

Status Partition::LogCommit(const TransactionExecution& te, SpKind kind) {
  if (!ShouldLog(kind)) return Status::OK();
  return log_->Append(CommandRecord(te, kind, LogRecordType::kTxn, 0));
}

void Partition::FireCommitHooks(const TransactionExecution& te) {
  for (const CommitHook& hook : commit_hooks_) hook(*this, te);
}

void Partition::FinishSampledTask(int64_t sample_ts, int64_t dequeue_us,
                                  const TraceScratch& scratch) {
  const bool traced = sample_ts < 0;
  const int64_t submit_us = traced ? -sample_ts : sample_ts;
  const int64_t done_us = TraceNowMicros();
  if (instruments_.latency_us != nullptr) {
    instruments_.latency_us->Record(done_us - submit_us);
  }
  if (!traced || instruments_.trace == nullptr) return;
  // Stage chain: missing stamps (abort paths, no log attached) drop their
  // stage rather than emit a zero-width lie.
  TraceRing& ring = *instruments_.trace;
  const int32_t tid = partition_id_;
  const int64_t id = scratch.txn_id;
  ring.Push({"queue_wait", submit_us, dequeue_us - submit_us, tid, id});
  const int64_t exec_end =
      scratch.exec_done_us != 0 ? scratch.exec_done_us : done_us;
  ring.Push({"execute", dequeue_us, exec_end - dequeue_us, tid, id});
  if (scratch.log_done_us != 0) {
    ring.Push(
        {"log_append", exec_end, scratch.log_done_us - exec_end, tid, id});
  }
  if (scratch.hooks_done_us != 0) {
    const int64_t hooks_start =
        scratch.log_done_us != 0 ? scratch.log_done_us : exec_end;
    ring.Push({"commit_hooks", hooks_start,
               scratch.hooks_done_us - hooks_start, tid, id});
  }
}

TxnOutcome Partition::RunInline(Invocation inv) {
  return ExecuteInvocation(std::move(inv));
}

size_t Partition::DrainQueueInline() {
  size_t executed = 0;
  while (true) {
    if (local_.empty()) {
      std::lock_guard<std::mutex> lock(queue_mu_);
      if (queue_.empty()) break;
      local_.swap(queue_);
    }
    Task task = std::move(local_.front());
    local_.pop_front();
    RunAndRetire(task);
    ++executed;
  }
  return executed;
}

Partition::Stats Partition::stats() const {
  Stats out;
  out.committed = committed_.load(std::memory_order_relaxed);
  out.aborted = aborted_.load(std::memory_order_relaxed);
  out.nested_groups = nested_groups_.load(std::memory_order_relaxed);
  out.client_requests = client_requests_.load(std::memory_order_relaxed);
  out.internal_requests = internal_requests_.load(std::memory_order_relaxed);
  out.queue_high_watermark = queue_hwm_.load(std::memory_order_relaxed);
  out.producer_blocks = producer_blocks_.load(std::memory_order_relaxed);
  return out;
}

Status Partition::AttachCommandLog(CommandLog::Options options,
                                   RecoveryMode mode) {
  std::lock_guard<std::mutex> lock(log_mu_);
  // Either failure below leaves the old log attached and closed (see the
  // header): logged commits then abort rather than go unlogged.
  if (log_ != nullptr) SSTORE_RETURN_NOT_OK(log_->Close());
  SSTORE_ASSIGN_OR_RETURN(std::unique_ptr<CommandLog> log,
                          CommandLog::Open(std::move(options)));
  if (log_ != nullptr) retired_log_ += log_->stats();
  log_ = std::move(log);
  recovery_mode_ = mode;
  return Status::OK();
}

Status Partition::DetachCommandLog() {
  std::lock_guard<std::mutex> lock(log_mu_);
  if (log_ == nullptr) return Status::OK();
  retired_log_ += log_->stats();
  Status st = log_->Close();
  log_.reset();
  return st;
}

LogStats Partition::log_stats() const {
  std::lock_guard<std::mutex> lock(log_mu_);
  LogStats out = retired_log_;
  if (log_ != nullptr) out += log_->stats();
  return out;
}

}  // namespace sstore
