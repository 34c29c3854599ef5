#ifndef SSTORE_STREAMING_INJECTOR_H_
#define SSTORE_STREAMING_INJECTOR_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "engine/partition.h"

namespace sstore {

/// The stream injection module (paper §3.2, Figure 4): prepares atomic
/// batches from a push-based source and invokes the workflow's border stored
/// procedure once per batch, assigning monotonically increasing batch ids.
///
/// The border SP receives the input tuple as its parameters — exactly what
/// the command log records, so both recovery modes can re-ingest the batch.
///
/// Backpressure is the partition's own: injection enqueues with
/// kBlockWhenFull, so while the request queue is at `queue_capacity` the
/// producer sleeps until the worker retires work (and a stopped worker
/// releases it — no deadlock). An overloaded engine bounds its memory
/// instead of growing its backlog without limit.
class StreamInjector {
 public:
  StreamInjector(Partition* partition, std::string border_proc)
      : partition_(partition), border_proc_(std::move(border_proc)) {}

  /// Non-blocking injection (the paper's asynchronous, non-blocking client)
  /// — it blocks only while the partition's queue is full. One-slot ticket.
  BatchTicketPtr InjectAsync(Tuple batch) {
    int64_t batch_id = next_batch_id_.fetch_add(1);
    return partition_->SubmitAsync(
        Invocation{border_proc_, std::move(batch), batch_id});
  }

  /// Batch-at-a-time injection: one border invocation per tuple, all sharing
  /// one completion ticket — a single allocation and a single wait for the
  /// whole group. Batch ids stay consecutive and in submission order.
  BatchTicketPtr InjectBatchAsync(std::vector<Tuple> batches) {
    int64_t first_id =
        next_batch_id_.fetch_add(static_cast<int64_t>(batches.size()));
    std::vector<Invocation> invocations;
    invocations.reserve(batches.size());
    int64_t id = first_id;
    for (Tuple& batch : batches) {
      invocations.push_back(Invocation{border_proc_, std::move(batch), id++});
    }
    return partition_->SubmitBatchAsync(std::move(invocations));
  }

  /// Blocking injection: waits for the border transaction to commit.
  TxnOutcome InjectSync(Tuple batch) {
    int64_t batch_id = next_batch_id_.fetch_add(1);
    return partition_->ExecuteSync(border_proc_, std::move(batch), batch_id);
  }

  int64_t batches_injected() const { return next_batch_id_.load() - 1; }

  /// Continues the batch-id sequence at `next`. A source that resumes
  /// ingestion after a kill-and-recover must NOT restart at 1: batch ids
  /// are the exactly-once identity across the whole topology, and a placed
  /// channel whose delivery cursor already passed an id silently drops the
  /// re-used id as a duplicate. The injection module's contract (§3.2) is
  /// that the *source* is authoritative for batch identity, so the source
  /// seeds this from its own durable offset.
  void ResumeBatchIdsAt(int64_t next) { next_batch_id_.store(next); }

 private:
  Partition* partition_;
  std::string border_proc_;
  std::atomic<int64_t> next_batch_id_{1};
};

}  // namespace sstore

#endif  // SSTORE_STREAMING_INJECTOR_H_
