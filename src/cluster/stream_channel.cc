#include "cluster/stream_channel.h"

#include <utility>

#include "cluster/cluster.h"
#include "common/failpoint.h"
#include "query/expr.h"

namespace sstore {

std::string ChannelIngestProcName(const std::string& stream) {
  return "__chan_ingest_" + stream;
}

std::string ChannelCursorTableName(const std::string& stream) {
  return "__chan_pos_" + stream;
}

Status InstallChannelConsumerSupport(SStore& store, const ChannelSpec& spec) {
  // Cursor table: one row per producer lane, advanced inside each delivery
  // transaction — the snapshot + log replay restore exactly how far every
  // lane got, which is what ReconcileAfterRecovery keys exactly-once on.
  std::string cursor = ChannelCursorTableName(spec.stream);
  if (!store.catalog().HasTable(cursor)) {
    SSTORE_ASSIGN_OR_RETURN(
        Table * table,
        store.catalog().CreateTable(cursor,
                                    Schema({{"producer", ValueType::kBigInt},
                                            {"last_id", ValueType::kBigInt}})));
    SSTORE_RETURN_NOT_OK(table->CreateIndex("pk", {"producer"}, /*unique=*/true));
  }

  std::string proc_name = ChannelIngestProcName(spec.stream);
  if (store.partition().HasProcedure(proc_name)) return Status::OK();
  std::string stream = spec.stream;
  auto proc = std::make_shared<LambdaProcedure>(
      [stream, cursor](ProcContext& ctx) -> Status {
        SSTORE_ASSIGN_OR_RETURN(Table * stream_table, ctx.table(stream));
        size_t width = stream_table->schema().num_columns();
        int64_t id = ctx.batch_id();
        int64_t lane = (id - kChannelBatchIdBase) % kChannelLaneStride;

        SSTORE_ASSIGN_OR_RETURN(Table * cursor_table, ctx.table(cursor));
        SSTORE_ASSIGN_OR_RETURN(
            std::vector<Tuple> existing,
            ctx.exec().IndexScan(cursor_table, "pk", {Value::BigInt(lane)}));
        if (!existing.empty() && existing[0][1].as_int64() >= id) {
          // The lane's cursor is already past this id: a replayed delivery
          // the snapshot had absorbed. Committing without effects keeps the
          // transport exactly-once.
          return Status::OK();
        }

        const Tuple& params = ctx.params();
        if (width == 0 || params.size() % width != 0) {
          return Status::InvalidArgument(
              "channel delivery for '" + stream +
              "' does not flatten into rows of width " +
              std::to_string(width));
        }
        std::vector<Tuple> rows;
        rows.reserve(params.size() / width);
        for (size_t i = 0; i < params.size(); i += width) {
          rows.emplace_back(params.begin() + static_cast<long>(i),
                            params.begin() + static_cast<long>(i + width));
        }
        SSTORE_RETURN_NOT_OK(ctx.EmitToStream(stream, std::move(rows)));

        if (existing.empty()) {
          SSTORE_ASSIGN_OR_RETURN(
              RowId rid, ctx.exec().Insert(cursor_table, {Value::BigInt(lane),
                                                          Value::BigInt(id)}));
          (void)rid;
        } else {
          SSTORE_ASSIGN_OR_RETURN(
              size_t updated,
              ctx.exec().Update(cursor_table, Eq(Col(0), LitInt(lane)),
                                {{1, LitInt(id)}}));
          (void)updated;
        }
        return Status::OK();
      });
  return store.partition().RegisterProcedure(proc_name, SpKind::kBorder,
                                             std::move(proc));
}

StreamChannel::StreamChannel(Cluster* cluster, ChannelSpec spec)
    : cluster_(cluster),
      spec_(std::move(spec)),
      ingest_proc_(ChannelIngestProcName(spec_.stream)),
      lanes_(cluster->num_partitions()) {
  for (auto& lane : lanes_) lane = std::make_unique<Lane>();
}

int64_t StreamChannel::EncodeBatchId(int64_t producer_batch,
                                     size_t lane) const {
  return kChannelBatchIdBase + producer_batch * kChannelLaneStride +
         static_cast<int64_t>(lane);
}

void StreamChannel::InstallHooks() {
  for (size_t p = 0; p < cluster_->num_partitions(); ++p) {
    if (!spec_.ProducerRunsOn(p)) continue;
    cluster_->partition(p).AddCommitHook(
        [this, p](Partition&, const TransactionExecution& te) {
          OnProducerCommit(p, te);
        });
  }
}

void StreamChannel::OnPartitionAdded(size_t p) {
  while (lanes_.size() <= p) {
    lanes_.push_back(std::make_unique<Lane>());
  }
  if (!spec_.ProducerRunsOn(p)) return;
  cluster_->partition(p).AddCommitHook(
      [this, p](Partition&, const TransactionExecution& te) {
        OnProducerCommit(p, te);
      });
}

void StreamChannel::OnProducerCommit(size_t lane,
                                     const TransactionExecution& te) {
  if (!enabled_.load(std::memory_order_acquire)) return;
  // We are on this partition's worker — the only thread allowed to mutate
  // its stream tables — so piggyback the GC of acknowledged deliveries.
  DrainLane(lane);
  // Our own deliveries re-emit into the stream; everything else — including
  // stages that inherited a channel-range batch id from a (single-lane,
  // enforced at Build) upstream channel — is raw production to forward.
  if (te.proc_name() == ingest_proc_) return;
  for (const auto& [stream, batch] : te.emitted()) {
    if (stream != spec_.stream) continue;
    StreamManager& streams = cluster_->store(lane).streams();
    Result<std::vector<Tuple>> rows = streams.BatchContents(stream, batch);
    if (!rows.ok()) continue;
    if (rows->empty()) {
      streams.OnBatchConsumed(stream, batch).ok();
      continue;
    }
    ForwardBatch(lane, batch, std::move(rows).value(), nullptr);
  }
}

std::map<size_t, std::vector<Tuple>> StreamChannel::RouteRows(
    std::vector<Tuple> rows, const PartitionMap& map) const {
  std::map<size_t, std::vector<Tuple>> routed;
  if (spec_.consumer_placement.kind == Placement::Kind::kPinned) {
    routed[spec_.consumer_placement.partition] = std::move(rows);
    return routed;
  }
  // kKeyed: split by the owning partition of the key column, the same rule
  // (and the same missing-column fallback) as ClusterInjector.
  size_t column = static_cast<size_t>(spec_.consumer_placement.key_column);
  for (Tuple& row : rows) {
    size_t target = column < row.size() ? map.PartitionOf(row[column]) : 0;
    routed[target].push_back(std::move(row));
  }
  return routed;
}

void StreamChannel::ForwardBatch(size_t lane, int64_t producer_batch,
                                 std::vector<Tuple> rows,
                                 const std::map<size_t, int64_t>* cursors) {
  // Drop site: the forward vanishes before any delivery is enqueued. The
  // raw batch stays pending in the producer's stream manager, so recovery
  // (ReconcileAfterRecovery) re-forwards it — the lost-message case of the
  // exactly-once contract. WaitIdle does not hang: no tickets were created.
  if (failpoint::EvaluateFast("channel.forward.drop") !=
      failpoint::Action::kOff) {
    return;
  }
  int64_t encoded = EncodeBatchId(producer_batch, lane);
  // The downstream hop of the pipeline trace: 1-in-32 forwards record a
  // channel_forward span (route + submit time) into the producer lane's
  // ring, completing submit → … → commit → channel forward.
  TraceRing* trace = cluster_->trace_ring(lane);
  if (trace != nullptr &&
      trace_tick_.fetch_add(1, std::memory_order_relaxed) % 32 != 0) {
    trace = nullptr;
  }
  const int64_t trace_start_us = trace != nullptr ? TraceNowMicros() : 0;
  auto push_trace = [&] {
    if (trace != nullptr) {
      trace->Push({"channel_forward", trace_start_us,
                   TraceNowMicros() - trace_start_us,
                   static_cast<int32_t>(lane), producer_batch});
    }
  };
  // The view pins the routing table across route + enqueue, so a
  // concurrent Rebalance cannot flip ownership between the two — a
  // delivery either targets the pre-flip owner (and lands ahead of the
  // rebalance barrier there) or the post-flip one. Everything under it is
  // non-blocking (spill enqueues, lane mutex).
  Cluster::RoutingView view = cluster_->LockRouting();
  std::map<size_t, std::vector<Tuple>> routed =
      RouteRows(std::move(rows), view.map());
  Delivery delivery;
  delivery.producer_batch = producer_batch;
  for (auto& [target, target_rows] : routed) {
    if (cursors != nullptr) {
      auto it = cursors->find(target);
      if (it != cursors->end() && it->second >= encoded) {
        redeliveries_suppressed_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
    }
    Tuple params;
    params.reserve(target_rows.size() *
                   (target_rows.empty() ? 0 : target_rows[0].size()));
    for (Tuple& row : target_rows) {
      for (Value& v : row) params.push_back(std::move(v));
    }
    rows_forwarded_.fetch_add(target_rows.size(), std::memory_order_relaxed);
    deliveries_.fetch_add(1, std::memory_order_relaxed);
    // Duplicate site: submit the same delivery twice under the same encoded
    // batch id — a retransmit race. The consumer's cursor check must commit
    // the second copy as a no-effect txn (exactly-once despite at-least-once
    // transport).
    bool duplicate = failpoint::EvaluateFast("channel.forward.duplicate") !=
                     failpoint::Action::kOff;
    Tuple dup_params;
    if (duplicate) dup_params = params;
    // kSpillWhenFull: a full consumer ring must not block this producer's
    // worker (or, on a self-delivery, deadlock it against itself).
    delivery.tickets.push_back(cluster_->partition(target).SubmitAsync(
        Invocation{ingest_proc_, std::move(params), encoded},
        EnqueuePolicy::kSpillWhenFull));
    if (duplicate) {
      deliveries_.fetch_add(1, std::memory_order_relaxed);
      delivery.tickets.push_back(cluster_->partition(target).SubmitAsync(
          Invocation{ingest_proc_, std::move(dup_params), encoded},
          EnqueuePolicy::kSpillWhenFull));
    }
  }
  StreamManager& streams = cluster_->store(lane).streams();
  if (delivery.tickets.empty()) {
    // Every target already covered (reconciliation): release the claim now.
    streams.OnBatchConsumed(spec_.stream, producer_batch).ok();
    push_trace();
    return;
  }
  {
    std::lock_guard<std::mutex> hold(lanes_[lane]->mu);
    lanes_[lane]->inflight.push_back(std::move(delivery));
    lanes_[lane]->inflight_count.store(lanes_[lane]->inflight.size(),
                                       std::memory_order_release);
  }
  push_trace();
}

void StreamChannel::DrainLane(size_t lane) {
  if (lanes_[lane]->inflight_count.load(std::memory_order_acquire) == 0) {
    return;
  }
  // Stall site: acknowledged deliveries stay un-GC'd this pass, as if the
  // ack window froze. Raw batches accumulate pending; once the site disarms
  // the next drain catches everything up (tickets complete independently,
  // so WaitIdle never hangs on a stall).
  if (failpoint::EvaluateFast("channel.ack.stall") !=
      failpoint::Action::kOff) {
    return;
  }
  std::vector<int64_t> consumed;
  {
    std::lock_guard<std::mutex> hold(lanes_[lane]->mu);
    std::deque<Delivery>& inflight = lanes_[lane]->inflight;
    while (!inflight.empty()) {
      Delivery& front = inflight.front();
      bool all_done = true;
      bool all_committed = true;
      for (BatchTicketPtr& ticket : front.tickets) {
        if (!ticket->TryWait()) {
          all_done = false;
          break;
        }
        all_committed = all_committed && ticket->outcome(0).committed();
      }
      // FIFO only: an unacked front delivery blocks later ones so the raw
      // batches GC in stream order.
      if (!all_done) break;
      if (all_committed) {
        consumed.push_back(front.producer_batch);
      } else {
        // The delivery transaction aborted (log failure on the consumer).
        // Keep the raw batch pending — recovery can still re-forward it.
        delivery_failures_.fetch_add(1, std::memory_order_relaxed);
      }
      inflight.pop_front();
    }
    lanes_[lane]->inflight_count.store(inflight.size(),
                                       std::memory_order_release);
  }
  // Crash site between the delivery transactions committing (tickets acked
  // above) and the raw-batch GC below: on recovery the batches re-forward,
  // and the consumer cursor — advanced inside the committed delivery txn —
  // must suppress them. Exercises the exactly-once window most likely to
  // double-deliver.
  if (!consumed.empty() &&
      failpoint::EvaluateFast("channel.crash.before_gc") !=
          failpoint::Action::kOff) {
    return;
  }
  StreamManager& streams = cluster_->store(lane).streams();
  for (int64_t batch : consumed) {
    streams.OnBatchConsumed(spec_.stream, batch).ok();
  }
}

void StreamChannel::ScheduleAckDrains() {
  for (size_t p = 0; p < cluster_->num_partitions(); ++p) {
    if (!spec_.ProducerRunsOn(p)) continue;
    Partition& partition = cluster_->partition(p);
    if (partition.running()) {
      partition.SubmitClosure([this, p](Partition&) { DrainLane(p); });
    } else {
      DrainLane(p);
    }
  }
}

Result<int64_t> StreamChannel::ReadCursor(size_t consumer_partition,
                                          size_t lane) const {
  SStore& store = cluster_->store(consumer_partition);
  Result<Table*> table =
      store.catalog().GetTable(ChannelCursorTableName(spec_.stream));
  if (!table.ok()) return int64_t{0};
  Executor exec;
  SSTORE_ASSIGN_OR_RETURN(
      std::vector<Tuple> rows,
      exec.IndexScan(*table, "pk",
                     {Value::BigInt(static_cast<int64_t>(lane))}));
  return rows.empty() ? int64_t{0} : rows[0][1].as_int64();
}

Status StreamChannel::ReconcileAfterRecovery() {
  size_t n = cluster_->num_partitions();
  // Pre-read every consumer lane cursor: delivered ids per lane only grow,
  // and pending raw batches are visited in ascending order.
  for (size_t p = 0; p < n; ++p) {
    if (!spec_.ProducerRunsOn(p)) continue;
    StreamManager& streams = cluster_->store(p).streams();
    if (!streams.HasStream(spec_.stream)) continue;
    std::map<size_t, int64_t> cursors;
    for (size_t q = 0; q < n; ++q) {
      if (!spec_.consumer_placement.RunsOn(q)) continue;
      SSTORE_ASSIGN_OR_RETURN(int64_t cursor, ReadCursor(q, p));
      cursors[q] = cursor;
    }
    // On a partition that also runs the consumer, pending batches are a mix
    // of raw production and batches *delivered here* (awaiting the local
    // consumer — residual triggers fire those). A delivered batch is one
    // this partition's own cursor has recorded for its decoded lane; a raw
    // batch never touches the local cursor, even when it inherited a
    // channel-range id from an upstream boundary.
    bool consumer_here = spec_.consumer_placement.RunsOn(p);
    std::map<size_t, int64_t> local_cursor;
    if (consumer_here) {
      for (size_t lane = 0; lane < n; ++lane) {
        SSTORE_ASSIGN_OR_RETURN(int64_t cursor, ReadCursor(p, lane));
        local_cursor[lane] = cursor;
      }
    }
    SSTORE_ASSIGN_OR_RETURN(std::vector<int64_t> pending,
                            streams.PendingBatches(spec_.stream));
    for (int64_t batch : pending) {
      if (consumer_here && batch >= kChannelBatchIdBase) {
        size_t lane = static_cast<size_t>((batch - kChannelBatchIdBase) %
                                          kChannelLaneStride);
        if (batch <= local_cursor[lane]) continue;  // delivered, not ours
      }
      SSTORE_ASSIGN_OR_RETURN(std::vector<Tuple> rows,
                              streams.BatchContents(spec_.stream, batch));
      if (rows.empty()) {
        streams.OnBatchConsumed(spec_.stream, batch).ok();
        continue;
      }
      ForwardBatch(p, batch, std::move(rows), &cursors);
    }
  }
  return Status::OK();
}

StreamChannel::Stats StreamChannel::stats() const {
  Stats out;
  out.deliveries = deliveries_.load(std::memory_order_relaxed);
  out.rows_forwarded = rows_forwarded_.load(std::memory_order_relaxed);
  out.redeliveries_suppressed =
      redeliveries_suppressed_.load(std::memory_order_relaxed);
  out.delivery_failures = delivery_failures_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace sstore
