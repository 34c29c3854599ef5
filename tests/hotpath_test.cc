// Tests for the batch-at-a-time submission hot path: the partition's bounded
// request queue (per-producer FIFO, Stop() with blocked producers),
// BatchTicket group completion, blocking backpressure, and the EnqueueFront
// fast-track over a full queue.

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "cluster/cluster_injector.h"
#include "cluster/topology.h"
#include "engine/partition.h"
#include "streaming/injector.h"
#include "streaming/sstore.h"

namespace sstore {
namespace {

Schema NumSchema() { return Schema({{"v", ValueType::kBigInt}}); }

// ---- Partition fixtures ----------------------------------------------------

class HotPathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(part_.catalog().CreateTable("kv", NumSchema()).ok());
    ASSERT_TRUE(part_
                    .RegisterProcedure(
                        "put", SpKind::kOltp,
                        std::make_shared<LambdaProcedure>([](ProcContext& ctx) {
                          SSTORE_ASSIGN_OR_RETURN(Table * t, ctx.table("kv"));
                          SSTORE_ASSIGN_OR_RETURN(
                              RowId rid, ctx.exec().Insert(t, ctx.params()));
                          (void)rid;
                          return Status::OK();
                        }))
                    .ok());
    ASSERT_TRUE(part_
                    .RegisterProcedure(
                        "maybe_abort", SpKind::kOltp,
                        std::make_shared<LambdaProcedure>([](ProcContext& ctx) {
                          if (ctx.params()[0].as_int64() < 0) {
                            return Status::Aborted("negative");
                          }
                          ctx.EmitOutput({ctx.params()[0]});
                          return Status::OK();
                        }))
                    .ok());
  }

  Partition part_;
};

// ---- BatchTicket semantics -------------------------------------------------

TEST_F(HotPathTest, BatchTicketAllCommit) {
  part_.Start();
  std::vector<Invocation> batch;
  for (int i = 0; i < 100; ++i) {
    batch.push_back(Invocation{"put", {Value::BigInt(i)}, 0});
  }
  BatchTicketPtr ticket = part_.SubmitBatchAsync(std::move(batch));
  ticket->Wait();
  EXPECT_TRUE(ticket->all_committed());
  EXPECT_EQ(ticket->size(), 100u);
  EXPECT_EQ(ticket->committed(), 100u);
  EXPECT_EQ(ticket->aborted(), 0u);
  part_.Stop();
  EXPECT_EQ((*part_.catalog().GetTable("kv"))->row_count(), 100u);
  EXPECT_EQ(part_.stats().client_requests, 100u);
}

TEST_F(HotPathTest, BatchTicketPartialAbortKeepsPerInvocationOutcomes) {
  part_.Start();
  // Indices 3 and 7 abort; everything else commits independently (a batch
  // is not a nested transaction).
  std::vector<Invocation> batch;
  for (int i = 0; i < 10; ++i) {
    int64_t v = (i == 3 || i == 7) ? -1 : i;
    batch.push_back(Invocation{"maybe_abort", {Value::BigInt(v)}, 0});
  }
  BatchTicketPtr ticket = part_.SubmitBatchAsync(std::move(batch));
  ticket->Wait();
  EXPECT_EQ(ticket->committed(), 8u);
  EXPECT_EQ(ticket->aborted(), 2u);
  EXPECT_FALSE(ticket->all_committed());
  for (size_t i = 0; i < ticket->size(); ++i) {
    const TxnOutcome& out = ticket->outcome(i);
    if (i == 3 || i == 7) {
      EXPECT_FALSE(out.committed()) << "index " << i;
      EXPECT_EQ(out.status.code(), StatusCode::kAborted) << "index " << i;
    } else {
      ASSERT_TRUE(out.committed()) << "index " << i;
      ASSERT_EQ(out.output.size(), 1u);
      EXPECT_EQ(out.output[0][0].as_int64(), static_cast<int64_t>(i));
    }
  }
  part_.Stop();
}

TEST_F(HotPathTest, EmptyBatchCompletesImmediately) {
  BatchTicketPtr ticket = part_.SubmitBatchAsync({});
  EXPECT_TRUE(ticket->TryWait());
  ticket->Wait();  // must not block
  EXPECT_EQ(ticket->size(), 0u);
  EXPECT_TRUE(ticket->all_committed());
}

TEST_F(HotPathTest, BatchSubmissionPreservesOrder) {
  part_.Start();
  std::vector<Invocation> batch;
  for (int i = 0; i < 50; ++i) {
    batch.push_back(Invocation{"put", {Value::BigInt(i)}, 0});
  }
  part_.SubmitBatchAsync(std::move(batch))->Wait();
  part_.Stop();
  Table* kv = *part_.catalog().GetTable("kv");
  std::vector<int64_t> values;
  for (RowId rid : kv->RowIdsBySeq()) {
    values.push_back((**kv->Get(rid))[0].as_int64());
  }
  ASSERT_EQ(values.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(values[i], i);
}

// ---- Blocking backpressure -------------------------------------------------

TEST(BackpressureTest, ProducerBlocksOnFullRingAndResumesOnDrain) {
  // Tiny queue so the producer hits the wall deterministically. The first
  // transaction parks the worker on a promise, so the queue cannot drain
  // until we release it.
  Partition part(/*partition_id=*/0, /*queue_capacity=*/4);
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::atomic<int> executed{0};
  ASSERT_TRUE(part.RegisterProcedure(
                      "slow", SpKind::kOltp,
                      std::make_shared<LambdaProcedure>(
                          [opened, &executed](ProcContext&) {
                            if (executed.fetch_add(1) == 0) opened.wait();
                            return Status::OK();
                          }))
                  .ok());
  part.Start();

  constexpr int kSubmits = 16;  // 4x the queue capacity
  std::atomic<int> submitted{0};
  std::thread producer([&] {
    for (int i = 0; i < kSubmits; ++i) {
      part.SubmitAsync(Invocation{"slow", {}, 0});
      submitted.fetch_add(1);
    }
  });

  // The producer must stall well short of kSubmits (queue capacity 4,
  // counting the one in flight).
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_LT(submitted.load(), kSubmits);

  gate.set_value();  // unblock the worker; queue drains, producer finishes
  producer.join();
  EXPECT_EQ(submitted.load(), kSubmits);
  part.WaitIdle();
  part.Stop();
  EXPECT_EQ(executed.load(), kSubmits);
  Partition::Stats stats = part.stats();
  EXPECT_GE(stats.producer_blocks, 1u);
  EXPECT_GE(stats.queue_high_watermark, 4u);
}

TEST(BackpressureTest, StopWakesBlockedProducersNoDeadlock) {
  // Producers blocked on a full queue — here an injector's, whose bound is
  // the partition's capacity — must be released when the worker stops:
  // they append past the capacity instead of waiting on a dead consumer.
  SStore::Options opts;
  opts.queue_capacity = 2;
  SStore store(opts);
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::atomic<int> executed{0};
  ASSERT_TRUE(store.partition()
                  .RegisterProcedure("slow", SpKind::kBorder,
                                     std::make_shared<LambdaProcedure>(
                                         [opened, &executed](ProcContext&) {
                                           if (executed.fetch_add(1) == 0) {
                                             opened.wait();
                                           }
                                           return Status::OK();
                                         }))
                  .ok());
  store.Start();

  StreamInjector injector(&store.partition(), "slow");

  constexpr int kInjects = 32;
  std::thread producer([&] {
    for (int i = 0; i < kInjects; ++i) {
      injector.InjectAsync({Value::BigInt(i)});
    }
  });
  // Let the producer wedge against the full queue, then stop the store
  // with the worker still parked on the gate. Unfulfilled tickets are
  // abandoned; the assertion is that join() returns.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  gate.set_value();
  store.Stop();
  producer.join();
  EXPECT_EQ(injector.batches_injected(), kInjects);
}

TEST(BackpressureTest, BlockingThrottleBoundsQueueDepth) {
  constexpr size_t kMaxDepth = 4;
  SStore::Options store_opts;
  store_opts.queue_capacity = kMaxDepth;
  SStore store(store_opts);
  auto slow = std::make_shared<LambdaProcedure>([](ProcContext&) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    return Status::OK();
  });
  ASSERT_TRUE(
      store.partition().RegisterProcedure("slow", SpKind::kBorder, slow).ok());
  store.Start();

  StreamInjector injector(&store.partition(), "slow");
  std::vector<BatchTicketPtr> tickets;
  for (int i = 0; i < 64; ++i) {
    tickets.push_back(injector.InjectAsync({Value::BigInt(i)}));
    // A single producer enqueues only after depth < capacity, so the queue
    // never exceeds the capacity right after an inject returns.
    EXPECT_LE(store.partition().QueueDepth(), kMaxDepth);
  }
  for (auto& t : tickets) ASSERT_TRUE(t->Wait()[0].committed());
  store.Stop();
  EXPECT_GE(store.partition().stats().producer_blocks, 1u);
}

TEST(BackpressureTest, WaitIdleReturnsWhenQueueDrains) {
  Partition part;
  ASSERT_TRUE(part.RegisterProcedure(
                      "nap", SpKind::kOltp,
                      std::make_shared<LambdaProcedure>([](ProcContext&) {
                        std::this_thread::sleep_for(
                            std::chrono::microseconds(200));
                        return Status::OK();
                      }))
                  .ok());
  part.Start();
  for (int i = 0; i < 50; ++i) part.SubmitAsync(Invocation{"nap", {}, 0});
  part.WaitIdle();
  EXPECT_EQ(part.QueueDepth(), 0u);
  EXPECT_EQ(part.stats().committed, 50u);
  part.Stop();
}

// ---- Queue order under concurrency ----------------------------------------

/// Registers "rec": records (producer, seq) from its two BIGINT params. A
/// producer of -1 is a gate: it signals `entered` and waits on `opened`.
/// The log is written by whichever thread runs the partition's tasks.
void RegisterRecorder(Partition& part,
                      std::vector<std::pair<int64_t, int64_t>>* log,
                      std::promise<void>* entered = nullptr,
                      std::shared_future<void> opened = {}) {
  ASSERT_TRUE(part.RegisterProcedure(
                      "rec", SpKind::kOltp,
                      std::make_shared<LambdaProcedure>(
                          [log, entered, opened](ProcContext& ctx) {
                            int64_t producer = ctx.params()[0].as_int64();
                            if (producer < 0) {
                              entered->set_value();
                              opened.wait();
                              return Status::OK();
                            }
                            log->push_back(
                                {producer, ctx.params()[1].as_int64()});
                            return Status::OK();
                          }))
                  .ok());
}

Invocation Rec(int64_t producer, int64_t seq) {
  return Invocation{"rec", {Value::BigInt(producer), Value::BigInt(seq)}, 0};
}

/// Each producer's sequence ran exactly once and in order.
void ExpectPerProducerFifo(const std::vector<std::pair<int64_t, int64_t>>& log,
                           int producers, int per_producer) {
  ASSERT_EQ(log.size(), static_cast<size_t>(producers * per_producer));
  std::vector<int64_t> next(producers, 0);
  for (const auto& [producer, seq] : log) {
    ASSERT_GE(producer, 0);
    ASSERT_LT(producer, producers);
    ASSERT_EQ(seq, next[producer]) << "producer " << producer << " reordered";
    ++next[producer];
  }
}

TEST(QueueOrderTest, PerProducerFifoAcrossSubmitPaths) {
  // Four producers at capacity 8 mix single submits, batches and spills;
  // the worker must see each producer's own sequence in order, once each —
  // the queue-level guarantee behind per-key stream order.
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 3000;
  Partition part(/*partition_id=*/0, /*queue_capacity=*/8);
  std::vector<std::pair<int64_t, int64_t>> log;
  RegisterRecorder(part, &log);
  part.Start();

  std::vector<std::vector<BatchTicketPtr>> tickets(kProducers);
  std::vector<std::vector<BatchTicketPtr>> batches(kProducers);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      int seq = 0;
      for (int round = 0; seq < kPerProducer; ++round) {
        const EnqueuePolicy policy = round % 4 == 3
                                         ? EnqueuePolicy::kSpillWhenFull
                                         : EnqueuePolicy::kBlockWhenFull;
        if (round % 2 == 0) {
          tickets[p].push_back(part.SubmitAsync(Rec(p, seq++), policy));
          continue;
        }
        // Batches of up to 16 (twice the capacity), so a blocking batch
        // always waits for space at least once.
        std::vector<Invocation> batch;
        for (int i = 0; i < 16 && seq < kPerProducer; ++i) {
          batch.push_back(Rec(p, seq++));
        }
        batches[p].push_back(part.SubmitBatchAsync(std::move(batch), policy));
      }
    });
  }
  for (auto& t : producers) t.join();
  for (const auto& per : tickets) {
    for (const BatchTicketPtr& t : per) ASSERT_TRUE(t->Wait()[0].committed());
  }
  for (const auto& per : batches) {
    for (const BatchTicketPtr& b : per) {
      b->Wait();
      EXPECT_TRUE(b->all_committed());
    }
  }
  part.Stop();
  ExpectPerProducerFifo(log, kProducers, kPerProducer);
  EXPECT_GE(part.stats().producer_blocks, 1u);
  EXPECT_EQ(part.QueueDepth(), 0u);
}

TEST(BackpressureTest, StopReleasesProducersBlockedOnFullQueue) {
  // The worker is wedged on a gate with the queue at capacity and three
  // producers blocked. Stop() must release them before the worker can
  // retire anything; every submitted request still runs exactly once and in
  // producer order — ahead of the stop, or in DrainQueueInline after it.
  constexpr int kProducers = 3;
  constexpr int kBlocked = 6;  // per producer, submitted while blocking
  constexpr int kLate = 2;     // per producer, submitted once Stop() began
  constexpr int kPerProducer = kBlocked + kLate;
  Partition part(/*partition_id=*/0, /*queue_capacity=*/4);
  std::vector<std::pair<int64_t, int64_t>> log;
  std::promise<void> entered;
  std::promise<void> gate;
  RegisterRecorder(part, &log, &entered, gate.get_future().share());
  part.Start();

  BatchTicketPtr gate_ticket = part.SubmitAsync(Rec(-1, 0));
  entered.get_future().wait();

  std::vector<std::vector<BatchTicketPtr>> tickets(kProducers);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int s = 0; s < kBlocked; ++s) {
        tickets[p].push_back(part.SubmitAsync(Rec(p, s)));
      }
    });
  }
  // Depth stays at the capacity while the gate is shut, so each producer
  // blocks exactly once.
  while (part.stats().producer_blocks < kProducers) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(part.QueueDepth(), 4u);

  std::thread stopper([&] { part.Stop(); });
  // The producers finish while the worker is still on the gate.
  for (auto& t : producers) t.join();
  // Late submits land behind the stop sentinel once Stop() has queued it
  // (the pause makes that the likely order; either order is correct). The
  // worker hands them back to the queue for DrainQueueInline.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  for (int p = 0; p < kProducers; ++p) {
    for (int s = kBlocked; s < kPerProducer; ++s) {
      tickets[p].push_back(part.SubmitAsync(Rec(p, s)));
    }
  }
  gate.set_value();
  stopper.join();
  EXPECT_FALSE(part.running());
  part.DrainQueueInline();

  ASSERT_TRUE(gate_ticket->Wait()[0].committed());
  for (const auto& per : tickets) {
    ASSERT_EQ(per.size(), static_cast<size_t>(kPerProducer));
    for (const BatchTicketPtr& t : per) {
      ASSERT_TRUE(t->TryWait());
      EXPECT_TRUE(t->outcome(0).committed());
    }
  }
  ExpectPerProducerFifo(log, kProducers, kPerProducer);
  EXPECT_EQ(part.QueueDepth(), 0u);
}

// ---- EnqueueFront fast-track -----------------------------------------------

TEST(FastTrackTest, EnqueueFrontPreemptsFullQueue) {
  // Fill the queue past capacity (no producer waits, since the worker is
  // not running), then fast-track one invocation from a commit hook. The
  // front-enqueued item must run before every backlogged request, and the
  // backlog must still execute in FIFO order.
  Partition part(/*partition_id=*/0, /*queue_capacity=*/4);
  std::vector<int64_t> order;
  ASSERT_TRUE(part.RegisterProcedure(
                      "recorder", SpKind::kOltp,
                      std::make_shared<LambdaProcedure>([&](ProcContext& ctx) {
                        order.push_back(ctx.params()[0].as_int64());
                        return Status::OK();
                      }))
                  .ok());
  bool triggered = false;
  part.AddCommitHook([&](Partition& p, const TransactionExecution& te) {
    if (te.proc_name() == "recorder" && !triggered) {
      triggered = true;
      p.EnqueueFront(Invocation{"recorder", {Value::BigInt(-1)}, 0});
    }
  });
  // 8 submits into a capacity-4 queue: 4 of them past the capacity.
  for (int i = 0; i < 8; ++i) {
    part.SubmitAsync(Invocation{"recorder", {Value::BigInt(i)}, 0});
  }
  EXPECT_GE(part.QueueDepth(), 8u);
  part.DrainQueueInline();
  // First client request runs, its hook front-enqueues -1, which preempts
  // the remaining backlog; the rest keep FIFO order.
  ASSERT_EQ(order.size(), 9u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], -1);
  for (int i = 2; i < 9; ++i) EXPECT_EQ(order[i], i - 1);
}

// ---- Batched injection end to end ------------------------------------------

TEST(BatchInjectTest, StreamInjectorBatchAssignsConsecutiveIds) {
  SStore store;
  std::vector<int64_t> batch_ids;
  ASSERT_TRUE(store.partition()
                  .RegisterProcedure("in", SpKind::kBorder,
                                     std::make_shared<LambdaProcedure>(
                                         [&batch_ids](ProcContext& ctx) {
                                           batch_ids.push_back(ctx.batch_id());
                                           return Status::OK();
                                         }))
                  .ok());
  store.Start();
  StreamInjector injector(&store.partition(), "in");
  std::vector<Tuple> first = {{Value::BigInt(10)}, {Value::BigInt(11)}};
  std::vector<Tuple> second = {{Value::BigInt(12)}, {Value::BigInt(13)},
                               {Value::BigInt(14)}};
  BatchTicketPtr t1 = injector.InjectBatchAsync(std::move(first));
  BatchTicketPtr t2 = injector.InjectBatchAsync(std::move(second));
  t1->Wait();
  t2->Wait();
  EXPECT_TRUE(t1->all_committed());
  EXPECT_TRUE(t2->all_committed());
  store.Stop();
  EXPECT_EQ(batch_ids, (std::vector<int64_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(injector.batches_injected(), 5);
}

TEST(BatchInjectTest, ClusterInjectorBatchRoutesByKeyAndKeepsLaneOrder) {
  Cluster cluster(4);
  Topology topo("ingest");
  std::vector<std::vector<std::pair<int64_t, int64_t>>> seen(4);
  topo.RegisterProcedure(
      "ingest", SpKind::kBorder,
      Topology::ProcedureFactory([&seen](SStore& s) {
        size_t p = static_cast<size_t>(s.partition().partition_id());
        return std::make_shared<LambdaProcedure>([&seen, p](ProcContext& ctx) {
          seen[p].push_back(
              {ctx.params()[0].as_int64(), ctx.batch_id()});
          return Status::OK();
        });
      }));
  ASSERT_TRUE(cluster.Deploy(topo).ok());
  cluster.Start();

  ClusterInjector::Options opts;
  opts.key_column = 0;
  ClusterInjector injector(&cluster, "ingest", opts);

  constexpr int kKeys = 16;
  constexpr int kRounds = 10;
  for (int r = 0; r < kRounds; ++r) {
    std::vector<Tuple> batch;
    for (int k = 0; k < kKeys; ++k) {
      batch.push_back({Value::BigInt(k), Value::BigInt(r)});
    }
    size_t committed = 0;
    for (const BatchTicketPtr& t :
         injector.InjectBatchAsync(std::move(batch))) {
      t->Wait();
      committed += t->committed();
    }
    EXPECT_EQ(committed, static_cast<size_t>(kKeys));
  }
  cluster.WaitIdle();
  cluster.Stop();

  EXPECT_EQ(injector.batches_injected(), kKeys * kRounds);
  // Each partition saw its keys with strictly ascending batch ids, and every
  // key landed where the PartitionMap says it belongs.
  size_t total = 0;
  for (size_t p = 0; p < 4; ++p) {
    int64_t last_id = 0;
    for (const auto& [key, batch_id] : seen[p]) {
      EXPECT_EQ(cluster.PartitionOf(Value::BigInt(key)), p);
      EXPECT_GT(batch_id, last_id);
      last_id = batch_id;
      ++total;
    }
  }
  EXPECT_EQ(total, static_cast<size_t>(kKeys * kRounds));
}

// ---- ClusterStats watermarks ----------------------------------------------

TEST(ClusterStatsTest, QueueWatermarksAndBlocksSurface) {
  Cluster::Options copts;
  copts.num_partitions = 2;
  copts.queue_capacity = 8;
  Cluster cluster(copts);
  Topology topo("nap");
  topo.RegisterProcedure("nap", SpKind::kOltp,
                         std::make_shared<LambdaProcedure>([](ProcContext&) {
                           std::this_thread::sleep_for(
                               std::chrono::microseconds(50));
                           return Status::OK();
                         }));
  ASSERT_TRUE(cluster.Deploy(topo).ok());
  cluster.Start();
  std::vector<BatchTicketPtr> tickets;
  for (size_t p = 0; p < cluster.num_partitions(); ++p) {
    std::vector<Invocation> batch;
    for (int i = 0; i < 64; ++i) batch.push_back(Invocation{"nap", {}, 0});
    tickets.push_back(cluster.SubmitBatchToPartition(p, std::move(batch)));
  }
  for (auto& t : tickets) t->Wait();
  cluster.WaitIdle();

  ClusterStats stats = cluster.GatherStats();
  EXPECT_EQ(stats.committed(), 128u);
  // 64 requests against a queue of 8: the watermark must show a deep queue
  // and the producer must have blocked at least once.
  EXPECT_GE(stats.max_queue_high_watermark(), 8u);
  EXPECT_GE(stats.producer_blocks(), 1u);
  ASSERT_EQ(stats.per_partition.size(), 2u);
  for (const Partition::Stats& ps : stats.per_partition) {
    EXPECT_GE(ps.queue_high_watermark, 8u);
  }
  cluster.Stop();
}

}  // namespace
}  // namespace sstore
