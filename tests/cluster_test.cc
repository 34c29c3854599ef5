#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/cluster_injector.h"
#include "cluster/partition_map.h"
#include "query/expr.h"
#include "workloads/linear_road.h"

namespace sstore {
namespace {

Schema KeyValSchema() {
  return Schema({{"key", ValueType::kBigInt}, {"seq", ValueType::kBigInt}});
}

Tuple KeyVal(int64_t key, int64_t seq) {
  return {Value::BigInt(key), Value::BigInt(seq)};
}

Workflow KeyedChainWorkflow() {
  Workflow wf("keyed_chain");
  WorkflowNode n1, n2;
  n1.proc = "ingest";
  n1.kind = SpKind::kBorder;
  n1.output_streams = {"in"};
  n2.proc = "apply";
  n2.kind = SpKind::kInterior;
  n2.input_streams = {"in"};
  (void)wf.AddNode(n1);
  (void)wf.AddNode(n2);
  return wf;
}

/// Border "ingest" emits (key, seq) to stream "in"; interior "apply" copies
/// the batch into table "sink". The canonical keyed chain used below.
Topology BuildKeyedChain() {
  Topology topo("keyed_chain");
  topo.DefineStream("in", KeyValSchema())
      .CreateTable("sink", KeyValSchema())
      .RegisterProcedure(
          "ingest", SpKind::kBorder,
          std::make_shared<LambdaProcedure>([](ProcContext& ctx) {
            return ctx.EmitToStream("in", {ctx.params()});
          }))
      .RegisterProcedure(
          "apply", SpKind::kInterior,
          [](SStore& store) -> std::shared_ptr<StoredProcedure> {
            SStore* bound = &store;
            return std::make_shared<LambdaProcedure>([bound](ProcContext& ctx) {
              SSTORE_ASSIGN_OR_RETURN(
                  std::vector<Tuple> rows,
                  bound->streams().BatchContents("in", ctx.batch_id()));
              SSTORE_ASSIGN_OR_RETURN(Table * sink, ctx.table("sink"));
              for (const Tuple& row : rows) {
                SSTORE_ASSIGN_OR_RETURN(RowId rid, ctx.exec().Insert(sink, row));
                (void)rid;
              }
              return Status::OK();
            });
          })
      .AddWorkflow(KeyedChainWorkflow());
  return topo;
}

std::vector<Tuple> SinkRows(SStore& store) {
  Table* sink = *store.catalog().GetTable("sink");
  Executor exec;
  ScanSpec spec;
  spec.table = sink;
  return *exec.Scan(spec);
}

// ---- PartitionMap ----

TEST(PartitionMapTest, HashRoutingIsDeterministic) {
  PartitionMap a(4), b(4);
  for (int64_t k = 0; k < 1000; ++k) {
    Value key = Value::BigInt(k * 7919);
    size_t p = a.PartitionOf(key);
    EXPECT_LT(p, 4u);
    // Same key, same partition — across calls and across map instances.
    EXPECT_EQ(p, a.PartitionOf(key));
    EXPECT_EQ(p, b.PartitionOf(key));
  }
  EXPECT_EQ(a.PartitionOf(Value::String("road-7")),
            b.PartitionOf(Value::String("road-7")));
}

TEST(PartitionMapTest, HashRoutingCoversAllPartitions) {
  PartitionMap map(4);
  std::set<size_t> seen;
  for (int64_t k = 0; k < 1000; ++k) seen.insert(map.PartitionOf(Value::BigInt(k)));
  EXPECT_EQ(seen.size(), 4u);
}

TEST(PartitionMapTest, ModuloRoutingIsExactForIntegers) {
  PartitionMap map(4, PartitionMap::Mode::kModulo);
  for (int64_t k = 0; k < 64; ++k) {
    EXPECT_EQ(map.PartitionOf(Value::BigInt(k)), static_cast<size_t>(k % 4));
    EXPECT_EQ(map.PartitionOfId(k), static_cast<size_t>(k % 4));
  }
  // Non-integer keys fall back to hashing but stay deterministic.
  size_t p = map.PartitionOf(Value::String("x"));
  EXPECT_LT(p, 4u);
  EXPECT_EQ(p, map.PartitionOf(Value::String("x")));
}

TEST(PartitionMapTest, ZeroPartitionsClampsToOne) {
  PartitionMap map(0);
  EXPECT_EQ(map.num_partitions(), 1u);
  EXPECT_EQ(map.PartitionOf(Value::BigInt(123)), 0u);
}

// ---- Topology::ApplyTo on standalone stores ----

// A standalone SStore is partition 0 of a one-partition deployment: the
// path LinearRoadApp::Setup and examples/quickstart.cpp take.
TEST(TopologyApplyTest, AppliesIdenticallyToFreshStores) {
  Topology topo = BuildKeyedChain();
  EXPECT_FALSE(topo.Describe().empty());

  SStore a, b;
  ASSERT_TRUE(topo.ApplyTo(a, 0).ok());
  ASSERT_TRUE(topo.ApplyTo(b, 0).ok());
  for (SStore* store : {&a, &b}) {
    EXPECT_TRUE(store->streams().HasStream("in"));
    EXPECT_TRUE(store->catalog().HasTable("sink"));
    EXPECT_TRUE(store->partition().HasProcedure("ingest"));
    EXPECT_TRUE(store->partition().HasProcedure("apply"));
    EXPECT_EQ(store->triggers().ConsumersOf("in"),
              std::vector<std::string>{"apply"});
  }
}

TEST(TopologyApplyTest, ReapplyToSameStoreFails) {
  Topology topo = BuildKeyedChain();
  SStore store;
  ASSERT_TRUE(topo.ApplyTo(store, 0).ok());
  Status again = topo.ApplyTo(store, 0);
  EXPECT_EQ(again.code(), StatusCode::kAlreadyExists);
}

TEST(TopologyApplyTest, FailingStepReportsItsDescription) {
  Topology topo("t");
  topo.CreateIndex("no_such_table", "pk", {"x"}, true);
  SStore store;
  Status s = topo.ApplyTo(store, 0);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("no_such_table"), std::string::npos);
}

TEST(TopologyApplyTest, NullProcedureFactoryRejected) {
  Topology topo("t");
  topo.RegisterProcedure("ghost", SpKind::kBorder,
                         [](SStore&) -> std::shared_ptr<StoredProcedure> {
                           return nullptr;
                         });
  SStore store;
  EXPECT_EQ(topo.ApplyTo(store, 0).code(), StatusCode::kInvalidArgument);
}

// ---- Cluster ----

TEST(ClusterTest, DeployPutsIdenticalWorkflowOnEveryPartition) {
  Cluster cluster(4);
  ASSERT_EQ(cluster.num_partitions(), 4u);
  ASSERT_TRUE(cluster.Deploy(BuildKeyedChain()).ok());
  for (size_t p = 0; p < cluster.num_partitions(); ++p) {
    SStore& store = cluster.store(p);
    EXPECT_EQ(store.partition().partition_id(), static_cast<int>(p));
    EXPECT_TRUE(store.streams().HasStream("in"));
    EXPECT_TRUE(store.catalog().HasTable("sink"));
    EXPECT_TRUE(store.partition().HasProcedure("ingest"));
    EXPECT_TRUE(store.partition().HasProcedure("apply"));
    EXPECT_EQ(store.triggers().ConsumersOf("in"),
              std::vector<std::string>{"apply"});
  }
}

TEST(ClusterTest, DeployFailureNamesThePartition) {
  Cluster cluster(2);
  Topology bad("bad");
  bad.CreateIndex("missing", "pk", {"x"}, true);
  Status s = cluster.Deploy(bad);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("partition 0"), std::string::npos);
}

std::string MakeDir(const std::string& name) {
  static const std::string pid = std::to_string(::getpid());
  std::string path = ::testing::TempDir() + "/sstore_cluster_" + pid + "_" +
                     name;
  ::mkdir(path.c_str(), 0755);
  return path;
}

// ---- A command log that cannot open fails loudly ----

TEST(ClusterDurabilityTest, DeployFailsWhenACommandLogCannotOpen) {
  Cluster::Options opts;
  opts.num_partitions = 2;
  // Under a directory that does not exist: no partition log can open.
  opts.log_dir = MakeDir("log_open") + "/missing/logs";
  Cluster cluster(opts);
  Status st = cluster.Deploy(BuildKeyedChain());
  ASSERT_EQ(st.code(), StatusCode::kIOError) << st.ToString();
  EXPECT_NE(st.message().find(opts.log_dir), std::string::npos)
      << st.ToString();
  // Nothing was applied: no partition has the chain's table.
  for (size_t p = 0; p < 2; ++p) {
    EXPECT_FALSE(cluster.store(p).catalog().GetTable("sink").ok());
  }
}

TEST(ClusterDurabilityTest, SplitFailsBeforeCutoverWhenTargetLogCannotOpen) {
  static int run = 0;  // a fresh directory per run (--gtest_repeat)
  const std::string name = "split_log_" + std::to_string(run++);
  std::string base = MakeDir(name);
  std::string log_dir = MakeDir(name + "/logs");
  std::string ckpt_dir = MakeDir(name + "/ckpt");
  Cluster::Options opts;
  opts.num_partitions = 1;
  opts.log_dir = log_dir;
  opts.log_sync = false;
  Cluster cluster(opts);
  ASSERT_TRUE(cluster.Deploy(BuildKeyedChain()).ok());
  const uint64_t version = cluster.partition_map().version();
  // The open log keeps its descriptor, but the split target's log cannot
  // be created once its directory is gone.
  ASSERT_EQ(std::rename(log_dir.c_str(), (base + "/moved").c_str()), 0);

  RebalancePlan plan;
  plan.kind = RebalancePlan::Kind::kSplit;
  plan.source = 0;
  plan.keyed_tables = {{"sink", 0}};
  plan.checkpoint_dir = ckpt_dir;
  Status st = cluster.Rebalance(plan);
  ASSERT_EQ(st.code(), StatusCode::kIOError) << st.ToString();
  EXPECT_NE(st.message().find(log_dir), std::string::npos) << st.ToString();
  // Failed before the cutover: same partitions, same map, no manifest.
  EXPECT_EQ(cluster.num_partitions(), 1u);
  EXPECT_EQ(cluster.partition_map().version(), version);
  struct stat manifest;
  EXPECT_NE(::stat((ckpt_dir + "/CHECKPOINT").c_str(), &manifest), 0);
}

TEST(ClusterDurabilityTest, CommitAfterFailedRotationAborts) {
  static int run = 0;  // a fresh directory per run (--gtest_repeat)
  const std::string name = "rotate_fail_" + std::to_string(run++);
  std::string base = MakeDir(name);
  std::string log_dir = MakeDir(name + "/logs");
  std::string ckpt_dir = MakeDir(name + "/ckpt");
  Cluster::Options opts;
  opts.num_partitions = 1;
  opts.log_dir = log_dir;
  opts.log_sync = false;
  Cluster cluster(opts);
  ASSERT_TRUE(cluster.Deploy(BuildKeyedChain()).ok());
  cluster.Start();
  ASSERT_TRUE(
      cluster.ExecuteSync("ingest", KeyVal(1, 1), Value::BigInt(1), 1)
          .committed());
  cluster.WaitIdle();
  // The next epoch's log cannot be created once its directory is gone.
  ASSERT_EQ(std::rename(log_dir.c_str(), (base + "/moved").c_str()), 0);
  Status st = cluster.Checkpoint(ckpt_dir);
  ASSERT_EQ(st.code(), StatusCode::kIOError) << st.ToString();
  EXPECT_NE(st.message().find("partition-0.e1.log"), std::string::npos)
      << st.ToString();

  // The manifest already names epoch 1, so a commit acked now would be lost
  // by a crash. The old log stays attached but closed: commits abort.
  EXPECT_NE(cluster.partition(0).command_log(), nullptr);
  TxnOutcome next =
      cluster.ExecuteSync("ingest", KeyVal(2, 2), Value::BigInt(2), 2);
  EXPECT_FALSE(next.committed());
  EXPECT_EQ(next.status.code(), StatusCode::kIOError)
      << next.status.ToString();
  EXPECT_NE(next.status.message().find("command log is closed"),
            std::string::npos)
      << next.status.ToString();
  cluster.WaitIdle();
  cluster.Stop();
  EXPECT_EQ(SinkRows(cluster.store(0)).size(), 1u);
}

TEST(ClusterDurabilityTest, StatsReadersRaceLogRotationSafely) {
  // A stats reader (the checkpointer's log-bytes poll, a kStats request)
  // runs while checkpoints rotate every partition's log: it must neither
  // touch a log being replaced nor see a rotation half done.
  Cluster::Options opts;
  opts.num_partitions = 2;
  opts.log_dir = MakeDir("rotate_race_logs");
  opts.log_sync = false;
  std::string ckpt_dir = MakeDir("rotate_race_ckpt");
  Cluster cluster(opts);
  ASSERT_TRUE(cluster.Deploy(BuildKeyedChain()).ok());
  cluster.Start();
  std::atomic<bool> done{false};
  std::atomic<bool> monotonic{true};
  std::thread reader([&] {
    uint64_t last = 0;
    while (!done.load()) {
      uint64_t now = cluster.GatherStats().log.records_appended;
      if (now < last) monotonic = false;
      last = now;
    }
  });
  int64_t batch_id = 1;
  for (int round = 0; round < 20; ++round) {
    for (int64_t key = 0; key < 4; ++key) {
      EXPECT_TRUE(cluster
                      .ExecuteSync("ingest", KeyVal(key, round),
                                   Value::BigInt(key), batch_id++)
                      .committed());
    }
    EXPECT_TRUE(cluster.Checkpoint(ckpt_dir).ok());
  }
  done = true;
  reader.join();
  cluster.WaitIdle();
  cluster.Stop();
  EXPECT_TRUE(monotonic.load());
  // 80 border + 80 interior records, plus two checkpoint marks per
  // partition per checkpoint (the cut and the rotated epoch's first record).
  EXPECT_EQ(cluster.GatherStats().log.records_appended, 160u + 20u * 2u * 2u);
}

TEST(ClusterTest, ExecuteSyncRoutesToTheKeyOwner) {
  Cluster cluster(4);
  ASSERT_TRUE(cluster.Deploy(BuildKeyedChain()).ok());
  cluster.Start();
  Value key = Value::BigInt(42);
  size_t owner = cluster.PartitionOf(key);
  TxnOutcome out = cluster.ExecuteSync("ingest", KeyVal(42, 0), key, 1);
  ASSERT_TRUE(out.committed());
  cluster.WaitIdle();
  cluster.Stop();
  for (size_t p = 0; p < cluster.num_partitions(); ++p) {
    size_t expected = p == owner ? 1u : 0u;
    EXPECT_EQ(SinkRows(cluster.store(p)).size(), expected) << "partition " << p;
  }
}

TEST(ClusterTest, ExecuteOnAllScattersToEveryPartition) {
  Cluster cluster(3);
  ASSERT_TRUE(cluster.Deploy(BuildKeyedChain()).ok());
  cluster.Start();
  std::vector<TxnOutcome> outs = cluster.ExecuteOnAll("ingest", KeyVal(0, 0));
  ASSERT_EQ(outs.size(), 3u);
  for (const TxnOutcome& out : outs) EXPECT_TRUE(out.committed());
  cluster.WaitIdle();
  cluster.Stop();
  for (size_t p = 0; p < 3; ++p) {
    EXPECT_EQ(SinkRows(cluster.store(p)).size(), 1u);
  }
}

/// The acceptance scenario: a 4-partition cluster processes a keyed
/// workload; per-key ordering is preserved, every partition's commit
/// schedule satisfies the workflow/stream-order constraints, and the
/// aggregate committed count matches the injected batch count.
TEST(ClusterTest, KeyedWorkloadPreservesPerKeyOrdering) {
  constexpr int kKeys = 8;
  constexpr int kSeqsPerKey = 50;

  Cluster cluster(4);
  ASSERT_TRUE(cluster.Deploy(BuildKeyedChain()).ok());

  // Record each partition's commit schedule (hooks run on that partition's
  // single worker thread; read only after Stop()).
  std::vector<std::vector<ScheduleEvent>> schedules(cluster.num_partitions());
  for (size_t p = 0; p < cluster.num_partitions(); ++p) {
    cluster.partition(p).AddCommitHook(
        [&schedules, p](Partition&, const TransactionExecution& te) {
          schedules[p].push_back({te.proc_name(), te.batch_id()});
        });
  }

  cluster.Start();
  ClusterInjector::Options opts;
  opts.key_column = 0;
  ClusterInjector injector(&cluster, "ingest", opts);
  std::vector<BatchTicketPtr> tickets;
  for (int seq = 0; seq < kSeqsPerKey; ++seq) {
    for (int key = 0; key < kKeys; ++key) {
      tickets.push_back(injector.InjectAsync(KeyVal(key, seq)));
    }
  }
  for (auto& t : tickets) ASSERT_TRUE(t->Wait()[0].committed());
  cluster.WaitIdle();
  cluster.Stop();

  // Aggregate committed == injected batches: every batch runs the border TE
  // plus exactly one PE-triggered interior TE.
  constexpr uint64_t kBatches = kKeys * kSeqsPerKey;
  EXPECT_EQ(injector.batches_injected(), static_cast<int64_t>(kBatches));
  ClusterStats stats = cluster.GatherStats();
  EXPECT_EQ(stats.committed(), 2 * kBatches);
  EXPECT_EQ(stats.txn.client_requests, kBatches);
  EXPECT_EQ(stats.txn.internal_requests, kBatches);
  EXPECT_EQ(stats.aborted(), 0u);

  // Each partition's schedule respects the workflow; a key's rows live on
  // exactly its owning partition, in injection order.
  Workflow wf = KeyedChainWorkflow();
  std::map<int64_t, std::vector<int64_t>> seqs_by_key;
  std::map<int64_t, std::set<size_t>> partitions_by_key;
  uint64_t total_rows = 0;
  for (size_t p = 0; p < cluster.num_partitions(); ++p) {
    EXPECT_TRUE(ValidateSchedule(wf, schedules[p]).ok()) << "partition " << p;
    for (const Tuple& row : SinkRows(cluster.store(p))) {
      int64_t key = row[0].as_int64();
      seqs_by_key[key].push_back(row[1].as_int64());
      partitions_by_key[key].insert(p);
      ++total_rows;
    }
  }
  EXPECT_EQ(total_rows, kBatches);
  ASSERT_EQ(seqs_by_key.size(), static_cast<size_t>(kKeys));
  for (const auto& [key, seqs] : seqs_by_key) {
    EXPECT_EQ(partitions_by_key[key].size(), 1u) << "key " << key;
    EXPECT_EQ(*partitions_by_key[key].begin(),
              cluster.PartitionOf(Value::BigInt(key)))
        << "key " << key;
    ASSERT_EQ(seqs.size(), static_cast<size_t>(kSeqsPerKey)) << "key " << key;
    for (int i = 0; i < kSeqsPerKey; ++i) {
      EXPECT_EQ(seqs[i], i) << "key " << key;
    }
  }
}

TEST(ClusterInjectorTest, ConcurrentProducersKeepPerPartitionBatchIdsInOrder) {
  constexpr int kThreads = 4;
  constexpr int kKeysPerThread = 8;
  constexpr int kSeqsPerKey = 25;

  Cluster::Options cluster_opts;
  cluster_opts.num_partitions = 4;
  cluster_opts.queue_capacity = 64;
  Cluster cluster(cluster_opts);
  ASSERT_TRUE(cluster.Deploy(BuildKeyedChain()).ok());
  std::vector<std::vector<int64_t>> border_batch_ids(cluster.num_partitions());
  for (size_t p = 0; p < cluster.num_partitions(); ++p) {
    cluster.partition(p).AddCommitHook(
        [&border_batch_ids, p](Partition&, const TransactionExecution& te) {
          if (te.proc_name() == "ingest") {
            border_batch_ids[p].push_back(te.batch_id());
          }
        });
  }
  cluster.Start();

  ClusterInjector::Options opts;
  opts.key_column = 0;
  ClusterInjector injector(&cluster, "ingest", opts);
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&injector, t] {
      // Disjoint key ranges per thread; keys from different threads still
      // collide on partitions, which is what exercises the lane locking.
      for (int seq = 0; seq < kSeqsPerKey; ++seq) {
        for (int k = 0; k < kKeysPerThread; ++k) {
          int64_t key = t * kKeysPerThread + k;
          injector.InjectAsync(KeyVal(key, seq));
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  cluster.WaitIdle();
  cluster.Stop();

  // Within every partition the border TEs committed with batch ids
  // 1, 2, ..., N — allocation order and queue order agree even under
  // producer concurrency (the stream-order constraint per partition).
  int64_t total = 0;
  for (size_t p = 0; p < cluster.num_partitions(); ++p) {
    const std::vector<int64_t>& ids = border_batch_ids[p];
    for (size_t i = 0; i < ids.size(); ++i) {
      ASSERT_EQ(ids[i], static_cast<int64_t>(i + 1)) << "partition " << p;
    }
    EXPECT_EQ(injector.batches_injected(p), static_cast<int64_t>(ids.size()));
    total += static_cast<int64_t>(ids.size());
  }
  EXPECT_EQ(total, kThreads * kKeysPerThread * kSeqsPerKey);
  EXPECT_EQ(injector.batches_injected(), total);
}

TEST(ClusterInjectorTest, DefaultInjectorIsBoundedByQueueCapacity) {
  // An injector with default Options has no depth knob of its own: the
  // partition's queue_capacity bounds it like every other producer. The
  // worker parks on its first border transaction, so nothing drains until
  // the gate opens and unbounded injection would pile all 256 requests up.
  constexpr size_t kCapacity = 8;
  constexpr int kProducers = 4;
  constexpr int kInjectsPerProducer = 64;
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  Topology topo("gated");
  topo.RegisterProcedure("ingest", SpKind::kBorder,
                         std::make_shared<LambdaProcedure>(
                             [opened](ProcContext&) {
                               opened.wait();
                               return Status::OK();
                             }));
  Cluster::Options cluster_opts;
  cluster_opts.queue_capacity = kCapacity;
  Cluster cluster(cluster_opts);
  ASSERT_TRUE(cluster.Deploy(topo).ok());
  cluster.Start();

  ClusterInjector injector(&cluster, "ingest");
  Partition& part = cluster.partition(0);
  std::atomic<size_t> max_depth{0};
  std::vector<std::vector<BatchTicketPtr>> tickets(kProducers);
  std::vector<std::thread> producers;
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      for (int i = 0; i < kInjectsPerProducer; ++i) {
        tickets[t].push_back(injector.InjectAsync(KeyVal(i, t)));
        size_t depth = part.QueueDepth();
        size_t seen = max_depth.load();
        while (depth > seen && !max_depth.compare_exchange_weak(seen, depth)) {
        }
      }
    });
  }
  // Let the producers run into the full queue, then release the worker.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_LE(part.QueueDepth(), kCapacity + kProducers - 1);
  gate.set_value();
  for (auto& t : producers) t.join();
  for (auto& list : tickets) {
    for (auto& ticket : list) ASSERT_TRUE(ticket->Wait()[0].committed());
  }
  cluster.WaitIdle();
  cluster.Stop();

  // Each producer checks for room and then enqueues without holding the
  // queue lock in between, so producers that pass the check together may
  // each land one request past the capacity — never more.
  EXPECT_LE(max_depth.load(), kCapacity + kProducers - 1);
  EXPECT_GE(cluster.GatherStats().producer_blocks(), 1u);
  EXPECT_EQ(injector.batches_injected(), kProducers * kInjectsPerProducer);
}

TEST(ClusterStatsTest, AggregationSumsPerPartition) {
  Cluster cluster(4);
  ASSERT_TRUE(cluster.Deploy(BuildKeyedChain()).ok());
  cluster.Start();
  ClusterInjector::Options opts;
  opts.key_column = 0;
  ClusterInjector injector(&cluster, "ingest", opts);
  std::vector<BatchTicketPtr> tickets;
  for (int i = 0; i < 100; ++i) tickets.push_back(injector.InjectAsync(KeyVal(i, i)));
  for (auto& t : tickets) ASSERT_TRUE(t->Wait()[0].committed());
  cluster.WaitIdle();

  ClusterStats stats = cluster.GatherStats();
  ASSERT_EQ(stats.per_partition.size(), 4u);
  ASSERT_EQ(stats.per_partition_engine.size(), 4u);
  uint64_t committed_sum = 0, gc_sum = 0;
  for (size_t p = 0; p < 4; ++p) {
    committed_sum += stats.per_partition[p].committed;
    gc_sum += stats.per_partition_engine[p].gc_deleted_rows;
  }
  EXPECT_EQ(stats.committed(), committed_sum);
  EXPECT_EQ(stats.committed(), 200u);  // 100 border + 100 interior
  EXPECT_EQ(stats.engine.gc_deleted_rows, gc_sum);
  cluster.Stop();
}

TEST(ClusterTest, LinearRoadDeploymentRoutesByXway) {
  // The paper's partitioning scheme end to end: the Linear Road topology on a
  // 2-partition cluster, reports routed by the x-way column.
  Cluster::Options opts;
  opts.num_partitions = 2;
  opts.routing = PartitionMap::Mode::kModulo;
  Cluster cluster(opts);
  LinearRoadConfig config;
  config.num_xways = 4;
  config.vehicles_per_xway = 10;
  config.duration_sec = 5;
  ASSERT_TRUE(cluster.Deploy(BuildLinearRoadDeployment(config)).ok());
  cluster.Start();

  ClusterInjector::Options inj_opts;
  inj_opts.key_column = 2;  // xway
  ClusterInjector injector(&cluster, "position_report", inj_opts);
  LinearRoadGenerator gen(config);
  std::vector<BatchTicketPtr> tickets;
  int64_t reports = 0;
  for (int s = 0; s < config.duration_sec; ++s) {
    for (const PositionReport& r : gen.NextSecond()) {
      tickets.push_back(injector.InjectAsync(r.ToTuple()));
      ++reports;
    }
  }
  for (auto& t : tickets) ASSERT_TRUE(t->Wait()[0].committed());
  cluster.WaitIdle();
  cluster.Stop();

  // Every partition holds exactly the vehicles of its own x-ways.
  Executor exec;
  uint64_t vehicles_total = 0;
  for (size_t p = 0; p < 2; ++p) {
    Table* vehicles = *cluster.store(p).catalog().GetTable("lr_vehicles");
    ScanSpec spec;
    spec.table = vehicles;
    std::vector<Tuple> rows = *exec.Scan(spec);
    for (const Tuple& row : rows) {
      EXPECT_EQ(static_cast<size_t>(row[1].as_int64() % 2), p);
      ++vehicles_total;
    }
  }
  EXPECT_EQ(vehicles_total,
            static_cast<uint64_t>(config.num_xways * config.vehicles_per_xway));
  EXPECT_GE(cluster.GatherStats().committed(), static_cast<uint64_t>(reports));
}

}  // namespace
}  // namespace sstore
