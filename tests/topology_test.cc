// Placement-aware topology deployment: Topology validation and channel
// derivation, sliced deployment, cross-partition stream channels (ordering
// per paper §2.2, exactly-once across kill-and-recover), Describe goldens,
// and command-log rotation at the coordinated checkpoint.

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/cluster_injector.h"
#include "cluster/stream_channel.h"
#include "cluster/topology.h"
#include "query/expr.h"
#include "streaming/injector.h"
#include "workloads/linear_road.h"

namespace sstore {
namespace {

std::string TempPath(const std::string& name) {
  static const std::string pid = std::to_string(::getpid());
  return ::testing::TempDir() + "/sstore_topo_" + pid + "_" + name;
}

std::string MakeDir(const std::string& name) {
  std::string path = TempPath(name);
  ::mkdir(path.c_str(), 0755);
  return path;
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

Schema KeyValSchema() {
  return Schema({{"key", ValueType::kBigInt}, {"val", ValueType::kBigInt}});
}

Tuple KeyVal(int64_t key, int64_t val) {
  return {Value::BigInt(key), Value::BigInt(val)};
}

WorkflowNode Node(std::string proc, SpKind kind,
                  std::vector<std::string> inputs,
                  std::vector<std::string> outputs) {
  WorkflowNode n;
  n.proc = std::move(proc);
  n.kind = kind;
  n.input_streams = std::move(inputs);
  n.output_streams = std::move(outputs);
  return n;
}

/// Three-stage pipeline: ingest (border) emits into sA; "middle" adds 100 to
/// the value and re-emits into sB; "last" copies the batch into table "sink"
/// and the terminal stream "sOut". The canonical placed workflow under test.
Topology PipelineTopology() {
  Topology topo("pipeline");
  topo.DefineStream("sA", KeyValSchema())
      .DefineStream("sB", KeyValSchema())
      .DefineStream("sOut", KeyValSchema())
      .CreateTable("sink", KeyValSchema())
      .RegisterProcedure(
          "ingest", SpKind::kBorder,
          std::make_shared<LambdaProcedure>([](ProcContext& ctx) {
            return ctx.EmitToStream("sA", {ctx.params()});
          }))
      .RegisterProcedure(
          "middle", SpKind::kInterior,
          [](SStore& store) -> std::shared_ptr<StoredProcedure> {
            SStore* bound = &store;
            return std::make_shared<LambdaProcedure>([bound](ProcContext& ctx) {
              SSTORE_ASSIGN_OR_RETURN(
                  std::vector<Tuple> rows,
                  bound->streams().BatchContents("sA", ctx.batch_id()));
              for (Tuple& row : rows) {
                row[1] = Value::BigInt(row[1].as_int64() + 100);
              }
              return ctx.EmitToStream("sB", std::move(rows));
            });
          })
      .RegisterProcedure(
          "last", SpKind::kInterior,
          [](SStore& store) -> std::shared_ptr<StoredProcedure> {
            SStore* bound = &store;
            return std::make_shared<LambdaProcedure>([bound](ProcContext& ctx) {
              SSTORE_ASSIGN_OR_RETURN(
                  std::vector<Tuple> rows,
                  bound->streams().BatchContents("sB", ctx.batch_id()));
              SSTORE_ASSIGN_OR_RETURN(Table * sink, ctx.table("sink"));
              for (const Tuple& row : rows) {
                SSTORE_ASSIGN_OR_RETURN(RowId rid,
                                        ctx.exec().Insert(sink, row));
                (void)rid;
              }
              return ctx.EmitToStream("sOut", std::move(rows));
            });
          });
  return topo;
}

Topology BuildPipeline(Placement ingest, Placement middle, Placement last) {
  Topology topo = PipelineTopology();
  topo.AddStage(Node("ingest", SpKind::kBorder, {}, {"sA"}), ingest)
      .AddStage(Node("middle", SpKind::kInterior, {"sA"}, {"sB"}), middle)
      .AddStage(Node("last", SpKind::kInterior, {"sB"}, {"sOut"}), last);
  return topo;
}

Result<std::vector<ChannelSpec>> PipelineChannels(Placement ingest,
                                                  Placement middle,
                                                  Placement last) {
  return BuildPipeline(ingest, middle, last).Channels();
}

std::vector<Tuple> SinkRows(SStore& store) {
  Table* sink = *store.catalog().GetTable("sink");
  Executor exec;
  ScanSpec spec;
  spec.table = sink;
  return *exec.Scan(spec);
}

// ---- Validation & channel derivation ----

TEST(TopologyChannelsTest, EverywherePlacementDerivesNoChannels) {
  Result<std::vector<ChannelSpec>> channels =
      PipelineChannels(Placement::Everywhere(), Placement::Everywhere(),
                       Placement::Everywhere());
  ASSERT_TRUE(channels.ok()) << channels.status().ToString();
  EXPECT_TRUE(channels->empty());
}

TEST(TopologyChannelsTest, PinnedChainDerivesOneChannelPerBoundary) {
  Result<std::vector<ChannelSpec>> channels = PipelineChannels(
      Placement::Pinned(0), Placement::Pinned(1), Placement::Pinned(2));
  ASSERT_TRUE(channels.ok()) << channels.status().ToString();
  ASSERT_EQ(channels->size(), 2u);
  EXPECT_EQ((*channels)[0].stream, "sA");
  EXPECT_EQ((*channels)[0].consumer, "middle");
  EXPECT_EQ((*channels)[0].producers, std::vector<std::string>{"ingest"});
  EXPECT_EQ((*channels)[1].stream, "sB");
  EXPECT_EQ((*channels)[1].consumer, "last");
  // Co-located pinned stages need no channel.
  Result<std::vector<ChannelSpec>> colocated = PipelineChannels(
      Placement::Pinned(1), Placement::Pinned(1), Placement::Pinned(2));
  ASSERT_TRUE(colocated.ok());
  ASSERT_EQ(colocated->size(), 1u);
  EXPECT_EQ((*colocated)[0].stream, "sB");
}

TEST(TopologyChannelsTest, KeyPreservingKeyedStagesStayLocal) {
  Result<std::vector<ChannelSpec>> channels = PipelineChannels(
      Placement::Keyed(0), Placement::Keyed(0), Placement::Keyed(0));
  ASSERT_TRUE(channels.ok()) << channels.status().ToString();
  EXPECT_TRUE(channels->empty());
  // Different key columns cross the boundary.
  Result<std::vector<ChannelSpec>> rekeyed = PipelineChannels(
      Placement::Keyed(0), Placement::Keyed(1), Placement::Keyed(1));
  ASSERT_TRUE(rekeyed.ok());
  ASSERT_EQ(rekeyed->size(), 1u);
  EXPECT_EQ((*rekeyed)[0].stream, "sA");
}

TEST(TopologyChannelsTest, RejectsInvalidPlacements) {
  // Place() on an unknown stage.
  {
    Topology topo = PipelineTopology();
    topo.AddStage(Node("ingest", SpKind::kBorder, {}, {"sA"}));
    topo.Place("ghost", Placement::Pinned(1));
    EXPECT_EQ(topo.Channels().status().code(), StatusCode::kNotFound);
  }
  // Stage without a registered procedure.
  {
    Topology topo("t");
    topo.DefineStream("sA", KeyValSchema());
    topo.AddStage(Node("ingest", SpKind::kBorder, {}, {"sA"}));
    EXPECT_EQ(topo.Channels().status().code(), StatusCode::kInvalidArgument);
  }
  // A boundary stream feeding two consumers is not transportable (v1).
  {
    Topology topo = PipelineTopology();
    topo.RegisterProcedure(
        "middle2", SpKind::kInterior,
        std::make_shared<LambdaProcedure>(
            [](ProcContext&) { return Status::OK(); }));
    topo.AddStage(Node("ingest", SpKind::kBorder, {}, {"sA"}),
                  Placement::Pinned(0))
        .AddStage(Node("middle", SpKind::kInterior, {"sA"}, {"sB"}),
                  Placement::Pinned(1))
        .AddStage(Node("middle2", SpKind::kInterior, {"sA"}, {}),
                  Placement::Pinned(2))
        .AddStage(Node("last", SpKind::kInterior, {"sB"}, {"sOut"}),
                  Placement::Pinned(1));
    EXPECT_EQ(topo.Channels().status().code(), StatusCode::kInvalidArgument);
  }
  // A multi-input join cannot sit behind a channel (v1).
  {
    Topology topo = PipelineTopology();
    topo.AddStage(Node("ingest", SpKind::kBorder, {}, {"sA", "sB"}),
                  Placement::Pinned(0))
        .AddStage(Node("last", SpKind::kInterior, {"sA", "sB"}, {"sOut"}),
                  Placement::Pinned(1));
    EXPECT_EQ(topo.Channels().status().code(), StatusCode::kInvalidArgument);
  }
  // Every deploy path reports the deferred error: a cluster deploy and a
  // standalone apply both refuse the topology and touch no partition.
  {
    Topology topo = PipelineTopology();
    topo.Place("ghost", Placement::Pinned(1));
    Cluster cluster(2);
    EXPECT_EQ(cluster.Deploy(topo).code(), StatusCode::kNotFound);
    EXPECT_FALSE(cluster.store(0).streams().HasStream("sA"));
    SStore store;
    EXPECT_EQ(topo.ApplyTo(store, 0).code(), StatusCode::kNotFound);
    EXPECT_FALSE(store.streams().HasStream("sA"));
  }
}

TEST(TopologyChannelsTest, MultiLaneCascadeRejected) {
  // A keyed (multi-lane) channel feeding a stage whose output crosses
  // another boundary would interleave lanes at the middle stage and emit
  // non-monotonic ids into the second channel — rejected before deploy.
  Result<std::vector<ChannelSpec>> cascade = PipelineChannels(
      Placement::Keyed(0), Placement::Pinned(1), Placement::Pinned(2));
  EXPECT_EQ(cascade.status().code(), StatusCode::kInvalidArgument);
  // A single-lane (pinned-producer) upstream keeps the cascade legal.
  Result<std::vector<ChannelSpec>> single_lane = PipelineChannels(
      Placement::Pinned(0), Placement::Pinned(1), Placement::Pinned(2));
  EXPECT_TRUE(single_lane.ok());
}

TEST(TopologyChannelsTest, DeployRejectsPinningOutsideCluster) {
  Topology topo = BuildPipeline(
      Placement::Pinned(0), Placement::Pinned(1), Placement::Pinned(5));
  ASSERT_TRUE(topo.Channels().ok());
  Cluster cluster(3);
  EXPECT_EQ(cluster.Deploy(topo).code(), StatusCode::kInvalidArgument);
}

// ---- Describe goldens (deployment diffing relies on this exact shape) ----

TEST(DescribeGoldenTest, EverywhereTopologyOneLinePerStep) {
  Topology topo("chain");
  topo.DefineStream("in", KeyValSchema())
      .CreateTable("sink", KeyValSchema())
      .CreateIndex("sink", "pk", {"key"}, /*unique=*/true)
      .InsertRow("sink", KeyVal(0, 0))
      .RegisterProcedure("ingest", SpKind::kBorder,
                         std::make_shared<LambdaProcedure>(
                             [](ProcContext&) { return Status::OK(); }))
      .RegisterProcedure("lookup", SpKind::kOltp,
                         std::make_shared<LambdaProcedure>(
                             [](ProcContext&) { return Status::OK(); }))
      .AddStage(Node("ingest", SpKind::kBorder, {}, {"in"}));

  EXPECT_EQ(topo.Describe(),
            "0: DefineStream stream in\n"
            "1: CreateTable table sink\n"
            "2: CreateIndex index sink.pk\n"
            "3: InsertRow seed row in sink\n"
            "stage-procedure ingest (BORDER)\n"
            "procedure lookup (OLTP)\n"
            "stage ingest placement=everywhere outputs=[in]\n");
}

TEST(DescribeGoldenTest, TopologyAnnotatesPlacementsAndChannels) {
  Topology topo("two_stage");
  topo.DefineStream("sA", KeyValSchema())
      .CreateTable("sink", KeyValSchema())
      .RegisterProcedure("ingest", SpKind::kBorder,
                         std::make_shared<LambdaProcedure>(
                             [](ProcContext&) { return Status::OK(); }))
      .RegisterProcedure("apply", SpKind::kInterior,
                         std::make_shared<LambdaProcedure>(
                             [](ProcContext&) { return Status::OK(); }))
      .AddStage(Node("ingest", SpKind::kBorder, {}, {"sA"}),
                Placement::Pinned(0))
      .AddStage(Node("apply", SpKind::kInterior, {"sA"}, {}),
                Placement::Pinned(1));
  ASSERT_TRUE(topo.Channels().ok()) << topo.Channels().status().ToString();

  EXPECT_EQ(topo.Describe(),
            "0: DefineStream stream sA\n"
            "1: CreateTable table sink\n"
            "stage-procedure ingest (BORDER)\n"
            "stage-procedure apply (INTERIOR)\n"
            "stage ingest placement=pinned(0) outputs=[sA]\n"
            "stage apply placement=pinned(1) inputs=[sA]\n"
            "channel sA: ingest@pinned(0) -> apply@pinned(1)\n");
}

// ---- Sliced deployment ----

TEST(PlacedDeployTest, SlicesStagesAndChannelPlumbingPerPartition) {
  Topology topo = BuildPipeline(
      Placement::Pinned(0), Placement::Pinned(1), Placement::Pinned(2));
  Cluster cluster(3);
  ASSERT_TRUE(cluster.Deploy(topo).ok());
  ASSERT_EQ(cluster.channels().size(), 2u);

  // Stage procedures exist only where their placement runs.
  EXPECT_TRUE(cluster.store(0).partition().HasProcedure("ingest"));
  EXPECT_FALSE(cluster.store(0).partition().HasProcedure("middle"));
  EXPECT_FALSE(cluster.store(0).partition().HasProcedure("last"));
  EXPECT_TRUE(cluster.store(1).partition().HasProcedure("middle"));
  EXPECT_FALSE(cluster.store(1).partition().HasProcedure("ingest"));
  EXPECT_TRUE(cluster.store(2).partition().HasProcedure("last"));

  // Channel delivery plumbing sits on the consumer partitions only.
  std::string chan_a = ChannelIngestProcName("sA");
  std::string chan_b = ChannelIngestProcName("sB");
  EXPECT_FALSE(cluster.store(0).partition().HasProcedure(chan_a));
  EXPECT_TRUE(cluster.store(1).partition().HasProcedure(chan_a));
  EXPECT_TRUE(cluster.store(1).catalog().HasTable(ChannelCursorTableName("sA")));
  EXPECT_TRUE(cluster.store(2).partition().HasProcedure(chan_b));
  EXPECT_FALSE(cluster.store(2).partition().HasProcedure(chan_a));

  // Shared DDL is everywhere (recovery re-creates any partition from its
  // deterministic slice).
  for (size_t p = 0; p < 3; ++p) {
    EXPECT_TRUE(cluster.store(p).catalog().HasTable("sink"));
    EXPECT_TRUE(cluster.store(p).streams().HasStream("sA"));
  }
}

// ---- The acceptance scenario: placed == replicated, including order ----

TEST(PlacedDeployTest, PlacedPipelineMatchesReplicatedSinglePartition) {
  constexpr int kBatches = 60;

  // Baseline: the same topology, every stage everywhere, one partition.
  Cluster baseline(1);
  Topology everywhere =
      BuildPipeline(Placement::Everywhere(), Placement::Everywhere(),
                    Placement::Everywhere());
  ASSERT_TRUE(baseline.Deploy(everywhere).ok());
  baseline.Start();
  StreamInjector base_inject(&baseline.partition(0), "ingest");
  for (int i = 0; i < kBatches; ++i) base_inject.InjectAsync(KeyVal(i, i));
  baseline.WaitIdle();
  baseline.Stop();

  // Placed: one stage per partition, streams as the transport.
  Topology placed = BuildPipeline(
      Placement::Pinned(0), Placement::Pinned(1), Placement::Pinned(2));
  Cluster cluster(3);
  ASSERT_TRUE(cluster.Deploy(placed).ok());

  // Per-partition commit schedules: the stream-order constraint (§2.2) must
  // hold per channel lane — each stage and each delivery procedure sees
  // strictly increasing batch ids.
  std::vector<std::vector<ScheduleEvent>> schedules(3);
  for (size_t p = 0; p < 3; ++p) {
    cluster.partition(p).AddCommitHook(
        [&schedules, p](Partition&, const TransactionExecution& te) {
          schedules[p].push_back({te.proc_name(), te.batch_id()});
        });
  }

  cluster.Start();
  StreamInjector inject(&cluster.partition(0), "ingest");
  for (int i = 0; i < kBatches; ++i) inject.InjectAsync(KeyVal(i, i));
  cluster.WaitIdle();
  cluster.Stop();

  // Table state: byte-identical rows, in the same order.
  std::vector<Tuple> expected = SinkRows(baseline.store(0));
  std::vector<Tuple> actual = SinkRows(cluster.store(2));
  ASSERT_EQ(expected.size(), static_cast<size_t>(kBatches));
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i]) << "sink row " << i;
  }
  EXPECT_TRUE(SinkRows(cluster.store(0)).empty());
  EXPECT_TRUE(SinkRows(cluster.store(1)).empty());

  // Stream outputs: the terminal stream drains identically.
  std::vector<Tuple> expected_out = *baseline.store(0).streams().Drain("sOut");
  std::vector<Tuple> actual_out = *cluster.store(2).streams().Drain("sOut");
  ASSERT_EQ(actual_out.size(), expected_out.size());
  for (size_t i = 0; i < expected_out.size(); ++i) {
    EXPECT_EQ(actual_out[i], expected_out[i]) << "sOut row " << i;
  }

  // Boundary streams fully consumed: forwarded batches were GC'd after the
  // deliveries were acknowledged.
  EXPECT_TRUE((*cluster.store(0).streams().PendingBatches("sA")).empty());
  EXPECT_TRUE((*cluster.store(1).streams().PendingBatches("sB")).empty());

  // Channel batch order per §2.2: strictly increasing ids per procedure on
  // every partition, and delivered ids sit in the channel id range.
  for (size_t p = 0; p < 3; ++p) {
    std::map<std::string, int64_t> last;
    for (const ScheduleEvent& e : schedules[p]) {
      auto it = last.find(e.proc);
      if (it != last.end()) {
        EXPECT_GT(e.batch_id, it->second)
            << "partition " << p << " proc " << e.proc;
      }
      last[e.proc] = e.batch_id;
    }
  }
  for (const ScheduleEvent& e : schedules[1]) {
    if (e.proc == "middle") {
      EXPECT_GE(e.batch_id, kChannelBatchIdBase);
    }
  }

  // 5 commits per batch on the placed cluster (ingest, delivery, middle,
  // delivery, last) vs 3 on the replicated baseline.
  EXPECT_EQ(cluster.GatherStats().committed(),
            static_cast<uint64_t>(5 * kBatches));
  EXPECT_EQ(baseline.GatherStats().committed(),
            static_cast<uint64_t>(3 * kBatches));
  EXPECT_EQ(cluster.GatherStats().channel.deliveries,
            static_cast<uint64_t>(2 * kBatches));
}

TEST(PlacedDeployTest, KeyedConsumerSplitsDeliveriesByKeyColumn) {
  constexpr int kBatches = 16;
  Topology topo("keyed_fan");
  topo.DefineStream("sA", KeyValSchema())
      .CreateTable("sink", KeyValSchema())
      .RegisterProcedure(
          "ingest", SpKind::kBorder,
          std::make_shared<LambdaProcedure>([](ProcContext& ctx) {
            return ctx.EmitToStream("sA", {ctx.params()});
          }))
      .RegisterProcedure(
          "apply", SpKind::kInterior,
          [](SStore& store) -> std::shared_ptr<StoredProcedure> {
            SStore* bound = &store;
            return std::make_shared<LambdaProcedure>([bound](ProcContext& ctx) {
              SSTORE_ASSIGN_OR_RETURN(
                  std::vector<Tuple> rows,
                  bound->streams().BatchContents("sA", ctx.batch_id()));
              SSTORE_ASSIGN_OR_RETURN(Table * sink, ctx.table("sink"));
              for (const Tuple& row : rows) {
                SSTORE_ASSIGN_OR_RETURN(RowId rid,
                                        ctx.exec().Insert(sink, row));
                (void)rid;
              }
              return Status::OK();
            });
          })
      .AddStage(Node("ingest", SpKind::kBorder, {}, {"sA"}),
                Placement::Pinned(0))
      .AddStage(Node("apply", SpKind::kInterior, {"sA"}, {}),
                Placement::Keyed(0));
  Result<std::vector<ChannelSpec>> channels = topo.Channels();
  ASSERT_TRUE(channels.ok()) << channels.status().ToString();
  ASSERT_EQ(channels->size(), 1u);

  Cluster::Options opts;
  opts.num_partitions = 2;
  opts.routing = PartitionMap::Mode::kModulo;
  Cluster cluster(opts);
  ASSERT_TRUE(cluster.Deploy(topo).ok());
  cluster.Start();
  StreamInjector inject(&cluster.partition(0), "ingest");
  for (int i = 0; i < kBatches; ++i) inject.InjectAsync(KeyVal(i, i));
  cluster.WaitIdle();
  cluster.Stop();

  // Every row landed on the partition owning its key — including the
  // self-deliveries back to the ingest partition.
  size_t total = 0;
  for (size_t p = 0; p < 2; ++p) {
    for (const Tuple& row : SinkRows(cluster.store(p))) {
      EXPECT_EQ(static_cast<size_t>(row[0].as_int64() % 2), p);
      ++total;
    }
  }
  EXPECT_EQ(total, static_cast<size_t>(kBatches));
}

// ---- Recovery ----

TEST(PlacedRecoveryTest, KillAndRecoverReplaysPlacedTopologyToSameCut) {
  constexpr int kBefore = 30;
  constexpr int kAfter = 30;
  Topology placed = BuildPipeline(
      Placement::Pinned(0), Placement::Pinned(1), Placement::Pinned(2));

  // Both recovery modes, the same mode on the logging and the recovered
  // cluster. Under kWeak the interior stages are unlogged and regenerate
  // from the border records, re-emitting onto the boundary streams; the
  // consumers' durable cursors must still land on the same cut.
  for (RecoveryMode mode : {RecoveryMode::kStrong, RecoveryMode::kWeak}) {
    const std::string tag = mode == RecoveryMode::kStrong ? "strong" : "weak";
    SCOPED_TRACE(tag);
    std::string ckpt_dir = MakeDir("placed_ckpt_" + tag);
    std::string log_dir = MakeDir("placed_logs_" + tag);
    Cluster::Options opts;
    opts.num_partitions = 3;
    opts.recovery_mode = mode;
    opts.log_sync = false;

    std::vector<Tuple> live_sink;
    {
      Cluster::Options live_opts = opts;
      live_opts.log_dir = log_dir;
      Cluster cluster(live_opts);
      ASSERT_TRUE(cluster.Deploy(placed).ok());
      cluster.Start();
      StreamInjector inject(&cluster.partition(0), "ingest");
      for (int i = 0; i < kBefore; ++i) inject.InjectAsync(KeyVal(i, i));
      cluster.WaitIdle();
      ASSERT_TRUE(cluster.Checkpoint(ckpt_dir).ok());
      // Post-checkpoint tail: replay + channel reconciliation must
      // reconstruct exactly this.
      for (int i = kBefore; i < kBefore + kAfter; ++i) {
        inject.InjectAsync(KeyVal(i, i));
      }
      cluster.WaitIdle();
      live_sink = SinkRows(cluster.store(2));
      cluster.Stop();
      // "Crash": only checkpoint + logs survive.
    }
    ASSERT_EQ(live_sink.size(), static_cast<size_t>(kBefore + kAfter));

    Cluster recovered(opts);
    ASSERT_TRUE(recovered.Deploy(placed).ok());
    Status st = recovered.Recover(ckpt_dir, log_dir);
    ASSERT_TRUE(st.ok()) << st.ToString();
    recovered.Start();
    recovered.WaitIdle();
    recovered.Stop();

    std::vector<Tuple> recovered_sink = SinkRows(recovered.store(2));
    ASSERT_EQ(recovered_sink.size(), live_sink.size());
    for (size_t i = 0; i < live_sink.size(); ++i) {
      EXPECT_EQ(recovered_sink[i], live_sink[i]) << "sink row " << i;
    }
    // The terminal stream replays whole as well (it was never drained).
    EXPECT_EQ((*recovered.store(2).streams().Drain("sOut")).size(),
              static_cast<size_t>(kBefore + kAfter));
  }
}

TEST(PlacedRecoveryTest, ReconciliationReforwardsUndeliveredBatches) {
  std::string ckpt_dir = MakeDir("reconcile_ckpt");
  Topology topo = BuildPipeline(Placement::Pinned(0), Placement::Pinned(1),
                                Placement::Pinned(1));

  {
    // Inline (never started): the border transaction commits and the
    // channel forwards, but the delivery only sits in partition 1's queue —
    // the checkpoint captures a pending raw batch and an empty cursor, and
    // the queued delivery dies with the cluster.
    Cluster cluster(2);
    ASSERT_TRUE(cluster.Deploy(topo).ok());
    TxnOutcome out = cluster.partition(0).RunInline(
        Invocation{"ingest", KeyVal(7, 7), /*batch_id=*/1});
    ASSERT_TRUE(out.committed());
    ASSERT_EQ((*cluster.store(0).streams().PendingBatches("sA")).size(), 1u);
    ASSERT_TRUE(cluster.Checkpoint(ckpt_dir).ok());
  }

  Cluster recovered(2);
  ASSERT_TRUE(recovered.Deploy(topo).ok());
  Status st = recovered.Recover(ckpt_dir, "");
  ASSERT_TRUE(st.ok()) << st.ToString();
  recovered.Start();
  recovered.WaitIdle();
  recovered.Stop();

  // The lost delivery was re-forwarded — exactly once.
  std::vector<Tuple> rows = SinkRows(recovered.store(1));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], KeyVal(7, 107));
  EXPECT_TRUE((*recovered.store(0).streams().PendingBatches("sA")).empty());
}

// ---- Placed Linear Road ----

TEST(PlacedLinearRoadTest, KeyedIngestFeedsPinnedRollupThroughChannel) {
  LinearRoadConfig config;
  config.num_xways = 4;
  config.vehicles_per_xway = 10;
  config.duration_sec = 130;  // crosses two minute boundaries
  Topology topo = BuildPlacedLinearRoadTopology(config, 1);
  Result<std::vector<ChannelSpec>> channels = topo.Channels();
  ASSERT_TRUE(channels.ok()) << channels.status().ToString();
  ASSERT_EQ(channels->size(), 1u);
  EXPECT_EQ((*channels)[0].stream, std::string(kLinearRoadMinuteStream));

  Cluster::Options opts;
  opts.num_partitions = 2;
  opts.routing = PartitionMap::Mode::kModulo;
  Cluster cluster(opts);
  ASSERT_TRUE(cluster.Deploy(topo).ok());
  cluster.Start();

  ClusterInjector::Options inj_opts;
  inj_opts.key_column = 2;  // x-way
  ClusterInjector injector(&cluster, "position_report", inj_opts);
  LinearRoadGenerator gen(config);
  for (int s = 0; s < config.duration_sec; ++s) {
    for (const PositionReport& r : gen.NextSecond()) {
      injector.InjectAsync(r.ToTuple());
    }
  }
  cluster.WaitIdle();
  cluster.Stop();

  // The rollup ran only on its pinned partition, exactly once per minute
  // (channel lanes from both ingest partitions deliver markers; the dedupe
  // row absorbs the duplicates).
  EXPECT_FALSE(cluster.store(0).partition().HasProcedure("minute_rollup"));
  ASSERT_TRUE(cluster.store(1).partition().HasProcedure("minute_rollup"));
  Table* segstats = *cluster.store(1).catalog().GetTable("lr_segstats");
  EXPECT_GT(segstats->row_count(), 0u);
  EXPECT_EQ((*cluster.store(0).catalog().GetTable("lr_segstats"))->row_count(),
            0u);
  // Vehicles still route by x-way to their owning partitions.
  for (size_t p = 0; p < 2; ++p) {
    Table* vehicles = *cluster.store(p).catalog().GetTable("lr_vehicles");
    EXPECT_EQ(vehicles->row_count(),
              static_cast<size_t>(config.num_xways / 2 *
                                  config.vehicles_per_xway));
  }
  EXPECT_GT(cluster.GatherStats().channel.deliveries, 0u);
}

// ---- Command-log rotation at the coordinated checkpoint ----

TEST(LogRotationTest, CheckpointRotatesLogsAndRecoveryFollowsTheEpoch) {
  std::string ckpt_dir = MakeDir("rot_ckpt");
  std::string log_dir = MakeDir("rot_logs");

  Topology everywhere =
      BuildPipeline(Placement::Everywhere(), Placement::Everywhere(),
                    Placement::Everywhere());

  std::vector<Tuple> live_sink;
  {
    Cluster::Options opts;
    opts.num_partitions = 2;
    opts.log_dir = log_dir;
    opts.log_sync = false;
    Cluster cluster(opts);
    ASSERT_TRUE(cluster.Deploy(everywhere).ok());
    cluster.Start();
    StreamInjector inject(&cluster.partition(0), "ingest");
    for (int i = 0; i < 10; ++i) inject.InjectAsync(KeyVal(i, i));
    cluster.WaitIdle();

    // First checkpoint: epoch 1 files appear, the unbounded epoch-0 files
    // are deleted once the manifest is durable.
    ASSERT_TRUE(cluster.Checkpoint(ckpt_dir).ok());
    EXPECT_TRUE(FileExists(log_dir + "/partition-0.e1.log"));
    EXPECT_TRUE(FileExists(log_dir + "/partition-1.e1.log"));
    EXPECT_FALSE(FileExists(log_dir + "/partition-0.log"));
    EXPECT_FALSE(FileExists(log_dir + "/partition-1.log"));

    for (int i = 10; i < 20; ++i) inject.InjectAsync(KeyVal(i, i));
    cluster.WaitIdle();

    // Second checkpoint: rotation advances, the previous epoch goes away.
    ASSERT_TRUE(cluster.Checkpoint(ckpt_dir).ok());
    EXPECT_TRUE(FileExists(log_dir + "/partition-0.e2.log"));
    EXPECT_FALSE(FileExists(log_dir + "/partition-0.e1.log"));

    // Post-checkpoint tail lands in the new epoch and replays from it.
    for (int i = 20; i < 30; ++i) inject.InjectAsync(KeyVal(i, i));
    cluster.WaitIdle();
    live_sink = SinkRows(cluster.store(0));
    for (const Tuple& row : SinkRows(cluster.store(1))) {
      live_sink.push_back(row);
    }
    cluster.Stop();
  }

  Cluster recovered(2);
  ASSERT_TRUE(recovered.Deploy(everywhere).ok());
  Status st = recovered.Recover(ckpt_dir, log_dir);
  ASSERT_TRUE(st.ok()) << st.ToString();
  std::vector<Tuple> recovered_sink = SinkRows(recovered.store(0));
  for (const Tuple& row : SinkRows(recovered.store(1))) {
    recovered_sink.push_back(row);
  }
  ASSERT_EQ(recovered_sink.size(), live_sink.size());
  for (size_t i = 0; i < live_sink.size(); ++i) {
    EXPECT_EQ(recovered_sink[i], live_sink[i]) << "row " << i;
  }
}

}  // namespace
}  // namespace sstore
