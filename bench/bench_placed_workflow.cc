// Placed-vs-replicated workflow benchmark (PR 4): the same pipeline deployed
// the paper's replicate-everything way (every partition runs every stage,
// input keyed across partitions) against a placement-aware topology whose
// stages are pinned to distinct partitions with stream channels as the
// transport (§4.7, the distributed S-Store direction).
//
// Benchmarks:
//   BM_ReplicatedPipeline/N  — 3-stage pipeline, every stage on all N
//                              partitions, keyed injection. The shared-
//                              nothing baseline: zero cross-partition hops.
//   BM_PlacedPipeline        — the same pipeline pinned 0 -> 1 -> 2; every
//                              batch pays two channel deliveries. Counters
//                              report the channel traffic.
//   BM_LinearRoadReplicated/N — Linear Road, replicated deployment, keyed
//                              by x-way.
//   BM_LinearRoadPlaced/N    — Linear Road with ingest keyed by x-way and
//                              the minute rollup pinned to the last
//                              partition (s_minute crosses a channel).
//
// bench/run_bench.sh writes the results to BENCH_pr4.json:
//   BENCH=bench_placed_workflow bench/run_bench.sh
// `--smoke` (CI) maps to a short --benchmark_min_time run.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/cluster_injector.h"
#include "cluster/stream_channel.h"
#include "cluster/topology.h"
#include "query/expr.h"
#include "streaming/injector.h"
#include "workloads/linear_road.h"

namespace {

using namespace sstore;  // NOLINT: bench brevity

constexpr int kKeys = 1024;
constexpr size_t kWindow = 512;  // outstanding async injections

Schema KeyValSchema() {
  return Schema({{"key", ValueType::kBigInt}, {"val", ValueType::kBigInt}});
}

/// 3-stage pipeline with bounded state: ingest emits into sA, "xform" adds
/// one and re-emits into sB, "fold" upserts a per-key running total.
Topology BuildPipeline(Placement ingest, Placement xform, Placement fold) {
  Topology topo("bench_pipeline");
  topo.DefineStream("sA", KeyValSchema())
      .DefineStream("sB", KeyValSchema())
      .CreateTable("totals", KeyValSchema())
      .CreateIndex("totals", "pk", {"key"}, /*unique=*/true)
      .RegisterProcedure(
          "ingest", SpKind::kBorder,
          std::make_shared<LambdaProcedure>([](ProcContext& ctx) {
            return ctx.EmitToStream("sA", {ctx.params()});
          }))
      .RegisterProcedure(
          "xform", SpKind::kInterior,
          [](SStore& store) -> std::shared_ptr<StoredProcedure> {
            SStore* bound = &store;
            return std::make_shared<LambdaProcedure>([bound](ProcContext& ctx) {
              SSTORE_ASSIGN_OR_RETURN(
                  std::vector<Tuple> rows,
                  bound->streams().BatchContents("sA", ctx.batch_id()));
              for (Tuple& row : rows) {
                row[1] = Value::BigInt(row[1].as_int64() + 1);
              }
              return ctx.EmitToStream("sB", std::move(rows));
            });
          })
      .RegisterProcedure(
          "fold", SpKind::kInterior,
          [](SStore& store) -> std::shared_ptr<StoredProcedure> {
            SStore* bound = &store;
            return std::make_shared<LambdaProcedure>([bound](ProcContext& ctx) {
              SSTORE_ASSIGN_OR_RETURN(
                  std::vector<Tuple> rows,
                  bound->streams().BatchContents("sB", ctx.batch_id()));
              SSTORE_ASSIGN_OR_RETURN(Table * totals, ctx.table("totals"));
              for (const Tuple& row : rows) {
                SSTORE_ASSIGN_OR_RETURN(
                    std::vector<Tuple> existing,
                    ctx.exec().IndexScan(totals, "pk", {row[0]}));
                if (existing.empty()) {
                  SSTORE_ASSIGN_OR_RETURN(RowId rid,
                                          ctx.exec().Insert(totals, row));
                  (void)rid;
                } else {
                  SSTORE_ASSIGN_OR_RETURN(
                      size_t n,
                      ctx.exec().Update(totals, Eq(Col(0), Lit(row[0])),
                                        {{1, Add(Col(1), Lit(row[1]))}}));
                  (void)n;
                }
              }
              return Status::OK();
            });
          });
  WorkflowNode n1, n2, n3;
  n1.proc = "ingest";
  n1.kind = SpKind::kBorder;
  n1.output_streams = {"sA"};
  n2.proc = "xform";
  n2.kind = SpKind::kInterior;
  n2.input_streams = {"sA"};
  n2.output_streams = {"sB"};
  n3.proc = "fold";
  n3.kind = SpKind::kInterior;
  n3.input_streams = {"sB"};
  topo.AddStage(n1, ingest).AddStage(n2, xform).AddStage(n3, fold);
  return topo;
}

void ReportChannelCounters(benchmark::State& state, Cluster& cluster) {
  const StreamChannel::Stats channels = cluster.GatherStats().channel;
  state.counters["channel_deliveries"] =
      static_cast<double>(channels.deliveries);
  state.counters["channel_rows"] = static_cast<double>(channels.rows_forwarded);
}

void DrainWindow(std::deque<BatchTicketPtr>& window, size_t limit) {
  while (window.size() > limit) {
    window.front()->Wait();
    window.pop_front();
  }
}

void BM_ReplicatedPipeline(benchmark::State& state) {
  int partitions = static_cast<int>(state.range(0));
  Cluster::Options opts;
  opts.num_partitions = partitions;
  opts.routing = PartitionMap::Mode::kModulo;
  Cluster cluster(opts);
  Topology topo =
      BuildPipeline(Placement::Everywhere(), Placement::Everywhere(),
                    Placement::Everywhere());
  cluster.Deploy(topo).ok();
  cluster.Start();
  ClusterInjector::Options inj_opts;
  inj_opts.key_column = 0;
  ClusterInjector injector(&cluster, "ingest", inj_opts);

  std::deque<BatchTicketPtr> window;
  int64_t i = 0;
  for (auto _ : state) {
    window.push_back(
        injector.InjectAsync({Value::BigInt(i % kKeys), Value::BigInt(i)}));
    ++i;
    DrainWindow(window, kWindow);
  }
  DrainWindow(window, 0);
  cluster.WaitIdle();
  state.SetItemsProcessed(state.iterations());
  cluster.Stop();
}
BENCHMARK(BM_ReplicatedPipeline)->Arg(1)->Arg(3);

void BM_PlacedPipeline(benchmark::State& state) {
  Cluster cluster(3);
  Topology topo = BuildPipeline(
      Placement::Pinned(0), Placement::Pinned(1), Placement::Pinned(2));
  cluster.Deploy(topo).ok();
  cluster.Start();
  StreamInjector injector(&cluster.partition(0), "ingest");

  std::deque<BatchTicketPtr> window;
  int64_t i = 0;
  for (auto _ : state) {
    window.push_back(
        injector.InjectAsync({Value::BigInt(i % kKeys), Value::BigInt(i)}));
    ++i;
    DrainWindow(window, kWindow);
  }
  DrainWindow(window, 0);
  cluster.WaitIdle();
  state.SetItemsProcessed(state.iterations());
  ReportChannelCounters(state, cluster);
  cluster.Stop();
}
BENCHMARK(BM_PlacedPipeline);

LinearRoadConfig BenchLinearRoadConfig(int partitions) {
  LinearRoadConfig config;
  config.num_xways = partitions * 2;
  config.vehicles_per_xway = 40;
  config.duration_sec = 1 << 20;  // the generator never runs dry mid-bench
  config.seed = 42;
  return config;
}

void RunLinearRoad(benchmark::State& state, Cluster& cluster,
                   const LinearRoadConfig& config) {
  cluster.Start();
  ClusterInjector::Options inj_opts;
  inj_opts.key_column = 2;  // x-way
  ClusterInjector injector(&cluster, "position_report", inj_opts);
  LinearRoadGenerator gen(config);
  std::vector<PositionReport> second = gen.NextSecond();
  size_t next = 0;

  std::deque<BatchTicketPtr> window;
  for (auto _ : state) {
    if (next == second.size()) {
      second = gen.NextSecond();
      next = 0;
    }
    window.push_back(injector.InjectAsync(second[next++].ToTuple()));
    DrainWindow(window, kWindow);
  }
  DrainWindow(window, 0);
  cluster.WaitIdle();
  state.SetItemsProcessed(state.iterations());
  ReportChannelCounters(state, cluster);
  cluster.Stop();
}

void BM_LinearRoadReplicated(benchmark::State& state) {
  int partitions = static_cast<int>(state.range(0));
  LinearRoadConfig config = BenchLinearRoadConfig(partitions);
  Cluster::Options opts;
  opts.num_partitions = partitions;
  opts.routing = PartitionMap::Mode::kModulo;
  Cluster cluster(opts);
  cluster.Deploy(BuildLinearRoadDeployment(config)).ok();
  RunLinearRoad(state, cluster, config);
}
BENCHMARK(BM_LinearRoadReplicated)->Arg(2)->Arg(4);

void BM_LinearRoadPlaced(benchmark::State& state) {
  int partitions = static_cast<int>(state.range(0));
  LinearRoadConfig config = BenchLinearRoadConfig(partitions);
  Cluster::Options opts;
  opts.num_partitions = partitions;
  opts.routing = PartitionMap::Mode::kModulo;
  Cluster cluster(opts);
  Topology topo = BuildPlacedLinearRoadTopology(
      config, static_cast<size_t>(partitions - 1));
  cluster.Deploy(topo).ok();
  RunLinearRoad(state, cluster, config);
}
BENCHMARK(BM_LinearRoadPlaced)->Arg(2)->Arg(4);

}  // namespace

// Custom main so CI can ask for a smoke run without knowing google-benchmark
// flag syntax: `bench_placed_workflow --smoke` == a short min_time run.
int main(int argc, char** argv) {
  std::vector<char*> args;
  bool smoke = false;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") {
      smoke = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  static char min_time[] = "--benchmark_min_time=0.05";
  if (smoke) args.push_back(min_time);
  int new_argc = static_cast<int>(args.size());
  benchmark::Initialize(&new_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(new_argc, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
