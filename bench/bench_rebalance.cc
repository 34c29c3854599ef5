// Live partition rebalancing benchmark (PR 5): what a Cluster::Rebalance
// split costs while keyed traffic flows, and what the cluster gains from it.
//
// Benchmarks:
//   BM_KeyedIngest/N      — keyed upsert ingest through ClusterInjector on a
//                           static N-partition cluster. The baseline the
//                           routing guard rides on (and the denominator for
//                           post-split gains).
//   BM_SplitCutover/rows  — one full split of a loaded partition, manual
//                           timing. Counters report the two pauses the
//                           protocol actually imposes: routing_pause_us
//                           (exclusive map flip — producers stalled) and
//                           barrier_pause_us (workers parked: migration +
//                           cutover checkpoint), plus rows_migrated.
//   BM_PostSplitIngest    — the BM_KeyedIngest loop on a cluster that grew
//                           2 -> 3 by splitting partition 0 mid-setup; the
//                           items/s delta against BM_KeyedIngest/2 is the
//                           rebalancing payoff.
//
// bench/run_bench.sh writes the results to BENCH_pr5.json:
//   BENCH=bench_rebalance bench/run_bench.sh
// `--smoke` (CI) maps to a short --benchmark_min_time run.

#include <benchmark/benchmark.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/cluster_injector.h"
#include "query/expr.h"

namespace {

using namespace sstore;  // NOLINT: bench brevity

constexpr int kKeys = 1024;
constexpr int kBatch = 256;

std::string FreshDir(const char* tag) {
  static int counter = 0;
  std::string path = "/tmp/sstore_bench_rebal_" +
                     std::to_string(::getpid()) + "_" + tag + "_" +
                     std::to_string(counter++);
  ::mkdir(path.c_str(), 0755);
  return path;
}

Schema KeyValSchema() {
  return Schema({{"key", ValueType::kBigInt}, {"val", ValueType::kBigInt}});
}

/// Keyed upsert workload: bounded state (one row per key), so long benchmark
/// runs neither grow memory nor skew migration volume.
Topology UpsertTopology() {
  Topology topo("upsert");
  topo.CreateTable("kv", KeyValSchema())
      .CreateIndex("kv", "pk", {"key"}, /*unique=*/true)
      .RegisterProcedure(
          "put", SpKind::kBorder,
          std::make_shared<LambdaProcedure>([](ProcContext& ctx) -> Status {
            SSTORE_ASSIGN_OR_RETURN(Table * kv, ctx.table("kv"));
            const Tuple& params = ctx.params();
            int64_t key = params[0].as_int64();
            SSTORE_ASSIGN_OR_RETURN(
                std::vector<Tuple> hit,
                ctx.exec().IndexScan(kv, "pk", {Value::BigInt(key)}));
            if (hit.empty()) {
              SSTORE_ASSIGN_OR_RETURN(RowId rid,
                                      ctx.exec().Insert(kv, params));
              (void)rid;
            } else {
              SSTORE_ASSIGN_OR_RETURN(
                  size_t updated,
                  ctx.exec().Update(kv, Eq(Col(0), LitInt(key)),
                                    {{1, LitInt(params[1].as_int64())}}));
              (void)updated;
            }
            return Status::OK();
          }));
  return topo;
}

void SeedKeys(ClusterInjector& injector) {
  std::vector<Tuple> batch;
  for (int64_t k = 0; k < kKeys; ++k) {
    batch.push_back({Value::BigInt(k), Value::BigInt(k)});
  }
  for (auto& t : injector.InjectBatchAsync(std::move(batch))) t->Wait();
}

void IngestLoop(benchmark::State& state, Cluster& cluster) {
  ClusterInjector::Options opts;
  opts.key_column = 0;
  ClusterInjector injector(&cluster, "put", opts);
  int64_t items = 0;
  int64_t val = 0;
  for (auto _ : state) {
    std::vector<Tuple> batch;
    batch.reserve(kBatch);
    for (int i = 0; i < kBatch; ++i) {
      batch.push_back(
          {Value::BigInt((val + i) % kKeys), Value::BigInt(val + i)});
    }
    for (auto& t : injector.InjectBatchAsync(std::move(batch))) t->Wait();
    val += kBatch;
    items += kBatch;
  }
  cluster.WaitIdle();
  state.SetItemsProcessed(items);
}

void BM_KeyedIngest(benchmark::State& state) {
  Cluster cluster(static_cast<int>(state.range(0)));
  if (!cluster.Deploy(UpsertTopology()).ok()) {
    state.SkipWithError("deploy failed");
    return;
  }
  cluster.Start();
  IngestLoop(state, cluster);
  cluster.Stop();
}
BENCHMARK(BM_KeyedIngest)->Arg(2)->Arg(3);

void BM_SplitCutover(benchmark::State& state) {
  int64_t rows = state.range(0);
  double routing_pause_us = 0;
  double barrier_pause_us = 0;
  double rows_migrated = 0;
  int64_t splits = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Cluster cluster(2);
    if (!cluster.Deploy(UpsertTopology()).ok()) {
      state.SkipWithError("deploy failed");
      return;
    }
    cluster.Start();
    {
      ClusterInjector injector(&cluster, "put");
      std::vector<Tuple> batch;
      for (int64_t k = 0; k < rows; ++k) {
        batch.push_back({Value::BigInt(k), Value::BigInt(k)});
      }
      for (auto& t : injector.InjectBatchAsync(std::move(batch))) t->Wait();
    }
    cluster.WaitIdle();
    RebalancePlan plan;
    plan.kind = RebalancePlan::Kind::kSplit;
    plan.source = 0;
    plan.keyed_tables = {{"kv", 0}};
    plan.checkpoint_dir = FreshDir("split");
    RebalanceReport report;
    state.ResumeTiming();
    Status st = cluster.Rebalance(plan, &report);
    state.PauseTiming();
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
    routing_pause_us += static_cast<double>(report.routing_pause_us);
    barrier_pause_us += static_cast<double>(report.barrier_pause_us);
    rows_migrated += static_cast<double>(report.rows_migrated);
    ++splits;
    cluster.Stop();
    state.ResumeTiming();
  }
  if (splits > 0) {
    state.counters["routing_pause_us"] =
        benchmark::Counter(routing_pause_us / static_cast<double>(splits));
    state.counters["barrier_pause_us"] =
        benchmark::Counter(barrier_pause_us / static_cast<double>(splits));
    state.counters["rows_migrated"] =
        benchmark::Counter(rows_migrated / static_cast<double>(splits));
  }
}
BENCHMARK(BM_SplitCutover)->Arg(1024)->Arg(8192)->Unit(benchmark::kMillisecond);

void BM_PostSplitIngest(benchmark::State& state) {
  Cluster cluster(2);
  if (!cluster.Deploy(UpsertTopology()).ok()) {
    state.SkipWithError("deploy failed");
    return;
  }
  cluster.Start();
  {
    ClusterInjector injector(&cluster, "put");
    SeedKeys(injector);
  }
  cluster.WaitIdle();
  RebalancePlan plan;
  plan.kind = RebalancePlan::Kind::kSplit;
  plan.source = 0;
  plan.keyed_tables = {{"kv", 0}};
  plan.checkpoint_dir = FreshDir("post");
  Status st = cluster.Rebalance(plan);
  if (!st.ok()) {
    state.SkipWithError(st.ToString().c_str());
    return;
  }
  IngestLoop(state, cluster);
  cluster.Stop();
}
BENCHMARK(BM_PostSplitIngest);

}  // namespace

// Custom main so CI can ask for a smoke run without knowing google-benchmark
// flag syntax: `bench_rebalance --smoke` == a short min_time run.
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
