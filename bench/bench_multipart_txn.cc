// Multi-partition transaction benchmark (PR 3): single- vs multi-partition
// throughput through the TxnCoordinator, on the VoterCluster workload
// (sharded contestants; votes are single-partition OLTP, transfers are
// atomic cross-partition transactions).
//
// Benchmarks:
//   BM_SinglePartitionVote     — the baseline: keyed ExecuteSync on the
//                                owner partition, no coordination.
//   BM_MultiPartitionTransfer  — one synchronous cross-partition transfer
//                                per iteration (submit, then wait for the
//                                decision to be applied everywhere).
//   BM_GlobalOrderPipelined    — asynchronous transfers with a window of
//                                outstanding tickets: the deterministic
//                                sequencer's pipelining advantage over one
//                                synchronous transfer at a time.
//   BM_MixedRatio              — arg% of operations are transfers, the rest
//                                votes: the shape of a real workload as the
//                                multi-partition fraction grows (Figure-11
//                                style scaling pressure).
//
// Every benchmark is timed in real time: the work runs on the partition
// workers, so the main thread's CPU time would overstate throughput.
//
// bench/run_bench.sh writes the results to BENCH_pr3.json:
//   BENCH=bench_multipart_txn bench/run_bench.sh
// `--smoke` (CI) maps to a short --benchmark_min_time run.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "txn_coord/txn_coordinator.h"
#include "workloads/voter_cluster.h"

namespace {

using sstore::BatchTicketPtr;
using sstore::Cluster;
using sstore::ClusterStats;
using sstore::PartitionMap;
using sstore::VoterClusterApp;
using sstore::VoterClusterConfig;

constexpr int kPartitions = 4;

VoterClusterConfig BenchConfig() {
  VoterClusterConfig config;
  config.num_contestants = 64;
  // Large enough that transfers never abort during a benchmark run.
  config.initial_votes = 1'000'000'000;
  return config;
}

Cluster::Options BenchOpts() {
  Cluster::Options opts;
  opts.num_partitions = kPartitions;
  opts.routing = PartitionMap::Mode::kModulo;
  return opts;
}

void ReportCoordCounters(benchmark::State& state, Cluster& cluster) {
  ClusterStats stats = cluster.GatherStats();
  const auto rounds = cluster.coordinator().round_latency_us().snapshot();
  state.counters["avg_round_us"] = rounds.Mean();
  state.counters["p99_round_us"] = static_cast<double>(rounds.Percentile(99));
  state.counters["aborts"] = static_cast<double>(stats.coord.aborts);
}

void BM_SinglePartitionVote(benchmark::State& state) {
  VoterClusterConfig config = BenchConfig();
  Cluster cluster(BenchOpts());
  cluster.Deploy(BuildVoterClusterDeployment(config)).ok();
  cluster.Start();
  VoterClusterApp app(&cluster, config);

  int64_t c = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(app.Vote(c));
    c = (c + 1) % config.num_contestants;
  }
  state.SetItemsProcessed(state.iterations());
  cluster.WaitIdle();
  cluster.Stop();
}
BENCHMARK(BM_SinglePartitionVote)->UseRealTime();

void BM_MultiPartitionTransfer(benchmark::State& state) {
  VoterClusterConfig config = BenchConfig();
  Cluster cluster(BenchOpts());
  cluster.Deploy(BuildVoterClusterDeployment(config)).ok();
  cluster.Start();
  VoterClusterApp app(&cluster, config);

  int64_t i = 0;
  for (auto _ : state) {
    // (i, i+1) always crosses partitions under modulo routing.
    benchmark::DoNotOptimize(
        app.Transfer(i % config.num_contestants,
                     (i + 1) % config.num_contestants, 1));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
  ReportCoordCounters(state, cluster);
  cluster.WaitIdle();
  cluster.Stop();
}
BENCHMARK(BM_MultiPartitionTransfer)->UseRealTime();

void BM_GlobalOrderPipelined(benchmark::State& state) {
  const size_t kWindow = static_cast<size_t>(state.range(0));
  VoterClusterConfig config = BenchConfig();
  Cluster cluster(BenchOpts());
  cluster.Deploy(BuildVoterClusterDeployment(config)).ok();
  cluster.Start();
  VoterClusterApp app(&cluster, config);

  std::deque<BatchTicketPtr> window;
  int64_t i = 0;
  for (auto _ : state) {
    window.push_back(app.TransferAsync(i % config.num_contestants,
                                       (i + 1) % config.num_contestants, 1));
    ++i;
    if (window.size() >= kWindow) {
      window.front()->Wait();
      window.pop_front();
    }
  }
  for (auto& t : window) t->Wait();
  state.SetItemsProcessed(state.iterations());
  ReportCoordCounters(state, cluster);
  cluster.WaitIdle();
  cluster.Stop();
}
BENCHMARK(BM_GlobalOrderPipelined)->Arg(4)->Arg(16)->Arg(64)->UseRealTime();

void BM_MixedRatio(benchmark::State& state) {
  const int64_t mp_percent = state.range(0);
  VoterClusterConfig config = BenchConfig();
  Cluster cluster(BenchOpts());
  cluster.Deploy(BuildVoterClusterDeployment(config)).ok();
  cluster.Start();
  VoterClusterApp app(&cluster, config);

  int64_t i = 0;
  for (auto _ : state) {
    if (i % 100 < mp_percent) {
      benchmark::DoNotOptimize(
          app.Transfer(i % config.num_contestants,
                       (i + 1) % config.num_contestants, 1));
    } else {
      benchmark::DoNotOptimize(app.Vote(i % config.num_contestants));
    }
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
  ReportCoordCounters(state, cluster);
  cluster.WaitIdle();
  cluster.Stop();
}
BENCHMARK(BM_MixedRatio)
    ->Arg(0)
    ->Arg(1)
    ->Arg(10)
    ->Arg(50)
    ->Arg(100)
    ->UseRealTime();

}  // namespace

// Custom main so CI can ask for a smoke run without knowing google-benchmark
// flag syntax: `bench_multipart_txn --smoke` == a short min_time run.
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
