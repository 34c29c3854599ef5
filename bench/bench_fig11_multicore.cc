// Figure 11 — multi-core scalability on the Linear Road subset
// (paper §4.7). The input stream is partitioned by x-way across cores; each
// core runs the complete two-SP workflow serially for its partition.
//
// This bench runs on the Cluster API: one Cluster owns the shared-nothing
// partitions, one Topology puts the identical Linear Road workflow on
// every partition, and a keyed ClusterInjector routes each position report
// by its x-way column. Modulo routing gives the paper's exactly balanced
// x-way assignment (x-way w -> partition w % cores).
//
// We measure each configuration's aggregate position-report capacity and
// convert it into "x-ways supported" (an x-way offers vehicles_per_xway
// reports per simulated second; an x-way is supported when its reports are
// processed within the latency threshold, i.e., capacity covers its rate).
//
// Paper shape: ~16 x-ways on one core, roughly linear scaling with a 5-10%
// per-core drop-off from partition-maintenance overhead.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/cluster_injector.h"
#include "workloads/linear_road.h"

namespace {

using sstore::Cluster;
using sstore::ClusterInjector;
using sstore::ClusterStats;
using sstore::LinearRoadConfig;
using sstore::LinearRoadGenerator;
using sstore::PartitionMap;
using sstore::PositionReport;

constexpr int kXwaysPerPartition = 2;
constexpr int kVehiclesPerXway = 40;
constexpr int kDurationSec = 75;  // sim seconds (includes a minute boundary)
constexpr int kXwayColumn = 2;    // position of xway in PositionReport tuples

void BM_LinearRoadScaling(benchmark::State& state) {
  int cores = static_cast<int>(state.range(0));

  for (auto _ : state) {
    state.PauseTiming();
    // One shared-nothing partition per core; x-way w lives on w % cores.
    Cluster::Options opts;
    opts.num_partitions = cores;
    opts.routing = PartitionMap::Mode::kModulo;
    Cluster cluster(opts);

    LinearRoadConfig config;
    config.num_xways = kXwaysPerPartition * cores;
    config.vehicles_per_xway = kVehiclesPerXway;
    config.duration_sec = kDurationSec;
    config.seed = 1000;
    if (!cluster.Deploy(sstore::BuildLinearRoadDeployment(config)).ok()) {
      state.SkipWithError("deployment failed");
      return;
    }
    cluster.Start();
    ClusterInjector::Options inj_opts;
    inj_opts.key_column = kXwayColumn;
    ClusterInjector injector(&cluster, "position_report", inj_opts);
    state.ResumeTiming();

    // One client thread per partition replays that partition's x-ways at
    // full speed. Each thread generates kXwaysPerPartition local x-ways and
    // remaps them onto the global ids owned by its partition
    // (global = local * cores + p, so global % cores == p); routing by the
    // x-way column then lands every report on partition p.
    std::vector<std::thread> clients;
    std::vector<int64_t> processed(cores, 0);
    auto t0 = std::chrono::steady_clock::now();
    for (int c = 0; c < cores; ++c) {
      clients.emplace_back([&, c] {
        LinearRoadConfig gen_config;
        gen_config.num_xways = kXwaysPerPartition;
        gen_config.vehicles_per_xway = kVehiclesPerXway;
        gen_config.seed = 1000 + static_cast<uint64_t>(c);
        LinearRoadGenerator gen(gen_config);
        std::vector<sstore::BatchTicketPtr> tickets;
        for (int s = 0; s < kDurationSec; ++s) {
          for (PositionReport r : gen.NextSecond()) {
            r.xway = r.xway * cores + c;
            r.vid += static_cast<int64_t>(c) * 100'000'000;
            tickets.push_back(injector.InjectAsync(r.ToTuple()));
            ++processed[c];
          }
        }
        for (auto& t : tickets) t->Wait();
      });
    }
    for (auto& t : clients) t.join();
    // Let the PE-triggered minute rollups of the last round drain.
    cluster.WaitIdle();
    auto t1 = std::chrono::steady_clock::now();

    state.PauseTiming();
    double elapsed = std::chrono::duration<double>(t1 - t0).count();
    int64_t total = 0;
    for (int64_t p : processed) total += p;
    ClusterStats stats = cluster.GatherStats();
    double reports_per_sec = static_cast<double>(total) / elapsed;
    // An x-way generates vehicles_per_xway reports per (real-time) second.
    double xways_supported = reports_per_sec / kVehiclesPerXway;
    state.counters["reports_per_sec"] = reports_per_sec;
    state.counters["xways_supported"] = xways_supported;
    state.counters["xways_per_core"] = xways_supported / cores;
    state.counters["committed_txns"] =
        static_cast<double>(stats.committed());
    cluster.Stop();
    state.ResumeTiming();
  }
}

void AddArgs(benchmark::internal::Benchmark* b) {
  // The partition sweep always runs: with >= 8 hardware cores it reproduces
  // the paper's near-linear scaling; on a CPU-quota'd host (hardware
  // concurrency below the partition count) the partitions timeshare, and
  // the series instead demonstrates the shared-nothing property that
  // aggregate capacity is conserved (no cross-partition coordination cost).
  // EXPERIMENTS.md records which regime a given run was in.
  unsigned hw = std::thread::hardware_concurrency();
  b->Arg(1);
  b->Arg(2);
  b->Arg(4);
  if (hw >= 8) b->Arg(8);
}

}  // namespace

BENCHMARK(BM_LinearRoadScaling)
    ->ArgName("cores")
    ->Apply(AddArgs)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Iterations(1);

BENCHMARK_MAIN();
