// Figure 9 — recovery mechanisms (paper §4.4).
//
// (a) Logging overhead: the Figure 6 PE-trigger workflow with command
//     logging enabled and *no group commit* (every record flushed).
//     Strong recovery logs every TE (border + interior); weak recovery
//     logs only border TEs. Paper shape: weak sustains up to ~4x the
//     workflow throughput as chains get longer.
//
// (b) Recovery time: replay the log of R workflows after a crash. Strong
//     recovery confirms every logged transaction through a client round
//     trip, so recovery time grows with the number of PE triggers; weak
//     recovery re-activates interior TEs inside the engine, staying flat.
//
// Both run the chain on a one-partition Cluster, the one durability path:
// the cluster opens the log, Checkpoint cuts it and Recover replays it.
// The reported recovery time is Cluster::Recover's replay alone
// (GatherStats().recover.replay_us), not the re-arming cut it takes after.

#include <benchmark/benchmark.h>

#include <sys/stat.h>

#include <string>
#include <thread>

#include "cluster/cluster.h"
#include "streaming/injector.h"
#include "workloads/microbench.h"

namespace {

using sstore::Cluster;
using sstore::PeTriggerChain;
using sstore::RecoveryMode;
using sstore::SStore;
using sstore::Status;
using sstore::StreamInjector;
using sstore::Topology;
using sstore::Value;

constexpr int kWorkflowsPerRun = 300;

std::string TmpDir(const std::string& name) {
  std::string path = "/tmp/sstore_" + name;
  ::mkdir(path.c_str(), 0755);
  return path;
}

Topology ChainTopology(int num_procs) {
  Topology topo("pe_chain");
  topo.Custom("pe trigger chain", [num_procs](SStore& store) {
    return PeTriggerChain::SetupSStore(&store, num_procs);
  });
  return topo;
}

Cluster::Options LoggedOptions(RecoveryMode mode) {
  Cluster::Options opts;  // one partition
  opts.group_commit_size = 1;  // "without group commit" (§4.4)
  opts.log_sync = true;
  opts.recovery_mode = mode;
  return opts;
}

// ---- (a) logging throughput ----

void BM_LoggingThroughput(benchmark::State& state) {
  int num_procs = static_cast<int>(state.range(0));
  RecoveryMode mode =
      state.range(1) == 1 ? RecoveryMode::kWeak : RecoveryMode::kStrong;
  std::string tag = "fig9a_" + std::to_string(num_procs) +
                    (mode == RecoveryMode::kWeak ? "_weak" : "_strong");
  Cluster::Options opts = LoggedOptions(mode);
  opts.log_dir = TmpDir(tag);
  for (auto _ : state) {
    state.PauseTiming();
    Cluster cluster(opts);
    if (!cluster.Deploy(ChainTopology(num_procs)).ok()) {
      state.SkipWithError("setup failed");
      return;
    }
    cluster.Start();
    StreamInjector injector(&cluster.partition(0), PeTriggerChain::ProcName(1));
    sstore::Table* done = *cluster.store(0).catalog().GetTable("done");
    state.ResumeTiming();

    std::vector<sstore::BatchTicketPtr> tickets;
    for (int i = 0; i < kWorkflowsPerRun; ++i) {
      tickets.push_back(injector.InjectAsync({Value::BigInt(i)}));
    }
    for (auto& t : tickets) t->Wait();
    while (done->row_count() < kWorkflowsPerRun) {
      std::this_thread::yield();
    }
    state.PauseTiming();
    cluster.Stop();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * kWorkflowsPerRun);
  state.counters["workflows_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kWorkflowsPerRun),
      benchmark::Counter::kIsRate);
}

// ---- (b) recovery time ----

void BM_RecoveryTime(benchmark::State& state) {
  int num_procs = static_cast<int>(state.range(0));
  RecoveryMode mode =
      state.range(1) == 1 ? RecoveryMode::kWeak : RecoveryMode::kStrong;
  std::string tag = "fig9b_" + std::to_string(num_procs) +
                    (mode == RecoveryMode::kWeak ? "_weak" : "_strong");
  std::string ckpt_dir = TmpDir(tag + "_ckpt");
  std::string log_dir = TmpDir(tag + "_logs");
  Cluster::Options opts = LoggedOptions(mode);
  opts.log_sync = false;  // logging cost is measured in (a), not here

  for (auto _ : state) {
    // Build the pre-crash state: checkpoint empty, run R workflows logged.
    {
      Cluster::Options live_opts = opts;
      live_opts.log_dir = log_dir;
      Cluster live(live_opts);
      Status st = live.Deploy(ChainTopology(num_procs));
      if (st.ok()) st = live.Checkpoint(ckpt_dir);
      if (!st.ok()) {
        state.SkipWithError(("setup failed: " + st.ToString()).c_str());
        return;
      }
      StreamInjector injector(&live.partition(0), PeTriggerChain::ProcName(1));
      for (int i = 0; i < kWorkflowsPerRun; ++i) {
        injector.InjectSync({Value::BigInt(i)});
      }
    }  // crash

    Cluster fresh(opts);
    if (!fresh.Deploy(ChainTopology(num_procs)).ok()) {
      state.SkipWithError("setup failed");
      return;
    }
    // Replay is client-driven: each logged transaction is confirmed through
    // a client round trip before the next is sent (§4.4).
    fresh.partition(0).SetClientRoundTripMicros(50);
    if (!fresh.Recover(ckpt_dir, log_dir).ok()) {
      state.SkipWithError("recovery failed");
      return;
    }
    const sstore::RecoverStats rs = fresh.GatherStats().recover;
    state.SetIterationTime(static_cast<double>(rs.replay_us) / 1e6);
    state.counters["recovery_ms"] = static_cast<double>(rs.replay_us) / 1000.0;
    state.counters["rearm_ms"] = static_cast<double>(rs.rearm_us) / 1000.0;
    state.counters["replayed_records"] =
        static_cast<double>(rs.records_replayed);
    sstore::Table* done = *fresh.store(0).catalog().GetTable("done");
    if (done->row_count() != kWorkflowsPerRun) {
      state.SkipWithError("recovered state incomplete");
      return;
    }
  }
}

void AddArgs(benchmark::internal::Benchmark* b) {
  for (int procs : {1, 2, 5, 10}) {
    b->Args({procs, 0});  // strong
    b->Args({procs, 1});  // weak
  }
}

}  // namespace

BENCHMARK(BM_LoggingThroughput)
    ->ArgNames({"procs", "weak"})
    ->Apply(AddArgs)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Iterations(2);

BENCHMARK(BM_RecoveryTime)
    ->ArgNames({"procs", "weak"})
    ->Apply(AddArgs)
    ->Unit(benchmark::kMillisecond)
    ->UseManualTime()
    ->Iterations(2);

BENCHMARK_MAIN();
