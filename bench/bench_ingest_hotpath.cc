// Submission hot-path microbenchmark (PR 2): measures the client->PE
// enqueue/commit round trip with the engine work held near zero, so the
// numbers isolate the submission machinery itself — ticket allocation,
// queue synchronization, completion signaling.
//
// Benchmarks:
//   BM_SubmitPerInvocation   — the baseline: one one-slot BatchTicket
//                              (allocation + mutex/cv) per invocation,
//                              waited per batch.
//   BM_SubmitBatch           — batch-at-a-time: one BatchTicket per batch of
//                              K invocations, enqueued under one lock.
//   BM_InjectPerInvocation / — the same pair through StreamInjector (batch
//   BM_InjectBatch             ids assigned, border SP committed).
//   BM_ClusterIngest         — P producer threads feeding N partitions
//                              through a keyed ClusterInjector, per-
//                              invocation vs batched.
//   BM_BackpressureCpu       — producer CPU burned while throttled at a
//                              full queue (capacity 8; the producer blocks on
//                              the partition's condition variable).
//
// The acceptance gate for PR 2 compares BM_SubmitBatch against
// BM_SubmitPerInvocation (items_per_second, same machine): batched must be
// >= 2x. bench/run_bench.sh writes the results to BENCH_pr2.json.
//
// Since PR 8 the submit benches run with the observability instruments
// attached at production defaults (latency sampling 1-in-64, trace spans
// 1-in-32 of those) — the numbers ARE the instrumented hot path. The gate
// bounds the instrumentation cost at 3% on BM_SubmitBatch: A/B the same
// binary with BENCH_NO_OBS=1 (instrumented must be within 3% of
// uninstrumented; measured at parity, within run noise). Results land in
// BENCH_pr8.json; note the gap vs BENCH_pr2.json is the durability +
// coordination machinery PRs 3-7 added to the submit path, not the
// instruments.

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#ifdef __linux__
#include <sys/resource.h>
#endif

#include "cluster/cluster.h"
#include "cluster/cluster_injector.h"
#include "cluster/topology.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "streaming/injector.h"
#include "streaming/sstore.h"

namespace {

using sstore::BatchTicketPtr;
using sstore::Cluster;
using sstore::ClusterInjector;
using sstore::Invocation;
using sstore::LambdaProcedure;
using sstore::ProcContext;
using sstore::SpKind;
using sstore::SStore;
using sstore::Status;
using sstore::StreamInjector;
using sstore::Topology;
using sstore::Tuple;
using sstore::Value;

/// Near-empty border SP: commits immediately. Engine time ~0, so the
/// measured cost is the submission path.
std::shared_ptr<LambdaProcedure> NopProc() {
  return std::make_shared<LambdaProcedure>(
      [](ProcContext&) { return Status::OK(); });
}

/// Production-default instruments for a standalone SStore (Cluster attaches
/// its own): sampled latency histogram + trace ring, exactly what a serving
/// cluster pays per submit. Owns the sinks; keep alive until Stop().
/// BENCH_NO_OBS=1 skips the attach — the A/B that isolates the
/// instrumentation cost from everything else in the submit path.
struct BenchInstruments {
  sstore::LatencyHistogram latency;
  sstore::TraceRing trace{4096};

  void Attach(SStore* store) {
    if (std::getenv("BENCH_NO_OBS") != nullptr) return;
    sstore::PartitionInstruments inst;
    inst.latency_us = &latency;
    inst.latency_sample_every = 64;
    inst.trace = &trace;
    inst.trace_sample_every = 32;
    store->partition().SetInstruments(inst);
  }
};

// ---- Single-partition submit: per-invocation vs batched --------------------

void BM_SubmitPerInvocation(benchmark::State& state) {
  const size_t kBatch = static_cast<size_t>(state.range(0));
  SStore store;
  store.partition().RegisterProcedure("nop", SpKind::kBorder, NopProc()).ok();
  BenchInstruments obs;
  obs.Attach(&store);
  store.Start();

  std::vector<BatchTicketPtr> tickets;
  tickets.reserve(kBatch);
  for (auto _ : state) {
    tickets.clear();
    for (size_t i = 0; i < kBatch; ++i) {
      tickets.push_back(store.partition().SubmitAsync(
          Invocation{"nop", {Value::BigInt(static_cast<int64_t>(i))}, 0}));
    }
    for (auto& t : tickets) t->Wait();
  }
  store.Stop();
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kBatch));
}

void BM_SubmitBatch(benchmark::State& state) {
  const size_t kBatch = static_cast<size_t>(state.range(0));
  SStore store;
  store.partition().RegisterProcedure("nop", SpKind::kBorder, NopProc()).ok();
  BenchInstruments obs;
  obs.Attach(&store);
  store.Start();

  for (auto _ : state) {
    std::vector<Invocation> batch;
    batch.reserve(kBatch);
    for (size_t i = 0; i < kBatch; ++i) {
      batch.push_back(
          Invocation{"nop", {Value::BigInt(static_cast<int64_t>(i))}, 0});
    }
    store.partition().SubmitBatchAsync(std::move(batch))->Wait();
  }
  store.Stop();
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kBatch));
}

// ---- Injector path: batch ids + border SP ---------------------------------

void BM_InjectPerInvocation(benchmark::State& state) {
  const size_t kBatch = static_cast<size_t>(state.range(0));
  SStore store;
  store.partition().RegisterProcedure("nop", SpKind::kBorder, NopProc()).ok();
  BenchInstruments obs;
  obs.Attach(&store);
  store.Start();
  StreamInjector injector(&store.partition(), "nop");

  std::vector<BatchTicketPtr> tickets;
  tickets.reserve(kBatch);
  for (auto _ : state) {
    tickets.clear();
    for (size_t i = 0; i < kBatch; ++i) {
      tickets.push_back(
          injector.InjectAsync({Value::BigInt(static_cast<int64_t>(i))}));
    }
    for (auto& t : tickets) t->Wait();
  }
  store.Stop();
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kBatch));
}

void BM_InjectBatch(benchmark::State& state) {
  const size_t kBatch = static_cast<size_t>(state.range(0));
  SStore store;
  store.partition().RegisterProcedure("nop", SpKind::kBorder, NopProc()).ok();
  BenchInstruments obs;
  obs.Attach(&store);
  store.Start();
  StreamInjector injector(&store.partition(), "nop");

  for (auto _ : state) {
    std::vector<Tuple> batch;
    batch.reserve(kBatch);
    for (size_t i = 0; i < kBatch; ++i) {
      batch.push_back({Value::BigInt(static_cast<int64_t>(i))});
    }
    injector.InjectBatchAsync(std::move(batch))->Wait();
  }
  store.Stop();
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kBatch));
}

// ---- Multi-producer, multi-partition ingest --------------------------------

void BM_ClusterIngest(benchmark::State& state) {
  const int producers = static_cast<int>(state.range(0));
  const int partitions = static_cast<int>(state.range(1));
  const bool batched = state.range(2) != 0;
  constexpr int kItemsPerProducer = 20'000;
  constexpr size_t kBatch = 256;

  for (auto _ : state) {
    state.PauseTiming();
    Cluster cluster(partitions);
    Topology topo("nop");
    topo.RegisterProcedure("nop", SpKind::kBorder, NopProc());
    if (!cluster.Deploy(topo).ok()) {
      state.SkipWithError("deployment failed");
      return;
    }
    cluster.Start();
    ClusterInjector::Options opts;
    opts.key_column = 0;
    ClusterInjector injector(&cluster, "nop", opts);
    state.ResumeTiming();

    std::vector<std::thread> threads;
    for (int p = 0; p < producers; ++p) {
      threads.emplace_back([&, p] {
        if (batched) {
          for (int done = 0; done < kItemsPerProducer;) {
            std::vector<Tuple> batch;
            batch.reserve(kBatch);
            for (size_t i = 0; i < kBatch && done < kItemsPerProducer;
                 ++i, ++done) {
              batch.push_back({Value::BigInt(p * kItemsPerProducer + done)});
            }
            for (auto& t : injector.InjectBatchAsync(std::move(batch))) {
              t->Wait();
            }
          }
        } else {
          std::vector<BatchTicketPtr> tickets;
          tickets.reserve(kBatch);
          for (int done = 0; done < kItemsPerProducer;) {
            tickets.clear();
            for (size_t i = 0; i < kBatch && done < kItemsPerProducer;
                 ++i, ++done) {
              tickets.push_back(injector.InjectAsync(
                  {Value::BigInt(p * kItemsPerProducer + done)}));
            }
            for (auto& t : tickets) t->Wait();
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    cluster.WaitIdle();

    state.PauseTiming();
    cluster.Stop();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(producers) *
                          kItemsPerProducer);
}

// ---- Backpressure CPU ------------------------------------------------------

#ifdef __linux__
double ThreadCpuSeconds() {
  rusage ru;
  getrusage(RUSAGE_THREAD, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * t.tv_usec;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}
#else
double ThreadCpuSeconds() { return 0.0; }
#endif

void BM_BackpressureCpu(benchmark::State& state) {
  constexpr int kItems = 2'000;

  double cpu_frac_sum = 0;
  for (auto _ : state) {
    state.PauseTiming();
    SStore::Options store_opts;
    store_opts.queue_capacity = 8;
    SStore store(store_opts);
    // Slow consumer: the producer spends nearly all wall time throttled.
    store.partition()
        .RegisterProcedure("slow", SpKind::kBorder,
                           std::make_shared<LambdaProcedure>([](ProcContext&) {
                             std::this_thread::sleep_for(
                                 std::chrono::microseconds(20));
                             return Status::OK();
                           }))
        .ok();
    store.Start();
    StreamInjector injector(&store.partition(), "slow");
    state.ResumeTiming();

    double cpu = 0, wall = 0;
    std::thread producer([&] {
      double cpu0 = ThreadCpuSeconds();
      auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < kItems; ++i) {
        injector.InjectAsync({Value::BigInt(i)});
      }
      store.partition().WaitIdle();
      wall = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           t0)
                 .count();
      cpu = ThreadCpuSeconds() - cpu0;
    });
    producer.join();
    cpu_frac_sum += wall > 0 ? cpu / wall : 0;

    state.PauseTiming();
    store.Stop();
    state.ResumeTiming();
  }
  // Producer CPU per wall second while throttled: near 0, since the
  // producer sleeps until the worker retires work.
  state.counters["producer_cpu_frac"] =
      cpu_frac_sum / static_cast<double>(state.iterations());
  state.SetItemsProcessed(state.iterations() * kItems);
}

}  // namespace

BENCHMARK(BM_SubmitPerInvocation)
    ->ArgName("batch")
    ->Arg(1)
    ->Arg(16)
    ->Arg(64)
    ->Arg(512);
BENCHMARK(BM_SubmitBatch)->ArgName("batch")->Arg(1)->Arg(16)->Arg(64)->Arg(512);
BENCHMARK(BM_InjectPerInvocation)->ArgName("batch")->Arg(64)->Arg(512);
BENCHMARK(BM_InjectBatch)->ArgName("batch")->Arg(64)->Arg(512);
BENCHMARK(BM_ClusterIngest)
    ->ArgNames({"producers", "partitions", "batched"})
    ->Args({1, 1, 0})
    ->Args({1, 1, 1})
    ->Args({2, 2, 0})
    ->Args({2, 2, 1})
    ->Args({4, 4, 0})
    ->Args({4, 4, 1})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Iterations(1);
BENCHMARK(BM_BackpressureCpu)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Iterations(3);

BENCHMARK_MAIN();
