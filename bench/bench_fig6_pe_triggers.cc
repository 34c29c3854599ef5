// Figure 6 — Partition Engine triggers (paper §4.2).
//
// A workflow of N identical stored procedures must execute in exact
// sequence per input tuple. S-Store activates each successor via PE
// triggers fast-tracked by the streaming scheduler; H-Store must return to
// the client after every transaction, and the client cannot submit
// asynchronously without breaking workflow order.
//
// Paper shape (log scale): S-Store processes roughly an order of magnitude
// more workflows/sec; the gap grows with workflow length.

#include <benchmark/benchmark.h>

#include "streaming/injector.h"
#include "streaming/sstore.h"
#include "workloads/microbench.h"

namespace {

using sstore::PeTriggerChain;
using sstore::SStore;
using sstore::StreamInjector;
using sstore::Value;

constexpr int kWorkflowsPerRun = 1000;

void BM_PeTriggersSStore(benchmark::State& state) {
  int num_procs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    SStore store;
    if (!PeTriggerChain::SetupSStore(&store, num_procs).ok()) {
      state.SkipWithError("setup failed");
      return;
    }
    store.Start();
    StreamInjector injector(&store.partition(), PeTriggerChain::ProcName(1));
    sstore::Table* done = *store.catalog().GetTable("done");
    state.ResumeTiming();

    // Asynchronous, non-blocking client: PE triggers drive the chain.
    std::vector<sstore::BatchTicketPtr> tickets;
    tickets.reserve(kWorkflowsPerRun);
    for (int i = 0; i < kWorkflowsPerRun; ++i) {
      tickets.push_back(injector.InjectAsync({Value::BigInt(i)}));
    }
    for (auto& t : tickets) t->Wait();
    while (done->row_count() < kWorkflowsPerRun) {
      std::this_thread::yield();  // interior TEs still draining
    }
    state.PauseTiming();
    store.Stop();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * kWorkflowsPerRun);
  state.counters["workflows_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kWorkflowsPerRun),
      benchmark::Counter::kIsRate);
}

void BM_PeTriggersHStore(benchmark::State& state) {
  int num_procs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    SStore store;
    if (!PeTriggerChain::SetupHStore(&store, num_procs).ok()) {
      state.SkipWithError("setup failed");
      return;
    }
    store.Start();
    // A real H-Store client reaches the PE through the network/RPC stack;
    // S-Store's PE triggers never leave the engine (see DESIGN.md §2).
    store.partition().SetClientRoundTripMicros(50);
    state.ResumeTiming();

    // The client must confirm each transaction before the next (§4.2).
    for (int i = 0; i < kWorkflowsPerRun; ++i) {
      sstore::Status st = PeTriggerChain::RunChainHStore(
          &store, num_procs, /*batch_id=*/i + 1, {Value::BigInt(i)});
      if (!st.ok()) {
        state.SkipWithError("workflow failed");
        return;
      }
    }
    state.PauseTiming();
    store.Stop();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * kWorkflowsPerRun);
  state.counters["workflows_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kWorkflowsPerRun),
      benchmark::Counter::kIsRate);
}

}  // namespace

BENCHMARK(BM_PeTriggersSStore)
    ->ArgName("procs")
    ->Arg(1)
    ->Arg(2)
    ->Arg(5)
    ->Arg(10)
    ->Arg(20)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Iterations(3);

BENCHMARK(BM_PeTriggersHStore)
    ->ArgName("procs")
    ->Arg(1)
    ->Arg(2)
    ->Arg(5)
    ->Arg(10)
    ->Arg(20)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Iterations(3);

BENCHMARK_MAIN();
