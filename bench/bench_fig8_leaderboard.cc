// Figure 8 — Voter-with-Leaderboard: S-Store vs H-Store (paper §4.5).
//
// The full three-SP workflow (validate -> maintain leaderboards -> remove
// lowest every 1000 votes) driven at a fixed offered input rate.
//
// S-Store: the client injects votes asynchronously; PE triggers + the
// streaming scheduler run the rest of each workflow inside the engine.
// H-Store: the client must submit the three transactions synchronously per
// vote, waiting for each commit.
//
// Paper shape: both systems track the offered rate at low input rates;
// H-Store saturates early (the client round trips dominate) while S-Store
// keeps up to roughly 5-6x higher rates.

#include <benchmark/benchmark.h>

#include <chrono>
#include <thread>

#include "streaming/sstore.h"
#include "workloads/voter.h"

namespace {

using sstore::SStore;
using sstore::Tuple;
using sstore::VoteGenerator;
using sstore::VoterApp;
using sstore::VoterConfig;

constexpr double kRunSeconds = 1.0;

/// Drives `app` at `rate` votes/sec for kRunSeconds; returns completed
/// workflows (valid votes fully processed).
double DriveSStore(SStore& store, VoterApp& app, int rate) {
  VoteGenerator gen(app.config(), /*seed=*/42);
  auto start = std::chrono::steady_clock::now();
  auto deadline = start + std::chrono::duration<double>(kRunSeconds);
  int64_t interval_ns = static_cast<int64_t>(1e9 / rate);
  auto next_send = start;
  std::vector<sstore::BatchTicketPtr> tickets;
  while (std::chrono::steady_clock::now() < deadline) {
    if (std::chrono::steady_clock::now() >= next_send) {
      tickets.push_back(app.InjectVoteAsync(gen.Next()));
      next_send += std::chrono::nanoseconds(interval_ns);
    }
  }
  for (auto& t : tickets) t->Wait();
  while (store.partition().QueueDepth() > 0) {
    std::this_thread::yield();
  }
  double elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  // A completed workflow == all three TEs committed (invalid votes abort at
  // validate and complete no workflow).
  return static_cast<double>(store.partition().stats().committed) / 3.0 /
         elapsed;
}

double DriveHStore(SStore& store, VoterApp& app, int rate) {
  (void)store;
  VoteGenerator gen(app.config(), /*seed=*/42);
  auto start = std::chrono::steady_clock::now();
  auto deadline = start + std::chrono::duration<double>(kRunSeconds);
  int64_t interval_ns = static_cast<int64_t>(1e9 / rate);
  auto next_send = start;
  int64_t completed = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    auto now = std::chrono::steady_clock::now();
    if (now < next_send) continue;  // pace the offered load
    next_send += std::chrono::nanoseconds(interval_ns);
    if (app.ProcessVoteHStore(gen.Next()).ok()) ++completed;
  }
  double elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  return static_cast<double>(completed) / elapsed;
}

void BM_Leaderboard(benchmark::State& state) {
  int rate = static_cast<int>(state.range(0));
  bool sstore_mode = state.range(1) == 1;

  for (auto _ : state) {
    SStore store;
    VoterConfig config;
    config.sstore_mode = sstore_mode;
    VoterApp app(&store, config);
    if (!app.Setup().ok()) {
      state.SkipWithError("setup failed");
      return;
    }
    store.Start();
    if (!sstore_mode) {
      // H-Store's client drives all three transactions per vote through the
      // network/RPC stack (see DESIGN.md §2); S-Store's client only injects.
      store.partition().SetClientRoundTripMicros(150);
    }
    double throughput = sstore_mode ? DriveSStore(store, app, rate)
                                    : DriveHStore(store, app, rate);
    store.Stop();
    state.counters["offered_rate"] = rate;
    state.counters["workflows_per_sec"] = throughput;
  }
}

void AddArgs(benchmark::internal::Benchmark* b) {
  for (int rate : {500, 1000, 2000, 4000, 8000, 16000, 32000}) {
    b->Args({rate, 1});
    b->Args({rate, 0});
  }
}

}  // namespace

BENCHMARK(BM_Leaderboard)
    ->ArgNames({"rate", "sstore"})
    ->Apply(AddArgs)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Iterations(1);

BENCHMARK_MAIN();
