// Query-layer benchmark for the shapes the voter runs on every vote.
//
// Benchmarks:
//   BM_UpdateByKey/<rows>/<indexed>
//     `Executor::Update` with a `col = literal` predicate, the per-vote
//     count bump.
//     rows     64 (the voter's contestant table) or 4096.
//     indexed  1: the executor probes the table's `pk` index for the
//              matching row; 0: no index, so every update scans the table.
//     With the index the cost per update is flat in the row count; without
//     it the cost grows linearly with the table.
//   BM_CountWithPredicate
//     `Count` over the 64-row contestants table with `active = 1`: the
//     compiled filter alone, one comparison per row.
//   BM_TopNScan
//     The leaderboard's top-3: `Scan` of 64 contestants with a predicate,
//     a projection and `ORDER BY cnt DESC, id LIMIT 3`.
//   BM_LeaderboardTopBottom
//     Both of the voter's `RecomputeTopBottom` scans (top-3 and bottom-3 of
//     the active contestants by count, ties by id) over counts that follow
//     the live vote skew (count proportional to id + 1, so in slot order
//     every row beats the current top-3), with their results checked.
//   BM_GroupByTopN
//     The trending board: `Aggregate` over a 100-row window with ~50
//     distinct contestants, `GROUP BY id`, COUNT, `ORDER BY cnt DESC, id
//     LIMIT 3`.
//   BM_GroupByTopNStringKey, BM_GroupByTopNWindow1000
//     The same query with a STRING group key ("contestant_<id>"), and over
//     a 1000-row window (all 64 contestants present).
//   BM_VoteRowBytes
//     Inserts 60,000 rows of the voter's `votes` schema, with its unique
//     `by_phone` and non-unique `by_contestant` indexes, into a fresh
//     table once. `bytes_per_row` is the process's VmRSS growth over those
//     inserts divided by the row count (freed heap is trimmed first): what
//     a stored vote costs in memory, slot, row and index entries together.
//   BM_TupleWindowSlide
//     The trending window's per-vote step: `WindowManager::Insert` of one
//     row into a full tuple-based window of 100 rows sliding by 1, so every
//     iteration stages a row, expires the oldest and activates the new one,
//     undo-logged as in a transaction.
//
//   BENCH=bench_update_by_key bench/run_bench.sh
// `--smoke` (CI) maps to a short --benchmark_min_time run. The process
// exits 1 when any benchmark failed its own result check.

#include <benchmark/benchmark.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/txn.h"
#include "query/executor.h"
#include "query/expr.h"
#include "query/plan.h"
#include "storage/table.h"
#include "streaming/sstore.h"

namespace {

/// Set when a benchmark fails its result check; main's exit status.
bool g_failed = false;

/// SkipWithError that also fails the run.
void Fail(benchmark::State& state, const char* why) {
  g_failed = true;
  state.SkipWithError(why);
}

using sstore::Add;
using sstore::AggFunc;
using sstore::AggregateSpec;
using sstore::Col;
using sstore::Eq;
using sstore::Executor;
using sstore::LitInt;
using sstore::Rng;
using sstore::ScanSpec;
using sstore::Schema;
using sstore::SStore;
using sstore::Table;
using sstore::Tuple;
using sstore::UndoLog;
using sstore::Value;
using sstore::ValueType;
using sstore::WindowKind;
using sstore::WindowSpec;

/// This process's resident set size in bytes (VmRSS), or -1 if unreadable.
int64_t ResidentBytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  int64_t kb = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      kb = std::strtoll(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb < 0 ? -1 : kb * 1024;
}

// Registered first, so it runs before the other benchmarks have grown and
// fragmented the heap.
void BM_VoteRowBytes(benchmark::State& state) {
  constexpr int64_t kRows = 60000;
  std::unique_ptr<Table> table;  // torn down outside the timed loop
  for (auto _ : state) {
    state.PauseTiming();
    table = std::make_unique<Table>(
        "votes", Schema({{"phone", ValueType::kBigInt},
                         {"contestant_id", ValueType::kBigInt},
                         {"ts", ValueType::kTimestamp}}));
    Table& votes = *table;
    if (!votes.CreateIndex("by_phone", {"phone"}, true).ok() ||
        !votes.CreateIndex("by_contestant", {"contestant_id"}, false).ok()) {
      Fail(state, "index creation failed");
      return;
    }
#if defined(__GLIBC__)
    malloc_trim(0);
#endif
    int64_t before = ResidentBytes();
    state.ResumeTiming();
    for (int64_t r = 0; r < kRows; ++r) {
      if (!votes
               .Insert({Value::BigInt(5550000000 + r), Value::BigInt(r % 6),
                        Value::Timestamp(r * 100)})
               .ok()) {
        Fail(state, "vote insert failed");
        return;
      }
    }
    state.PauseTiming();
    int64_t after = ResidentBytes();
    if (before < 0 || after < 0) {
      Fail(state, "VmRSS unreadable");
      return;
    }
    state.counters["bytes_per_row"] =
        static_cast<double>(after - before) / static_cast<double>(kRows);
    benchmark::DoNotOptimize(votes.row_count());
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_VoteRowBytes)->Iterations(1);

void BM_UpdateByKey(benchmark::State& state) {
  const int64_t rows = state.range(0);
  const bool indexed = state.range(1) != 0;
  Table table("contestants", Schema({{"contestant_id", ValueType::kBigInt},
                                     {"vote_count", ValueType::kBigInt}}));
  if (indexed && !table.CreateIndex("pk", {"contestant_id"}, true).ok()) {
    Fail(state, "index creation failed");
    return;
  }
  for (int64_t r = 0; r < rows; ++r) {
    if (!table.Insert({Value::BigInt(r), Value::BigInt(0)}).ok()) {
      Fail(state, "seed insert failed");
      return;
    }
  }
  Executor exec;
  int64_t key = 0;
  for (auto _ : state) {
    auto n = exec.Update(&table, Eq(Col(0), LitInt(key)),
                         {{1, Add(Col(1), LitInt(1))}});
    benchmark::DoNotOptimize(n);
    if (!n.ok() || *n != 1) {
      Fail(state, "update did not hit exactly one row");
      return;
    }
    key = key + 1 == rows ? 0 : key + 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UpdateByKey)->ArgsProduct({{64, 4096}, {0, 1}});

/// The voter's contestants table: 64 active contestants whose vote
/// counts are `count(id)`.
template <typename CountOf>
bool FillContestants(Table* table, CountOf count) {
  for (int64_t c = 0; c < 64; ++c) {
    if (!table
             ->Insert({Value::BigInt(c),
                       Value::String("contestant_" + std::to_string(c)),
                       Value::BigInt(1), Value::BigInt(count(c))})
             .ok()) {
      return false;
    }
  }
  return true;
}

Schema ContestantsSchema() {
  return Schema({{"contestant_id", ValueType::kBigInt},
                 {"name", ValueType::kString},
                 {"active", ValueType::kBigInt},
                 {"vote_count", ValueType::kBigInt}});
}

void BM_CountWithPredicate(benchmark::State& state) {
  Table table("contestants", ContestantsSchema());
  if (!FillContestants(&table, [](int64_t c) { return c; })) {
    Fail(state, "seed insert failed");
    return;
  }
  Executor exec;
  for (auto _ : state) {
    auto n = exec.Count(&table, Eq(Col(2), LitInt(1)));
    benchmark::DoNotOptimize(n);
    if (!n.ok() || *n != 64) {
      Fail(state, "count did not see the 64 active contestants");
      return;
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CountWithPredicate);

void BM_TopNScan(benchmark::State& state) {
  Table table("contestants", ContestantsSchema());
  Rng rng(7);
  // Counts with ties, as a running vote has.
  if (!FillContestants(&table,
                       [&rng](int64_t) { return rng.NextRange(0, 40); })) {
    Fail(state, "seed insert failed");
    return;
  }
  Executor exec;
  ScanSpec spec;
  spec.table = &table;
  spec.predicate = Eq(Col(2), LitInt(1));
  spec.projection = {0, 3};
  spec.order_by = {{1, /*descending=*/true}, {0, false}};
  spec.limit = 3;
  for (auto _ : state) {
    auto rows = exec.Scan(spec);
    benchmark::DoNotOptimize(rows);
    if (!rows.ok() || rows->size() != 3) {
      Fail(state, "top-3 scan did not return 3 rows");
      return;
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TopNScan);

void BM_LeaderboardTopBottom(benchmark::State& state) {
  Table table("contestants", ContestantsSchema());
  if (!FillContestants(&table, [](int64_t c) { return 10 * (c + 1); })) {
    Fail(state, "seed insert failed");
    return;
  }
  Executor exec;
  ScanSpec spec;
  spec.table = &table;
  spec.predicate = Eq(Col(2), LitInt(1));
  spec.projection = {0, 3};
  spec.limit = 3;
  const std::vector<int64_t> want_top = {63, 62, 61};
  const std::vector<int64_t> want_bottom = {0, 1, 2};
  auto ids = [](const std::vector<Tuple>& rows) {
    std::vector<int64_t> out;
    for (const Tuple& row : rows) out.push_back(row[0].as_int64());
    return out;
  };
  for (auto _ : state) {
    spec.order_by = {{1, /*descending=*/true}, {0, false}};
    auto top = exec.Scan(spec);
    spec.order_by = {{1, false}, {0, false}};
    auto bottom = exec.Scan(spec);
    benchmark::DoNotOptimize(top);
    benchmark::DoNotOptimize(bottom);
    if (!top.ok() || !bottom.ok() || ids(*top) != want_top ||
        ids(*bottom) != want_bottom) {
      Fail(state, "top-3 or bottom-3 is not the reference's");
      return;
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LeaderboardTopBottom);

void GroupByTopN(benchmark::State& state, int rows, bool string_key) {
  Table window("w_trending",
               Schema({{"contestant_id", string_key ? ValueType::kString
                                                    : ValueType::kBigInt}}));
  Rng rng(11);
  for (int r = 0; r < rows; ++r) {
    int64_t id = rng.NextRange(0, 63);
    Value key = string_key ? Value::String("contestant_" + std::to_string(id))
                           : Value::BigInt(id);
    if (!window.Insert({key}).ok()) {
      Fail(state, "seed insert failed");
      return;
    }
  }
  Executor exec;
  AggregateSpec spec;
  spec.table = &window;
  spec.group_by = {0};
  spec.aggregates = {{AggFunc::kCount, 0}};
  spec.order_by = {{1, /*descending=*/true}, {0, false}};
  spec.limit = 3;
  for (auto _ : state) {
    auto rows = exec.Aggregate(spec);
    benchmark::DoNotOptimize(rows);
    if (!rows.ok() || rows->size() != 3) {
      Fail(state, "trending top-3 did not return 3 rows");
      return;
    }
  }
  state.SetItemsProcessed(state.iterations());
}
void BM_GroupByTopN(benchmark::State& state) { GroupByTopN(state, 100, false); }
BENCHMARK(BM_GroupByTopN);
void BM_GroupByTopNStringKey(benchmark::State& state) {
  GroupByTopN(state, 100, true);
}
BENCHMARK(BM_GroupByTopNStringKey);
void BM_GroupByTopNWindow1000(benchmark::State& state) {
  GroupByTopN(state, 1000, false);
}
BENCHMARK(BM_GroupByTopNWindow1000);

void BM_TupleWindowSlide(benchmark::State& state) {
  SStore store;
  WindowSpec spec;
  spec.name = "w_trending";
  spec.schema = Schema({{"contestant_id", ValueType::kBigInt}});
  spec.kind = WindowKind::kTupleBased;
  spec.size = 100;
  spec.slide = 1;
  if (!store.windows().DefineWindow(spec).ok()) {
    Fail(state, "window definition failed");
    return;
  }
  Rng rng(13);
  Executor fill;
  for (int r = 0; r < 100; ++r) {
    if (!store.windows()
             .Insert(fill, "w_trending", {{Value::BigInt(rng.NextRange(0, 63))}})
             .ok()) {
      Fail(state, "seed insert failed");
      return;
    }
  }
  for (auto _ : state) {
    UndoLog undo;
    Executor exec(&undo);
    std::vector<Tuple> row = {{Value::BigInt(rng.NextRange(0, 63))}};
    sstore::Status st = store.windows().Insert(exec, "w_trending", row);
    if (!st.ok()) {
      Fail(state, "window insert failed");
      return;
    }
    undo.Release();
  }
  auto slides = store.windows().SlideCount("w_trending");
  if (!slides.ok() || *slides != state.iterations() + 1) {
    Fail(state, "the window did not slide once per insert");
    return;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TupleWindowSlide);

}  // namespace

// Custom main so CI can ask for a smoke run without knowing google-benchmark
// flag syntax: `bench_update_by_key --smoke` == a short min_time run.
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
  return g_failed ? 1 : 0;
}
