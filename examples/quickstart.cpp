// Quickstart: the smallest useful S-Store program.
//
// Demonstrates the hybrid model of the paper: an OLTP transaction and a
// streaming workflow share one table with full ACID guarantees.
//
//   stream "readings" --> [ingest (border SP)] --> [rollup (interior SP)]
//                                                        |
//                        public table "totals" <---------+
//                               ^
//        [lookup (OLTP SP)] ----+   (clients query totals transactionally)
//
// The Topology built below applies unchanged to a single store (here) or to
// every partition of a Cluster; give its stages placements (cluster/
// topology.h) to pin or key them across partitions, and see
// docs/ARCHITECTURE.md for where the cluster, coordinator, channel, and
// rebalancing layers pick up from this program.
//
// Build: cmake --build build && ./build/examples/quickstart

#include <cstdio>

#include "cluster/topology.h"
#include "query/expr.h"
#include "streaming/injector.h"
#include "streaming/sstore.h"

using namespace sstore;  // NOLINT: example brevity

int main() {
  // One Topology describes the whole application — DDL, stored procedures,
  // and workflow stages. The same value applies unchanged to a single store
  // (here) or to every partition of a Cluster; its stages default to
  // kEverywhere and can be pinned or keyed per stage.
  Schema reading({{"sensor", ValueType::kBigInt}, {"value", ValueType::kBigInt}});
  Schema totals({{"sensor", ValueType::kBigInt}, {"sum", ValueType::kBigInt}});

  Topology app("quickstart");
  // --- DDL: one public table, one stream. ---
  app.DefineStream("readings", reading)
      .CreateTable("totals", totals)
      .CreateIndex("totals", "pk", {"sensor"}, /*unique=*/true)
      // --- Border SP: ingest one reading per atomic batch. ---
      .RegisterProcedure(
          "ingest", SpKind::kBorder,
          std::make_shared<LambdaProcedure>([](ProcContext& ctx) {
            return ctx.EmitToStream("readings", {ctx.params()});
          }))
      // --- Interior SP: fold the batch into per-sensor totals. The factory
      // binds each instance to its own store's StreamManager. ---
      .RegisterProcedure(
          "rollup", SpKind::kInterior,
          [](SStore& store) -> std::shared_ptr<StoredProcedure> {
            SStore* s = &store;
            return std::make_shared<LambdaProcedure>([s](ProcContext& ctx) {
              SSTORE_ASSIGN_OR_RETURN(
                  std::vector<Tuple> rows,
                  s->streams().BatchContents("readings", ctx.batch_id()));
              SSTORE_ASSIGN_OR_RETURN(Table * totals, ctx.table("totals"));
              for (const Tuple& r : rows) {
                SSTORE_ASSIGN_OR_RETURN(
                    std::vector<Tuple> existing,
                    ctx.exec().IndexScan(totals, "pk", {r[0]}));
                if (existing.empty()) {
                  SSTORE_ASSIGN_OR_RETURN(
                      RowId rid, ctx.exec().Insert(totals, {r[0], r[1]}));
                  (void)rid;
                } else {
                  SSTORE_ASSIGN_OR_RETURN(
                      size_t n,
                      ctx.exec().Update(totals, Eq(Col(0), Lit(r[0])),
                                        {{1, Add(Col(1), Lit(r[1]))}}));
                  (void)n;
                }
              }
              return Status::OK();
            });
          })
      // --- OLTP SP: transactional point lookup against the shared table. ---
      .RegisterProcedure(
          "lookup", SpKind::kOltp,
          std::make_shared<LambdaProcedure>([](ProcContext& ctx) {
            SSTORE_ASSIGN_OR_RETURN(Table * totals, ctx.table("totals"));
            SSTORE_ASSIGN_OR_RETURN(std::vector<Tuple> rows,
                                    ctx.exec().IndexScan(totals, "pk",
                                                         {ctx.params()[0]}));
            for (Tuple& r : rows) ctx.EmitOutput(std::move(r));
            return Status::OK();
          }));

  // --- Wire the workflow: PE trigger readings -> rollup. ---
  WorkflowNode n1, n2;
  n1.proc = "ingest";
  n1.kind = SpKind::kBorder;
  n1.output_streams = {"readings"};
  n2.proc = "rollup";
  n2.kind = SpKind::kInterior;
  n2.input_streams = {"readings"};
  app.AddStage(n1).AddStage(n2);

  // A standalone store is partition 0 of a one-partition deployment.
  SStore store;
  if (!app.ApplyTo(store, /*p=*/0).ok()) return 1;

  // --- Run: push readings, interleave OLTP lookups. ---
  store.Start();
  StreamInjector injector(&store.partition(), "ingest");
  for (int i = 0; i < 1000; ++i) {
    injector.InjectAsync({Value::BigInt(i % 4), Value::BigInt(i)});
  }
  // The streaming scheduler keeps each workflow round atomic even with this
  // OLTP transaction racing against the stream.
  TxnOutcome mid = store.partition().ExecuteSync("lookup", {Value::BigInt(2)});
  while (store.partition().QueueDepth() > 0) {
  }
  TxnOutcome done = store.partition().ExecuteSync("lookup", {Value::BigInt(2)});
  store.Stop();

  std::printf("mid-stream  total for sensor 2: %s\n",
              mid.output.empty() ? "(none)" : mid.output[0][1].ToString().c_str());
  std::printf("final       total for sensor 2: %s (expect 125000)\n",
              done.output[0][1].ToString().c_str());
  std::printf("transactions committed: %llu\n",
              static_cast<unsigned long long>(store.partition().stats().committed));
  return done.output[0][1].as_int64() == 125000 ? 0 : 1;
}
