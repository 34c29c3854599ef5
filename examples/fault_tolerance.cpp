// Fault tolerance walkthrough (paper §2.4 / §3.2.5): run a streaming
// workflow with command logging, "crash", then recover with either strong
// recovery (exact pre-crash state; every TE logged and replayed with PE
// triggers disabled) or weak recovery (upstream backup: only border TEs
// logged; interior TEs regenerate through PE triggers during replay).
//
// Run: ./build/examples/fault_tolerance [strong|weak]

#include <cstdio>
#include <cstring>
#include <memory>

#include "cluster/topology.h"
#include "query/expr.h"
#include "streaming/injector.h"
#include "streaming/sstore.h"

using namespace sstore;  // NOLINT: example brevity

namespace {

// A tiny bank-deposit pipeline: deposits stream in; the interior SP applies
// them to an accounts table. One topology describes the app; recovery
// re-applies it to a blank store before replay — exactly why the builder
// records steps instead of executing them ad hoc.
Topology BuildBankTopology() {
  Schema deposit({{"account", ValueType::kBigInt}, {"amount", ValueType::kBigInt}});
  Topology topo("bank");
  topo.DefineStream("deposits", deposit)
      .CreateTable("accounts", deposit)
      .CreateIndex("accounts", "pk", {"account"}, /*unique=*/true);
  for (int64_t a = 0; a < 4; ++a) {
    topo.InsertRow("accounts", {Value::BigInt(a), Value::BigInt(0)});
  }
  topo.RegisterProcedure(
          "ingest", SpKind::kBorder,
          std::make_shared<LambdaProcedure>([](ProcContext& ctx) {
            return ctx.EmitToStream("deposits", {ctx.params()});
          }))
      .RegisterProcedure(
          "apply", SpKind::kInterior,
          [](SStore& store) -> std::shared_ptr<StoredProcedure> {
            SStore* s = &store;
            return std::make_shared<LambdaProcedure>([s](ProcContext& ctx) {
              SSTORE_ASSIGN_OR_RETURN(
                  std::vector<Tuple> rows,
                  s->streams().BatchContents("deposits", ctx.batch_id()));
              SSTORE_ASSIGN_OR_RETURN(Table * accounts, ctx.table("accounts"));
              for (const Tuple& r : rows) {
                SSTORE_ASSIGN_OR_RETURN(
                    size_t n,
                    ctx.exec().Update(accounts, Eq(Col(0), Lit(r[0])),
                                      {{1, Add(Col(1), Lit(r[1]))}}));
                (void)n;
              }
              return Status::OK();
            });
          });
  WorkflowNode n1, n2;
  n1.proc = "ingest";
  n1.kind = SpKind::kBorder;
  n1.output_streams = {"deposits"};
  n2.proc = "apply";
  n2.kind = SpKind::kInterior;
  n2.input_streams = {"deposits"};
  topo.AddStage(n1).AddStage(n2);
  return topo;
}

Status SetupApp(SStore& store) {
  return BuildBankTopology().ApplyTo(store, /*p=*/0);
}

int64_t TotalBalance(SStore& store) {
  Table* accounts = *store.catalog().GetTable("accounts");
  int64_t total = 0;
  accounts->ForEach([&](RowId, const Tuple& row, const RowMeta&) {
    total += row[1].as_int64();
    return true;
  });
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  RecoveryMode mode = RecoveryMode::kWeak;
  if (argc > 1 && std::strcmp(argv[1], "strong") == 0) {
    mode = RecoveryMode::kStrong;
  }
  const char* mode_name = mode == RecoveryMode::kStrong ? "strong" : "weak";
  const char* log_path = "/tmp/sstore_example.log";
  const char* snap_path = "/tmp/sstore_example.snap";

  int64_t expected = 0;
  {
    SStore::Options opts;
    opts.log_path = log_path;
    opts.recovery_mode = mode;
    SStore live(opts);
    if (!SetupApp(live).ok()) return 1;
    if (!live.Checkpoint(snap_path).ok()) return 1;

    StreamInjector injector(&live.partition(), "ingest");
    for (int i = 1; i <= 100; ++i) {
      injector.InjectSync({Value::BigInt(i % 4), Value::BigInt(i)});
      expected += i;
    }
    std::printf("pre-crash:  total balance = %lld (log: %llu records)\n",
                static_cast<long long>(TotalBalance(live)),
                static_cast<unsigned long long>(
                    live.partition().command_log()->records_appended()));
    live.partition().DetachCommandLog().ok();
    // The process "crashes" here: all in-memory state is lost.
  }

  SStore recovered;
  if (!SetupApp(recovered).ok()) return 1;
  Status st = recovered.Recover(snap_path, log_path, mode);
  if (!st.ok()) {
    std::fprintf(stderr, "recovery failed: %s\n", st.ToString().c_str());
    return 1;
  }
  int64_t after = TotalBalance(recovered);
  std::printf("post-crash: total balance = %lld after %s recovery "
              "(%zu records replayed, %zu residual triggers)\n",
              static_cast<long long>(after), mode_name,
              recovered.recovery().replay_stats().records_replayed,
              recovered.recovery().replay_stats().residual_triggers);
  std::printf("%s\n", after == expected ? "state matches exactly-once semantics"
                                        : "STATE MISMATCH");
  return after == expected ? 0 : 1;
}
