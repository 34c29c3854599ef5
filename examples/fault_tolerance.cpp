// Fault tolerance walkthrough (paper §2.4 / §3.2.5): run a streaming
// workflow on a one-partition cluster with command logging, checkpoint,
// "crash", then recover with either strong recovery (exact pre-crash state;
// every TE logged and replayed with PE triggers disabled) or weak recovery
// (upstream backup: only border TEs logged; interior TEs regenerate through
// PE triggers during replay).
//
// Run: ./build/examples/fault_tolerance [strong|weak]

#include <sys/stat.h>

#include <cstdio>
#include <cstring>
#include <memory>

#include "cluster/cluster.h"
#include "cluster/topology.h"
#include "query/expr.h"
#include "streaming/injector.h"
#include "streaming/sstore.h"

using namespace sstore;  // NOLINT: example brevity

namespace {

// A tiny bank-deposit pipeline: deposits stream in; the interior SP applies
// them to an accounts table. One topology describes the app; recovery
// re-deploys it onto a blank one-partition cluster before replay — exactly
// why the builder records steps instead of executing them ad hoc.
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
  const char* ckpt_dir = "/tmp/sstore_example_ckpt";
  const char* log_dir = "/tmp/sstore_example_logs";
  ::mkdir(ckpt_dir, 0755);
  ::mkdir(log_dir, 0755);
  const Topology bank = BuildBankTopology();
  Cluster::Options opts;  // one partition
  opts.recovery_mode = mode;

  int64_t expected = 0;
  {
    Cluster::Options live_opts = opts;
    live_opts.log_dir = log_dir;
    Cluster live(live_opts);
    Status st = live.Deploy(bank);
    if (st.ok()) st = live.Checkpoint(ckpt_dir);
    if (!st.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
      return 1;
    }

    StreamInjector injector(&live.partition(0), "ingest");
    for (int i = 1; i <= 100; ++i) {
      injector.InjectSync({Value::BigInt(i % 4), Value::BigInt(i)});
      expected += i;
    }
    std::printf("pre-crash:  total balance = %lld (log: %llu records)\n",
                static_cast<long long>(TotalBalance(live.store(0))),
                static_cast<unsigned long long>(
                    live.GatherStats().log.records_appended));
    // The process "crashes" here: all in-memory state is lost; the
    // checkpoint in ckpt_dir and the command log in log_dir survive.
  }

  // Same partition count, same topology, same recovery mode, no log_dir:
  // Recover replays the surviving log, then re-arms a fresh one.
  Cluster recovered(opts);
  Status st = recovered.Deploy(bank);
  if (st.ok()) st = recovered.Recover(ckpt_dir, log_dir);
  if (!st.ok()) {
    std::fprintf(stderr, "recovery failed: %s\n", st.ToString().c_str());
    return 1;
  }
  int64_t after = TotalBalance(recovered.store(0));
  const RecoverStats rs = recovered.GatherStats().recover;
  std::printf("post-crash: total balance = %lld after %s recovery "
              "(%llu records replayed, %llu residual triggers, "
              "replay %llu us)\n",
              static_cast<long long>(after), mode_name,
              static_cast<unsigned long long>(rs.records_replayed),
              static_cast<unsigned long long>(rs.residual_triggers),
              static_cast<unsigned long long>(rs.replay_us));
  std::printf("%s\n", after == expected ? "state matches exactly-once semantics"
                                        : "STATE MISMATCH");
  return after == expected ? 0 : 1;
}
