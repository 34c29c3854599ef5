// Integration tests for hybrid OLTP + streaming schedules (paper §2.3),
// concurrency under the worker thread, and end-to-end invariants that cut
// across modules.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "query/expr.h"
#include "streaming/injector.h"
#include "streaming/sstore.h"
#include "workloads/microbench.h"

namespace sstore {
namespace {

Schema NumSchema() { return Schema({{"x", ValueType::kBigInt}}); }
Tuple Num(int64_t x) { return {Value::BigInt(x)}; }

/// A transfer-style invariant app: stream deposits move value from a
/// "pending" table into an "applied" table; an OLTP auditor transaction
/// asserts the combined total is conserved at every observation point.
class ConservationFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(store_.streams().DefineStream("moves", NumSchema()).ok());
    Table* pending = *store_.catalog().CreateTable("pending", NumSchema());
    ASSERT_TRUE(store_.catalog().CreateTable("applied", NumSchema()).ok());
    ASSERT_TRUE(pending->Insert(Num(kTotal)).ok());

    auto ingest = std::make_shared<LambdaProcedure>([](ProcContext& ctx) {
      return ctx.EmitToStream("moves", {ctx.params()});
    });
    SStore* s = &store_;
    // Interior SP: atomically move `amount` from pending to applied.
    auto apply = std::make_shared<LambdaProcedure>([s](ProcContext& ctx) {
      SSTORE_ASSIGN_OR_RETURN(
          std::vector<Tuple> rows,
          s->streams().BatchContents("moves", ctx.batch_id()));
      SSTORE_ASSIGN_OR_RETURN(Table * pending, ctx.table("pending"));
      SSTORE_ASSIGN_OR_RETURN(Table * applied, ctx.table("applied"));
      for (const Tuple& r : rows) {
        SSTORE_ASSIGN_OR_RETURN(
            size_t n, ctx.exec().Update(pending, nullptr,
                                        {{0, Sub(Col(0), Lit(r[0]))}}));
        (void)n;
        SSTORE_ASSIGN_OR_RETURN(RowId rid, ctx.exec().Insert(applied, r));
        (void)rid;
      }
      return Status::OK();
    });
    // OLTP auditor: reads both tables in one transaction.
    auto audit = std::make_shared<LambdaProcedure>([](ProcContext& ctx) {
      SSTORE_ASSIGN_OR_RETURN(Table * pending, ctx.table("pending"));
      SSTORE_ASSIGN_OR_RETURN(Table * applied, ctx.table("applied"));
      int64_t total = 0;
      pending->ForEach([&](RowId, const Tuple& row, const RowMeta&) {
        total += row[0].as_int64();
        return true;
      });
      applied->ForEach([&](RowId, const Tuple& row, const RowMeta&) {
        total += row[0].as_int64();
        return true;
      });
      ctx.EmitOutput(Num(total));
      return Status::OK();
    });
    ASSERT_TRUE(
        store_.partition().RegisterProcedure("ingest", SpKind::kBorder, ingest).ok());
    ASSERT_TRUE(
        store_.partition().RegisterProcedure("apply", SpKind::kInterior, apply).ok());
    ASSERT_TRUE(
        store_.partition().RegisterProcedure("audit", SpKind::kOltp, audit).ok());

    Workflow wf("conservation");
    WorkflowNode n1, n2;
    n1.proc = "ingest";
    n1.kind = SpKind::kBorder;
    n1.output_streams = {"moves"};
    n2.proc = "apply";
    n2.kind = SpKind::kInterior;
    n2.input_streams = {"moves"};
    ASSERT_TRUE(wf.AddNode(n1).ok());
    ASSERT_TRUE(wf.AddNode(n2).ok());
    ASSERT_TRUE(store_.DeployWorkflow(wf).ok());
  }

  static constexpr int64_t kTotal = 1'000'000;
  SStore store_;
};

TEST_F(ConservationFixture, OltpAuditsNeverSeePartialWorkflows) {
  // NOTE: within one workflow round, pending and applied are updated by the
  // *same* TE, so any interleaved OLTP read sees a consistent total. The
  // auditor hammers the queue while 500 streaming rounds execute.
  store_.Start();
  StreamInjector injector(&store_.partition(), "ingest");
  std::atomic<bool> stop{false};
  std::atomic<int> audits{0};
  std::atomic<int> violations{0};
  std::thread auditor([&] {
    while (!stop.load()) {
      TxnOutcome out = store_.partition().ExecuteSync("audit", {});
      if (!out.committed()) continue;
      ++audits;
      if (out.output[0][0].as_int64() != kTotal) ++violations;
    }
  });
  std::vector<BatchTicketPtr> tickets;
  for (int i = 1; i <= 500; ++i) tickets.push_back(injector.InjectAsync(Num(i)));
  for (auto& t : tickets) ASSERT_TRUE(t->Wait()[0].committed());
  // On a loaded machine the auditor thread may not have been scheduled yet;
  // let at least one audit commit before stopping it.
  while (audits.load() == 0) {
    std::this_thread::yield();
  }
  // Stop the auditor before draining — it keeps the queue non-empty.
  stop.store(true);
  auditor.join();
  while (store_.partition().QueueDepth() > 0) {
    std::this_thread::yield();
  }
  store_.Stop();
  EXPECT_GT(audits.load(), 0);
  EXPECT_EQ(violations.load(), 0);
  // All moves landed.
  Table* applied = *store_.catalog().GetTable("applied");
  EXPECT_EQ(applied->row_count(), 500u);
}

TEST_F(ConservationFixture, NestedRoundsStayAtomicUnderConcurrentAudits) {
  // Run rounds as nested transactions (ingest+apply in one isolation unit)
  // from a second client while auditing. Triggers would also fire an
  // `apply`, so they are disabled for this test's manual pairing — once,
  // before the worker starts, since the worker reads the flag.
  store_.triggers().SetPeTriggersEnabled(false);
  store_.Start();
  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::thread auditor([&] {
    while (!stop.load()) {
      TxnOutcome out = store_.partition().ExecuteSync("audit", {});
      if (out.committed() && out.output[0][0].as_int64() != kTotal) {
        ++violations;
      }
    }
  });
  for (int i = 1; i <= 100; ++i) {
    // Manual nested round: emit + apply as a unit.
    TxnOutcome out = store_.partition().ExecuteNestedSync(
        {{"ingest", Num(i), i}, {"apply", {}, i}});
    ASSERT_TRUE(out.committed());
  }
  stop.store(true);
  auditor.join();
  store_.Stop();
  EXPECT_EQ(violations.load(), 0);
}

TEST(SchedulerStressTest, ManyConcurrentClientsAllCommitInOrder) {
  SStore store;
  ASSERT_TRUE(store.catalog().CreateTable("log_table", NumSchema()).ok());
  auto append = std::make_shared<LambdaProcedure>([](ProcContext& ctx) {
    SSTORE_ASSIGN_OR_RETURN(Table * t, ctx.table("log_table"));
    SSTORE_ASSIGN_OR_RETURN(RowId rid, ctx.exec().Insert(t, ctx.params()));
    (void)rid;
    return Status::OK();
  });
  ASSERT_TRUE(store.partition().RegisterProcedure("append", SpKind::kOltp, append).ok());
  store.Start();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 250;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        TxnOutcome out = store.partition().ExecuteSync(
            "append", Num(t * kPerThread + i));
        if (!out.committed()) ++failures;
      }
    });
  }
  for (auto& c : clients) c.join();
  store.Stop();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ((*store.catalog().GetTable("log_table"))->row_count(),
            static_cast<size_t>(kThreads * kPerThread));
  EXPECT_EQ(store.partition().stats().committed,
            static_cast<uint64_t>(kThreads * kPerThread));
}

TEST(ClientRttTest, RoundTripCostAppliesOnlyToSyncClients) {
  SStore store;
  ASSERT_TRUE(store.catalog().CreateTable("t", NumSchema()).ok());
  auto noop = std::make_shared<LambdaProcedure>(
      [](ProcContext&) { return Status::OK(); });
  ASSERT_TRUE(store.partition().RegisterProcedure("noop", SpKind::kOltp, noop).ok());
  store.Start();
  // Large enough that scheduler noise on a loaded machine (`ctest -j`)
  // cannot push an async submit past the threshold.
  constexpr int64_t kRttMicros = 50000;
  store.partition().SetClientRoundTripMicros(kRttMicros);
  auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(store.partition().ExecuteSync("noop", {}).committed());
  auto sync_us = std::chrono::duration_cast<std::chrono::microseconds>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
  EXPECT_GE(sync_us, kRttMicros);
  // Async submission does not pay the modeled round trip at submit time.
  t0 = std::chrono::steady_clock::now();
  BatchTicketPtr ticket =
      store.partition().SubmitAsync(Invocation{"noop", {}, 0});
  auto submit_us = std::chrono::duration_cast<std::chrono::microseconds>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  EXPECT_LT(submit_us, kRttMicros);
  ticket->Wait();
  store.Stop();
}

class ChainLengthTest : public ::testing::TestWithParam<int> {};

TEST_P(ChainLengthTest, EeAndPeChainsAgreeOnDeliveredTuples) {
  // Property: for any chain length, pushing K tuples through the EE-trigger
  // chain and the PE-trigger chain delivers exactly K tuples, in order, to
  // the respective sinks.
  int len = GetParam();
  constexpr int kTuples = 20;

  SStore ee_store;
  ASSERT_TRUE(EeTriggerChain::SetupSStore(&ee_store, len).ok());
  StreamInjector ee_in(&ee_store.partition(), "ingest_s");
  SStore pe_store;
  ASSERT_TRUE(PeTriggerChain::SetupSStore(&pe_store, len).ok());
  StreamInjector pe_in(&pe_store.partition(), PeTriggerChain::ProcName(1));

  for (int i = 0; i < kTuples; ++i) {
    ASSERT_TRUE(ee_in.InjectSync(Num(i)).committed());
    ASSERT_TRUE(pe_in.InjectSync(Num(i)).committed());
  }
  Table* ee_sink = *ee_store.catalog().GetTable("sink");
  Table* pe_sink = *pe_store.catalog().GetTable("done");
  ASSERT_EQ(ee_sink->row_count(), static_cast<size_t>(kTuples));
  ASSERT_EQ(pe_sink->row_count(), static_cast<size_t>(kTuples));
  // Arrival order preserved end-to-end.
  int64_t expect = 0;
  for (RowId rid : ee_sink->RowIdsBySeq()) {
    EXPECT_EQ((**ee_sink->Get(rid))[0], Value::BigInt(expect++));
  }
  expect = 0;
  for (RowId rid : pe_sink->RowIdsBySeq()) {
    EXPECT_EQ((**pe_sink->Get(rid))[0], Value::BigInt(expect++));
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, ChainLengthTest,
                         ::testing::Values(1, 2, 3, 5, 8));

TEST(AbortMidWorkflowTest, DownstreamNotTriggeredAndStateRolledBack) {
  SStore store;
  ASSERT_TRUE(store.streams().DefineStream("s", NumSchema()).ok());
  ASSERT_TRUE(store.catalog().CreateTable("sink", NumSchema()).ok());
  // Border SP aborts for odd inputs *after* emitting.
  auto border = std::make_shared<LambdaProcedure>([](ProcContext& ctx) {
    SSTORE_RETURN_NOT_OK(ctx.EmitToStream("s", {ctx.params()}));
    if (ctx.params()[0].as_int64() % 2 == 1) {
      return Status::Aborted("odd input");
    }
    return Status::OK();
  });
  SStore* s = &store;
  auto sink = std::make_shared<LambdaProcedure>([s](ProcContext& ctx) {
    SSTORE_ASSIGN_OR_RETURN(std::vector<Tuple> rows,
                            s->streams().BatchContents("s", ctx.batch_id()));
    SSTORE_ASSIGN_OR_RETURN(Table * t, ctx.table("sink"));
    SSTORE_ASSIGN_OR_RETURN(size_t n, ctx.exec().InsertMany(t, rows));
    (void)n;
    return Status::OK();
  });
  ASSERT_TRUE(store.partition().RegisterProcedure("border", SpKind::kBorder, border).ok());
  ASSERT_TRUE(store.partition().RegisterProcedure("sink", SpKind::kInterior, sink).ok());
  Workflow wf("abortable");
  WorkflowNode n1, n2;
  n1.proc = "border";
  n1.kind = SpKind::kBorder;
  n1.output_streams = {"s"};
  n2.proc = "sink";
  n2.kind = SpKind::kInterior;
  n2.input_streams = {"s"};
  ASSERT_TRUE(wf.AddNode(n1).ok());
  ASSERT_TRUE(wf.AddNode(n2).ok());
  ASSERT_TRUE(store.DeployWorkflow(wf).ok());

  StreamInjector injector(&store.partition(), "border");
  int committed = 0;
  for (int i = 1; i <= 10; ++i) {
    if (injector.InjectSync(Num(i)).committed()) ++committed;
  }
  EXPECT_EQ(committed, 5);
  // Aborted rounds left nothing behind: no stream residue, no sink rows.
  EXPECT_EQ((*store.catalog().GetTable("sink"))->row_count(), 5u);
  EXPECT_EQ((*store.streams().GetStream("s"))->row_count(), 0u);
}

TEST(GroupCommitIntegrationTest, TicketsFulfilledAfterIdleFlush) {
  CommandLog::Options log_opts;
  log_opts.path = ::testing::TempDir() + "/group_commit_int.log";
  log_opts.group_size = 128;  // larger than the submission count
  log_opts.sync = false;
  SStore store;
  Status attached =
      store.partition().AttachCommandLog(log_opts, RecoveryMode::kStrong);
  ASSERT_TRUE(attached.ok()) << attached.ToString();
  ASSERT_TRUE(store.catalog().CreateTable("t", NumSchema()).ok());
  auto append = std::make_shared<LambdaProcedure>([](ProcContext& ctx) {
    SSTORE_ASSIGN_OR_RETURN(Table * t, ctx.table("t"));
    SSTORE_ASSIGN_OR_RETURN(RowId rid, ctx.exec().Insert(t, ctx.params()));
    (void)rid;
    return Status::OK();
  });
  ASSERT_TRUE(store.partition().RegisterProcedure("append", SpKind::kOltp, append).ok());
  store.Start();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(store.partition().ExecuteSync("append", Num(i)).committed());
  }
  store.Stop();
  // Stop() flushes the tail of the group.
  ASSERT_TRUE(store.partition().DetachCommandLog().ok());
  EXPECT_EQ((*CommandLog::ReadAll(log_opts.path)).size(), 10u);
}

}  // namespace
}  // namespace sstore
