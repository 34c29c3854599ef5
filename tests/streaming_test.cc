#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "query/expr.h"
#include "streaming/injector.h"
#include "streaming/sstore.h"

namespace sstore {
namespace {

Schema NumSchema() { return Schema({{"x", ValueType::kBigInt}}); }

Tuple Num(int64_t x) { return {Value::BigInt(x)}; }

TEST(StreamManagerTest, DefineAndGet) {
  SStore store;
  ASSERT_TRUE(store.streams().DefineStream("s", NumSchema()).ok());
  EXPECT_TRUE(store.streams().HasStream("s"));
  EXPECT_EQ((*store.streams().GetStream("s"))->kind(), TableKind::kStream);
  EXPECT_EQ(store.streams().DefineStream("s", NumSchema()).code(),
            StatusCode::kAlreadyExists);
}

TEST(StreamManagerTest, BaseTableIsNotAStream) {
  SStore store;
  ASSERT_TRUE(store.catalog().CreateTable("t", NumSchema()).ok());
  EXPECT_FALSE(store.streams().HasStream("t"));
  EXPECT_FALSE(store.streams().GetStream("t").ok());
}

TEST(StreamManagerTest, BatchContentsAndPendingBatches) {
  SStore store;
  ASSERT_TRUE(store.streams().DefineStream("s", NumSchema()).ok());
  ASSERT_TRUE(store.ee().InsertBatch("s", {Num(1), Num(2)}, 7, nullptr).ok());
  ASSERT_TRUE(store.ee().InsertBatch("s", {Num(3)}, 9, nullptr).ok());
  EXPECT_EQ((*store.streams().BatchContents("s", 7)).size(), 2u);
  EXPECT_EQ((*store.streams().BatchContents("s", 9)).size(), 1u);
  std::vector<int64_t> pending = *store.streams().PendingBatches("s");
  ASSERT_EQ(pending.size(), 2u);
  EXPECT_EQ(pending[0], 7);
  EXPECT_EQ(pending[1], 9);
}

TEST(StreamManagerTest, GcWaitsForAllConsumers) {
  SStore store;
  ASSERT_TRUE(store.streams().DefineStream("s", NumSchema()).ok());
  store.streams().SetConsumerCount("s", 2);
  ASSERT_TRUE(store.ee().InsertBatch("s", {Num(1)}, 1, nullptr).ok());
  EXPECT_EQ(*store.streams().OnBatchConsumed("s", 1), 0u);  // 1 of 2
  EXPECT_EQ((*store.streams().GetStream("s"))->row_count(), 1u);
  EXPECT_EQ(*store.streams().OnBatchConsumed("s", 1), 1u);  // reclaimed
  EXPECT_EQ((*store.streams().GetStream("s"))->row_count(), 0u);
}

TEST(StreamManagerTest, DrainReturnsArrivalOrder) {
  SStore store;
  ASSERT_TRUE(store.streams().DefineStream("s", NumSchema()).ok());
  ASSERT_TRUE(store.ee().InsertBatch("s", {Num(5), Num(6), Num(7)}, 1, nullptr).ok());
  std::vector<Tuple> rows = *store.streams().Drain("s");
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][0], Value::BigInt(5));
  EXPECT_EQ(rows[2][0], Value::BigInt(7));
  EXPECT_EQ((*store.streams().GetStream("s"))->row_count(), 0u);
}

class WindowTest : public ::testing::Test {
 protected:
  WindowSpec Spec(int64_t size, int64_t slide,
                  WindowKind kind = WindowKind::kTupleBased) {
    WindowSpec spec;
    spec.name = "w";
    spec.schema = NumSchema();
    spec.kind = kind;
    spec.size = size;
    spec.slide = slide;
    spec.owner_proc = "owner";
    return spec;
  }

  SStore store_;
  Executor exec_;
};

TEST_F(WindowTest, RejectsBadParameters) {
  EXPECT_FALSE(store_.windows().DefineWindow(Spec(0, 1)).ok());
  EXPECT_FALSE(store_.windows().DefineWindow(Spec(5, 0)).ok());
  EXPECT_FALSE(store_.windows().DefineWindow(Spec(2, 5)).ok());  // slide > size
  ASSERT_TRUE(store_.windows().DefineWindow(Spec(5, 5)).ok());   // tumbling OK
  EXPECT_EQ(store_.windows().DefineWindow(Spec(5, 5)).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(WindowTest, StagingInvisibleUntilFirstFullWindow) {
  ASSERT_TRUE(store_.windows().DefineWindow(Spec(3, 1)).ok());
  ASSERT_TRUE(store_.windows().Insert(exec_, "w", {Num(1), Num(2)}).ok());
  EXPECT_TRUE((*store_.windows().ActiveContents("w")).empty());
  EXPECT_EQ(*store_.windows().SlideCount("w"), 0);
  ASSERT_TRUE(store_.windows().Insert(exec_, "w", {Num(3)}).ok());
  std::vector<Tuple> active = *store_.windows().ActiveContents("w");
  ASSERT_EQ(active.size(), 3u);
  EXPECT_EQ(active[0][0], Value::BigInt(1));
  EXPECT_EQ(*store_.windows().SlideCount("w"), 1);
}

TEST_F(WindowTest, SlideExpiresOldestAndActivatesStaged) {
  ASSERT_TRUE(store_.windows().DefineWindow(Spec(3, 1)).ok());
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(store_.windows().Insert(exec_, "w", {Num(i)}).ok());
  }
  // Windows: [1,2,3] -> [2,3,4] -> [3,4,5].
  std::vector<Tuple> active = *store_.windows().ActiveContents("w");
  ASSERT_EQ(active.size(), 3u);
  EXPECT_EQ(active[0][0], Value::BigInt(3));
  EXPECT_EQ(active[2][0], Value::BigInt(5));
  EXPECT_EQ(*store_.windows().SlideCount("w"), 3);
}

TEST_F(WindowTest, SlideBiggerThanOneWaitsForSlideWorth) {
  ASSERT_TRUE(store_.windows().DefineWindow(Spec(4, 2)).ok());
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(store_.windows().Insert(exec_, "w", {Num(i)}).ok());
  }
  // First window [1..4] at tuple 4; tuple 5 staged (needs 2 to slide).
  std::vector<Tuple> active = *store_.windows().ActiveContents("w");
  ASSERT_EQ(active.size(), 4u);
  EXPECT_EQ(active[0][0], Value::BigInt(1));
  ASSERT_TRUE(store_.windows().Insert(exec_, "w", {Num(6)}).ok());
  active = *store_.windows().ActiveContents("w");
  ASSERT_EQ(active.size(), 4u);
  EXPECT_EQ(active[0][0], Value::BigInt(3));  // slid by 2
  EXPECT_EQ(active[3][0], Value::BigInt(6));
}

TEST_F(WindowTest, TumblingWindowReplacesContents) {
  ASSERT_TRUE(store_.windows().DefineWindow(Spec(3, 3)).ok());
  for (int i = 1; i <= 6; ++i) {
    ASSERT_TRUE(store_.windows().Insert(exec_, "w", {Num(i)}).ok());
  }
  std::vector<Tuple> active = *store_.windows().ActiveContents("w");
  ASSERT_EQ(active.size(), 3u);
  EXPECT_EQ(active[0][0], Value::BigInt(4));
  EXPECT_EQ(*store_.windows().SlideCount("w"), 2);
}

TEST_F(WindowTest, ActiveCountNeverExceedsSize) {
  ASSERT_TRUE(store_.windows().DefineWindow(Spec(5, 3)).ok());
  Table* w = *store_.catalog().GetTable("w");
  for (int i = 1; i <= 50; ++i) {
    ASSERT_TRUE(store_.windows().Insert(exec_, "w", {Num(i)}).ok());
    EXPECT_LE(w->active_count(), 5u);
    EXPECT_LT(w->staged_count(), 3u + 5u);
  }
}

TEST_F(WindowTest, SlideTriggerFiresInsideEE) {
  ASSERT_TRUE(store_.catalog().CreateTable("slide_log", NumSchema()).ok());
  ASSERT_TRUE(store_.ee()
                  .RegisterFragment(
                      "on_slide",
                      [](ExecutionEngine& ee, Executor& exec,
                         const Tuple& params) -> Result<std::vector<Tuple>> {
                        SSTORE_ASSIGN_OR_RETURN(
                            Table * log, ee.catalog()->GetTable("slide_log"));
                        SSTORE_ASSIGN_OR_RETURN(RowId rid,
                                                exec.Insert(log, {params[0]}));
                        (void)rid;
                        return std::vector<Tuple>{};
                      })
                  .ok());
  ASSERT_TRUE(store_.windows().DefineWindow(Spec(2, 1)).ok());
  ASSERT_TRUE(store_.windows().AttachSlideTrigger("w", "on_slide").ok());
  for (int i = 1; i <= 4; ++i) {
    ASSERT_TRUE(store_.windows().Insert(exec_, "w", {Num(i)}).ok());
  }
  // Slides at tuples 2,3,4 => 3 firings with generations 1,2,3.
  Table* log = *store_.catalog().GetTable("slide_log");
  EXPECT_EQ(log->row_count(), 3u);
}

TEST_F(WindowTest, TimeBasedWindowSlidesOnTimestamps) {
  WindowSpec spec;
  spec.name = "tw";
  spec.schema = Schema({{"ts", ValueType::kTimestamp}, {"x", ValueType::kBigInt}});
  spec.kind = WindowKind::kTimeBased;
  spec.size = 10'000'000;  // 10 s
  spec.slide = 1'000'000;  // 1 s
  spec.ts_column = 0;
  ASSERT_TRUE(store_.windows().DefineWindow(spec).ok());
  auto row = [](int64_t sec, int64_t x) {
    return Tuple{Value::Timestamp(sec * 1'000'000), Value::BigInt(x)};
  };
  // Tuples at t=0..11s, one per second.
  for (int64_t s = 0; s <= 11; ++s) {
    ASSERT_TRUE(store_.windows().Insert(exec_, "tw", {row(s, s)}).ok());
  }
  // The last slide boundary crossed is at t=11s; window = [1s, 11s).
  std::vector<Tuple> active = *store_.windows().ActiveContents("tw");
  ASSERT_FALSE(active.empty());
  EXPECT_EQ(active.front()[1], Value::BigInt(1));
  EXPECT_EQ(active.back()[1], Value::BigInt(10));
  EXPECT_GT(*store_.windows().SlideCount("tw"), 0);
}

TEST_F(WindowTest, TimeBasedWindowNeedsAnIntegerTimestampColumn) {
  WindowSpec spec;
  spec.name = "tw";
  spec.kind = WindowKind::kTimeBased;
  spec.size = 10;
  spec.slide = 1;
  spec.ts_column = 0;
  spec.schema = Schema({{"ts", ValueType::kDouble}});
  EXPECT_EQ(store_.windows().DefineWindow(spec).code(),
            StatusCode::kInvalidArgument);
  spec.schema = Schema({{"ts", ValueType::kString}});
  EXPECT_EQ(store_.windows().DefineWindow(spec).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(store_.windows().HasWindow("tw"));
  spec.schema = Schema({{"ts", ValueType::kBigInt}});
  EXPECT_TRUE(store_.windows().DefineWindow(spec).ok());
}

TEST_F(WindowTest, TimeBasedInsertRejectsMalformedRows) {
  WindowSpec spec;
  spec.name = "tw";
  spec.schema = Schema({{"x", ValueType::kBigInt}, {"ts", ValueType::kTimestamp}});
  spec.kind = WindowKind::kTimeBased;
  spec.size = 10;
  spec.slide = 1;
  spec.ts_column = 1;
  ASSERT_TRUE(store_.windows().DefineWindow(spec).ok());
  // Too short to hold the timestamp column: reading it would run off the row.
  EXPECT_EQ(store_.windows().Insert(exec_, "tw", {Num(1)}).code(),
            StatusCode::kInvalidArgument);
  // A DOUBLE or STRING timestamp has no int64 to read.
  EXPECT_EQ(store_.windows()
                .Insert(exec_, "tw", {{Value::BigInt(1), Value::Double(2.5)}})
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store_.windows()
                .Insert(exec_, "tw", {{Value::BigInt(1), Value::String("t")}})
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*store_.catalog().GetTable("tw"))->row_count(), 0u);
  EXPECT_EQ(*store_.windows().SlideCount("tw"), 0);
}

TEST_F(WindowTest, MalformedTimeBasedRowAbortsItsTransaction) {
  WindowSpec spec;
  spec.name = "tw";
  spec.schema = Schema({{"x", ValueType::kBigInt}, {"ts", ValueType::kTimestamp}});
  spec.kind = WindowKind::kTimeBased;
  spec.size = 10;
  spec.slide = 1;
  spec.ts_column = 1;
  spec.owner_proc = "owner";
  ASSERT_TRUE(store_.windows().DefineWindow(spec).ok());
  // One good row, then a short one: the whole transaction rolls back.
  auto insert = std::make_shared<LambdaProcedure>([this](ProcContext& ctx) {
    return store_.windows().Insert(
        ctx.exec(), "tw", {{Value::BigInt(1), Value::Timestamp(5)}, Num(2)});
  });
  ASSERT_TRUE(
      store_.partition().RegisterProcedure("owner", SpKind::kBorder, insert).ok());
  TxnOutcome out = store_.partition().ExecuteSync("owner", {}, 1);
  EXPECT_FALSE(out.committed());
  EXPECT_EQ(out.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ((*store_.catalog().GetTable("tw"))->row_count(), 0u);
}

TEST_F(WindowTest, ScopingDeniesForeignProcedure) {
  ASSERT_TRUE(store_.windows().DefineWindow(Spec(3, 1)).ok());
  auto access_w = std::make_shared<LambdaProcedure>([](ProcContext& ctx) {
    return ctx.table("w").status();
  });
  ASSERT_TRUE(
      store_.partition().RegisterProcedure("owner", SpKind::kBorder, access_w).ok());
  ASSERT_TRUE(
      store_.partition().RegisterProcedure("foreign", SpKind::kBorder, access_w).ok());
  EXPECT_TRUE(store_.partition().ExecuteSync("owner", {}, 1).committed());
  TxnOutcome denied = store_.partition().ExecuteSync("foreign", {}, 1);
  EXPECT_TRUE(denied.status.IsPermissionDenied());
}

TEST_F(WindowTest, PeTriggersForbiddenOnWindows) {
  ASSERT_TRUE(store_.windows().DefineWindow(Spec(3, 1)).ok());
  ASSERT_TRUE(store_.ee()
                  .RegisterFragment("noop",
                                    [](ExecutionEngine&, Executor&,
                                       const Tuple&) -> Result<std::vector<Tuple>> {
                                      return std::vector<Tuple>{};
                                    })
                  .ok());
  // EE insert triggers must not attach to window tables either; window
  // triggers go through AttachSlideTrigger.
  EXPECT_FALSE(store_.ee().AttachInsertTrigger("w", "noop").ok());
}

TEST_F(WindowTest, WindowStateCarriesAcrossTEsOfOwner) {
  // Paper §2.2: window state carries over between executions of the owning
  // SP (here: repeated invocations keep sliding one shared window).
  ASSERT_TRUE(store_.windows().DefineWindow(Spec(3, 1)).ok());
  for (int i = 1; i <= 4; ++i) {
    ASSERT_TRUE(store_.windows().Insert(exec_, "w", {Num(i)}).ok());
  }
  EXPECT_EQ(*store_.windows().SlideCount("w"), 2);
}

class WorkflowTest : public ::testing::Test {
 protected:
  static WorkflowNode Node(const std::string& proc, SpKind kind,
                           std::vector<std::string> in,
                           std::vector<std::string> out) {
    WorkflowNode n;
    n.proc = proc;
    n.kind = kind;
    n.input_streams = std::move(in);
    n.output_streams = std::move(out);
    return n;
  }
};

TEST_F(WorkflowTest, ChainTopologicalOrder) {
  Workflow wf("chain");
  ASSERT_TRUE(wf.AddNode(Node("sp1", SpKind::kBorder, {}, {"s1"})).ok());
  ASSERT_TRUE(wf.AddNode(Node("sp2", SpKind::kInterior, {"s1"}, {"s2"})).ok());
  ASSERT_TRUE(wf.AddNode(Node("sp3", SpKind::kInterior, {"s2"}, {})).ok());
  ASSERT_TRUE(wf.Validate().ok());
  std::vector<std::string> order = *wf.TopologicalOrder();
  EXPECT_EQ(order, (std::vector<std::string>{"sp1", "sp2", "sp3"}));
  auto ranks = *wf.TopologicalRanks();
  EXPECT_EQ(ranks["sp3"], 2u);
  EXPECT_EQ(wf.ConsumersOf("s1"), std::vector<std::string>{"sp2"});
  EXPECT_EQ(wf.ProducersOf("s2"), std::vector<std::string>{"sp2"});
  EXPECT_EQ(*wf.SuccessorsOf("sp1"), std::vector<std::string>{"sp2"});
}

TEST_F(WorkflowTest, CycleDetected) {
  Workflow wf("cycle");
  ASSERT_TRUE(wf.AddNode(Node("a", SpKind::kBorder, {"s2"}, {"s1"})).ok());
  ASSERT_TRUE(wf.AddNode(Node("b", SpKind::kInterior, {"s1"}, {"s2"})).ok());
  EXPECT_FALSE(wf.Validate().ok());
}

TEST_F(WorkflowTest, InteriorWithoutInputRejected) {
  Workflow wf("bad");
  EXPECT_FALSE(wf.AddNode(Node("x", SpKind::kInterior, {}, {"s"})).ok());
}

TEST_F(WorkflowTest, OltpNodeRejected) {
  Workflow wf("bad");
  EXPECT_FALSE(wf.AddNode(Node("x", SpKind::kOltp, {}, {})).ok());
}

TEST_F(WorkflowTest, NoBorderRejected) {
  Workflow wf("bad");
  ASSERT_TRUE(wf.AddNode(Node("x", SpKind::kInterior, {"s"}, {})).ok());
  EXPECT_FALSE(wf.Validate().ok());
}

TEST_F(WorkflowTest, DuplicateNodeRejected) {
  Workflow wf("dup");
  ASSERT_TRUE(wf.AddNode(Node("x", SpKind::kBorder, {}, {"s"})).ok());
  EXPECT_EQ(wf.AddNode(Node("x", SpKind::kBorder, {}, {"s"})).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(WorkflowTest, DiamondTopology) {
  Workflow wf("diamond");
  ASSERT_TRUE(wf.AddNode(Node("src", SpKind::kBorder, {}, {"l", "r"})).ok());
  ASSERT_TRUE(wf.AddNode(Node("left", SpKind::kInterior, {"l"}, {"lo"})).ok());
  ASSERT_TRUE(wf.AddNode(Node("right", SpKind::kInterior, {"r"}, {"ro"})).ok());
  ASSERT_TRUE(
      wf.AddNode(Node("join", SpKind::kInterior, {"lo", "ro"}, {})).ok());
  ASSERT_TRUE(wf.Validate().ok());
  auto ranks = *wf.TopologicalRanks();
  EXPECT_EQ(ranks["src"], 0u);
  EXPECT_EQ(ranks["join"], 3u);
}

TEST_F(WorkflowTest, ScheduleCheckerAcceptsCorrectOrder) {
  Workflow wf("chain");
  ASSERT_TRUE(wf.AddNode(Node("sp1", SpKind::kBorder, {}, {"s1"})).ok());
  ASSERT_TRUE(wf.AddNode(Node("sp2", SpKind::kInterior, {"s1"}, {})).ok());
  // Both legal interleavings from paper Figure 2.
  EXPECT_TRUE(ValidateSchedule(
                  wf, {{"sp1", 1}, {"sp2", 1}, {"sp1", 2}, {"sp2", 2}})
                  .ok());
  EXPECT_TRUE(ValidateSchedule(
                  wf, {{"sp1", 1}, {"sp1", 2}, {"sp2", 1}, {"sp2", 2}})
                  .ok());
}

TEST_F(WorkflowTest, ScheduleCheckerRejectsWorkflowOrderViolation) {
  Workflow wf("chain");
  ASSERT_TRUE(wf.AddNode(Node("sp1", SpKind::kBorder, {}, {"s1"})).ok());
  ASSERT_TRUE(wf.AddNode(Node("sp2", SpKind::kInterior, {"s1"}, {})).ok());
  EXPECT_FALSE(ValidateSchedule(wf, {{"sp2", 1}, {"sp1", 1}}).ok());
}

TEST_F(WorkflowTest, ScheduleCheckerRejectsStreamOrderViolation) {
  Workflow wf("chain");
  ASSERT_TRUE(wf.AddNode(Node("sp1", SpKind::kBorder, {}, {"s1"})).ok());
  ASSERT_TRUE(wf.AddNode(Node("sp2", SpKind::kInterior, {"s1"}, {})).ok());
  EXPECT_FALSE(ValidateSchedule(
                   wf, {{"sp1", 2}, {"sp2", 2}, {"sp1", 1}, {"sp2", 1}})
                   .ok());
}

TEST_F(WorkflowTest, ScheduleCheckerIgnoresOltpEvents) {
  Workflow wf("chain");
  ASSERT_TRUE(wf.AddNode(Node("sp1", SpKind::kBorder, {}, {"s1"})).ok());
  ASSERT_TRUE(wf.AddNode(Node("sp2", SpKind::kInterior, {"s1"}, {})).ok());
  EXPECT_TRUE(ValidateSchedule(
                  wf, {{"sp1", 1}, {"oltp_thing", 0}, {"sp2", 1}})
                  .ok());
}

/// Builds a 3-stage chain workflow over an SStore: border sp1 emits to s1,
/// interior sp2 copies s1->s2, interior sp3 sums s2 into "sink".
class ChainFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(store_.streams().DefineStream("s1", NumSchema()).ok());
    ASSERT_TRUE(store_.streams().DefineStream("s2", NumSchema()).ok());
    ASSERT_TRUE(store_.catalog().CreateTable("sink", NumSchema()).ok());

    auto sp1 = std::make_shared<LambdaProcedure>([](ProcContext& ctx) {
      return ctx.EmitToStream("s1", {ctx.params()});
    });
    auto sp2 = std::make_shared<LambdaProcedure>([this](ProcContext& ctx) {
      SSTORE_ASSIGN_OR_RETURN(
          std::vector<Tuple> rows,
          store_.streams().BatchContents("s1", ctx.batch_id()));
      return ctx.EmitToStream("s2", std::move(rows));
    });
    auto sp3 = std::make_shared<LambdaProcedure>([this](ProcContext& ctx) {
      SSTORE_ASSIGN_OR_RETURN(
          std::vector<Tuple> rows,
          store_.streams().BatchContents("s2", ctx.batch_id()));
      SSTORE_ASSIGN_OR_RETURN(Table * sink, ctx.table("sink"));
      for (const Tuple& row : rows) {
        SSTORE_ASSIGN_OR_RETURN(RowId rid, ctx.exec().Insert(sink, row));
        (void)rid;
      }
      return Status::OK();
    });
    ASSERT_TRUE(store_.partition().RegisterProcedure("sp1", SpKind::kBorder, sp1).ok());
    ASSERT_TRUE(
        store_.partition().RegisterProcedure("sp2", SpKind::kInterior, sp2).ok());
    ASSERT_TRUE(
        store_.partition().RegisterProcedure("sp3", SpKind::kInterior, sp3).ok());

    WorkflowNode n1, n2, n3;
    n1.proc = "sp1";
    n1.kind = SpKind::kBorder;
    n1.output_streams = {"s1"};
    n2.proc = "sp2";
    n2.kind = SpKind::kInterior;
    n2.input_streams = {"s1"};
    n2.output_streams = {"s2"};
    n3.proc = "sp3";
    n3.kind = SpKind::kInterior;
    n3.input_streams = {"s2"};
    wf_ = std::make_unique<Workflow>("chain");
    ASSERT_TRUE(wf_->AddNode(n1).ok());
    ASSERT_TRUE(wf_->AddNode(n2).ok());
    ASSERT_TRUE(wf_->AddNode(n3).ok());
    ASSERT_TRUE(store_.DeployWorkflow(*wf_).ok());

    // Record the committed schedule for the checker.
    store_.partition().AddCommitHook(
        [this](Partition&, const TransactionExecution& te) {
          schedule_.push_back({te.proc_name(), te.batch_id()});
        });
  }

  SStore store_;
  std::unique_ptr<Workflow> wf_;
  std::vector<ScheduleEvent> schedule_;
};

TEST_F(ChainFixture, PeTriggersDriveFullWorkflowInline) {
  StreamInjector injector(&store_.partition(), "sp1");
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(injector.InjectSync(Num(i)).committed());
  }
  Table* sink = *store_.catalog().GetTable("sink");
  EXPECT_EQ(sink->row_count(), 5u);
  // Streams fully garbage-collected after consumption.
  EXPECT_EQ((*store_.streams().GetStream("s1"))->row_count(), 0u);
  EXPECT_EQ((*store_.streams().GetStream("s2"))->row_count(), 0u);
  // 5 rounds x 3 TEs, in a correct order.
  EXPECT_EQ(schedule_.size(), 15u);
  EXPECT_TRUE(ValidateSchedule(*wf_, schedule_).ok());
  EXPECT_EQ(store_.triggers().pe_trigger_firings(), 10u);
}

TEST_F(ChainFixture, PeTriggersDriveFullWorkflowThreaded) {
  store_.Start();
  StreamInjector injector(&store_.partition(), "sp1");
  std::vector<BatchTicketPtr> tickets;
  for (int i = 1; i <= 200; ++i) tickets.push_back(injector.InjectAsync(Num(i)));
  for (auto& t : tickets) ASSERT_TRUE(t->Wait()[0].committed());
  // Wait for triggered interiors of the last round to finish.
  while (store_.partition().QueueDepth() > 0) {
  }
  store_.Stop();
  EXPECT_EQ((*store_.catalog().GetTable("sink"))->row_count(), 200u);
  EXPECT_TRUE(ValidateSchedule(*wf_, schedule_).ok());
}

TEST_F(ChainFixture, DisabledTriggersSuppressDownstream) {
  store_.triggers().SetPeTriggersEnabled(false);
  StreamInjector injector(&store_.partition(), "sp1");
  ASSERT_TRUE(injector.InjectSync(Num(1)).committed());
  EXPECT_EQ((*store_.catalog().GetTable("sink"))->row_count(), 0u);
  EXPECT_EQ((*store_.streams().GetStream("s1"))->row_count(), 1u);
  // Residual firing picks the batch back up.
  store_.triggers().SetPeTriggersEnabled(true);
  ASSERT_EQ(*store_.triggers().FireResidualTriggers(), 1u);
  store_.partition().DrainQueueInline();
  EXPECT_EQ((*store_.catalog().GetTable("sink"))->row_count(), 1u);
}

TEST_F(ChainFixture, OltpInterleavesWithoutBreakingWorkflowOrder) {
  ASSERT_TRUE(store_.catalog().CreateTable("misc", NumSchema()).ok());
  auto oltp = std::make_shared<LambdaProcedure>([](ProcContext& ctx) {
    SSTORE_ASSIGN_OR_RETURN(Table * t, ctx.table("misc"));
    SSTORE_ASSIGN_OR_RETURN(RowId rid, ctx.exec().Insert(t, ctx.params()));
    (void)rid;
    return Status::OK();
  });
  ASSERT_TRUE(store_.partition().RegisterProcedure("oltp", SpKind::kOltp, oltp).ok());
  store_.Start();
  StreamInjector injector(&store_.partition(), "sp1");
  for (int i = 1; i <= 50; ++i) {
    BatchTicketPtr a = injector.InjectAsync(Num(i));
    BatchTicketPtr b =
        store_.partition().SubmitAsync(Invocation{"oltp", Num(i), 0});
    ASSERT_TRUE(a->Wait()[0].committed());
    ASSERT_TRUE(b->Wait()[0].committed());
  }
  while (store_.partition().QueueDepth() > 0) {
  }
  store_.Stop();
  EXPECT_EQ((*store_.catalog().GetTable("sink"))->row_count(), 50u);
  EXPECT_EQ((*store_.catalog().GetTable("misc"))->row_count(), 50u);
  EXPECT_TRUE(ValidateSchedule(*wf_, schedule_).ok());
}

TEST_F(ChainFixture, DeployRejectsUnknownProcedure) {
  Workflow bad("bad");
  WorkflowNode n;
  n.proc = "ghost";
  n.kind = SpKind::kBorder;
  n.output_streams = {"s1"};
  ASSERT_TRUE(bad.AddNode(n).ok());
  EXPECT_TRUE(store_.DeployWorkflow(bad).IsNotFound());
}

TEST(TriggerJoinTest, MultiInputConsumerWaitsForAllStreams) {
  SStore store;
  ASSERT_TRUE(store.streams().DefineStream("l", NumSchema()).ok());
  ASSERT_TRUE(store.streams().DefineStream("r", NumSchema()).ok());
  ASSERT_TRUE(store.catalog().CreateTable("sink", NumSchema()).ok());

  auto src = std::make_shared<LambdaProcedure>([](ProcContext& ctx) {
    SSTORE_RETURN_NOT_OK(ctx.EmitToStream("l", {ctx.params()}));
    return ctx.EmitToStream("r", {ctx.params()});
  });
  auto join = std::make_shared<LambdaProcedure>([&store](ProcContext& ctx) {
    SSTORE_ASSIGN_OR_RETURN(Table * sink, ctx.table("sink"));
    SSTORE_ASSIGN_OR_RETURN(RowId rid,
                            ctx.exec().Insert(sink, Num(ctx.batch_id())));
    (void)rid;
    return Status::OK();
  });
  ASSERT_TRUE(store.partition().RegisterProcedure("src", SpKind::kBorder, src).ok());
  ASSERT_TRUE(store.partition().RegisterProcedure("join", SpKind::kInterior, join).ok());

  Workflow wf("join_wf");
  WorkflowNode n1, n2;
  n1.proc = "src";
  n1.kind = SpKind::kBorder;
  n1.output_streams = {"l", "r"};
  n2.proc = "join";
  n2.kind = SpKind::kInterior;
  n2.input_streams = {"l", "r"};
  ASSERT_TRUE(wf.AddNode(n1).ok());
  ASSERT_TRUE(wf.AddNode(n2).ok());
  ASSERT_TRUE(store.DeployWorkflow(wf).ok());

  StreamInjector injector(&store.partition(), "src");
  ASSERT_TRUE(injector.InjectSync(Num(1)).committed());
  // join ran exactly once (not once per input stream).
  EXPECT_EQ((*store.catalog().GetTable("sink"))->row_count(), 1u);
  // Both stream batches were GC'ed after the join consumed them.
  EXPECT_EQ((*store.streams().GetStream("l"))->row_count(), 0u);
  EXPECT_EQ((*store.streams().GetStream("r"))->row_count(), 0u);
}

TEST(InjectorTest, AssignsMonotoneBatchIds) {
  SStore store;
  ASSERT_TRUE(store.streams().DefineStream("s", NumSchema()).ok());
  std::vector<int64_t> batches;
  auto sp = std::make_shared<LambdaProcedure>([&batches](ProcContext& ctx) {
    batches.push_back(ctx.batch_id());
    return Status::OK();
  });
  ASSERT_TRUE(store.partition().RegisterProcedure("in", SpKind::kBorder, sp).ok());
  StreamInjector injector(&store.partition(), "in");
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(injector.InjectSync(Num(i)).committed());
  EXPECT_EQ(batches, (std::vector<int64_t>{1, 2, 3}));
  EXPECT_EQ(injector.batches_injected(), 3);
}

TEST(InjectorTest, BackpressureBoundsQueueDepth) {
  constexpr size_t kMaxDepth = 4;
  SStore::Options store_opts;
  store_opts.queue_capacity = kMaxDepth;
  SStore store(store_opts);
  // A border SP slow enough that an unthrottled producer would outrun the
  // worker and grow the queue. No interior SPs, so queue depth is driven by
  // client injections alone.
  auto slow = std::make_shared<LambdaProcedure>([](ProcContext&) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    return Status::OK();
  });
  ASSERT_TRUE(store.partition().RegisterProcedure("slow", SpKind::kBorder, slow).ok());
  store.Start();

  StreamInjector injector(&store.partition(), "slow");
  std::vector<BatchTicketPtr> tickets;
  for (int i = 0; i < 100; ++i) {
    tickets.push_back(injector.InjectAsync(Num(i)));
    // InjectAsync only enqueues once the depth has dropped below the
    // partition's capacity, so right after it returns the queue holds at
    // most kMaxDepth requests (the worker can only have shrunk it since).
    EXPECT_LE(store.partition().QueueDepth(), kMaxDepth);
  }
  for (auto& t : tickets) ASSERT_TRUE(t->Wait()[0].committed());
  store.Stop();
  EXPECT_EQ(injector.batches_injected(), 100);
}

TEST(NestedWorkflowTest, NestedTxnIsolatesWorkflowRound) {
  // Paper §2.3: SP1 writes a shared table, SP2 reads it; wrapping them in a
  // nested transaction keeps an OLTP writer from interleaving.
  SStore store;
  ASSERT_TRUE(store.catalog().CreateTable("shared", NumSchema()).ok());
  auto writer = std::make_shared<LambdaProcedure>([](ProcContext& ctx) {
    SSTORE_ASSIGN_OR_RETURN(Table * t, ctx.table("shared"));
    SSTORE_ASSIGN_OR_RETURN(RowId rid, ctx.exec().Insert(t, ctx.params()));
    (void)rid;
    return Status::OK();
  });
  auto reader = std::make_shared<LambdaProcedure>([](ProcContext& ctx) {
    SSTORE_ASSIGN_OR_RETURN(Table * t, ctx.table("shared"));
    SSTORE_ASSIGN_OR_RETURN(size_t n, ctx.exec().Count(t));
    ctx.EmitOutput(Num(static_cast<int64_t>(n)));
    return Status::OK();
  });
  ASSERT_TRUE(store.partition().RegisterProcedure("w", SpKind::kBorder, writer).ok());
  ASSERT_TRUE(store.partition().RegisterProcedure("r", SpKind::kInterior, reader).ok());
  store.Start();
  TxnOutcome out = store.partition().ExecuteNestedSync(
      {{"w", Num(1), 1}, {"r", {}, 1}});
  store.Stop();
  ASSERT_TRUE(out.committed());
  ASSERT_EQ(out.output.size(), 1u);
  EXPECT_EQ(out.output[0][0], Value::BigInt(1));
}

}  // namespace
}  // namespace sstore
