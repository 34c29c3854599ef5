#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <memory>

#include "cluster/cluster.h"
#include "query/expr.h"
#include "streaming/injector.h"

namespace sstore {
namespace {

Schema NumSchema() { return Schema({{"x", ValueType::kBigInt}}); }
Tuple Num(int64_t x) { return {Value::BigInt(x)}; }

std::string MakeDir(const std::string& name) {
  // Parameterized tests (Strong/Weak) reuse the same logical names but run
  // as separate processes under `ctest -j`; a pid suffix keeps their log and
  // checkpoint directories from colliding.
  static const std::string pid = std::to_string(::getpid());
  std::string path = ::testing::TempDir() + "/sstore_" + pid + "_" + name;
  ::mkdir(path.c_str(), 0755);
  return path;
}

/// Deterministic 2-stage chain used for recovery equivalence: border "ingest"
/// emits to s1; interior "apply" adds each value into running_sum (a public
/// table with one row) and appends to table "applied".
Topology RecoverableApp() {
  Topology topo("recoverable");
  topo.DefineStream("s1", NumSchema())
      .CreateTable("running_sum", NumSchema())
      .CreateTable("applied", NumSchema())
      .InsertRow("running_sum", Num(0))
      .RegisterProcedure(
          "ingest", SpKind::kBorder,
          std::make_shared<LambdaProcedure>([](ProcContext& ctx) {
            return ctx.EmitToStream("s1", {ctx.params()});
          }))
      .RegisterProcedure(
          "apply", SpKind::kInterior,
          [](SStore& store) -> std::shared_ptr<StoredProcedure> {
            SStore* s = &store;
            return std::make_shared<LambdaProcedure>([s](ProcContext& ctx) {
              SSTORE_ASSIGN_OR_RETURN(
                  std::vector<Tuple> rows,
                  s->streams().BatchContents("s1", ctx.batch_id()));
              SSTORE_ASSIGN_OR_RETURN(Table * sum, ctx.table("running_sum"));
              SSTORE_ASSIGN_OR_RETURN(Table * applied, ctx.table("applied"));
              for (const Tuple& row : rows) {
                SSTORE_ASSIGN_OR_RETURN(
                    size_t n,
                    ctx.exec().Update(sum, nullptr,
                                      {{0, Add(Col(0), Lit(row[0]))}}));
                (void)n;
                SSTORE_ASSIGN_OR_RETURN(RowId rid,
                                        ctx.exec().Insert(applied, row));
                (void)rid;
              }
              return Status::OK();
            });
          });
  WorkflowNode n1, n2;
  n1.proc = "ingest";
  n1.kind = SpKind::kBorder;
  n1.output_streams = {"s1"};
  n2.proc = "apply";
  n2.kind = SpKind::kInterior;
  n2.input_streams = {"s1"};
  topo.AddStage(n1).AddStage(n2);
  return topo;
}

int64_t Sum(Cluster& cluster) {
  Table* sum = *cluster.store(0).catalog().GetTable("running_sum");
  int64_t out = -1;
  sum->ForEach([&](RowId, const Tuple& row, const RowMeta&) {
    out = row[0].as_int64();
    return true;
  });
  return out;
}

size_t AppliedCount(Cluster& cluster) {
  return (*cluster.store(0).catalog().GetTable("applied"))->row_count();
}

/// One partition, `mode`, no fsync (tests check log content, not latency).
/// Recovered clusters use these options as they are; logging ones add a
/// log_dir.
Cluster::Options OnePartition(RecoveryMode mode) {
  Cluster::Options opts;
  opts.recovery_mode = mode;
  opts.log_sync = false;
  return opts;
}

Cluster::Options Logged(RecoveryMode mode, const std::string& log_dir) {
  Cluster::Options opts = OnePartition(mode);
  opts.log_dir = log_dir;
  return opts;
}

void InjectRange(Cluster& cluster, int from, int to) {
  StreamInjector injector(&cluster.partition(0), "ingest");
  injector.ResumeBatchIdsAt(from);
  for (int i = from; i <= to; ++i) {
    ASSERT_TRUE(injector.InjectSync(Num(i)).committed());
  }
}

/// Crash artifacts: the checkpoint in `ckpt_dir` and the logs in `log_dir`.
/// Recovers them into `recovered`, which must be freshly constructed.
void Recover(Cluster& recovered, const std::string& ckpt_dir,
             const std::string& log_dir) {
  ASSERT_TRUE(recovered.Deploy(RecoverableApp()).ok());
  Status st = recovered.Recover(ckpt_dir, log_dir);
  ASSERT_TRUE(st.ok()) << st.ToString();
}

class RecoveryTest : public ::testing::TestWithParam<RecoveryMode> {};

TEST_P(RecoveryTest, CrashAfterCheckpointReplaysTail) {
  RecoveryMode mode = GetParam();
  std::string ckpt_dir = MakeDir("rt_tail_ckpt");
  std::string log_dir = MakeDir("rt_tail_logs");
  {
    Cluster live(Logged(mode, log_dir));
    ASSERT_TRUE(live.Deploy(RecoverableApp()).ok());
    InjectRange(live, 1, 10);
    // The checkpoint rotates the log: the fresh epoch file starts at the
    // cut, so recovery replays only the post-checkpoint tail.
    ASSERT_TRUE(live.Checkpoint(ckpt_dir).ok());
    InjectRange(live, 11, 15);
    ASSERT_EQ(Sum(live), (15 * 16) / 2);
  }  // "crash"

  Cluster recovered(OnePartition(mode));
  Recover(recovered, ckpt_dir, log_dir);
  EXPECT_EQ(Sum(recovered), (15 * 16) / 2);
  EXPECT_EQ(AppliedCount(recovered), 15u);
  EXPECT_EQ((*recovered.store(0).streams().GetStream("s1"))->row_count(), 0u);
  // Strong logs border + interior for each of the 5 tail workflows; weak
  // logs the border only.
  EXPECT_EQ(recovered.GatherStats().recover.records_replayed,
            mode == RecoveryMode::kStrong ? 10u : 5u);
}

TEST_P(RecoveryTest, RecoveryEquivalentToUninterruptedRun) {
  RecoveryMode mode = GetParam();
  std::string ckpt_dir = MakeDir("rt_equiv_ckpt");
  std::string log_dir = MakeDir("rt_equiv_logs");

  // Uninterrupted reference run.
  int64_t expected_sum;
  size_t expected_applied;
  {
    Cluster ref(OnePartition(mode));
    ASSERT_TRUE(ref.Deploy(RecoverableApp()).ok());
    InjectRange(ref, 1, 25);
    expected_sum = Sum(ref);
    expected_applied = AppliedCount(ref);
  }

  // Crashing run: empty checkpoint at start, all work in the log.
  {
    Cluster live(Logged(mode, log_dir));
    ASSERT_TRUE(live.Deploy(RecoverableApp()).ok());
    ASSERT_TRUE(live.Checkpoint(ckpt_dir).ok());
    InjectRange(live, 1, 25);
  }

  Cluster recovered(OnePartition(mode));
  Recover(recovered, ckpt_dir, log_dir);
  EXPECT_EQ(Sum(recovered), expected_sum);
  EXPECT_EQ(AppliedCount(recovered), expected_applied);
}

TEST_P(RecoveryTest, ExactlyOnceNoDuplicateInteriorExecutions) {
  RecoveryMode mode = GetParam();
  std::string ckpt_dir = MakeDir("rt_once_ckpt");
  std::string log_dir = MakeDir("rt_once_logs");
  {
    Cluster live(Logged(mode, log_dir));
    ASSERT_TRUE(live.Deploy(RecoverableApp()).ok());
    ASSERT_TRUE(live.Checkpoint(ckpt_dir).ok());
    InjectRange(live, 1, 8);
  }
  Cluster recovered(OnePartition(mode));
  Recover(recovered, ckpt_dir, log_dir);
  // Each of the 8 batches applied exactly once: sum would differ if an
  // interior TE ran twice (strong mode logs it AND triggers could re-fire).
  EXPECT_EQ(Sum(recovered), 36);
  EXPECT_EQ(AppliedCount(recovered), 8u);
  EXPECT_EQ(recovered.store(0).recovery().replay_stats().replay_failures, 0u);
}

TEST_P(RecoveryTest, UnconsumedStreamBatchesResumeAfterRecovery) {
  RecoveryMode mode = GetParam();
  std::string ckpt_dir = MakeDir("rt_resume_ckpt");
  std::string log_dir = MakeDir("rt_resume_logs");
  {
    Cluster live(Logged(mode, log_dir));
    ASSERT_TRUE(live.Deploy(RecoverableApp()).ok());
    // Simulate a crash where a border TE committed but its downstream
    // interior TE never ran: disable triggers, inject, checkpoint.
    live.store(0).triggers().SetPeTriggersEnabled(false);
    InjectRange(live, 5, 5);
    ASSERT_EQ((*live.store(0).streams().GetStream("s1"))->row_count(), 1u);
    ASSERT_TRUE(live.Checkpoint(ckpt_dir).ok());
  }
  Cluster recovered(OnePartition(mode));
  Recover(recovered, ckpt_dir, log_dir);
  // The snapshot holds the unconsumed batch and the log is cut at the
  // checkpoint, so the border record is not replayed: the residual trigger
  // applies the batch exactly once, in both modes.
  EXPECT_EQ(Sum(recovered), 5);
  EXPECT_EQ(AppliedCount(recovered), 1u);
  EXPECT_EQ(recovered.GatherStats().recover.records_replayed, 0u);
  EXPECT_GT(recovered.GatherStats().recover.residual_triggers, 0u);
}

INSTANTIATE_TEST_SUITE_P(BothModes, RecoveryTest,
                         ::testing::Values(RecoveryMode::kStrong,
                                           RecoveryMode::kWeak),
                         [](const ::testing::TestParamInfo<RecoveryMode>& info) {
                           return info.param == RecoveryMode::kStrong
                                      ? "Strong"
                                      : "Weak";
                         });

TEST(RecoveryModeDifference, WeakLogsFewerRecords) {
  uint64_t records[2] = {0, 0};
  for (RecoveryMode mode : {RecoveryMode::kStrong, RecoveryMode::kWeak}) {
    Cluster live(Logged(mode, MakeDir(mode == RecoveryMode::kStrong
                                          ? "diff_strong_logs"
                                          : "diff_weak_logs")));
    ASSERT_TRUE(live.Deploy(RecoverableApp()).ok());
    InjectRange(live, 1, 10);
    records[mode == RecoveryMode::kStrong ? 0 : 1] =
        live.GatherStats().log.records_appended;
  }
  // Strong: 10 border + 10 interior records. Weak: 10 border only.
  EXPECT_EQ(records[0], 20u);
  EXPECT_EQ(records[1], 10u);
}

TEST(RecoveryReplayClient, StrongReplayPaysOneRoundTripPerRecord) {
  constexpr int kWorkflows = 20;
  constexpr int64_t kRttMicros = 2000;
  std::string ckpt_dir = MakeDir("rtt_strong_ckpt");
  std::string log_dir = MakeDir("rtt_strong_logs");
  {
    Cluster live(Logged(RecoveryMode::kStrong, log_dir));
    ASSERT_TRUE(live.Deploy(RecoverableApp()).ok());
    ASSERT_TRUE(live.Checkpoint(ckpt_dir).ok());
    live.Start();
    InjectRange(live, 1, kWorkflows);
    live.WaitIdle();
  }
  Cluster recovered(OnePartition(RecoveryMode::kStrong));
  ASSERT_TRUE(recovered.Deploy(RecoverableApp()).ok());
  recovered.partition(0).SetClientRoundTripMicros(kRttMicros);
  auto t0 = std::chrono::steady_clock::now();
  Status st = recovered.Recover(ckpt_dir, log_dir);
  auto elapsed_us = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(Sum(recovered), 210);
  EXPECT_EQ(AppliedCount(recovered), static_cast<size_t>(kWorkflows));
  // Strong recovery replays a border and an interior record per workflow,
  // each confirmed through the modeled client round trip before the next
  // is sent — although replay runs inline with the workers stopped.
  const RecoverStats rs = recovered.GatherStats().recover;
  const uint64_t records = 2 * kWorkflows;
  EXPECT_EQ(rs.records_replayed, records);
  EXPECT_GE(static_cast<uint64_t>(elapsed_us), records * kRttMicros);
  EXPECT_GE(rs.replay_us, records * kRttMicros);
}

}  // namespace
}  // namespace sstore
