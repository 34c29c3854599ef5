#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "cluster/cluster.h"
#include "log/command_log.h"
#include "query/expr.h"
#include "txn_coord/txn_coordinator.h"
#include "workloads/voter_cluster.h"

namespace sstore {
namespace {

std::string TempPath(const std::string& name) {
  // Suites run as separate processes under `ctest -j`; a pid suffix keeps
  // their checkpoint and log directories from colliding.
  static const std::string pid = std::to_string(::getpid());
  return ::testing::TempDir() + "/sstore_coord_" + pid + "_" + name;
}

std::string MakeDir(const std::string& name) {
  std::string path = TempPath(name);
  ::mkdir(path.c_str(), 0755);
  return path;
}

Cluster::Options ClusterOpts(int partitions, const std::string& log_dir = "") {
  Cluster::Options opts;
  opts.num_partitions = partitions;
  // Modulo routing: contestant c is owned by partition c % N, so tests can
  // pick cross-partition pairs deterministically.
  opts.routing = PartitionMap::Mode::kModulo;
  opts.log_dir = log_dir;
  opts.log_sync = false;  // durability content, not fsync latency, under test
  return opts;
}

VoterClusterConfig SmallConfig() {
  VoterClusterConfig config;
  config.num_contestants = 8;
  config.initial_votes = 100;
  return config;
}

// ---- Atomic commit across partitions ----

TEST(TxnCoordTest, CommitAppliesOnAllPartitions) {
  Cluster cluster(ClusterOpts(4));
  VoterClusterConfig config = SmallConfig();
  ASSERT_TRUE(cluster.Deploy(BuildVoterClusterDeployment(config)).ok());
  cluster.Start();
  VoterClusterApp app(&cluster, config);

  // Contestants 0 and 1 live on partitions 0 and 1 (modulo routing).
  ASSERT_NE(app.OwnerOf(0), app.OwnerOf(1));
  std::vector<TxnOutcome> outs = app.Transfer(0, 1, 30);
  ASSERT_EQ(outs.size(), 2u);
  EXPECT_TRUE(outs[0].committed()) << outs[0].status.ToString();
  EXPECT_TRUE(outs[1].committed()) << outs[1].status.ToString();
  cluster.WaitIdle();
  EXPECT_EQ(*app.Count(0), 70);
  EXPECT_EQ(*app.Count(1), 130);
  EXPECT_TRUE(app.CheckInvariant().ok());

  ClusterStats stats = cluster.GatherStats();
  EXPECT_EQ(stats.coord.multi_txns, 1u);
  EXPECT_EQ(stats.coord.commits, 1u);
  EXPECT_EQ(stats.coord.aborts, 0u);
  EXPECT_EQ(stats.coord.prepares, 2u);
  EXPECT_EQ(stats.coord.rounds(), 1u);
  cluster.Stop();
}

TEST(TxnCoordTest, AbortOnOneParticipantRollsBackAll) {
  Cluster cluster(ClusterOpts(4));
  VoterClusterConfig config = SmallConfig();
  ASSERT_TRUE(cluster.Deploy(BuildVoterClusterDeployment(config)).ok());
  cluster.Start();
  VoterClusterApp app(&cluster, config);

  // The subtract fragment aborts (only 100 votes available); the add
  // fragment on the peer partition prepared successfully and must roll
  // back.
  std::vector<TxnOutcome> outs = app.Transfer(0, 1, 1000);
  ASSERT_EQ(outs.size(), 2u);
  EXPECT_FALSE(outs[0].committed());
  EXPECT_FALSE(outs[1].committed());
  EXPECT_TRUE(outs[0].status.IsAborted()) << outs[0].status.ToString();
  cluster.WaitIdle();
  EXPECT_EQ(*app.Count(0), 100);
  EXPECT_EQ(*app.Count(1), 100);
  EXPECT_TRUE(app.CheckInvariant().ok());

  ClusterStats stats = cluster.GatherStats();
  EXPECT_EQ(stats.coord.aborts, 1u);
  EXPECT_EQ(stats.coord.commits, 0u);
  cluster.Stop();
}

/// A probe procedure that *first mutates* and then aborts on one designated
/// partition — the rollback-visible abort injection of the acceptance
/// criteria. params = (abort_partition); -1 never aborts.
Topology ProbeTopology() {
  Topology topo("probe");
  topo.CreateTable("probe_log", Schema({{"p", ValueType::kBigInt}}))
      .RegisterProcedure(
          "probe", SpKind::kOltp,
          std::make_shared<LambdaProcedure>([](ProcContext& ctx) {
            int64_t self = ctx.partition()->partition_id();
            SSTORE_ASSIGN_OR_RETURN(Table * log, ctx.table("probe_log"));
            SSTORE_ASSIGN_OR_RETURN(RowId rid,
                                    ctx.exec().Insert(log,
                                                      {Value::BigInt(self)}));
            (void)rid;
            if (ctx.params()[0].as_int64() == self) {
              return Status::Aborted("injected abort on partition " +
                                     std::to_string(self));
            }
            ctx.EmitOutput({Value::BigInt(self)});
            return Status::OK();
          }));
  return topo;
}

size_t ProbeLogRows(Cluster& cluster, size_t p) {
  return (*cluster.store(p).catalog().GetTable("probe_log"))->row_count();
}

TEST(TxnCoordTest, ExecuteOnAllIsAtomicAndIndexedByPartition) {
  Cluster cluster(ClusterOpts(3));
  ASSERT_TRUE(cluster.Deploy(ProbeTopology()).ok());
  cluster.Start();

  // Commit case: outcomes indexed by partition id, deterministically.
  std::vector<TxnOutcome> outs =
      cluster.ExecuteOnAll("probe", {Value::BigInt(-1)});
  ASSERT_EQ(outs.size(), 3u);
  for (size_t p = 0; p < 3; ++p) {
    ASSERT_TRUE(outs[p].committed()) << outs[p].status.ToString();
    ASSERT_EQ(outs[p].output.size(), 1u);
    EXPECT_EQ(outs[p].output[0][0].as_int64(), static_cast<int64_t>(p));
  }
  cluster.WaitIdle();
  for (size_t p = 0; p < 3; ++p) EXPECT_EQ(ProbeLogRows(cluster, p), 1u);

  // Abort injected on partition 1 *after* its insert: every partition —
  // including the two that voted commit — must roll back to one row.
  outs = cluster.ExecuteOnAll("probe", {Value::BigInt(1)});
  ASSERT_EQ(outs.size(), 3u);
  for (size_t p = 0; p < 3; ++p) {
    EXPECT_FALSE(outs[p].committed()) << "partition " << p;
  }
  EXPECT_TRUE(outs[1].status.IsAborted());
  cluster.WaitIdle();
  for (size_t p = 0; p < 3; ++p) {
    EXPECT_EQ(ProbeLogRows(cluster, p), 1u) << "partition " << p;
  }
  cluster.Stop();
}

TEST(TxnCoordTest, InlineModeWorksBeforeStart) {
  Cluster cluster(ClusterOpts(2));
  ASSERT_TRUE(cluster.Deploy(ProbeTopology()).ok());
  // No Start(): the coordinator runs the sequential inline protocol.
  std::vector<TxnOutcome> outs =
      cluster.ExecuteOnAll("probe", {Value::BigInt(-1)});
  ASSERT_EQ(outs.size(), 2u);
  for (const TxnOutcome& out : outs) EXPECT_TRUE(out.committed());
  outs = cluster.ExecuteOnAll("probe", {Value::BigInt(0)});
  for (const TxnOutcome& out : outs) EXPECT_FALSE(out.committed());
  EXPECT_EQ(ProbeLogRows(cluster, 0), 1u);
  EXPECT_EQ(ProbeLogRows(cluster, 1), 1u);
}

TEST(TxnCoordTest, MultipleFragmentsOnOneParticipant) {
  Cluster cluster(ClusterOpts(4));
  VoterClusterConfig config = SmallConfig();
  ASSERT_TRUE(cluster.Deploy(BuildVoterClusterDeployment(config)).ok());
  cluster.Start();
  VoterClusterApp app(&cluster, config);
  // Contestants 0 and 4 share partition 0; 1 lives on partition 1. Three
  // ops, two participants, one atomic decision.
  std::vector<std::pair<Value, Tuple>> ops;
  ops.emplace_back(Value::BigInt(0),
                   Tuple{Value::BigInt(0), Value::BigInt(-10)});
  ops.emplace_back(Value::BigInt(4),
                   Tuple{Value::BigInt(4), Value::BigInt(-10)});
  ops.emplace_back(Value::BigInt(1), Tuple{Value::BigInt(1), Value::BigInt(20)});
  std::vector<TxnOutcome> outs = cluster.ExecuteMulti("vc_adjust", std::move(ops));
  ASSERT_EQ(outs.size(), 3u);
  for (const TxnOutcome& out : outs) EXPECT_TRUE(out.committed());
  cluster.WaitIdle();
  EXPECT_EQ(*app.Count(0), 90);
  EXPECT_EQ(*app.Count(4), 90);
  EXPECT_EQ(*app.Count(1), 120);
  EXPECT_TRUE(app.CheckInvariant().ok());
  cluster.Stop();
}

// ---- Deterministic global order ----

TEST(TxnCoordTest, WorkerPathMatchesInlinePathResults) {
  // The same votes and transfers through the worker path (started cluster:
  // fragments queued, votes at the rendezvous) and through the inline path
  // (never-started cluster: sequential prepare/decide/apply) must decide
  // alike and leave the same counts.
  VoterClusterConfig config = SmallConfig();
  auto run = [&config](bool start) {
    Cluster cluster(ClusterOpts(4));
    EXPECT_TRUE(cluster.Deploy(BuildVoterClusterDeployment(config)).ok());
    if (start) cluster.Start();
    VoterClusterApp app(&cluster, config);
    for (int i = 0; i < 40; ++i) app.Vote(i % config.num_contestants);
    // Mix of committing and aborting transfers, same sequence both paths.
    std::vector<int64_t> results;
    for (auto [from, to, n] : {std::tuple<int64_t, int64_t, int64_t>{0, 1, 25},
                               {1, 2, 60},
                               {2, 3, 10000},  // aborts: insufficient votes
                               {3, 0, 5},
                               {5, 6, 101}}) {
      results.push_back(app.Transfer(from, to, n)[0].committed() ? 1 : 0);
    }
    cluster.WaitIdle();
    for (int64_t c = 0; c < config.num_contestants; ++c) {
      results.push_back(*app.Count(c));
    }
    EXPECT_TRUE(app.CheckInvariant().ok());
    cluster.Stop();
    return results;
  };
  std::vector<int64_t> worker = run(/*start=*/true);
  std::vector<int64_t> inline_run = run(/*start=*/false);
  EXPECT_EQ(worker, inline_run);
  // The aborting transfer did abort, and not every transfer did.
  EXPECT_EQ(worker[2], 0);
  EXPECT_EQ(worker[0], 1);
}

TEST(TxnCoordTest, GlobalOrderConcurrentTransfersKeepInvariant) {
  Cluster cluster(ClusterOpts(4));
  VoterClusterConfig config = SmallConfig();
  config.initial_votes = 10000;
  ASSERT_TRUE(cluster.Deploy(BuildVoterClusterDeployment(config)).ok());
  cluster.Start();
  VoterClusterApp app(&cluster, config);

  // Overlapping participant sets from many threads: the classic 2PC
  // deadlock shape, which the sequencer's global order must neutralize.
  constexpr int kThreads = 4;
  constexpr int kTransfersPerThread = 50;
  std::atomic<int> committed{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kTransfersPerThread; ++i) {
        int64_t from = (t + i) % config.num_contestants;
        int64_t to = (t + i + 1 + t % 3) % config.num_contestants;
        if (from == to) continue;
        std::vector<TxnOutcome> outs = app.Transfer(from, to, 1 + i % 7);
        if (outs[0].committed()) committed.fetch_add(1);
      }
    });
  }
  for (auto& w : workers) w.join();
  cluster.WaitIdle();
  EXPECT_GT(committed.load(), 0);
  EXPECT_TRUE(app.CheckInvariant().ok());
  EXPECT_EQ(*app.TotalVotes(),
            config.num_contestants * config.initial_votes);
  cluster.Stop();
}

// ---- Coordinated checkpoint ----

TEST(TxnCoordTest, CheckpointBarrierVsConcurrentBatchSubmission) {
  std::string ckpt_dir = MakeDir("ckpt_concurrent");
  VoterClusterConfig config = SmallConfig();
  config.initial_votes = 10000;

  Cluster cluster(ClusterOpts(4));
  ASSERT_TRUE(cluster.Deploy(BuildVoterClusterDeployment(config)).ok());
  cluster.Start();
  VoterClusterApp app(&cluster, config);

  std::atomic<bool> stop{false};
  // Batch voters: one batch of vc_vote invocations per owner partition per
  // round, racing the checkpoint barrier.
  std::thread batcher([&] {
    while (!stop.load()) {
      for (size_t p = 0; p < cluster.num_partitions(); ++p) {
        std::vector<Invocation> batch;
        for (int64_t c = 0; c < config.num_contestants; ++c) {
          if (app.OwnerOf(c) == p) {
            batch.push_back(Invocation{"vc_vote", {Value::BigInt(c)}, 0});
          }
        }
        cluster.SubmitBatchToPartition(p, std::move(batch))->Wait();
      }
    }
  });
  std::thread transferrer([&] {
    int i = 0;
    while (!stop.load()) {
      app.Transfer(i % 8, (i + 1) % 8, 1);
      ++i;
    }
  });

  // Checkpoints taken mid-storm; each must be a consistent cut.
  Status first = cluster.Checkpoint(ckpt_dir);
  ASSERT_TRUE(first.ok()) << first.ToString();
  Status second = cluster.Checkpoint(ckpt_dir);
  ASSERT_TRUE(second.ok()) << second.ToString();
  stop.store(true);
  batcher.join();
  transferrer.join();
  cluster.WaitIdle();
  cluster.Stop();

  // Restore the cut alone (no logs): the invariant ties the vote counters
  // to the contestant counts, so a cut through half a vote or half a
  // transfer would show up as a mismatch.
  Cluster recovered(ClusterOpts(4));
  ASSERT_TRUE(recovered.Deploy(BuildVoterClusterDeployment(config)).ok());
  Status st = recovered.Recover(ckpt_dir, "");
  ASSERT_TRUE(st.ok()) << st.ToString();
  VoterClusterApp recovered_app(&recovered, config);
  EXPECT_TRUE(recovered_app.CheckInvariant().ok());
}

// ---- Crash recovery ----

TEST(TxnCoordTest, KillAndRecoverRestoresConsistentCut) {
  std::string ckpt_dir = MakeDir("ckpt_kill");
  std::string log_dir = MakeDir("logs_kill");
  VoterClusterConfig config = SmallConfig();

  std::vector<int64_t> live_counts;
  int64_t live_vote_txns = 0;
  {
    Cluster cluster(ClusterOpts(4, log_dir));
    ASSERT_TRUE(cluster.Deploy(BuildVoterClusterDeployment(config)).ok());
    cluster.Start();
    VoterClusterApp app(&cluster, config);

    for (int i = 0; i < 20; ++i) app.Vote(i % config.num_contestants);
    ASSERT_TRUE(cluster.Checkpoint(ckpt_dir).ok());
    // Post-checkpoint tail: replay must reconstruct exactly this.
    for (int i = 0; i < 15; ++i) app.Vote((i * 3) % config.num_contestants);
    app.Transfer(0, 1, 40);
    app.Transfer(2, 3, 11);
    app.Transfer(4, 5, 100000);  // aborts; must not resurrect on replay
    app.Transfer(6, 7, 7);
    cluster.WaitIdle();

    for (int64_t c = 0; c < config.num_contestants; ++c) {
      live_counts.push_back(*app.Count(c));
    }
    live_vote_txns = *app.TotalVoteTxns();
    ASSERT_TRUE(app.CheckInvariant().ok());
    cluster.Stop();
    // "Crash": the cluster object dies; only checkpoint + logs survive.
  }

  // Recovery cluster: same topology, no log_dir (attaching logs would truncate
  // the very files being replayed).
  Cluster recovered(ClusterOpts(4));
  ASSERT_TRUE(recovered.Deploy(BuildVoterClusterDeployment(config)).ok());
  Status st = recovered.Recover(ckpt_dir, log_dir);
  ASSERT_TRUE(st.ok()) << st.ToString();
  VoterClusterApp app(&recovered, config);
  for (int64_t c = 0; c < config.num_contestants; ++c) {
    EXPECT_EQ(*app.Count(c), live_counts[c]) << "contestant " << c;
  }
  EXPECT_EQ(*app.TotalVoteTxns(), live_vote_txns);
  EXPECT_TRUE(app.CheckInvariant().ok());
  // Every multi-partition transaction was decided before the "crash".
  ClusterStats stats = recovered.GatherStats();
  EXPECT_EQ(stats.coord.in_doubt_committed, 0u);
  EXPECT_EQ(stats.coord.in_doubt_aborted, 0u);

  // A post-recovery checkpoint must advance past the recovered id (to 2)
  // instead of clobbering checkpoint 1's snapshot files in place; a second
  // recovery from the new manifest sees the same state.
  ASSERT_TRUE(recovered.Checkpoint(ckpt_dir).ok());
  Cluster third(ClusterOpts(4));
  ASSERT_TRUE(third.Deploy(BuildVoterClusterDeployment(config)).ok());
  ASSERT_TRUE(third.Recover(ckpt_dir, "").ok());
  VoterClusterApp third_app(&third, config);
  for (int64_t c = 0; c < config.num_contestants; ++c) {
    EXPECT_EQ(*third_app.Count(c), live_counts[c]) << "contestant " << c;
  }
}

TEST(TxnCoordTest, InDoubtTxnResolvedFromCoordinatorDecisionLog) {
  VoterClusterConfig config = SmallConfig();
  // Each crash scenario needs its own cut: Recover() commits a fresh
  // checkpoint into the directory it recovered from (composable recovery),
  // so a cut cannot be recovered twice with different crash artifacts.
  std::string ckpt_commit = MakeDir("ckpt_indoubt_commit");
  std::string ckpt_abort = MakeDir("ckpt_indoubt_abort");
  auto write_cut = [&](const std::string& dir) {
    // Stopped-cluster checkpoint: snapshots + manifest for checkpoint id 1.
    Cluster cluster(ClusterOpts(4));
    ASSERT_TRUE(cluster.Deploy(BuildVoterClusterDeployment(config)).ok());
    ASSERT_TRUE(cluster.Checkpoint(dir).ok());
  };
  write_cut(ckpt_commit);
  write_cut(ckpt_abort);

  // Handcraft the crash artifacts: partition logs whose tail is a kPrepare
  // with no decision mark (the participant died between vote and apply).
  auto craft_logs = [&](const std::string& log_dir, bool decided_commit) {
    size_t owner = 2 % 4;  // contestant 2's partition under modulo routing
    for (size_t p = 0; p < 4; ++p) {
      CommandLog::Options opts;
      opts.path = log_dir + "/partition-" + std::to_string(p) + ".log";
      opts.sync = false;
      auto log = std::move(CommandLog::Open(opts)).value();
      LogRecord mark;
      mark.record_type = static_cast<uint8_t>(LogRecordType::kCheckpointMark);
      mark.global_txn_id = 1;
      ASSERT_TRUE(log->Append(mark).ok());
      if (p == owner) {
        LogRecord prepare;
        prepare.txn_id = 1;
        prepare.proc = "vc_adjust";
        prepare.params = {Value::BigInt(2), Value::BigInt(5)};
        prepare.record_type = static_cast<uint8_t>(LogRecordType::kPrepare);
        prepare.global_txn_id = 7;
        ASSERT_TRUE(log->Append(prepare).ok());
      }
      ASSERT_TRUE(log->Close().ok());
    }
    if (decided_commit) {
      CommandLog::Options opts;
      opts.path = log_dir + "/coord-decisions.log";
      opts.sync = false;
      auto log = std::move(CommandLog::Open(opts)).value();
      LogRecord decision;
      decision.record_type = static_cast<uint8_t>(LogRecordType::kCommitMark);
      decision.global_txn_id = 7;
      ASSERT_TRUE(log->Append(decision).ok());
      ASSERT_TRUE(log->Close().ok());
    }
  };

  {
    // The coordinator had made the commit decision durable: the in-doubt
    // fragment must re-execute.
    std::string log_dir = MakeDir("logs_indoubt_commit");
    craft_logs(log_dir, /*decided_commit=*/true);
    Cluster recovered(ClusterOpts(4));
    ASSERT_TRUE(recovered.Deploy(BuildVoterClusterDeployment(config)).ok());
    Status st = recovered.Recover(ckpt_commit, log_dir);
    ASSERT_TRUE(st.ok()) << st.ToString();
    VoterClusterApp app(&recovered, config);
    EXPECT_EQ(*app.Count(2), config.initial_votes + 5);
    ClusterStats stats = recovered.GatherStats();
    EXPECT_EQ(stats.coord.in_doubt_committed, 1u);
    EXPECT_EQ(stats.coord.in_doubt_aborted, 0u);
  }
  {
    // No durable decision: presumed abort.
    std::string log_dir = MakeDir("logs_indoubt_abort");
    craft_logs(log_dir, /*decided_commit=*/false);
    Cluster recovered(ClusterOpts(4));
    ASSERT_TRUE(recovered.Deploy(BuildVoterClusterDeployment(config)).ok());
    Status st = recovered.Recover(ckpt_abort, log_dir);
    ASSERT_TRUE(st.ok()) << st.ToString();
    VoterClusterApp app(&recovered, config);
    EXPECT_EQ(*app.Count(2), config.initial_votes);
    ClusterStats stats = recovered.GatherStats();
    EXPECT_EQ(stats.coord.in_doubt_committed, 0u);
    EXPECT_EQ(stats.coord.in_doubt_aborted, 1u);
  }
}

// ---- Stats ----

TEST(TxnCoordTest, CoordStatsSurfaced) {
  Cluster cluster(ClusterOpts(4));
  VoterClusterConfig config = SmallConfig();
  ASSERT_TRUE(cluster.Deploy(BuildVoterClusterDeployment(config)).ok());
  cluster.Start();
  VoterClusterApp app(&cluster, config);
  app.Transfer(0, 1, 10);
  app.Transfer(1, 2, 10000);  // aborts
  cluster.WaitIdle();

  ClusterStats stats = cluster.GatherStats();
  EXPECT_EQ(stats.coord.multi_txns, 2u);
  EXPECT_EQ(stats.coord.commits, 1u);
  EXPECT_EQ(stats.coord.aborts, 1u);
  EXPECT_EQ(stats.coord.prepares, 4u);
  EXPECT_EQ(stats.coord.rounds(), 2u);
  EXPECT_EQ(cluster.coordinator().round_latency_us().snapshot().count, 2u);
  cluster.Stop();
}

// ---- Admission gate ----

// A round holds the admission gate until its last participant has applied
// the decision, and its ticket completes only after the gate is released:
// a quiescer that sees the ticket done never waits on that round.
TEST(TxnCoordTest, GateReleasesOnlyAfterLastParticipantApplies) {
  Cluster cluster(ClusterOpts(2));
  VoterClusterConfig config = SmallConfig();
  ASSERT_TRUE(cluster.Deploy(BuildVoterClusterDeployment(config)).ok());
  // Partition 1 parks inside its commit hooks — mid-apply — while armed.
  std::atomic<bool> armed{false};
  std::promise<void> release_apply;
  std::shared_future<void> apply_released = release_apply.get_future();
  cluster.partition(1).AddCommitHook(
      [&](Partition&, const TransactionExecution& te) {
        if (armed.load() && te.proc_name() == "vc_adjust") {
          apply_released.wait();
        }
      });
  cluster.Start();
  VoterClusterApp app(&cluster, config);
  TxnCoordinator& coord = cluster.coordinator();
  ASSERT_EQ(app.OwnerOf(0), 0u);
  ASSERT_EQ(app.OwnerOf(1), 1u);

  // 1. Participant 1's worker is parked behind a blocking closure, so the
  // round cannot even vote.
  std::promise<void> unpark;
  std::shared_future<void> unparked = unpark.get_future();
  cluster.partition(1).SubmitClosure(
      [unparked](Partition&) { unparked.wait(); });
  BatchTicketPtr first = app.TransferAsync(0, 1, 5);
  EXPECT_FALSE(coord.TryQuiesceBegin(20));
  EXPECT_FALSE(first->TryWait());
  unpark.set_value();
  EXPECT_TRUE(first->Wait()[0].committed());
  ASSERT_TRUE(coord.TryQuiesceBegin(0));
  coord.QuiesceEnd();

  // 2. Participant 0 has applied the commit; participant 1 is still inside
  // its apply. The gate must stay closed to quiescers.
  const uint64_t applied_before = cluster.partition(0).stats().committed;
  armed = true;
  BatchTicketPtr second = app.TransferAsync(0, 1, 5);
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (cluster.partition(0).stats().committed == applied_before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(cluster.partition(0).stats().committed, applied_before);
  EXPECT_FALSE(coord.TryQuiesceBegin(20));
  EXPECT_FALSE(second->TryWait());
  release_apply.set_value();
  const std::vector<TxnOutcome>& outs = second->Wait();
  ASSERT_EQ(outs.size(), 2u);
  EXPECT_TRUE(outs[0].committed());
  EXPECT_TRUE(outs[1].committed());
  ASSERT_TRUE(coord.TryQuiesceBegin(0));
  coord.QuiesceEnd();

  cluster.WaitIdle();
  EXPECT_EQ(*app.Count(0), 90);
  EXPECT_EQ(*app.Count(1), 110);
  EXPECT_EQ(cluster.GatherStats().coord.commits, 2u);
  cluster.Stop();
}

}  // namespace
}  // namespace sstore
