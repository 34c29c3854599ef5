// Full-stack fault injection (ISSUE 10). Two halves:
//
//  1. Deterministic per-site coverage: every new serving-layer and channel
//     failpoint site gets a crash-recover test that arms exactly that site,
//     drives it to fire, and proves the invariant it threatens (acked
//     commits survive recovery, channels stay exactly-once, the server
//     stays up). The rebalance sites get the same treatment in
//     rebalance_test.cc's kill matrix; one representative lives here too.
//
//  2. The seeded randomized harness (chaos_harness.{h,cc}): N schedules per
//     run, each derived from a seed. A failure prints the seed and the
//     exact failpoint spec; SSTORE_CHAOS_SEED=<s> replays it.
//
// Run in isolation with `ctest -L chaos`.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "chaos_harness.h"
#include "cluster/cluster.h"
#include "cluster/cluster_injector.h"
#include "common/failpoint.h"
#include "server/client.h"
#include "server/wire_server.h"
#include "streaming/injector.h"
#include "workloads/voter_cluster.h"

namespace sstore {
namespace {

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override { failpoint::ResetAll(); }
  void TearDown() override { failpoint::ResetAll(); }
};

// ---- Deterministic wire-site coverage ----

/// Shared fixture logic for the wire sites: voter cluster + server + one
/// client hammering votes, then a simulated crash and a recovery that must
/// hold at least every acked commit.
struct WireRig {
  explicit WireRig(const std::string& tag) {
    static const std::string pid = std::to_string(::getpid());
    const char* base = std::getenv("TMPDIR");
    std::string root = std::string(base != nullptr ? base : "/tmp");
    ckpt_dir = root + "/sstore_chaos_det_" + pid + "_" + tag + "_ckpt";
    log_dir = root + "/sstore_chaos_det_" + pid + "_" + tag + "_logs";
    ::system(("mkdir -p " + ckpt_dir + " " + log_dir).c_str());
    config.num_contestants = 8;
    config.initial_votes = 1000;
    opts.num_partitions = 2;
    opts.routing = PartitionMap::Mode::kModulo;
    opts.log_sync = false;
  }

  /// Deploy + start + baseline checkpoint + wire server. Call before arming.
  void Up() {
    Cluster::Options live = opts;
    live.log_dir = log_dir;
    cluster = std::make_unique<Cluster>(live);
    app = std::make_unique<VoterClusterApp>(cluster.get(), config);
    ASSERT_TRUE(cluster->Deploy(BuildVoterClusterDeployment(config)).ok());
    cluster->Start();
    ASSERT_TRUE(cluster->Checkpoint(ckpt_dir).ok());
    WireServer::Options sopts;
    sopts.drain_timeout_ms = 500;
    server = std::make_unique<WireServer>(cluster.get(), sopts);
    ASSERT_TRUE(server->Start().ok());
  }

  std::unique_ptr<WireClient> Connect() {
    Result<std::unique_ptr<WireClient>> client =
        WireClient::Connect({"127.0.0.1", server->port()});
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return client.ok() ? std::move(*client) : nullptr;
  }

  /// Pipelined votes; returns how many the client saw committed.
  int64_t Votes(WireClient& client, int n) {
    std::vector<WireFuturePtr> futures;
    for (int i = 0; i < n; ++i) {
      int64_t k = i % config.num_contestants;
      futures.push_back(
          client.SubmitAsync("vc_vote", {Value::BigInt(k)}, Value::BigInt(k)));
    }
    client.Flush().ok();
    int64_t acked = 0;
    for (WireFuturePtr& f : futures) {
      if (f->Wait().committed()) ++acked;
    }
    return acked;
  }

  /// Simulated crash (drop live objects) then recover and verify the cut.
  void CrashAndVerify(int64_t acked) {
    server->Stop();
    cluster->Stop();
    failpoint::ResetAll();
    Cluster recovered(opts);
    VoterClusterApp rapp(&recovered, config);
    ASSERT_TRUE(recovered.Deploy(BuildVoterClusterDeployment(config)).ok());
    Status st = recovered.Recover(ckpt_dir, log_dir);
    ASSERT_TRUE(st.ok()) << st.ToString();
    ASSERT_TRUE(rapp.CheckInvariant().ok());
    Result<int64_t> txns = rapp.TotalVoteTxns();
    ASSERT_TRUE(txns.ok());
    // An ack can be lost after the commit (torn connection), never the
    // reverse: client-observed commits ⊆ durable state.
    EXPECT_GE(*txns, acked);
  }

  std::string ckpt_dir, log_dir;
  VoterClusterConfig config;
  Cluster::Options opts;
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<VoterClusterApp> app;
  std::unique_ptr<WireServer> server;
};

TEST_F(ChaosTest, WireAcceptFaultDropsOneConnectionServerKeepsServing) {
  WireRig rig("accept");
  rig.Up();
  failpoint::Activate("wire.accept", failpoint::Action::kError);

  // First connection is accepted then immediately dropped by the fault:
  // the TCP handshake succeeded (listen backlog), but the first request
  // can only fail.
  std::unique_ptr<WireClient> dropped = rig.Connect();
  ASSERT_NE(dropped, nullptr);
  EXPECT_FALSE(dropped->Ping().ok());
  dropped->Close();

  // The fault fired once; the next connection serves normally.
  std::unique_ptr<WireClient> fine = rig.Connect();
  ASSERT_NE(fine, nullptr);
  EXPECT_TRUE(fine->Ping().ok());
  int64_t acked = rig.Votes(*fine, 8);
  EXPECT_EQ(acked, 8);
  fine->Close();
  rig.CrashAndVerify(acked);
}

TEST_F(ChaosTest, WireShortReadsReassemblePipelinedFrames) {
  WireRig rig("rdshort");
  rig.Up();
  // EVERY server read returns one byte: frames straddle hundreds of reads.
  failpoint::Activate("wire.read.short", failpoint::Action::kError, 0, -1);
  std::unique_ptr<WireClient> client = rig.Connect();
  ASSERT_NE(client, nullptr);
  int64_t acked = rig.Votes(*client, 16);
  EXPECT_EQ(acked, 16);
  EXPECT_GE(failpoint::Hits("wire.read.short"), 16u);
  client->Close();
  rig.CrashAndVerify(acked);
}

TEST_F(ChaosTest, WireEagainStormDelaysButNeverDropsRequests) {
  WireRig rig("eagain");
  rig.Up();
  // The first 50 readable events yield nothing (simulated EAGAIN storm);
  // level-triggered epoll re-reports until the storm passes.
  failpoint::Activate("wire.read.eagain", failpoint::Action::kError, 0, 50);
  std::unique_ptr<WireClient> client = rig.Connect();
  ASSERT_NE(client, nullptr);
  int64_t acked = rig.Votes(*client, 8);
  EXPECT_EQ(acked, 8);
  client->Close();
  rig.CrashAndVerify(acked);
}

TEST_F(ChaosTest, WireMidStreamPeerResetLosesAcksNotCommits) {
  WireRig rig("reset");
  rig.Up();
  std::unique_ptr<WireClient> client = rig.Connect();
  ASSERT_NE(client, nullptr);
  int64_t acked = rig.Votes(*client, 8);  // healthy prefix
  EXPECT_EQ(acked, 8);

  // The next read on the connection tears it down server-side, exactly as
  // if the peer reset mid-frame. In-flight votes may have committed without
  // their acks escaping — the recovery check below is the invariant.
  failpoint::Activate("wire.read.reset", failpoint::Action::kError);
  std::vector<WireFuturePtr> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(client->SubmitAsync("vc_vote", {Value::BigInt(1)},
                                          Value::BigInt(1)));
  }
  client->Flush().ok();
  for (WireFuturePtr& f : futures) {
    if (f->Wait().committed()) ++acked;  // none should, but count honestly
  }
  client->Close();

  // Server survives the reset; a fresh connection still serves.
  std::unique_ptr<WireClient> again = rig.Connect();
  ASSERT_NE(again, nullptr);
  EXPECT_TRUE(again->Ping().ok());
  acked += rig.Votes(*again, 4);
  again->Close();
  rig.CrashAndVerify(acked);
}

TEST_F(ChaosTest, WireShortWritesDribbleResponsesOutIntact) {
  WireRig rig("wrshort");
  rig.Up();
  // Every flush pass sends one byte, forcing the EPOLLOUT partial-write
  // bookkeeping on every single response frame.
  failpoint::Activate("wire.write.short", failpoint::Action::kError, 0, -1);
  std::unique_ptr<WireClient> client = rig.Connect();
  ASSERT_NE(client, nullptr);
  int64_t acked = rig.Votes(*client, 12);
  EXPECT_EQ(acked, 12);
  EXPECT_GE(failpoint::Hits("wire.write.short"), 12u);
  client->Close();
  rig.CrashAndVerify(acked);
}

TEST_F(ChaosTest, WireClientShortFlushStillCommitsEverything) {
  WireRig rig("clshort");
  rig.Up();
  // The client's sends dribble one byte at a time; the server's frame
  // buffer must reassemble requests across arbitrarily many reads.
  failpoint::Activate("wire.client.flush.short", failpoint::Action::kError,
                      0, -1);
  std::unique_ptr<WireClient> client = rig.Connect();
  ASSERT_NE(client, nullptr);
  int64_t acked = rig.Votes(*client, 12);
  EXPECT_EQ(acked, 12);
  client->Close();
  rig.CrashAndVerify(acked);
}

TEST_F(ChaosTest, FetchStatsRetriesThroughBusySheds) {
  WireRig rig("stats");
  rig.Up();
  std::unique_ptr<WireClient> client = rig.Connect();
  ASSERT_NE(client, nullptr);

  // Three consecutive stats polls shed kBusy; FetchStats retries with
  // backoff and the fourth attempt answers.
  failpoint::Activate("wire.shed.stats", failpoint::Action::kError, 0, 3);
  Result<std::string> text = client->FetchStats();
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("sstore_"), std::string::npos);
  EXPECT_GE(client->busy_received(), 3u);

  // A shed storm outlasting every retry surfaces as Unavailable — the
  // explicit "server alive but pausing" signal sstore_top tolerates.
  failpoint::Activate("wire.shed.stats", failpoint::Action::kError, 0, -1);
  Result<std::string> starved = client->FetchStats();
  ASSERT_FALSE(starved.ok());
  EXPECT_TRUE(starved.status().IsUnavailable())
      << starved.status().ToString();
  failpoint::Deactivate("wire.shed.stats");

  client->Close();
  rig.CrashAndVerify(0);
}

// ---- Deterministic channel-site coverage ----

/// One deterministic channel scenario through the harness' channel flavor:
/// pinned producer on partition 0, keyed consumer, log-backed. Keys are
/// injected synchronously with exactly `site` armed (skip hits pass, then
/// every hit fires), the cluster "crashes", and the final clean recovery
/// must show each committed key in the sink exactly once. A non-OK status
/// is a broken exactly-once invariant.
void RunChannelSiteScenario(const std::string& site, int keys, int skip = 0,
                            int generations = 2) {
  chaos::Schedule s;
  s.seed = 0;
  s.wire_flavor = false;
  s.generations = generations;
  s.requests_per_client = keys;
  s.picks.push_back({site, "error", skip, -1});
  Status st =
      chaos::RunSchedule(s, "det_" + site + "_s" + std::to_string(skip));
  EXPECT_TRUE(st.ok()) << site << ": " << st.ToString();
}

TEST_F(ChaosTest, ChannelForwardDropRedeliversAfterRecovery) {
  // Every forward dropped: nothing reaches the sink live, everything is
  // still pending at the crash, recovery re-forwards all of it exactly once.
  RunChannelSiteScenario("channel.forward.drop", 12);
}

TEST_F(ChaosTest, ChannelForwardDropOfMidStreamBatchIsRecovered) {
  // A skip lands the drops mid-stream: earlier batches deliver live, the
  // dropped tail arrives after recovery — order-independent exactly-once.
  RunChannelSiteScenario("channel.forward.drop", 12, /*skip=*/5);
}

TEST_F(ChaosTest, ChannelDuplicateForwardIsDeliveredOnce) {
  // Every forward submitted twice under the same encoded batch id; the
  // consumer cursor must commit the duplicate as a no-effect txn.
  RunChannelSiteScenario("channel.forward.duplicate", 12);
}

TEST_F(ChaosTest, ChannelAckStallLeavesBatchesPendingNotDuplicated) {
  // GC never runs: every delivered batch is still "pending" at the crash.
  // Recovery re-forwards them all; the consumer cursors suppress every
  // single one. The sink must not see a second copy.
  RunChannelSiteScenario("channel.ack.stall", 12);
}

TEST_F(ChaosTest, ChannelCrashBetweenDeliveryAndGcSuppressesRedelivery) {
  // The exactly-once window the site exists for: delivery txns committed,
  // raw batches not yet GC'd, process dies. Cursor suppression is the only
  // thing standing between recovery and double-delivery.
  RunChannelSiteScenario("channel.crash.before_gc", 12);
}

// ---- One deterministic rebalance-site representative ----
// (rebalance_test.cc's kill matrix covers all five sites; this keeps the
// chaos label self-contained.)

TEST_F(ChaosTest, RebalanceCrashBeforeManifestRecoversToOldMap) {
  static const std::string pid = std::to_string(::getpid());
  const char* base = std::getenv("TMPDIR");
  std::string root = std::string(base != nullptr ? base : "/tmp");
  std::string ckpt_dir = root + "/sstore_chaos_rebal_" + pid + "_ckpt";
  std::string log_dir = root + "/sstore_chaos_rebal_" + pid + "_logs";
  ::system(("mkdir -p " + ckpt_dir + " " + log_dir).c_str());

  VoterClusterConfig config;
  config.num_contestants = 8;
  config.initial_votes = 1000;
  Cluster::Options opts;
  opts.num_partitions = 2;
  opts.routing = PartitionMap::Mode::kModulo;
  opts.log_sync = false;

  int64_t acked = 0;
  {
    Cluster::Options live = opts;
    live.log_dir = log_dir;
    Cluster cluster(live);
    VoterClusterApp app(&cluster, config);
    ASSERT_TRUE(cluster.Deploy(chaos::ChaosVoterDeployment(config)).ok());
    cluster.Start();
    ASSERT_TRUE(cluster.Checkpoint(ckpt_dir).ok());
    for (int i = 0; i < 16; ++i) {
      if (app.Vote(i % config.num_contestants).committed()) ++acked;
    }
    // Keyed rows for the cutover to migrate (vc_contestants is replicated
    // on every partition by design, so it must never be in keyed_tables).
    ClusterInjector seeder(&cluster, "chaos_put");
    std::vector<Tuple> batch;
    for (int64_t k = 0; k < 24; ++k) {
      batch.push_back({Value::BigInt(k), Value::BigInt(k)});
    }
    for (auto& t : seeder.InjectBatchAsync(std::move(batch))) t->Wait();
    cluster.WaitIdle();

    // Crash after the rows migrated but before the manifest rename: the
    // cutover never committed, so recovery lands on the old 2-partition map
    // with every acked vote intact.
    failpoint::Activate("rebalance.before_manifest",
                        failpoint::Action::kCrash);
    RebalancePlan plan;
    plan.kind = RebalancePlan::Kind::kSplit;
    plan.source = 0;
    plan.keyed_tables = {{"chaos_kv", 0}};
    plan.checkpoint_dir = ckpt_dir;
    Status st = cluster.Rebalance(plan);
    EXPECT_FALSE(st.ok()) << "rebalance should have died at the failpoint";
    EXPECT_GE(failpoint::Hits("rebalance.before_manifest"), 1u);
    cluster.Stop();
  }
  failpoint::ResetAll();

  Cluster recovered(opts);
  VoterClusterApp app(&recovered, config);
  ASSERT_TRUE(recovered.Deploy(chaos::ChaosVoterDeployment(config)).ok());
  Status st = recovered.Recover(ckpt_dir, log_dir);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(recovered.num_partitions(), 2u);
  EXPECT_EQ(recovered.partition_map().version(), 1u);
  ASSERT_TRUE(app.CheckInvariant().ok());
  Result<int64_t> txns = app.TotalVoteTxns();
  ASSERT_TRUE(txns.ok());
  EXPECT_EQ(*txns, acked);
}

// ---- The randomized schedule sweep ----

TEST(ChaosScheduleTest, DefaultSweepRunsBothRecoveryModes) {
  int weak = 0;
  for (uint64_t i = 0; i < 20; ++i) {
    if (chaos::MakeSchedule(0xC0FFEEull + i).recovery_mode ==
        RecoveryMode::kWeak) {
      ++weak;
    }
  }
  EXPECT_GT(weak, 0);
  EXPECT_LT(weak, 20);
}

TEST_F(ChaosTest, SeededRandomizedSchedules) {
  uint64_t replay_seed = 0;
  if (chaos::EnvSeed(&replay_seed)) {
    // Replay mode: exactly the schedule the failing run printed.
    chaos::Schedule s = chaos::MakeSchedule(replay_seed);
    SCOPED_TRACE("replaying SSTORE_CHAOS_SEED=" +
                 std::to_string(replay_seed) + " " + s.Describe());
    Status st = chaos::RunSchedule(s, "replay");
    EXPECT_TRUE(st.ok()) << "seed=" << replay_seed << " spec=\"" << s.Spec()
                         << "\" : " << st.ToString();
    return;
  }

  const uint64_t base = chaos::EnvBaseSeed(0xC0FFEEull);
  const int count = chaos::EnvScheduleCount(20);
  int failures = 0;
  for (int i = 0; i < count; ++i) {
    const uint64_t seed = base + static_cast<uint64_t>(i);
    chaos::Schedule s = chaos::MakeSchedule(seed);
    Status st = chaos::RunSchedule(s, "sweep" + std::to_string(i));
    if (!st.ok()) {
      ++failures;
      ADD_FAILURE() << "chaos schedule failed — replay with "
                    << "SSTORE_CHAOS_SEED=" << seed << "\n  schedule: "
                    << s.Describe() << "\n  error: " << st.ToString();
    }
  }
  EXPECT_EQ(failures, 0) << failures << "/" << count
                         << " schedules broke an invariant";
}

}  // namespace
}  // namespace sstore
