// Crash-fault-injection torture suite (ISSUE 7): the deterministic failpoint
// framework, crash/torn-write faults at every durability site (command-log
// append/flush, 2PC decision log, snapshot write/rename, manifest commit,
// checkpoint barrier), recovery to a consistent cut after each, composable
// kill -> recover -> ingest -> kill -> recover chains, delta snapshots, the
// background checkpointer, and kBusy shedding while the barrier is closed.
//
// Each TEST runs as its own ctest entry (own process), so process-global
// failpoint state never leaks between scenarios; tests still ResetAll() on
// exit so the whole binary also passes when run directly.

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/topology.h"
#include "common/bytes.h"
#include "common/failpoint.h"
#include "log/command_log.h"
#include "log/snapshot.h"
#include "query/executor.h"
#include "server/client.h"
#include "server/wire_server.h"
#include "streaming/injector.h"
#include "workloads/voter_cluster.h"

namespace sstore {
namespace {

std::string TempPath(const std::string& name) {
  static const std::string pid = std::to_string(::getpid());
  return ::testing::TempDir() + "/sstore_dur_" + pid + "_" + name;
}

std::string MakeDir(const std::string& name) {
  std::string path = TempPath(name);
  ::mkdir(path.c_str(), 0755);
  return path;
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

/// Every record of a log that must end cleanly (no torn tail).
std::vector<LogRecord> ReadWholeLog(const std::string& path) {
  Result<CommandLog::TolerantRead> read = CommandLog::ReadTolerant(path);
  EXPECT_TRUE(read.ok()) << read.status().ToString();
  if (!read.ok()) return {};
  EXPECT_FALSE(read->torn_tail) << path;
  return std::move(read->records);
}

Schema KeyValSchema() {
  return Schema({{"key", ValueType::kBigInt}, {"val", ValueType::kBigInt}});
}

Tuple KeyVal(int64_t key, int64_t val) {
  return {Value::BigInt(key), Value::BigInt(val)};
}

std::vector<Tuple> TableRows(SStore& store, const std::string& name) {
  Table* table = *store.catalog().GetTable(name);
  Executor exec;
  ScanSpec spec;
  spec.table = table;
  return *exec.Scan(spec);
}

/// Every scenario must leave the process clean: no armed sites, no sticky
/// crashed flag (a leaked kCrash would freeze every later component).
class FailpointGuard : public ::testing::Test {
 protected:
  void SetUp() override { failpoint::ResetAll(); }
  void TearDown() override { failpoint::ResetAll(); }
};

// ---- SSTORE_FAILPOINTS environment parsing ----
//
// Runs against the lazily-latched env parse, so this test (own process under
// ctest) sets the variable before the first Evaluate in the binary.

TEST(FailpointEnvTest, ParsesSpecWithSkipAndCount) {
  // Trailing ';' is tolerated; anything malformed would abort (see the
  // ParseSpec tests below for each rejected shape).
  ASSERT_EQ(::setenv("SSTORE_FAILPOINTS",
                     "env.err=error;env.crash=crash@2x3;", 1),
            0);
  EXPECT_EQ(failpoint::InitFromEnv(), 2u);
  EXPECT_TRUE(failpoint::AnyActive());

  // env.err: fires once, then self-disarms.
  EXPECT_EQ(failpoint::Evaluate("env.err"), failpoint::Action::kError);
  EXPECT_EQ(failpoint::Evaluate("env.err"), failpoint::Action::kOff);

  // env.crash: @2 skips two hits, then x3 fires three times.
  EXPECT_EQ(failpoint::Evaluate("env.crash"), failpoint::Action::kOff);
  EXPECT_EQ(failpoint::Evaluate("env.crash"), failpoint::Action::kOff);
  EXPECT_FALSE(failpoint::CrashRequested());
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(failpoint::Evaluate("env.crash"), failpoint::Action::kCrash);
  }
  EXPECT_TRUE(failpoint::CrashRequested());
  EXPECT_EQ(failpoint::Evaluate("env.crash"), failpoint::Action::kOff);
  EXPECT_EQ(failpoint::Hits("env.crash"), 6u);

  // A second parse is a no-op (the env is latched, not re-read).
  EXPECT_EQ(failpoint::InitFromEnv(), 0u);

  failpoint::ResetAll();
  ::unsetenv("SSTORE_FAILPOINTS");
  EXPECT_FALSE(failpoint::CrashRequested());
  EXPECT_FALSE(failpoint::AnyActive());
}

// ---- Strict spec parsing: every malformed shape is rejected loudly ----
//
// ParseSpec is the same parser the SSTORE_FAILPOINTS funnel uses; the env
// path differs only in that it aborts instead of returning the Status.

TEST_F(FailpointGuard, ParseSpecRejectsEachMalformedShape) {
  struct BadCase {
    const char* spec;
    const char* why;  // substring the error message must carry
  };
  const BadCase cases[] = {
      {"no_equals_sign", "missing '='"},
      {"=error", "empty site name"},
      {"site=", "empty action"},
      {"site=frob", "unknown action 'frob'"},
      {"site=fsync_error", "unknown action"},  // near-miss of a real name
      {"site=error@", "skip '@N'"},
      {"site=error@z", "skip '@N'"},
      {"site=error@-1", "skip '@N'"},          // negative skip
      {"site=error@2q", "skip '@N'"},          // trailing garbage
      {"site=errorx", "count 'xM'"},           // empty count
      {"site=errorxq", "count 'xM'"},
      {"site=errorx0", "count 'xM'"},          // zero fires is nonsense
      {"site=errorx-2", "count 'xM'"},         // only -1 means unlimited
      {"site=error@1x2x3", "count 'xM'"},      // doubled count suffix
  };
  for (const BadCase& c : cases) {
    size_t armed = 999;
    Status st = failpoint::ParseSpec(c.spec, &armed);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << c.spec;
    EXPECT_NE(st.message().find(c.why), std::string::npos)
        << c.spec << " -> " << st.message();
    EXPECT_EQ(armed, 0u) << c.spec;
    EXPECT_FALSE(failpoint::AnyActive()) << c.spec;
  }
}

TEST_F(FailpointGuard, ParseSpecIsAllOrNothing) {
  // A bad token anywhere arms NOTHING, including the valid entries before
  // it — a typo'd schedule must not half-arm.
  size_t armed = 999;
  Status st = failpoint::ParseSpec("good.a=error;good.b=crash@1;oops", &armed);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("'oops'"), std::string::npos) << st.message();
  EXPECT_EQ(armed, 0u);
  EXPECT_FALSE(failpoint::AnyActive());
  EXPECT_EQ(failpoint::Evaluate("good.a"), failpoint::Action::kOff);
}

TEST_F(FailpointGuard, ParseSpecAcceptsValidShapes) {
  // Empty entries (trailing/doubled ';') are tolerated; x-1 = unlimited.
  size_t armed = 0;
  ASSERT_TRUE(failpoint::ParseSpec(
                  "a=error;;b=torn@3;c=crash@0x-1;", &armed)
                  .ok());
  EXPECT_EQ(armed, 3u);
  EXPECT_EQ(failpoint::Evaluate("a"), failpoint::Action::kError);
  EXPECT_EQ(failpoint::Evaluate("a"), failpoint::Action::kOff);  // x1 default
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(failpoint::Evaluate("b"), failpoint::Action::kOff);  // skipped
  }
  EXPECT_EQ(failpoint::Evaluate("b"), failpoint::Action::kTornWrite);
  for (int i = 0; i < 8; ++i) {  // -1 never exhausts
    EXPECT_EQ(failpoint::Evaluate("c"), failpoint::Action::kCrash);
  }
  // An empty spec is valid and arms nothing.
  ASSERT_TRUE(failpoint::ParseSpec("", &armed).ok());
  EXPECT_EQ(armed, 0u);
}

TEST_F(FailpointGuard, ParseSpecOrDieAbortsOnMalformedSpec) {
  // The env funnel's behavior, death-tested deterministically (InitFromEnv
  // itself is latched per process, so it cannot be re-fired here).
  EXPECT_DEATH(failpoint::ParseSpecOrDie("wire.accept=erorr"),
               "SSTORE_FAILPOINTS.*unknown action 'erorr'");
  EXPECT_DEATH(failpoint::ParseSpecOrDie("garbage"),
               "SSTORE_FAILPOINTS.*missing '='");
}

TEST_F(FailpointGuard, ActivateCheckAndTriggerSemantics) {
  // Unarmed sites are free and OK.
  EXPECT_TRUE(failpoint::Check("never.armed").ok());
  EXPECT_EQ(failpoint::Evaluate("never.armed"), failpoint::Action::kOff);

  failpoint::Activate("t.err", failpoint::Action::kError, /*skip=*/1,
                      /*count=*/2);
  EXPECT_TRUE(failpoint::Check("t.err").ok());  // skipped hit
  EXPECT_TRUE(failpoint::Check("t.err").code() == StatusCode::kIOError);
  EXPECT_TRUE(failpoint::Check("t.err").code() == StatusCode::kIOError);
  EXPECT_TRUE(failpoint::Check("t.err").ok());  // trigger exhausted
  EXPECT_FALSE(failpoint::CrashRequested());    // kError never sets the flag

  failpoint::Activate("t.crash", failpoint::Action::kCrash);
  EXPECT_TRUE(failpoint::Check("t.crash").code() == StatusCode::kIOError);
  EXPECT_TRUE(failpoint::CrashRequested());

  // Deactivate disarms without firing; ResetAll clears the crashed flag.
  failpoint::Activate("t.off", failpoint::Action::kError, 0, -1);
  failpoint::Deactivate("t.off");
  EXPECT_TRUE(failpoint::Check("t.off").ok());
  failpoint::ResetAll();
  EXPECT_FALSE(failpoint::CrashRequested());
  EXPECT_FALSE(failpoint::AnyActive());
}

// ---- CommandLog under injected faults ----

LogRecord TxnRecord(int64_t id) {
  LogRecord r;
  r.txn_id = id;
  r.proc = "p";
  r.params = KeyVal(id, id);
  r.record_type = static_cast<uint8_t>(LogRecordType::kTxn);
  return r;
}

TEST_F(FailpointGuard, CommandLogFlushErrorIsStickyAndFreezesTheFile) {
  std::string path = TempPath("sticky.log");
  CommandLog::Options opts;
  opts.path = path;
  opts.group_size = 100;  // buffer; flush only when told to
  opts.sync = false;
  Result<std::unique_ptr<CommandLog>> log = CommandLog::Open(opts);
  ASSERT_TRUE(log.ok()) << log.status().ToString();

  ASSERT_TRUE((*log)->Append(TxnRecord(1)).ok());
  ASSERT_TRUE((*log)->Flush().ok());

  // The next flush dies: the buffered suffix is in an unknown on-disk state,
  // so the log freezes — later appends, flushes, and Close() all refuse.
  ASSERT_TRUE((*log)->Append(TxnRecord(2)).ok());
  failpoint::Activate("command_log.flush", failpoint::Action::kCrash);
  Status st = (*log)->Flush();
  EXPECT_FALSE(st.ok());
  EXPECT_FALSE((*log)->last_error().ok());
  EXPECT_FALSE((*log)->Append(TxnRecord(3)).ok());
  EXPECT_FALSE((*log)->Flush().ok());
  (void)(*log)->Close();
  failpoint::ResetAll();

  // Only the acked prefix survives; the file is cleanly readable.
  std::vector<LogRecord> records = ReadWholeLog(path);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], TxnRecord(1));
}

TEST_F(FailpointGuard, CommandLogAppendErrorIsNotSticky) {
  std::string path = TempPath("append_err.log");
  CommandLog::Options opts;
  opts.path = path;
  opts.sync = false;
  Result<std::unique_ptr<CommandLog>> log = CommandLog::Open(opts);
  ASSERT_TRUE(log.ok());

  // A failed append never buffered anything, so nothing on disk is in
  // doubt: the log stays healthy and the next append succeeds.
  failpoint::Activate("command_log.append", failpoint::Action::kError);
  EXPECT_FALSE((*log)->Append(TxnRecord(1)).ok());
  EXPECT_TRUE((*log)->last_error().ok());
  EXPECT_TRUE((*log)->Append(TxnRecord(2)).ok());
  ASSERT_TRUE((*log)->Close().ok());

  std::vector<LogRecord> records = ReadWholeLog(path);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], TxnRecord(2));
}

TEST_F(FailpointGuard, TornFlushLeavesTailReadTolerantRecovers) {
  std::string path = TempPath("torn.log");
  CommandLog::Options opts;
  opts.path = path;
  opts.group_size = 100;
  opts.sync = false;
  Result<std::unique_ptr<CommandLog>> log = CommandLog::Open(opts);
  ASSERT_TRUE(log.ok());

  ASSERT_TRUE((*log)->Append(TxnRecord(1)).ok());
  ASSERT_TRUE((*log)->Append(TxnRecord(2)).ok());
  ASSERT_TRUE((*log)->Flush().ok());

  // The crash-mid-flush case §4.4 group commit must survive: half the
  // pending buffer reaches disk, then the process "dies". Record 3 dwarfs
  // record 4 so the byte midpoint falls inside record 3's frame — a torn
  // frame, not a truncation at a frame boundary.
  LogRecord big = TxnRecord(3);
  big.proc = std::string(200, 'x');
  ASSERT_TRUE((*log)->Append(big).ok());
  ASSERT_TRUE((*log)->Append(TxnRecord(4)).ok());
  failpoint::Activate("command_log.flush", failpoint::Action::kTornWrite);
  EXPECT_FALSE((*log)->Flush().ok());
  EXPECT_FALSE((*log)->last_error().ok());  // frozen after the tear
  (void)(*log)->Close();
  failpoint::ResetAll();

  // The read returns the acked prefix and flags the tail.
  Result<CommandLog::TolerantRead> tolerant = CommandLog::ReadTolerant(path);
  ASSERT_TRUE(tolerant.ok()) << tolerant.status().ToString();
  EXPECT_TRUE(tolerant->torn_tail);
  ASSERT_EQ(tolerant->records.size(), 2u);
  EXPECT_EQ(tolerant->records[0], TxnRecord(1));
  EXPECT_EQ(tolerant->records[1], TxnRecord(2));
}

// ---- Nested groups in the command log ----
//
// A nested transaction (paper §2.3) is one unit in the log: its children's
// kPrepare records share a negative partition-local id and replay applies
// them only at the group's kCommitMark, like a multi-partition slice.

Topology NestedKvTopology() {
  auto put = std::make_shared<LambdaProcedure>([](ProcContext& ctx) -> Status {
    SSTORE_ASSIGN_OR_RETURN(Table * kv, ctx.table("kv"));
    SSTORE_ASSIGN_OR_RETURN(RowId rid, ctx.exec().Insert(kv, ctx.params()));
    (void)rid;
    return Status::OK();
  });
  Topology topo("nested_kv");
  topo.CreateTable("kv", KeyValSchema())
      .RegisterProcedure("put", SpKind::kOltp, put);
  return topo;
}

std::vector<Invocation> TwoPuts() {
  return {{"put", KeyVal(1, 10), 0}, {"put", KeyVal(2, 20), 0}};
}

/// Runs `children` as one nested group on a logged one-partition cluster
/// (group commit 1) after an empty checkpoint, with the command-log append
/// armed `crash_at_skip` when >= 0, then recovers the artifacts into
/// `recovered`.
void RunNestedGroupAndRecover(const std::string& name, int crash_at_skip,
                              Cluster* recovered) {
  std::string ckpt_dir = MakeDir(name + "_ckpt");
  std::string log_dir = MakeDir(name + "_logs");
  Cluster::Options opts;
  opts.num_partitions = 1;
  opts.group_commit_size = 1;
  opts.log_sync = false;
  {
    Cluster::Options live_opts = opts;
    live_opts.log_dir = log_dir;
    Cluster live(live_opts);
    ASSERT_TRUE(live.Deploy(NestedKvTopology()).ok());
    ASSERT_TRUE(live.Checkpoint(ckpt_dir).ok());
    if (crash_at_skip >= 0) {
      failpoint::Activate("command_log.append", failpoint::Action::kCrash,
                          crash_at_skip);
    }
    TxnOutcome out = live.partition(0).ExecuteNestedSync(TwoPuts());
    EXPECT_EQ(out.committed(), crash_at_skip < 0) << out.status.ToString();
  }  // "crash"
  failpoint::ResetAll();
  ASSERT_TRUE(recovered->Deploy(NestedKvTopology()).ok());
  Status st = recovered->Recover(ckpt_dir, log_dir);
  ASSERT_TRUE(st.ok()) << st.ToString();
}

// The kill lands on the second child's append: the first child's kPrepare
// is durable with no mark after it, so replay drops the whole group. The
// group is counted as torn, not as a coordinator in-doubt abort: the
// coordinator never saw it.
TEST_F(FailpointGuard, TornNestedGroupRecoversNoneOfItsRows) {
  Cluster recovered(1);
  RunNestedGroupAndRecover("nested_torn", /*crash_at_skip=*/1, &recovered);
  EXPECT_EQ((*recovered.store(0).catalog().GetTable("kv"))->row_count(), 0u);
  const ClusterStats stats = recovered.GatherStats();
  EXPECT_EQ(stats.recover.torn_nested_groups, 1u);
  EXPECT_EQ(stats.recover.in_doubt_aborted, 0u);
  EXPECT_EQ(stats.coord.in_doubt_aborted, 0u);
  EXPECT_EQ(stats.recover.records_replayed, 0u);
  EXPECT_EQ(recovered.SnapshotMetrics().Value(
                "sstore_recover_torn_nested_groups", -1),
            1);
}

TEST_F(FailpointGuard, CommittedNestedGroupReplaysBothChildren) {
  Cluster recovered(1);
  RunNestedGroupAndRecover("nested_committed", /*crash_at_skip=*/-1,
                           &recovered);
  EXPECT_EQ(TableRows(recovered.store(0), "kv"),
            (std::vector<Tuple>{KeyVal(1, 10), KeyVal(2, 20)}));
  const RecoverStats rs = recovered.GatherStats().recover;
  EXPECT_EQ(rs.records_replayed, 2u);
  EXPECT_EQ(rs.in_doubt_aborted, 0u);
}

// Weak recovery logs a nested group's border child but not its interior
// one, as for single transactions; the group still closes with its mark.
TEST_F(FailpointGuard, WeakNestedGroupLogsOnlyItsBorderChild) {
  Partition part;
  auto noop = std::make_shared<LambdaProcedure>(
      [](ProcContext&) { return Status::OK(); });
  ASSERT_TRUE(part.RegisterProcedure("border", SpKind::kBorder, noop).ok());
  ASSERT_TRUE(part.RegisterProcedure("interior", SpKind::kInterior, noop).ok());
  std::string path = TempPath("nested_weak.log");
  CommandLog::Options opts;
  opts.path = path;
  opts.sync = false;
  ASSERT_TRUE(part.AttachCommandLog(opts, RecoveryMode::kWeak).ok());
  TxnOutcome out =
      part.ExecuteNestedSync({{"border", {}, 1}, {"interior", {}, 1}});
  ASSERT_TRUE(out.committed()) << out.status.ToString();
  ASSERT_TRUE(part.DetachCommandLog().ok());

  std::vector<LogRecord> records = ReadWholeLog(path);
  ASSERT_EQ(records.size(), 2u);
  const LogRecord& prepare = records[0];
  const LogRecord& mark = records[1];
  EXPECT_EQ(prepare.type(), LogRecordType::kPrepare);
  EXPECT_EQ(prepare.proc, "border");
  EXPECT_EQ(mark.type(), LogRecordType::kCommitMark);
  // One negative partition-local id for the group: the first child's
  // txn id, negated, so it never meets a coordinator gid (>= 1).
  EXPECT_EQ(prepare.global_txn_id, -prepare.txn_id);
  EXPECT_EQ(mark.global_txn_id, prepare.global_txn_id);
  EXPECT_LT(mark.global_txn_id, 0);
}

// ---- Kill-at-every-site crash matrix over the voter cluster ----

/// How a scenario drives the armed site to fire.
enum class FireVia {
  kVotes,       // single-partition traffic (command-log paths)
  kTransfer,    // cross-partition 2PC (decision-log path)
  kCheckpoint,  // a Checkpoint() call (snapshot/manifest/barrier paths)
};

Cluster::Options CrashClusterOptions() {
  Cluster::Options opts;
  opts.num_partitions = 2;
  opts.routing = PartitionMap::Mode::kModulo;
  opts.log_sync = false;
  return opts;
}

VoterClusterConfig CrashVoterConfig() {
  VoterClusterConfig config;
  config.num_contestants = 8;
  config.initial_votes = 100;
  return config;
}

/// Generation-1 workload: committed votes, a clean checkpoint, then a
/// post-checkpoint tail including a cross-partition transfer, so replay
/// must compose snapshot + log + decision log. Adds the acked votes to
/// `*committed`.
void IngestAroundCheckpoint(Cluster& cluster, VoterClusterApp& app,
                            const VoterClusterConfig& config,
                            const std::string& ckpt_dir, int64_t* committed) {
  for (int i = 0; i < 16; ++i) {
    if (app.Vote(i % config.num_contestants).committed()) ++*committed;
  }
  ASSERT_TRUE(cluster.Checkpoint(ckpt_dir).ok());
  for (int i = 0; i < 16; ++i) {
    if (app.Vote(i % config.num_contestants).committed()) ++*committed;
  }
  int64_t from = 0, to = 0;
  if (app.PickCrossPartitionPair(&from, &to)) {
    app.Transfer(from, to, 5);
  }
  cluster.WaitIdle();
}

/// A fresh cluster recovers from the last kill and must hold exactly the
/// `*committed` acked votes. With `more_votes` > 0 it then ingests that many
/// (the re-armed fresh logs must capture them, counted into `*committed`)
/// and dies again with NO checkpoint.
void RecoverToAckedCut(const std::string& site, const std::string& ckpt_dir,
                       const std::string& log_dir, int64_t* committed,
                       int more_votes) {
  VoterClusterConfig config = CrashVoterConfig();
  Cluster recovered(CrashClusterOptions());
  VoterClusterApp app(&recovered, config);
  ASSERT_TRUE(recovered.Deploy(BuildVoterClusterDeployment(config)).ok());
  Status st = recovered.Recover(ckpt_dir, log_dir);
  ASSERT_TRUE(st.ok()) << site << ": " << st.ToString();
  ASSERT_TRUE(app.CheckInvariant().ok()) << site;
  Result<int64_t> txns = app.TotalVoteTxns();
  ASSERT_TRUE(txns.ok());
  EXPECT_EQ(*txns, *committed) << site << ": recovered cut != acked commits";
  if (more_votes == 0) return;

  recovered.Start();
  for (int i = 0; i < more_votes; ++i) {
    if (app.Vote(i % config.num_contestants).committed()) ++*committed;
  }
  recovered.WaitIdle();
  recovered.Stop();
}

/// One full torture scenario: ingest committed work, checkpoint cleanly,
/// ingest more, arm `site`, drive it to fire, simulate the kill, then prove
/// two *composed* recoveries converge to exactly the acked-committed cut:
///   gen-1 dies at the fault -> gen-2 recovers, ingests, dies (no manual
///   checkpoint) -> gen-3 recovers and must equal gen-2's acked state.
void RunCrashScenario(const std::string& tag, const std::string& site,
                      failpoint::Action action, FireVia fire) {
  std::string ckpt_dir = MakeDir(tag + "_ckpt");
  std::string log_dir = MakeDir(tag + "_logs");
  VoterClusterConfig config = CrashVoterConfig();

  int64_t committed = 0;  // votes the client saw acked before each kill
  {
    Cluster::Options live_opts = CrashClusterOptions();
    live_opts.log_dir = log_dir;
    Cluster cluster(live_opts);
    VoterClusterApp app(&cluster, config);
    ASSERT_TRUE(cluster.Deploy(BuildVoterClusterDeployment(config)).ok());
    cluster.Start();
    ASSERT_NO_FATAL_FAILURE(
        IngestAroundCheckpoint(cluster, app, config, ckpt_dir, &committed));

    failpoint::Activate(site, action);
    int64_t from = 0, to = 0;
    switch (fire) {
      case FireVia::kVotes:
        // The vote that hits the armed site aborts (not acked, not
        // counted); votes owned by the unpoisoned partition still commit.
        for (int i = 0; i < 24; ++i) {
          if (app.Vote(i % config.num_contestants).committed()) ++committed;
        }
        break;
      case FireVia::kTransfer:
        // The decision-log fault aborts the multi-partition transfer;
        // single-partition votes are unaffected.
        if (app.PickCrossPartitionPair(&from, &to)) {
          app.Transfer(from, to, 3);
        }
        for (int i = 0; i < 8; ++i) {
          if (app.Vote(i % config.num_contestants).committed()) ++committed;
        }
        break;
      case FireVia::kCheckpoint: {
        Status st = cluster.Checkpoint(ckpt_dir);
        EXPECT_FALSE(st.ok()) << site << ": checkpoint should have died";
        break;
      }
    }
    EXPECT_GE(failpoint::Hits(site), 1u) << site << " never evaluated";
    cluster.Stop();
    // The simulated process is dead: only what reached ckpt_dir/log_dir
    // before the fault instant survives the scope.
  }
  failpoint::ResetAll();

  // Generation 2: recover, verify the exact acked cut, ingest more (the
  // re-armed fresh logs must capture it), die again with NO checkpoint.
  RecoverToAckedCut(site, ckpt_dir, log_dir, &committed, 10);
  if (::testing::Test::HasFatalFailure()) return;
  // Generation 3: recovery composes — the second kill recovers too, and
  // still equals the acked total across both generations.
  RecoverToAckedCut(site, ckpt_dir, log_dir, &committed, 0);
}

/// A kill *inside* Recover's re-arm: gen-1 dies without a fault, gen-2's
/// Recover dies at `site` while it cuts the fresh epoch, and gen-3 must
/// still recover exactly the acked cut — the re-arm is an ordinary
/// checkpoint cut, so it inherits the checkpoint's crash safety — and then
/// compose once more (gen-4).
void RunRearmCrashScenario(const std::string& tag, const std::string& site,
                           int64_t* acked = nullptr) {
  std::string ckpt_dir = MakeDir(tag + "_ckpt");
  std::string log_dir = MakeDir(tag + "_logs");
  VoterClusterConfig config = CrashVoterConfig();

  int64_t committed = 0;
  {
    Cluster::Options live_opts = CrashClusterOptions();
    live_opts.log_dir = log_dir;
    Cluster cluster(live_opts);
    VoterClusterApp app(&cluster, config);
    ASSERT_TRUE(cluster.Deploy(BuildVoterClusterDeployment(config)).ok());
    cluster.Start();
    ASSERT_NO_FATAL_FAILURE(
        IngestAroundCheckpoint(cluster, app, config, ckpt_dir, &committed));
    cluster.Stop();
  }

  {
    Cluster recovered(CrashClusterOptions());
    VoterClusterApp app(&recovered, config);
    ASSERT_TRUE(recovered.Deploy(BuildVoterClusterDeployment(config)).ok());
    failpoint::Activate(site, failpoint::Action::kCrash);
    Status st = recovered.Recover(ckpt_dir, log_dir);
    EXPECT_FALSE(st.ok()) << site << ": the re-arm should have died";
    EXPECT_NE(st.message().find("re-arming durability after recovery"),
              std::string::npos)
        << st.ToString();
    EXPECT_GE(failpoint::Hits(site), 1u) << site << " never evaluated";
  }
  failpoint::ResetAll();

  RecoverToAckedCut(site, ckpt_dir, log_dir, &committed, 10);
  if (::testing::Test::HasFatalFailure()) return;
  RecoverToAckedCut(site, ckpt_dir, log_dir, &committed, 0);
  if (acked != nullptr) *acked = committed;
}

TEST_F(FailpointGuard, CrashAtCommandLogAppend) {
  RunCrashScenario("cl_append", "command_log.append",
                   failpoint::Action::kCrash, FireVia::kVotes);
}

TEST_F(FailpointGuard, CrashAtCommandLogFlush) {
  RunCrashScenario("cl_flush", "command_log.flush", failpoint::Action::kCrash,
                   FireVia::kVotes);
}

TEST_F(FailpointGuard, TornWriteAtCommandLogFlush) {
  RunCrashScenario("cl_torn", "command_log.flush",
                   failpoint::Action::kTornWrite, FireVia::kVotes);
}

TEST_F(FailpointGuard, CrashAtDecisionLogAppend) {
  RunCrashScenario("dl_append", "decision_log.append",
                   failpoint::Action::kCrash, FireVia::kTransfer);
}

TEST_F(FailpointGuard, CrashAtSnapshotWrite) {
  RunCrashScenario("snap_write", "snapshot.write", failpoint::Action::kCrash,
                   FireVia::kCheckpoint);
}

TEST_F(FailpointGuard, TornWriteAtSnapshotWrite) {
  RunCrashScenario("snap_torn", "snapshot.write",
                   failpoint::Action::kTornWrite, FireVia::kCheckpoint);
}

TEST_F(FailpointGuard, CrashAtSnapshotRename) {
  RunCrashScenario("snap_ren", "snapshot.rename", failpoint::Action::kCrash,
                   FireVia::kCheckpoint);
}

TEST_F(FailpointGuard, CrashAtManifestWrite) {
  RunCrashScenario("man_write", "manifest.write", failpoint::Action::kCrash,
                   FireVia::kCheckpoint);
}

TEST_F(FailpointGuard, TornWriteAtManifestWrite) {
  RunCrashScenario("man_torn", "manifest.write",
                   failpoint::Action::kTornWrite, FireVia::kCheckpoint);
}

TEST_F(FailpointGuard, CrashAtManifestRename) {
  RunCrashScenario("man_ren", "manifest.rename", failpoint::Action::kCrash,
                   FireVia::kCheckpoint);
}

TEST_F(FailpointGuard, CrashAtCheckpointBarrier) {
  RunCrashScenario("barrier", "checkpoint.barrier", failpoint::Action::kCrash,
                   FireVia::kCheckpoint);
}

TEST_F(FailpointGuard, CrashAfterManifestCommitBeforeRotation) {
  // The nastiest window: the new manifest is durable but the logs were
  // never rotated. Replay from the new cut sees an empty tail — which is
  // correct, because nothing could commit while the barrier held.
  RunCrashScenario("after_man", "checkpoint.after_manifest",
                   failpoint::Action::kCrash, FireVia::kCheckpoint);
}

TEST_F(FailpointGuard, CrashAtSnapshotWriteDuringRecover) {
  RunRearmCrashScenario("rearm_snap", "snapshot.write");
}

TEST_F(FailpointGuard, CrashAtManifestRenameDuringRecover) {
  RunRearmCrashScenario("rearm_man", "manifest.rename");
}

TEST_F(FailpointGuard, CrashAfterManifestDuringRecover) {
  // The re-arm's manifest names an epoch whose logs were never opened:
  // gen-3 replays the fresh cut's snapshots with an empty suffix.
  RunRearmCrashScenario("rearm_after_man", "checkpoint.after_manifest");
}

std::vector<std::string> DirEntries(const std::string& dir) {
  std::vector<std::string> names;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return names;
  while (const struct dirent* e = ::readdir(d)) {
    std::string name = e->d_name;
    if (name != "." && name != "..") names.push_back(name);
  }
  ::closedir(d);
  std::sort(names.begin(), names.end());
  return names;
}

TEST_F(FailpointGuard, NextCutDeletesFilesACrashOrphaned) {
  // The crash sequence leaves snapshots of four cuts and the epoch logs a
  // kill after the manifest rename stranded. One more cut must leave only
  // what its manifest can reach: its own snapshots, the delta bases they
  // reference, and its epoch's logs.
  const std::string site = "checkpoint.after_manifest";
  int64_t committed = 0;
  ASSERT_NO_FATAL_FAILURE(RunRearmCrashScenario("gc", site, &committed));
  std::string ckpt_dir = TempPath("gc_ckpt");
  std::string log_dir = TempPath("gc_logs");
  VoterClusterConfig config = CrashVoterConfig();
  uint64_t cut = 0;
  {
    Cluster cluster(CrashClusterOptions());
    VoterClusterApp app(&cluster, config);
    ASSERT_TRUE(cluster.Deploy(BuildVoterClusterDeployment(config)).ok());
    ASSERT_TRUE(cluster.Recover(ckpt_dir, log_dir).ok());
    cluster.Start();
    for (int i = 0; i < 8; ++i) {
      if (app.Vote(i % config.num_contestants).committed()) ++committed;
    }
    cluster.WaitIdle();
    CheckpointReport report;
    ASSERT_TRUE(cluster.Checkpoint(ckpt_dir, &report).ok());
    cut = report.checkpoint_id;
    cluster.Stop();
  }

  // Recover's re-arm cut `cut - 1` may still serve as a delta base; no
  // earlier snapshot may survive.
  std::string c = std::to_string(cut);
  std::string base = std::to_string(cut - 1);
  std::vector<std::string> snaps;
  for (const std::string& name : DirEntries(ckpt_dir)) {
    if (name == "CHECKPOINT") continue;
    snaps.push_back(name);
    bool live = false;
    for (const std::string& id : {c, base}) {
      for (const char* p : {"0", "1"}) {
        live |= name == "ckpt-" + id + "-partition-" + p + ".snap";
      }
    }
    EXPECT_TRUE(live) << "dead checkpoint file " << name;
  }
  EXPECT_GE(snaps.size(), 2u);
  EXPECT_TRUE(FileExists(ckpt_dir + "/ckpt-" + c + "-partition-0.snap"));
  EXPECT_TRUE(FileExists(ckpt_dir + "/ckpt-" + c + "-partition-1.snap"));
  EXPECT_EQ(DirEntries(log_dir),
            (std::vector<std::string>{"coord-decisions.e" + c + ".log",
                                      "partition-0.e" + c + ".log",
                                      "partition-1.e" + c + ".log"}));

  RecoverToAckedCut(site, ckpt_dir, log_dir, &committed, 0);
}

// ---- Delta snapshots ----

Topology HotColdTopology() {
  Topology topo("hot_cold");
  topo.CreateTable("hot", KeyValSchema())
      .CreateTable("cold", KeyValSchema())
      .RegisterProcedure(
          "bump", SpKind::kBorder,
          std::make_shared<LambdaProcedure>([](ProcContext& ctx) -> Status {
            SSTORE_ASSIGN_OR_RETURN(Table * hot, ctx.table("hot"));
            SSTORE_ASSIGN_OR_RETURN(RowId rid,
                                    ctx.exec().Insert(hot, ctx.params()));
            (void)rid;
            return Status::OK();
          }));
  for (int i = 0; i < 4; ++i) topo.InsertRow("cold", KeyVal(i, i * 10));
  return topo;
}

TEST_F(FailpointGuard, DeltaSnapshotSkipsUnchangedTablesAndRecovers) {
  std::string dir = MakeDir("delta");
  Cluster::Options opts;
  opts.num_partitions = 1;
  Cluster cluster(opts);
  ASSERT_TRUE(cluster.Deploy(HotColdTopology()).ok());
  cluster.Start();

  // First checkpoint of this directory: everything is written full.
  CheckpointReport r1;
  ASSERT_TRUE(cluster.Checkpoint(dir, &r1).ok());
  EXPECT_EQ(r1.tables_full, 2u);
  EXPECT_EQ(r1.tables_delta, 0u);
  EXPECT_GT(r1.snapshot_bytes, 0u);

  // Mutate only "hot": the next cut writes "cold" as a reference to the
  // base checkpoint instead of copying its rows again.
  EXPECT_TRUE(
      cluster.ExecuteSync("bump", KeyVal(100, 1), Value::BigInt(0)).committed());
  cluster.WaitIdle();
  CheckpointReport r2;
  ASSERT_TRUE(cluster.Checkpoint(dir, &r2).ok());
  EXPECT_EQ(r2.tables_full, 1u);
  EXPECT_EQ(r2.tables_delta, 1u);

  // Nothing changed since: the third cut is all references.
  CheckpointReport r3;
  ASSERT_TRUE(cluster.Checkpoint(dir, &r3).ok());
  EXPECT_EQ(r3.tables_full, 0u);
  EXPECT_EQ(r3.tables_delta, 2u);
  EXPECT_LT(r3.snapshot_bytes, r1.snapshot_bytes);
  cluster.Stop();

  // Recovery resolves the reference chain back to the base epoch's bytes.
  Cluster recovered(opts);
  ASSERT_TRUE(recovered.Deploy(HotColdTopology()).ok());
  Status st = recovered.Recover(dir, "");
  ASSERT_TRUE(st.ok()) << st.ToString();
  std::vector<Tuple> cold = TableRows(recovered.store(0), "cold");
  ASSERT_EQ(cold.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(cold[i], KeyVal(i, i * 10));
  std::vector<Tuple> hot = TableRows(recovered.store(0), "hot");
  ASSERT_EQ(hot.size(), 1u);
  EXPECT_EQ(hot[0], KeyVal(100, 1));

  // A delta snapshot is not self-contained: restoring it without a base
  // resolver must refuse rather than silently produce empty tables.
  SStore ref_store;
  ASSERT_TRUE(HotColdTopology().ApplyTo(ref_store, 0).ok());
  Status bare = SnapshotManager::RestoreSnapshot(
      dir + "/ckpt-3-partition-0.snap", &ref_store.catalog());
  EXPECT_FALSE(bare.ok());
}

// ---- The durable readers accept only what the writers write ----

/// Cuts a checkpoint of a one-partition cluster into `dir` and returns its
/// manifest's bytes.
std::vector<uint8_t> CheckpointManifest(const std::string& dir) {
  Cluster::Options opts;
  opts.num_partitions = 1;
  Cluster cluster(opts);
  EXPECT_TRUE(cluster.Deploy(HotColdTopology()).ok());
  EXPECT_TRUE(cluster.Checkpoint(dir).ok());
  Result<std::vector<uint8_t>> bytes = ReadFile(dir + "/CHECKPOINT");
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  return bytes.ok() ? *bytes : std::vector<uint8_t>{};
}

/// What Recover says about `dir` once its manifest holds `bytes`.
Status RecoverWithManifest(const std::string& dir,
                           const std::vector<uint8_t>& bytes) {
  EXPECT_TRUE(WriteFileAtomic(dir + "/CHECKPOINT", bytes, "test").ok());
  Cluster::Options opts;
  opts.num_partitions = 1;
  Cluster recovered(opts);
  EXPECT_TRUE(recovered.Deploy(HotColdTopology()).ok());
  return recovered.Recover(dir, "");
}

/// Checkpoints into `dir`, rewrites the manifest's payload with `edit` and
/// frames it again, so only the payload decoder can catch the edit, and
/// returns what Recover says.
Status RecoverFromEditedManifest(
    const std::string& dir,
    const std::function<void(std::vector<uint8_t>*)>& edit) {
  std::vector<uint8_t> bytes = CheckpointManifest(dir);
  ByteReader file(bytes);
  Result<uint32_t> magic = file.GetU32();
  EXPECT_TRUE(magic.ok());
  constexpr size_t kFrameHeader = 12;  // magic, length, checksum
  std::vector<uint8_t> payload(bytes.begin() + kFrameHeader, bytes.end());
  edit(&payload);
  ByteWriter framed;
  framed.PutFrame(magic.ok() ? *magic : 0, payload);
  return RecoverWithManifest(dir, framed.data());
}

TEST_F(FailpointGuard, ManifestWithoutLogEpochIsCorruption) {
  // The payload starts with the checkpoint id (8 bytes), then the epoch.
  Status missing = RecoverFromEditedManifest(
      MakeDir("man_no_epoch"), [](std::vector<uint8_t>* p) { p->resize(8); });
  EXPECT_EQ(missing.code(), StatusCode::kCorruption) << missing.ToString();
  Status garbled = RecoverFromEditedManifest(
      MakeDir("man_bad_epoch"), [](std::vector<uint8_t>* p) { p->resize(12); });
  EXPECT_EQ(garbled.code(), StatusCode::kCorruption) << garbled.ToString();
}

TEST_F(FailpointGuard, ManifestWithoutPartitionMapIsCorruption) {
  Status st = RecoverFromEditedManifest(
      MakeDir("man_no_map"), [](std::vector<uint8_t>* p) { p->resize(16); });
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
  EXPECT_NE(st.message().find("records no partition map"), std::string::npos)
      << st.ToString();
}

TEST_F(FailpointGuard, ManifestMapThatEncodeToCannotWriteIsCorruption) {
  // The map's mode byte follows the ids (16 bytes) and its version (8).
  Status mode = RecoverFromEditedManifest(
      MakeDir("man_bad_mode"), [](std::vector<uint8_t>* p) { (*p)[24] = 7; });
  EXPECT_EQ(mode.code(), StatusCode::kCorruption) << mode.ToString();
  EXPECT_NE(mode.message().find("mode"), std::string::npos) << mode.ToString();
  Status trailing = RecoverFromEditedManifest(
      MakeDir("man_trailing"),
      [](std::vector<uint8_t>* p) { p->push_back(0); });
  EXPECT_EQ(trailing.code(), StatusCode::kCorruption) << trailing.ToString();
  EXPECT_NE(trailing.message().find("after its partition map"),
            std::string::npos)
      << trailing.ToString();
}

TEST_F(FailpointGuard, EveryManifestByteFlipAndTruncationIsCorruption) {
  std::string dir = MakeDir("man_flips");
  const std::vector<uint8_t> good = CheckpointManifest(dir);
  ASSERT_FALSE(good.empty());
  for (size_t i = 0; i < good.size(); ++i) {
    for (uint8_t mask : {0x01, 0x80, 0xFF}) {
      std::vector<uint8_t> flipped = good;
      flipped[i] ^= mask;
      Status st = RecoverWithManifest(dir, flipped);
      EXPECT_EQ(st.code(), StatusCode::kCorruption)
          << "byte " << i << " ^ " << int{mask} << ": " << st.ToString();
    }
  }
  for (size_t len = 0; len < good.size(); ++len) {
    std::vector<uint8_t> cut(good.begin(), good.begin() + len);
    Status st = RecoverWithManifest(dir, cut);
    EXPECT_EQ(st.code(), StatusCode::kCorruption)
        << "cut at " << len << ": " << st.ToString();
  }
  // The intact manifest still recovers.
  Status st = RecoverWithManifest(dir, good);
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST_F(FailpointGuard, DirectoryPathsAreIOErrorNotACrash) {
  // A directory must never be sized as a file (ext4 reports LLONG_MAX).
  std::string dir = MakeDir("dir_paths");
  Catalog catalog;
  EXPECT_EQ(SnapshotManager::RestoreSnapshot(dir, &catalog).code(),
            StatusCode::kIOError);
  EXPECT_EQ(CommandLog::ReadTolerant(dir).status().code(),
            StatusCode::kIOError);

  // Recover over a manifest that is a directory.
  std::string ckpt_dir = MakeDir("dir_paths_ckpt");
  ASSERT_EQ(::mkdir((ckpt_dir + "/CHECKPOINT").c_str(), 0755), 0);
  Cluster::Options opts;
  opts.num_partitions = 1;
  {
    Cluster recovered(opts);
    ASSERT_TRUE(recovered.Deploy(HotColdTopology()).ok());
    Status st = recovered.Recover(ckpt_dir, "");
    EXPECT_EQ(st.code(), StatusCode::kIOError) << st.ToString();
  }

  // Recover over a command log that is a directory.
  std::string log_ckpt = MakeDir("dir_paths_log_ckpt");
  std::string log_dir = MakeDir("dir_paths_logs");
  {
    Cluster::Options logged = opts;
    logged.log_dir = log_dir;
    Cluster cluster(logged);
    ASSERT_TRUE(cluster.Deploy(HotColdTopology()).ok());
    ASSERT_TRUE(cluster.Checkpoint(log_ckpt).ok());
  }
  size_t replaced = 0;
  for (const std::string& name : DirEntries(log_dir)) {
    if (name.rfind("partition-0.", 0) != 0) continue;
    std::string path = log_dir + "/" + name;
    ASSERT_EQ(std::remove(path.c_str()), 0);
    ASSERT_EQ(::mkdir(path.c_str(), 0755), 0);
    ++replaced;
  }
  ASSERT_EQ(replaced, 1u);
  Cluster recovered(opts);
  ASSERT_TRUE(recovered.Deploy(HotColdTopology()).ok());
  Status st = recovered.Recover(log_ckpt, log_dir);
  EXPECT_EQ(st.code(), StatusCode::kIOError) << st.ToString();
}

TEST(DurableFormatTest, PartitionMapRoundTripsHashModuloSplitAndMerged) {
  PartitionMap hash(4, PartitionMap::Mode::kHash);
  PartitionMap modulo(4, PartitionMap::Mode::kModulo);
  PartitionMap split = *modulo.WithSplit(1, 4);
  split = *split.WithSplit(4, 5);
  PartitionMap merged = *split.WithMerge(5, 4);
  for (const PartitionMap* map : {&hash, &modulo, &split, &merged}) {
    ByteWriter out;
    map->EncodeTo(&out);
    ByteReader in(out.data());
    Result<PartitionMap> decoded = PartitionMap::DecodeFrom(&in);
    ASSERT_TRUE(decoded.ok()) << map->Describe() << ": "
                              << decoded.status().ToString();
    EXPECT_TRUE(in.AtEnd()) << map->Describe();
    EXPECT_TRUE(*decoded == *map) << map->Describe();
    EXPECT_EQ(decoded->Describe(), map->Describe());
    for (int64_t k = 0; k < 2048; ++k) {
      ASSERT_EQ(decoded->PartitionOf(Value::BigInt(k)),
                map->PartitionOf(Value::BigInt(k)))
          << map->Describe() << " key " << k;
    }
  }
}

// ---- Composed recovery of a placed topology (exactly-once channels) ----

Topology TwoStageTopology() {
  Topology topo("dur_pipe");
  topo.DefineStream("sA", KeyValSchema())
      .CreateTable("sink", KeyValSchema())
      .RegisterProcedure(
          "ingest", SpKind::kBorder,
          std::make_shared<LambdaProcedure>([](ProcContext& ctx) {
            return ctx.EmitToStream("sA", {ctx.params()});
          }))
      .RegisterProcedure(
          "apply", SpKind::kInterior,
          [](SStore& store) -> std::shared_ptr<StoredProcedure> {
            SStore* bound = &store;
            return std::make_shared<LambdaProcedure>(
                [bound](ProcContext& ctx) -> Status {
                  SSTORE_ASSIGN_OR_RETURN(
                      std::vector<Tuple> rows,
                      bound->streams().BatchContents("sA", ctx.batch_id()));
                  SSTORE_ASSIGN_OR_RETURN(Table * sink, ctx.table("sink"));
                  for (const Tuple& row : rows) {
                    SSTORE_ASSIGN_OR_RETURN(RowId rid,
                                            ctx.exec().Insert(sink, row));
                    (void)rid;
                  }
                  return Status::OK();
                });
          });
  WorkflowNode ingest;
  ingest.proc = "ingest";
  ingest.kind = SpKind::kBorder;
  ingest.output_streams = {"sA"};
  WorkflowNode apply;
  apply.proc = "apply";
  apply.kind = SpKind::kInterior;
  apply.input_streams = {"sA"};
  topo.AddStage(std::move(ingest), Placement::Pinned(0))
      .AddStage(std::move(apply), Placement::Pinned(1));
  return topo;
}

TEST_F(FailpointGuard, PlacedChannelStaysExactlyOnceAcrossTwoKills) {
  std::string ckpt_dir = MakeDir("pipe_ckpt");
  std::string log_dir = MakeDir("pipe_logs");
  Topology topo = TwoStageTopology();

  Cluster::Options opts;
  opts.num_partitions = 2;
  opts.log_sync = false;

  // Generation 1: checkpoint mid-stream, keep ingesting, die.
  {
    Cluster::Options live_opts = opts;
    live_opts.log_dir = log_dir;
    Cluster cluster(live_opts);
    ASSERT_TRUE(cluster.Deploy(topo).ok());
    cluster.Start();
    StreamInjector inject(&cluster.partition(0), "ingest");
    for (int i = 0; i < 20; ++i) inject.InjectAsync(KeyVal(i, i));
    cluster.WaitIdle();
    ASSERT_TRUE(cluster.Checkpoint(ckpt_dir).ok());
    for (int i = 20; i < 40; ++i) inject.InjectAsync(KeyVal(i, i));
    cluster.WaitIdle();
    cluster.Stop();
  }

  // Generation 2: recover (re-arms fresh logs), ingest a third wave across
  // the placed channel, die again WITHOUT any manual checkpoint.
  {
    Cluster cluster(opts);
    ASSERT_TRUE(cluster.Deploy(topo).ok());
    Status st = cluster.Recover(ckpt_dir, log_dir);
    ASSERT_TRUE(st.ok()) << st.ToString();
    cluster.Start();
    StreamInjector inject(&cluster.partition(0), "ingest");
    // The source resumes past its durable offset: re-using ids 1..20 would
    // be (correctly) dropped by the recovered channel cursor as duplicates.
    inject.ResumeBatchIdsAt(41);
    for (int i = 40; i < 60; ++i) inject.InjectAsync(KeyVal(i, i));
    cluster.WaitIdle();
    cluster.Stop();
  }

  // Generation 3: the composed cut must hold every batch exactly once —
  // no channel delivery lost at either kill, none applied twice.
  Cluster cluster(opts);
  ASSERT_TRUE(cluster.Deploy(topo).ok());
  Status st = cluster.Recover(ckpt_dir, log_dir);
  ASSERT_TRUE(st.ok()) << st.ToString();
  cluster.Start();
  cluster.WaitIdle();
  cluster.Stop();

  std::vector<Tuple> sink = TableRows(cluster.store(1), "sink");
  ASSERT_EQ(sink.size(), 60u);
  std::map<int64_t, int> seen;
  for (const Tuple& row : sink) ++seen[row[0].as_int64()];
  for (int64_t i = 0; i < 60; ++i) {
    EXPECT_EQ(seen[i], 1) << "key " << i << " delivered " << seen[i]
                          << " times";
  }
}

// Checkpointing a *recovered* cluster must rotate the re-armed epoch logs,
// not the dead generation's names (composability of rotation state).
TEST_F(FailpointGuard, CheckpointAfterRecoverRotatesFreshEpochLogs) {
  std::string ckpt_dir = MakeDir("rot_ckpt");
  std::string log_dir = MakeDir("rot_logs");
  VoterClusterConfig config;
  config.num_contestants = 4;
  Cluster::Options opts;
  opts.num_partitions = 2;
  opts.routing = PartitionMap::Mode::kModulo;
  opts.log_sync = false;

  {
    Cluster::Options live_opts = opts;
    live_opts.log_dir = log_dir;
    Cluster cluster(live_opts);
    VoterClusterApp app(&cluster, config);
    ASSERT_TRUE(cluster.Deploy(BuildVoterClusterDeployment(config)).ok());
    cluster.Start();
    for (int i = 0; i < 8; ++i) app.Vote(i % 4);
    ASSERT_TRUE(cluster.Checkpoint(ckpt_dir).ok());  // epoch 1
    for (int i = 0; i < 8; ++i) app.Vote(i % 4);
    cluster.WaitIdle();
    cluster.Stop();
  }

  Cluster recovered(opts);
  VoterClusterApp app(&recovered, config);
  ASSERT_TRUE(recovered.Deploy(BuildVoterClusterDeployment(config)).ok());
  ASSERT_TRUE(recovered.Recover(ckpt_dir, log_dir).ok());
  // Recovery re-armed a fresh epoch (id 2) and deleted the replayed files.
  EXPECT_TRUE(FileExists(log_dir + "/partition-0.e2.log"));
  EXPECT_TRUE(FileExists(log_dir + "/coord-decisions.e2.log"));
  EXPECT_FALSE(FileExists(log_dir + "/partition-0.e1.log"));
  EXPECT_FALSE(FileExists(log_dir + "/coord-decisions.e1.log"));

  recovered.Start();
  for (int i = 0; i < 8; ++i) app.Vote(i % 4);
  ASSERT_TRUE(recovered.Checkpoint(ckpt_dir).ok());  // epoch 3
  EXPECT_TRUE(FileExists(log_dir + "/partition-0.e3.log"));
  EXPECT_FALSE(FileExists(log_dir + "/partition-0.e2.log"));
  EXPECT_TRUE(app.CheckInvariant().ok());
  recovered.Stop();
}

// Obs-layer accounting across the durability machinery: LogStats totals are
// lifetime-cumulative — command-log epoch rotation must neither reset nor
// double-count them (identical ingest waves before and after a rotation, and
// after a Recover, must account identically) — and replayed channel
// deliveries land in redeliveries_suppressed, never as double applications.
TEST_F(FailpointGuard, ObsCountersSurviveRotationAndRecoverNoDoubleCount) {
  std::string ckpt_dir = MakeDir("obs_ckpt");
  std::string log_dir = MakeDir("obs_logs");
  Topology topo = TwoStageTopology();

  Cluster::Options opts;
  opts.num_partitions = 2;
  opts.log_sync = false;

  uint64_t wave_records = 0;  // log records one 20-inject wave accounts for

  // Generation 1: wave 1, rotate the log epoch, wave 2, die.
  {
    Cluster::Options live_opts = opts;
    live_opts.log_dir = log_dir;
    Cluster cluster(live_opts);
    ASSERT_TRUE(cluster.Deploy(topo).ok());
    cluster.Start();
    StreamInjector inject(&cluster.partition(0), "ingest");
    for (int i = 0; i < 20; ++i) inject.InjectAsync(KeyVal(i, i));
    cluster.WaitIdle();
    ClusterStats wave1 = cluster.GatherStats();
    ASSERT_GT(wave1.log.records_appended, 0u);
    wave_records = wave1.log.records_appended;

    ASSERT_TRUE(cluster.Checkpoint(ckpt_dir).ok());  // rotates the epoch
    ClusterStats rotated = cluster.GatherStats();
    EXPECT_GE(rotated.log.records_appended, wave1.log.records_appended)
        << "epoch rotation reset the retired-record totals";

    for (int i = 20; i < 40; ++i) inject.InjectAsync(KeyVal(i, i));
    cluster.WaitIdle();
    ClusterStats wave2 = cluster.GatherStats();
    // The same 20-inject wave must account the same on both sides of the
    // rotation — more would mean carried-over records were counted twice.
    EXPECT_EQ(wave2.log.records_appended - rotated.log.records_appended,
              wave_records);
    cluster.Stop();
  }

  // Generation 2: recover. The replay re-fires wave-2 channel forwards; the
  // recovered cursor must suppress every one (already applied downstream),
  // and a fresh wave must account exactly like wave 1 did.
  Cluster cluster(opts);
  ASSERT_TRUE(cluster.Deploy(topo).ok());
  Status st = cluster.Recover(ckpt_dir, log_dir);
  ASSERT_TRUE(st.ok()) << st.ToString();
  cluster.Start();
  cluster.WaitIdle();

  MetricsSnapshot replayed = cluster.SnapshotMetrics();
  EXPECT_GE(replayed.Value("sstore_channel_redeliveries_suppressed_total"),
            1.0)
      << "replay should have re-offered already-applied batches";

  ClusterStats recovered_base = cluster.GatherStats();
  StreamInjector inject(&cluster.partition(0), "ingest");
  inject.ResumeBatchIdsAt(41);
  for (int i = 40; i < 60; ++i) inject.InjectAsync(KeyVal(i, i));
  cluster.WaitIdle();
  ClusterStats wave3 = cluster.GatherStats();
  EXPECT_EQ(wave3.log.records_appended - recovered_base.log.records_appended,
            wave_records)
      << "a recovered cluster double-counts (or drops) log records";
  cluster.Stop();

  // The ground truth for "no double-counting": every key exactly once.
  std::vector<Tuple> sink = TableRows(cluster.store(1), "sink");
  ASSERT_EQ(sink.size(), 60u);
  std::map<int64_t, int> seen;
  for (const Tuple& row : sink) ++seen[row[0].as_int64()];
  for (int64_t i = 0; i < 60; ++i) {
    EXPECT_EQ(seen[i], 1) << "key " << i << " applied " << seen[i] << " times";
  }
}

// ---- TryCheckpoint / background checkpointer ----

TEST_F(FailpointGuard, TryCheckpointIsUnavailableWhileCoordinatorQuiesced) {
  std::string dir = MakeDir("tryckpt");
  VoterClusterConfig config;
  config.num_contestants = 4;
  Cluster::Options opts;
  opts.num_partitions = 2;
  opts.routing = PartitionMap::Mode::kModulo;
  Cluster cluster(opts);
  ASSERT_TRUE(cluster.Deploy(BuildVoterClusterDeployment(config)).ok());
  cluster.Start();

  // Someone else holds the coordinator gate: a background checkpoint must
  // defer (Unavailable), never block or fail hard.
  cluster.coordinator().QuiesceBegin();
  Status busy = cluster.TryCheckpoint(dir, nullptr, /*quiesce_timeout_ms=*/5);
  EXPECT_TRUE(busy.IsUnavailable()) << busy.ToString();
  cluster.coordinator().QuiesceEnd();

  CheckpointReport report;
  Status st = cluster.TryCheckpoint(dir, &report);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_GE(report.checkpoint_id, 1u);
  cluster.Stop();
}

TEST_F(FailpointGuard, CheckpointerCadenceKeepsClusterRecoverable) {
  std::string ckpt_dir = MakeDir("cadence_ckpt");
  std::string log_dir = MakeDir("cadence_logs");
  VoterClusterConfig config;
  config.num_contestants = 8;
  Cluster::Options opts;
  opts.num_partitions = 2;
  opts.routing = PartitionMap::Mode::kModulo;
  opts.log_sync = false;
  int64_t committed = 0;
  {
    Cluster::Options live_opts = opts;
    live_opts.log_dir = log_dir;
    Cluster cluster(live_opts);
    VoterClusterApp app(&cluster, config);
    ASSERT_TRUE(cluster.Deploy(BuildVoterClusterDeployment(config)).ok());
    cluster.Start();

    Checkpointer::Options copts;
    copts.dir = ckpt_dir;
    copts.interval_ms = 5;
    copts.poll_ms = 1;
    ASSERT_TRUE(cluster.StartCheckpointer(copts).ok());
    EXPECT_TRUE(cluster.StartCheckpointer(copts).code() == StatusCode::kAlreadyExists);

    // Ingest THROUGH the self-triggered checkpoints: the barrier pauses,
    // it never rejects — every vote here is acked durable.
    for (int i = 0; i < 300; ++i) {
      if (app.Vote(i % config.num_contestants).committed()) ++committed;
    }
    ASSERT_TRUE(cluster.checkpointer()->WaitForCompletions(2, 20000));
    Checkpointer::Stats cs = cluster.checkpointer()->stats();
    EXPECT_GE(cs.completed, 2u);
    EXPECT_GE(cs.triggered_cadence, 1u);
    EXPECT_GT(cs.last_checkpoint_id, 0u);
    EXPECT_TRUE(cluster.checkpointer()->last_error().ok())
        << cluster.checkpointer()->last_error().ToString();
    cluster.Stop();  // stops the checkpointer first, then the workers
    EXPECT_FALSE(cluster.checkpointer()->running());
  }
  ASSERT_GT(committed, 0);

  Cluster recovered(opts);
  VoterClusterApp app(&recovered, config);
  ASSERT_TRUE(recovered.Deploy(BuildVoterClusterDeployment(config)).ok());
  Status st = recovered.Recover(ckpt_dir, log_dir);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_TRUE(app.CheckInvariant().ok());
  Result<int64_t> txns = app.TotalVoteTxns();
  ASSERT_TRUE(txns.ok());
  EXPECT_EQ(*txns, committed);
}

TEST_F(FailpointGuard, CheckpointerLogBytesThresholdTriggers) {
  std::string ckpt_dir = MakeDir("bytes_ckpt");
  std::string log_dir = MakeDir("bytes_logs");
  VoterClusterConfig config;
  config.num_contestants = 4;
  Cluster::Options opts;
  opts.num_partitions = 2;
  opts.routing = PartitionMap::Mode::kModulo;
  opts.log_dir = log_dir;
  opts.log_sync = false;
  Cluster cluster(opts);
  VoterClusterApp app(&cluster, config);
  ASSERT_TRUE(cluster.Deploy(BuildVoterClusterDeployment(config)).ok());
  cluster.Start();

  Checkpointer::Options copts;
  copts.dir = ckpt_dir;
  copts.interval_ms = 0;  // cadence off: only the bytes trigger may fire
  copts.log_bytes_threshold = 256;
  copts.poll_ms = 1;
  ASSERT_TRUE(cluster.StartCheckpointer(copts).ok());

  for (int i = 0; i < 50; ++i) app.Vote(i % config.num_contestants);
  ASSERT_TRUE(cluster.checkpointer()->WaitForCompletions(1, 20000));
  Checkpointer::Stats cs = cluster.checkpointer()->stats();
  EXPECT_GE(cs.triggered_bytes, 1u);
  EXPECT_EQ(cs.triggered_cadence, 0u);
  cluster.Stop();
}

TEST_F(FailpointGuard, CheckpointerDefersWithBackoffWhileCoordinatorBusy) {
  std::string ckpt_dir = MakeDir("busy_ckpt");
  VoterClusterConfig config;
  config.num_contestants = 4;
  Cluster::Options opts;
  opts.num_partitions = 2;
  opts.routing = PartitionMap::Mode::kModulo;
  Cluster cluster(opts);
  ASSERT_TRUE(cluster.Deploy(BuildVoterClusterDeployment(config)).ok());
  cluster.Start();

  // Hold the coordinator so every attempt defers; the trigger stays
  // latched (deferred, not forgotten) and retries with backoff.
  cluster.coordinator().QuiesceBegin();
  Checkpointer::Options copts;
  copts.dir = ckpt_dir;
  copts.interval_ms = 2;
  copts.poll_ms = 1;
  copts.quiesce_timeout_ms = 2;
  copts.initial_backoff_ms = 1;
  copts.max_backoff_ms = 10;
  ASSERT_TRUE(cluster.StartCheckpointer(copts).ok());

  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (cluster.checkpointer()->stats().busy_deferred < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  Checkpointer::Stats held = cluster.checkpointer()->stats();
  EXPECT_GE(held.busy_deferred, 2u);
  EXPECT_EQ(held.completed, 0u);
  EXPECT_EQ(held.failed, 0u);  // Unavailable is deferral, not failure

  // Release the gate: the latched trigger completes without a new cadence
  // tick being required.
  cluster.coordinator().QuiesceEnd();
  EXPECT_TRUE(cluster.checkpointer()->WaitForCompletions(1, 20000));
  EXPECT_TRUE(cluster.checkpointer()->last_error().ok());
  cluster.Stop();
}

TEST_F(FailpointGuard, StartCheckpointerValidatesOptions) {
  Cluster cluster(1);
  ASSERT_TRUE(cluster.Deploy(Topology("empty")).ok());
  Checkpointer::Options no_dir;
  no_dir.interval_ms = 10;
  EXPECT_TRUE(cluster.StartCheckpointer(no_dir).code() == StatusCode::kInvalidArgument);
  Checkpointer::Options no_trigger;
  no_trigger.dir = MakeDir("novalid");
  EXPECT_TRUE(cluster.StartCheckpointer(no_trigger).code() == StatusCode::kInvalidArgument);
  EXPECT_FALSE(cluster.checkpointer()->running());
}

// ---- Wire server sheds kBusy while the barrier holds the cluster ----

TEST_F(FailpointGuard, WireServerShedsBusyWhileCheckpointGateClosed) {
  VoterClusterConfig config;
  config.num_contestants = 8;
  Cluster::Options opts;
  opts.num_partitions = 2;
  opts.routing = PartitionMap::Mode::kModulo;
  Cluster cluster(opts);
  VoterClusterApp app(&cluster, config);
  ASSERT_TRUE(cluster.Deploy(BuildVoterClusterDeployment(config)).ok());
  cluster.Start();
  WireServer server(&cluster, WireServer::Options{});
  ASSERT_TRUE(server.Start().ok());
  Result<std::unique_ptr<WireClient>> client =
      WireClient::Connect({"127.0.0.1", server.port()});
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  // Gate closed (as during a barrier pause): requests are shed with kBusy
  // — an explicit retry signal — instead of queueing behind parked workers.
  cluster.SetCheckpointGateClosedForTest(true);
  WireResult shed = (*client)->Call("vc_vote", {Value::BigInt(1)},
                                    Value::BigInt(1));
  EXPECT_TRUE(shed.transport.ok()) << shed.transport.ToString();
  EXPECT_TRUE(shed.busy);

  // Gate open again: the same request commits.
  cluster.SetCheckpointGateClosedForTest(false);
  WireResult fine = (*client)->Call("vc_vote", {Value::BigInt(1)},
                                    Value::BigInt(1));
  EXPECT_TRUE(fine.committed()) << fine.transport.ToString();

  WireServer::Stats stats = server.stats();
  EXPECT_GE(stats.busy_during_checkpoint, 1u);
  EXPECT_GE(stats.busy_shed, stats.busy_during_checkpoint);
  (*client)->Close();
  server.Stop();
  cluster.Stop();
}

}  // namespace
}  // namespace sstore
