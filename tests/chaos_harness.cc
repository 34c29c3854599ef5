#include "chaos_harness.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <iterator>
#include <map>
#include <memory>
#include <thread>
#include <utility>

#include "cluster/cluster.h"
#include "cluster/cluster_injector.h"
#include "cluster/stream_channel.h"
#include "cluster/topology.h"
#include "common/failpoint.h"
#include "common/rng.h"
#include "server/client.h"
#include "server/wire_server.h"
#include "streaming/injector.h"
#include "workloads/voter_cluster.h"

namespace sstore {
namespace chaos {

Topology ChaosVoterDeployment(const VoterClusterConfig& config) {
  Topology topo = BuildVoterClusterDeployment(config);
  Schema kv({{"key", ValueType::kBigInt}, {"val", ValueType::kBigInt}});
  topo.CreateTable("chaos_kv", kv).RegisterProcedure(
      "chaos_put", SpKind::kBorder,
      std::make_shared<LambdaProcedure>([](ProcContext& ctx) -> Status {
        SSTORE_ASSIGN_OR_RETURN(Table * t, ctx.table("chaos_kv"));
        SSTORE_ASSIGN_OR_RETURN(RowId rid, ctx.exec().Insert(t, ctx.params()));
        (void)rid;
        return Status::OK();
      }));
  return topo;
}

namespace {

std::string TempDirFor(const std::string& tag, const std::string& leaf) {
  static const std::string pid = std::to_string(::getpid());
  const char* base = std::getenv("TMPDIR");
  std::string path = std::string(base != nullptr ? base : "/tmp") +
                     "/sstore_chaos_" + pid + "_" + tag + "_" + leaf;
  ::mkdir(path.c_str(), 0755);
  return path;
}

// Sites a wire-flavor schedule may arm. Rebalance sites join the pool only
// when the schedule actually runs a rebalance, so every armed site has a
// code path that can reach it.
const char* const kWireSites[] = {
    "wire.accept",      "wire.read.short",        "wire.read.eagain",
    "wire.read.reset",  "wire.write.short",       "wire.shed.stats",
    "wire.client.flush.short",
};
const char* const kRebalanceSites[] = {
    "rebalance.before_flip",     "rebalance.after_flip",
    "rebalance.mid_migration",   "rebalance.before_manifest",
    "rebalance.after_manifest",
};
const char* const kChannelSites[] = {
    "channel.forward.drop",
    "channel.forward.duplicate",
    "channel.ack.stall",
    "channel.crash.before_gc",
};

FaultPick PickFor(Rng& rng, const std::string& site,
                  const std::string& action) {
  FaultPick pick;
  pick.site = site;
  pick.action = action;
  pick.skip = static_cast<int>(rng.NextBounded(6));
  static const int kCounts[] = {1, 1, 2, 4, -1};
  pick.count = kCounts[rng.NextBounded(5)];
  return pick;
}

Status Arm(const Schedule& s) {
  failpoint::ResetAll();
  size_t armed = 0;
  SSTORE_RETURN_NOT_OK(failpoint::ParseSpec(s.Spec(), &armed));
  if (armed != s.picks.size()) {
    return Status::Internal("schedule armed " + std::to_string(armed) +
                            " of " + std::to_string(s.picks.size()) +
                            " picks");
  }
  return Status::OK();
}

// ---- Wire flavor -----------------------------------------------------

// One client's pipelined vote loop. Uses futures + a deadline instead of
// blocking Call(): an armed fault (peer reset, a crashed rebalance leaving
// a never-started partition holding routed work) may mean a response never
// comes, and a chaos schedule must not hang the harness.
int64_t RunVoteClient(uint16_t port, uint64_t seed, int requests,
                      int64_t contestants) {
  Result<std::unique_ptr<WireClient>> client =
      WireClient::Connect({"127.0.0.1", port});
  if (!client.ok()) return 0;
  Rng rng(seed);
  int64_t acked = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(1500);
  for (int i = 0; i < requests; ++i) {
    int64_t k = static_cast<int64_t>(rng.NextBounded(
        static_cast<uint64_t>(contestants)));
    WireFuturePtr future = (*client)->SubmitAsync(
        "vc_vote", {Value::BigInt(k)}, Value::BigInt(k));
    if (!(*client)->Flush().ok()) break;
    const WireResult* result = nullptr;
    while (!future->TryGet(&result)) {
      if (std::chrono::steady_clock::now() > deadline) break;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    if (result == nullptr) break;  // deadline: response will never come
    if (!result->transport.ok()) break;
    if (result->committed()) ++acked;
  }
  (*client)->Close();
  return acked;
}

// Split-safe vote conservation. VoterClusterApp::CheckInvariant reads each
// contestant's count from the key's *current* owner, but vc_contestants is
// replicated and never migrates: after a successful split, votes applied
// before the flip live on the old owner's copy while reads consult the new
// owner. Summing every copy's delta from the seed counts each committed
// vote exactly once no matter how often ownership moved.
Status CheckVoteConservation(Cluster& cluster,
                             const VoterClusterConfig& config,
                             const VoterClusterApp& app) {
  int64_t deltas = 0;
  for (size_t p = 0; p < cluster.num_partitions(); ++p) {
    SSTORE_ASSIGN_OR_RETURN(
        Table * t, cluster.store(p).catalog().GetTable("vc_contestants"));
    t->ForEach([&](RowId, const Tuple& row, const RowMeta&) {
      deltas += row[1].as_int64() - config.initial_votes;
      return true;
    });
  }
  SSTORE_ASSIGN_OR_RETURN(int64_t txns, app.TotalVoteTxns());
  if (deltas != txns) {
    return Status::Internal("vote conservation broken: contestant deltas " +
                            std::to_string(deltas) + " != counted txns " +
                            std::to_string(txns));
  }
  return Status::OK();
}

Status VerifyVoterRecovery(const Cluster::Options& opts,
                           const VoterClusterConfig& config,
                           const std::string& ckpt_dir,
                           const std::string& log_dir, int64_t acked) {
  Cluster recovered(opts);
  VoterClusterApp app(&recovered, config);
  SSTORE_RETURN_NOT_OK(recovered.Deploy(ChaosVoterDeployment(config)));
  SSTORE_RETURN_NOT_OK(recovered.Recover(ckpt_dir, log_dir));
  SSTORE_RETURN_NOT_OK(CheckVoteConservation(recovered, config, app));
  SSTORE_ASSIGN_OR_RETURN(int64_t txns, app.TotalVoteTxns());
  if (txns < acked) {
    return Status::Internal(
        "acked-commits invariant broken: clients saw " +
        std::to_string(acked) + " committed votes but only " +
        std::to_string(txns) + " are durable after recovery");
  }
  return Status::OK();
}

Status RunWireSchedule(const Schedule& s, const std::string& tag) {
  std::string ckpt_dir = TempDirFor(tag, "ckpt");
  std::string log_dir = TempDirFor(tag, "logs");
  VoterClusterConfig config;
  config.num_contestants = 8;
  config.initial_votes = 1000;

  Cluster::Options opts;
  opts.num_partitions = 2;
  opts.routing = PartitionMap::Mode::kModulo;
  opts.log_sync = false;
  opts.recovery_mode = s.recovery_mode;

  int64_t acked = 0;
  for (int gen = 0; gen < s.generations; ++gen) {
    Cluster::Options live = opts;
    live.log_dir = log_dir;
    Cluster cluster(live);
    VoterClusterApp app(&cluster, config);
    SSTORE_RETURN_NOT_OK(cluster.Deploy(ChaosVoterDeployment(config)));
    if (gen > 0) {
      SSTORE_RETURN_NOT_OK(cluster.Recover(ckpt_dir, log_dir));
      SSTORE_RETURN_NOT_OK(CheckVoteConservation(cluster, config, app));
      SSTORE_ASSIGN_OR_RETURN(int64_t txns, app.TotalVoteTxns());
      if (txns < acked) {
        return Status::Internal("gen " + std::to_string(gen) +
                                ": durable txns " + std::to_string(txns) +
                                " < acked " + std::to_string(acked));
      }
    }
    cluster.Start();
    if (gen == 0) {
      // Baseline cut so every later recovery has a manifest to land on.
      SSTORE_RETURN_NOT_OK(cluster.Checkpoint(ckpt_dir));
    }
    if (s.with_checkpointer) {
      Checkpointer::Options copts;
      copts.dir = ckpt_dir;
      copts.interval_ms = 2;
      copts.poll_ms = 1;
      copts.quiesce_timeout_ms = 5;
      copts.initial_backoff_ms = 1;
      copts.max_backoff_ms = 10;
      SSTORE_RETURN_NOT_OK(cluster.StartCheckpointer(copts));
    }

    // Rows for the concurrent split to migrate, injected before any fault is
    // armed: chaos_kv starts empty, so these are exactly the rows the
    // cutover moves (vc_contestants is replicated and must never migrate).
    if (s.with_rebalance) {
      ClusterInjector seeder(&cluster, "chaos_put");
      std::vector<Tuple> batch;
      for (int64_t k = 0; k < 24; ++k) {
        batch.push_back({Value::BigInt(k), Value::BigInt(gen)});
      }
      for (auto& t : seeder.InjectBatchAsync(std::move(batch))) t->Wait();
      cluster.WaitIdle();
    }

    SSTORE_RETURN_NOT_OK(Arm(s));

    WireServer::Options server_opts;
    server_opts.drain_timeout_ms = 300;  // crashed schedules must not stall
    WireServer server(&cluster, server_opts);
    Status started = server.Start();
    if (!started.ok()) {
      failpoint::ResetAll();
      return started;
    }

    std::vector<std::thread> workers;
    std::vector<int64_t> per_client(static_cast<size_t>(s.clients), 0);
    for (int c = 0; c < s.clients; ++c) {
      uint64_t client_seed =
          s.seed ^ (0x9e3779b97f4a7c15ull * static_cast<uint64_t>(
                                                gen * 64 + c + 1));
      workers.emplace_back([&, c, client_seed] {
        per_client[static_cast<size_t>(c)] =
            RunVoteClient(server.port(), client_seed, s.requests_per_client,
                          config.num_contestants);
      });
    }

    // Concurrent control-plane churn: a keyed split racing the vote load.
    // An armed rebalance site makes this fail mid-cutover by design; the
    // flipped-but-uncommitted cluster is then treated as crashed (no
    // WaitIdle — routed work on the never-started partition cannot drain).
    bool rebalance_failed = false;
    if (s.with_rebalance) {
      RebalancePlan plan;
      plan.kind = RebalancePlan::Kind::kSplit;
      plan.source = 0;
      plan.keyed_tables = {{"chaos_kv", 0}};
      plan.checkpoint_dir = ckpt_dir;
      rebalance_failed = !cluster.Rebalance(plan).ok();
    }

    for (std::thread& t : workers) t.join();
    for (int64_t a : per_client) acked += a;

    if (s.with_checkpointer) cluster.StopCheckpointer();
    server.Stop();
    if (!rebalance_failed && !failpoint::CrashRequested()) {
      cluster.WaitIdle();
    }
    cluster.Stop();
    failpoint::ResetAll();
  }

  return VerifyVoterRecovery(opts, config, ckpt_dir, log_dir, acked);
}

// ---- Channel flavor ---------------------------------------------------

/// Pinned border on partition 0 feeding a keyed consumer through a channel:
/// the randomized channel faults hit the forward/ack/GC path while the
/// exactly-once contract must hold across crash/recover generations.
Topology ChaosChannelTopology() {
  Schema kv({{"key", ValueType::kBigInt}, {"val", ValueType::kBigInt}});
  Topology topo("chaos_pipeline");
  WorkflowNode ingest_node;
  ingest_node.proc = "ingest";
  ingest_node.kind = SpKind::kBorder;
  ingest_node.output_streams = {"sA"};
  WorkflowNode apply_node;
  apply_node.proc = "apply";
  apply_node.kind = SpKind::kInterior;
  apply_node.input_streams = {"sA"};
  topo.DefineStream("sA", kv)
      .CreateTable("sink", kv)
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
          })
      .AddStage(ingest_node, Placement::Pinned(0))
      .AddStage(apply_node, Placement::Keyed(0));
  return topo;
}

/// sink keys across all partitions; Internal if any key appears twice.
Result<std::vector<int64_t>> SinkKeysOnce(Cluster& cluster) {
  std::map<int64_t, int> counts;
  for (size_t p = 0; p < cluster.num_partitions(); ++p) {
    SSTORE_ASSIGN_OR_RETURN(Table * t,
                            cluster.store(p).catalog().GetTable("sink"));
    t->ForEach(
        [&](RowId, const Tuple& row, const RowMeta&) {
          ++counts[row[0].as_int64()];
          return true;
        },
        /*include_staged=*/true);
  }
  std::vector<int64_t> keys;
  keys.reserve(counts.size());
  for (const auto& [key, count] : counts) {
    if (count != 1) {
      return Status::Internal("sink key " + std::to_string(key) +
                              " delivered " + std::to_string(count) +
                              " times (exactly-once broken)");
    }
    keys.push_back(key);
  }
  return keys;
}

Status ExpectSinkEquals(Cluster& cluster,
                        const std::vector<int64_t>& committed) {
  SSTORE_ASSIGN_OR_RETURN(std::vector<int64_t> keys, SinkKeysOnce(cluster));
  if (keys != committed) {
    return Status::Internal(
        "sink holds " + std::to_string(keys.size()) + " keys, expected " +
        std::to_string(committed.size()) + " committed-ingest keys");
  }
  return Status::OK();
}

Status RunChannelSchedule(const Schedule& s, const std::string& tag) {
  std::string ckpt_dir = TempDirFor(tag, "ckpt");
  std::string log_dir = TempDirFor(tag, "logs");
  Topology topo = ChaosChannelTopology();

  Cluster::Options opts;
  opts.num_partitions = 2;
  opts.routing = PartitionMap::Mode::kModulo;
  opts.log_sync = false;
  opts.recovery_mode = s.recovery_mode;

  std::vector<int64_t> committed;  // keys whose ingest txn committed
  int64_t next_key = 0;
  int64_t next_batch_id = 1;
  for (int gen = 0; gen < s.generations; ++gen) {
    Cluster::Options live = opts;
    live.log_dir = log_dir;
    Cluster cluster(live);
    SSTORE_RETURN_NOT_OK(cluster.Deploy(topo));
    if (gen > 0) {
      // Recovery re-forwards batches a fault left pending; the consumer
      // cursor suppresses anything already delivered. After the queues
      // drain, the sink must hold exactly the committed keys, once each.
      SSTORE_RETURN_NOT_OK(cluster.Recover(ckpt_dir, log_dir));
      cluster.Start();
      cluster.WaitIdle();
      SSTORE_RETURN_NOT_OK(ExpectSinkEquals(cluster, committed));
    } else {
      cluster.Start();
      SSTORE_RETURN_NOT_OK(cluster.Checkpoint(ckpt_dir));
    }

    SSTORE_RETURN_NOT_OK(Arm(s));

    StreamInjector inject(&cluster.partition(0), "ingest");
    inject.ResumeBatchIdsAt(next_batch_id);
    for (int i = 0; i < s.requests_per_client; ++i) {
      int64_t key = next_key++;
      TxnOutcome out = inject.InjectSync(
          {Value::BigInt(key), Value::BigInt(gen)});
      if (out.committed()) committed.push_back(key);
    }
    next_batch_id += s.requests_per_client;

    // Safe under every channel fault: a dropped forward created no tickets
    // and a stalled ack still completed its delivery tickets, so WaitIdle
    // terminates; it only waits out in-flight deliveries.
    cluster.WaitIdle();
    cluster.Stop();
    failpoint::ResetAll();
  }

  // Final generation: clean recovery, the full committed set exactly once.
  Cluster recovered(opts);
  SSTORE_RETURN_NOT_OK(recovered.Deploy(topo));
  SSTORE_RETURN_NOT_OK(recovered.Recover(ckpt_dir, log_dir));
  recovered.Start();
  recovered.WaitIdle();
  recovered.Stop();
  return ExpectSinkEquals(recovered, committed);
}

}  // namespace

std::string Schedule::Spec() const {
  std::string spec;
  for (const FaultPick& pick : picks) {
    if (!spec.empty()) spec += ";";
    spec += pick.site + "=" + pick.action;
    if (pick.skip > 0) spec += "@" + std::to_string(pick.skip);
    if (pick.count != 1) spec += "x" + std::to_string(pick.count);
  }
  return spec;
}

std::string Schedule::Describe() const {
  std::string out = wire_flavor ? "wire" : "channel";
  out += recovery_mode == RecoveryMode::kWeak ? " weak" : " strong";
  out += " gens=" + std::to_string(generations);
  if (wire_flavor) {
    out += " clients=" + std::to_string(clients);
    if (with_checkpointer) out += " +checkpointer";
    if (with_rebalance) out += " +rebalance";
  }
  out += " reqs=" + std::to_string(requests_per_client);
  out += " spec=\"" + Spec() + "\"";
  return out;
}

Schedule MakeSchedule(uint64_t seed) {
  Rng rng(seed);
  Schedule s;
  s.seed = seed;
  // Its own stream: the draws below do not depend on it.
  Rng mode_rng(seed ^ 0x5bd1e9955bd1e995ull);
  s.recovery_mode =
      mode_rng.NextBool(0.5) ? RecoveryMode::kWeak : RecoveryMode::kStrong;
  s.wire_flavor = rng.NextBool(0.65);
  s.generations = 2 + static_cast<int>(rng.NextBounded(2));
  if (s.wire_flavor) {
    s.clients = 1 + static_cast<int>(rng.NextBounded(3));
    s.requests_per_client = 16 + static_cast<int>(rng.NextBounded(25));
    s.with_checkpointer = rng.NextBool(0.4);
    s.with_rebalance = rng.NextBool(0.4);

    std::vector<std::string> pool(std::begin(kWireSites),
                                  std::end(kWireSites));
    size_t n = 1 + rng.NextBounded(3);
    for (size_t i = 0; i < n && !pool.empty(); ++i) {
      size_t at = rng.NextBounded(pool.size());
      s.picks.push_back(PickFor(rng, pool[at], "error"));
      pool.erase(pool.begin() + static_cast<long>(at));
    }
    if (s.with_rebalance && rng.NextBool(0.7)) {
      const char* site = kRebalanceSites[rng.NextBounded(
          std::size(kRebalanceSites))];
      // Crash at a rebalance step, occasionally a plain error; both abort
      // the cutover, crash additionally marks the process dead.
      FaultPick pick =
          PickFor(rng, site, rng.NextBool(0.6) ? "crash" : "error");
      pick.skip = 0;  // one rebalance attempt per generation: fire on it
      pick.count = 1;
      s.picks.push_back(pick);
    }
  } else {
    s.requests_per_client = 12 + static_cast<int>(rng.NextBounded(21));
    std::vector<std::string> pool(std::begin(kChannelSites),
                                  std::end(kChannelSites));
    size_t n = 1 + rng.NextBounded(2);
    for (size_t i = 0; i < n && !pool.empty(); ++i) {
      size_t at = rng.NextBounded(pool.size());
      FaultPick pick = PickFor(rng, pool[at], "error");
      if (pick.site == "channel.forward.drop") {
        // A lost forward means the forwarder died: everything after it on
        // the lane is lost too. A finite count would resurrect mid-stream
        // and deliver out of order, which the per-lane FIFO contract
        // (and its high-water-mark cursor) is explicitly not built for.
        pick.count = -1;
      }
      s.picks.push_back(pick);
      pool.erase(pool.begin() + static_cast<long>(at));
    }
  }
  return s;
}

Status RunSchedule(const Schedule& schedule, const std::string& dir_tag) {
  Status st = schedule.wire_flavor ? RunWireSchedule(schedule, dir_tag)
                                   : RunChannelSchedule(schedule, dir_tag);
  failpoint::ResetAll();  // never leak armed sites into the next schedule
  return st;
}

bool EnvSeed(uint64_t* seed) {
  const char* env = std::getenv("SSTORE_CHAOS_SEED");
  if (env == nullptr || *env == '\0') return false;
  *seed = std::strtoull(env, nullptr, 0);
  return true;
}

uint64_t EnvBaseSeed(uint64_t fallback) {
  const char* env = std::getenv("SSTORE_CHAOS_BASE_SEED");
  if (env == nullptr || *env == '\0') return fallback;
  return std::strtoull(env, nullptr, 0);
}

int EnvScheduleCount(int fallback) {
  const char* env = std::getenv("SSTORE_CHAOS_SCHEDULES");
  if (env == nullptr || *env == '\0') return fallback;
  int n = std::atoi(env);
  return n > 0 ? n : fallback;
}

}  // namespace chaos
}  // namespace sstore
