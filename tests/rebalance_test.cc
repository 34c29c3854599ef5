// Live partition rebalancing (ISSUE 5): versioned range-capable PartitionMap
// (split/merge routing equality, manifest round-trip), Cluster::Rebalance
// (committed rows preserved byte-for-byte vs an unsplit reference, migration
// under concurrent keyed load, merge draining a retired partition),
// kill-and-Recover landing on either side of the cutover manifest — never
// between — and placed-topology channels staying exactly-once after a split.
// Also covers the decision-log rotation that rides the coordinated
// checkpoint.

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/cluster_injector.h"
#include "cluster/partition_map.h"
#include "cluster/stream_channel.h"
#include "cluster/topology.h"
#include "common/bytes.h"
#include "common/failpoint.h"
#include "query/expr.h"
#include "server/client.h"
#include "server/wire_server.h"
#include "streaming/injector.h"
#include "workloads/voter_cluster.h"

namespace sstore {
namespace {

std::string TempPath(const std::string& name) {
  // Suites run as separate processes under `ctest -j`; a pid suffix keeps
  // their checkpoint and log directories from colliding.
  static const std::string pid = std::to_string(::getpid());
  return ::testing::TempDir() + "/sstore_rebal_" + pid + "_" + name;
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

Schema KeyValSchema() {
  return Schema({{"key", ValueType::kBigInt}, {"val", ValueType::kBigInt}});
}

Tuple KeyVal(int64_t key, int64_t val) {
  return {Value::BigInt(key), Value::BigInt(val)};
}

/// Border SP "put": inserts its (key, val) params into table "kv".
std::shared_ptr<StoredProcedure> PutProc() {
  return std::make_shared<LambdaProcedure>([](ProcContext& ctx) -> Status {
    SSTORE_ASSIGN_OR_RETURN(Table * kv, ctx.table("kv"));
    SSTORE_ASSIGN_OR_RETURN(RowId rid, ctx.exec().Insert(kv, ctx.params()));
    (void)rid;
    return Status::OK();
  });
}

/// Minimal keyed workload: table "kv" and its "put" SP. Injected through
/// ClusterInjector with key_column 0, so rows land on the key's owning
/// partition.
Topology KvTopology() {
  Topology topo("kv");
  topo.CreateTable("kv", KeyValSchema())
      .RegisterProcedure("put", SpKind::kBorder, PutProc());
  return topo;
}

std::vector<std::pair<int64_t, int64_t>> AllRows(Cluster& cluster,
                                                 const std::string& table) {
  std::vector<std::pair<int64_t, int64_t>> rows;
  for (size_t p = 0; p < cluster.num_partitions(); ++p) {
    Table* t = *cluster.store(p).catalog().GetTable(table);
    t->ForEach(
        [&](RowId, const Tuple& row, const RowMeta&) {
          rows.emplace_back(row[0].as_int64(), row[1].as_int64());
          return true;
        },
        /*include_staged=*/true);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Every row must live on exactly the partition the map routes its key to —
/// the "no key owned by two partitions" acceptance check.
void ExpectOwnershipConsistent(Cluster& cluster, const std::string& table) {
  PartitionMap map = cluster.partition_map();
  for (size_t p = 0; p < cluster.num_partitions(); ++p) {
    Table* t = *cluster.store(p).catalog().GetTable(table);
    t->ForEach(
        [&](RowId, const Tuple& row, const RowMeta&) {
          EXPECT_EQ(map.PartitionOf(row[0]), p)
              << "key " << row[0].as_int64() << " found on partition " << p;
          return true;
        },
        /*include_staged=*/true);
  }
}

RebalancePlan SplitPlan(size_t source, const std::string& ckpt_dir) {
  RebalancePlan plan;
  plan.kind = RebalancePlan::Kind::kSplit;
  plan.source = source;
  plan.keyed_tables = {{"kv", 0}};
  plan.checkpoint_dir = ckpt_dir;
  return plan;
}

// ---- PartitionMap: routing-table refinements ----

TEST(PartitionMapTest, FreshMapRoutesLikeTheLegacyFrozenMap) {
  PartitionMap modulo(4, PartitionMap::Mode::kModulo);
  PartitionMap hash(4, PartitionMap::Mode::kHash);
  EXPECT_EQ(modulo.version(), 1u);
  for (int64_t k = 0; k < 256; ++k) {
    EXPECT_EQ(modulo.PartitionOf(Value::BigInt(k)),
              static_cast<size_t>(k % 4));
    EXPECT_EQ(modulo.PartitionOfId(k), static_cast<size_t>(k % 4));
    EXPECT_LT(hash.PartitionOf(Value::BigInt(k)), 4u);
  }
  // Hash routing spreads: every partition owns some of a dense key space.
  std::set<size_t> seen;
  for (int64_t k = 0; k < 256; ++k) {
    seen.insert(hash.PartitionOf(Value::BigInt(k)));
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(PartitionMapTest, SplitRoutingEqualityForEveryKey) {
  for (PartitionMap::Mode mode :
       {PartitionMap::Mode::kModulo, PartitionMap::Mode::kHash}) {
    PartitionMap before(2, mode);
    Result<PartitionMap> split = before.WithSplit(/*source=*/0, /*target=*/2);
    ASSERT_TRUE(split.ok()) << split.status().ToString();
    EXPECT_EQ(split->version(), 2u);
    EXPECT_EQ(split->num_partitions(), 3u);

    size_t moved = 0;
    for (int64_t k = 0; k < 4096; ++k) {
      Value key = Value::BigInt(k);
      size_t old_owner = before.PartitionOf(key);
      size_t new_owner = split->PartitionOf(key);
      if (old_owner != 0) {
        // Keys not owned by the split source must not move at all.
        EXPECT_EQ(new_owner, old_owner);
      } else {
        // Keys of the split source go to the source or the new target.
        EXPECT_TRUE(new_owner == 0 || new_owner == 2)
            << "key " << k << " -> " << new_owner;
        moved += new_owner == 2 ? 1 : 0;
      }
      // Unkeyed id routing obeys the same refinement.
      size_t old_id_owner = before.PartitionOfId(k);
      size_t new_id_owner = split->PartitionOfId(k);
      if (old_id_owner != 0) {
        EXPECT_EQ(new_id_owner, old_id_owner);
      } else {
        EXPECT_TRUE(new_id_owner == 0 || new_id_owner == 2);
      }
    }
    // The midpoint split moves about half of the source's keys.
    EXPECT_GT(moved, 512u);
    EXPECT_LT(moved, 1536u);
  }
}

TEST(PartitionMapTest, MergeRestoresSplitRoutingAndRetires) {
  PartitionMap before(2, PartitionMap::Mode::kModulo);
  PartitionMap split = *before.WithSplit(0, 2);
  EXPECT_TRUE(split.OwnsKeys(2));

  // Merging the split-off target back into the source restores routing.
  Result<PartitionMap> merged = split.WithMerge(/*source=*/2, /*into=*/0);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged->version(), 3u);
  EXPECT_FALSE(merged->OwnsKeys(2));
  // The retired id stays valid (stores keep their slots) …
  EXPECT_EQ(merged->num_partitions(), 3u);
  // … and every key routes exactly as before the split.
  for (int64_t k = 0; k < 4096; ++k) {
    EXPECT_EQ(merged->PartitionOf(Value::BigInt(k)),
              before.PartitionOf(Value::BigInt(k)));
  }

  // Merging two partitions with no adjacent ranges is rejected.
  Result<PartitionMap> bad = split.WithMerge(/*source=*/1, /*into=*/2);
  EXPECT_FALSE(bad.ok());
  // A retired partition owns nothing to merge.
  Result<PartitionMap> empty = merged->WithMerge(/*source=*/2, /*into=*/0);
  EXPECT_FALSE(empty.ok());
}

TEST(PartitionMapTest, EncodeDecodeRoundTripsRefinedMaps) {
  PartitionMap map(3, PartitionMap::Mode::kHash);
  map = *map.WithSplit(1, 3);
  map = *map.WithSplit(1, 4);
  map = *map.WithMerge(4, 1);

  ByteWriter out;
  map.EncodeTo(&out);
  ByteReader in(out.data());
  Result<PartitionMap> decoded = PartitionMap::DecodeFrom(&in);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(in.AtEnd());
  EXPECT_TRUE(*decoded == map);
  for (int64_t k = 0; k < 4096; ++k) {
    EXPECT_EQ(decoded->PartitionOf(Value::BigInt(k)),
              map.PartitionOf(Value::BigInt(k)));
  }

  // No bytes at all is no map: kCorruption (there are no legacy manifests
  // without one to tolerate).
  ByteReader empty(nullptr, 0);
  EXPECT_EQ(PartitionMap::DecodeFrom(&empty).status().code(),
            StatusCode::kCorruption);
  // The mode byte follows the 8-byte version; 2 names no mode.
  std::vector<uint8_t> bad_mode = out.data();
  bad_mode[8] = 2;
  ByteReader bad(bad_mode);
  EXPECT_EQ(PartitionMap::DecodeFrom(&bad).status().code(),
            StatusCode::kCorruption);
}

// ---- Cluster::Rebalance: live split & merge ----

TEST(RebalanceTest, SplitPreservesEveryCommittedRow) {
  constexpr int kKeys = 64;
  constexpr int kRoundsBefore = 4;
  constexpr int kRoundsAfter = 4;
  std::string ckpt_dir = MakeDir("split_rows_ckpt");

  auto inject_round = [](ClusterInjector& injector, int round) {
    std::vector<Tuple> batch;
    for (int64_t k = 0; k < kKeys; ++k) {
      batch.push_back(KeyVal(k, round * kKeys + k));
    }
    for (auto& t : injector.InjectBatchAsync(std::move(batch))) t->Wait();
  };

  // Reference: the same input stream into an unsplit 2-partition cluster.
  Cluster reference(2);
  ASSERT_TRUE(reference.Deploy(KvTopology()).ok());
  reference.Start();
  ClusterInjector ref_injector(&reference, "put");
  for (int r = 0; r < kRoundsBefore + kRoundsAfter; ++r) {
    inject_round(ref_injector, r);
  }
  reference.WaitIdle();
  reference.Stop();

  Cluster cluster(2);
  ASSERT_TRUE(cluster.Deploy(KvTopology()).ok());
  cluster.Start();
  ClusterInjector injector(&cluster, "put");
  for (int r = 0; r < kRoundsBefore; ++r) inject_round(injector, r);
  cluster.WaitIdle();

  RebalanceReport report;
  Status st = cluster.Rebalance(SplitPlan(0, ckpt_dir), &report);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(cluster.num_partitions(), 3u);
  EXPECT_EQ(report.target, 2u);
  EXPECT_EQ(report.map_version, 2u);
  EXPECT_GT(report.rows_migrated, 0u);

  for (int r = kRoundsBefore; r < kRoundsBefore + kRoundsAfter; ++r) {
    inject_round(injector, r);
  }
  cluster.WaitIdle();
  cluster.Stop();

  // Byte-equal scan vs the unsplit reference: no row lost, duplicated, or
  // mutated by the migration.
  EXPECT_EQ(AllRows(cluster, "kv"), AllRows(reference, "kv"));
  // And the new partition actually took load.
  size_t p2_rows = 0;
  (*cluster.store(2).catalog().GetTable("kv"))
      ->ForEach([&](RowId, const Tuple&, const RowMeta&) {
        ++p2_rows;
        return true;
      });
  EXPECT_GT(p2_rows, 0u);
  ExpectOwnershipConsistent(cluster, "kv");
}

TEST(RebalanceTest, SplitUnderConcurrentKeyedLoad) {
  constexpr int kThreads = 3;
  constexpr int kBatchesPerThread = 400;
  constexpr int kKeys = 97;
  std::string ckpt_dir = MakeDir("split_load_ckpt");

  Cluster::Options cluster_opts;
  cluster_opts.num_partitions = 2;
  cluster_opts.queue_capacity = 512;
  Cluster cluster(cluster_opts);
  ASSERT_TRUE(cluster.Deploy(KvTopology()).ok());
  cluster.Start();
  ClusterInjector::Options opts;
  opts.key_column = 0;
  ClusterInjector injector(&cluster, "put", opts);

  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&injector, t] {
      for (int i = 0; i < kBatchesPerThread; ++i) {
        int64_t key = (t * kBatchesPerThread + i) % kKeys;
        injector.InjectAsync(KeyVal(key, t * kBatchesPerThread + i));
      }
    });
  }
  // Split while the producers are live: routing flips mid-stream and the
  // injector must follow the new map version.
  RebalanceReport report;
  Status st = cluster.Rebalance(SplitPlan(0, ckpt_dir), &report);
  for (auto& p : producers) p.join();
  ASSERT_TRUE(st.ok()) << st.ToString();
  cluster.WaitIdle();
  cluster.Stop();

  // Nothing lost, nothing duplicated: one row per injected batch, and the
  // value multiset is exactly the injected one.
  std::vector<std::pair<int64_t, int64_t>> rows = AllRows(cluster, "kv");
  ASSERT_EQ(rows.size(), static_cast<size_t>(kThreads * kBatchesPerThread));
  std::set<int64_t> values;
  for (const auto& [key, val] : rows) {
    EXPECT_EQ(key, val % kKeys);
    values.insert(val);
  }
  EXPECT_EQ(values.size(), rows.size());
  ExpectOwnershipConsistent(cluster, "kv");
}

TEST(RebalanceTest, BadPlanFailsBeforeTheFlip) {
  Cluster cluster(2);
  ASSERT_TRUE(cluster.Deploy(KvTopology()).ok());
  cluster.Start();

  // A typo'd table or an out-of-range key column must be rejected while
  // the old map is still the only map — not after the flip, which would
  // leave a grown cluster with unmigrated rows.
  RebalancePlan typo = SplitPlan(0, MakeDir("badplan_ckpt"));
  typo.keyed_tables = {{"kv_typo", 0}};
  EXPECT_FALSE(cluster.Rebalance(typo).ok());
  RebalancePlan bad_col = SplitPlan(0, MakeDir("badcol_ckpt"));
  bad_col.keyed_tables = {{"kv", 7}};
  EXPECT_FALSE(cluster.Rebalance(bad_col).ok());
  RebalancePlan no_dir = SplitPlan(0, "");
  EXPECT_FALSE(cluster.Rebalance(no_dir).ok());

  EXPECT_EQ(cluster.num_partitions(), 2u);
  EXPECT_EQ(cluster.partition_map().version(), 1u);
  cluster.Stop();
}

TEST(RebalanceTest, StoppedClusterExecuteSyncStillRunsInline) {
  // Cluster::ExecuteSync on a never-started cluster executes inline (the
  // seeding pattern Partition::ExecuteSync supports) instead of queueing
  // forever behind a worker that does not exist.
  Cluster cluster(2);
  ASSERT_TRUE(cluster.Deploy(KvTopology()).ok());
  TxnOutcome out = cluster.ExecuteSync("put", KeyVal(7, 70), Value::BigInt(7));
  EXPECT_TRUE(out.committed()) << out.status.ToString();
  EXPECT_EQ(AllRows(cluster, "kv").size(), 1u);
}

TEST(RebalanceTest, ExecuteOnAllAdmittedDuringSplitCoversTheNewPartition) {
  // "Run on every partition" must read the partition set inside the
  // coordinator's admission gate: a split closes that gate before it grows
  // the cluster, so a transaction parked at the gate runs on the grown one.
  Topology topo = KvTopology();
  topo.RegisterProcedure(
      "whoami", SpKind::kOltp,
      std::make_shared<LambdaProcedure>([](ProcContext& ctx) {
        ctx.EmitOutput({Value::BigInt(ctx.partition()->partition_id())});
        return Status::OK();
      }));
  Cluster cluster(2);
  ASSERT_TRUE(cluster.Deploy(std::move(topo)).ok());
  cluster.Start();

  // The held view blocks the split's flip after it has closed the gate.
  std::optional<Cluster::RoutingView> view(cluster.LockRouting());
  Status split_st;
  std::thread splitter([&] {
    split_st = cluster.Rebalance(SplitPlan(0, MakeDir("on_all_split_ckpt")));
  });
  while (cluster.coordinator().TryQuiesceBegin(0)) {
    // Not closed by the split yet: reopen the gate and look again.
    cluster.coordinator().QuiesceEnd();
    std::this_thread::yield();
  }
  std::vector<TxnOutcome> outs;
  std::thread caller([&] { outs = cluster.ExecuteOnAll("whoami", {}); });
  // Give the caller time to reach the closed gate; the outcome must not
  // depend on whether it got there before the split grew the cluster.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  view.reset();
  splitter.join();
  caller.join();

  ASSERT_TRUE(split_st.ok()) << split_st.ToString();
  ASSERT_EQ(cluster.num_partitions(), 3u);
  ASSERT_EQ(outs.size(), 3u);
  for (size_t p = 0; p < outs.size(); ++p) {
    ASSERT_TRUE(outs[p].committed()) << outs[p].status.ToString();
    ASSERT_EQ(outs[p].output.size(), 1u);
    EXPECT_EQ(outs[p].output[0][0].as_int64(), static_cast<int64_t>(p));
  }
  cluster.Stop();
}

TEST(RebalanceTest, MergeDrainsAndRetiresThePartition) {
  constexpr int kKeys = 64;
  std::string split_dir = MakeDir("merge_split_ckpt");
  std::string merge_dir = MakeDir("merge_merge_ckpt");

  Cluster cluster(2);
  ASSERT_TRUE(cluster.Deploy(KvTopology()).ok());
  cluster.Start();
  ClusterInjector injector(&cluster, "put");
  std::vector<Tuple> batch;
  for (int64_t k = 0; k < kKeys; ++k) batch.push_back(KeyVal(k, k));
  for (auto& t : injector.InjectBatchAsync(std::move(batch))) t->Wait();
  cluster.WaitIdle();

  ASSERT_TRUE(cluster.Rebalance(SplitPlan(0, split_dir)).ok());
  std::vector<std::pair<int64_t, int64_t>> before = AllRows(cluster, "kv");

  RebalancePlan merge;
  merge.kind = RebalancePlan::Kind::kMerge;
  merge.source = 2;
  merge.target = 0;
  merge.keyed_tables = {{"kv", 0}};
  merge.checkpoint_dir = merge_dir;
  RebalanceReport report;
  Status st = cluster.Rebalance(merge, &report);
  ASSERT_TRUE(st.ok()) << st.ToString();
  cluster.WaitIdle();
  cluster.Stop();

  // All rows survived, the retired partition holds none of them, and
  // routing matches the pre-split assignment again.
  EXPECT_EQ(AllRows(cluster, "kv"), before);
  EXPECT_EQ((*cluster.store(2).catalog().GetTable("kv"))->row_count(), 0u);
  PartitionMap map = cluster.partition_map();
  EXPECT_FALSE(map.OwnsKeys(2));
  PartitionMap original(2);
  for (int64_t k = 0; k < 1024; ++k) {
    EXPECT_EQ(map.PartitionOf(Value::BigInt(k)),
              original.PartitionOf(Value::BigInt(k)));
  }
  ExpectOwnershipConsistent(cluster, "kv");
}

// ---- Kill-and-Recover around the cutover ----

TEST(RebalanceTest, KillAroundCutoverRecoversToExactlyOneSideOfTheManifest) {
  constexpr int kKeys = 48;
  std::string ckpt_dir = MakeDir("cutover_ckpt");
  std::string log_dir = MakeDir("cutover_logs");
  std::string old_ckpt_copy = TempPath("cutover_ckpt_pre");
  std::string old_log_copy = TempPath("cutover_logs_pre");

  std::vector<std::pair<int64_t, int64_t>> live_rows;
  {
    Cluster::Options opts;
    opts.num_partitions = 2;
    opts.log_dir = log_dir;
    opts.log_sync = false;
    Cluster cluster(opts);
    ASSERT_TRUE(cluster.Deploy(KvTopology()).ok());
    cluster.Start();
    ClusterInjector injector(&cluster, "put");
    std::vector<Tuple> batch;
    for (int64_t k = 0; k < kKeys; ++k) batch.push_back(KeyVal(k, k));
    for (auto& t : injector.InjectBatchAsync(std::move(batch))) t->Wait();
    cluster.WaitIdle();
    ASSERT_TRUE(cluster.Checkpoint(ckpt_dir).ok());
    std::vector<Tuple> more;
    for (int64_t k = 0; k < kKeys; ++k) more.push_back(KeyVal(k, k + 1000));
    for (auto& t : injector.InjectBatchAsync(std::move(more))) t->Wait();
    cluster.WaitIdle();

    // A kill strictly before the cutover manifest rename leaves exactly the
    // pre-rebalance files — snapshot them before rebalancing.
    std::filesystem::copy(ckpt_dir, old_ckpt_copy,
                          std::filesystem::copy_options::recursive);
    std::filesystem::copy(log_dir, old_log_copy,
                          std::filesystem::copy_options::recursive);

    ASSERT_TRUE(cluster.Rebalance(SplitPlan(0, ckpt_dir)).ok());
    std::vector<Tuple> after;
    for (int64_t k = 0; k < kKeys; ++k) after.push_back(KeyVal(k, k + 2000));
    for (auto& t : injector.InjectBatchAsync(std::move(after))) t->Wait();
    cluster.WaitIdle();
    live_rows = AllRows(cluster, "kv");
    cluster.Stop();
    // "Crash": only the checkpoint dirs and logs survive.
  }

  // Kill BEFORE the manifest rename: the old manifest still names the
  // pre-split cut — recovery lands on the old map with all pre-rebalance
  // data (including the post-checkpoint log suffix).
  {
    Cluster::Options opts;
    opts.num_partitions = 2;
    Cluster recovered(opts);
    ASSERT_TRUE(recovered.Deploy(KvTopology()).ok());
    Status st = recovered.Recover(old_ckpt_copy, old_log_copy);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(recovered.num_partitions(), 2u);
    EXPECT_EQ(recovered.partition_map().version(), 1u);
    std::vector<std::pair<int64_t, int64_t>> rows = AllRows(recovered, "kv");
    EXPECT_EQ(rows.size(), static_cast<size_t>(2 * kKeys));
    ExpectOwnershipConsistent(recovered, "kv");
  }

  // Kill AFTER the manifest rename: recovery reads the post-split manifest,
  // spins up the third partition, adopts the published map, and replays the
  // post-cutover suffix — byte-equal with the pre-kill live state.
  {
    Cluster::Options opts;
    opts.num_partitions = 2;  // the original construction, as the runbook says
    Cluster recovered(opts);
    ASSERT_TRUE(recovered.Deploy(KvTopology()).ok());
    Status st = recovered.Recover(ckpt_dir, log_dir);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(recovered.num_partitions(), 3u);
    EXPECT_EQ(recovered.partition_map().version(), 2u);
    EXPECT_EQ(AllRows(recovered, "kv"), live_rows);
    ExpectOwnershipConsistent(recovered, "kv");

    // The recovered, grown cluster keeps serving keyed load on the new map.
    recovered.Start();
    ClusterInjector injector(&recovered, "put");
    std::vector<Tuple> batch;
    for (int64_t k = 0; k < kKeys; ++k) batch.push_back(KeyVal(k, k + 3000));
    for (auto& t : injector.InjectBatchAsync(std::move(batch))) t->Wait();
    recovered.WaitIdle();
    recovered.Stop();
    EXPECT_EQ(AllRows(recovered, "kv").size(), live_rows.size() + kKeys);
    ExpectOwnershipConsistent(recovered, "kv");
  }
}

// ---- Crash at every rebalance failpoint site (ISSUE 10 kill matrix) ----

/// Keyed wire load for the chaos kill matrix: pipelined "put"s routed by
/// key, resolved with a deadline poll instead of a blocking Wait — a crash
/// mid-cutover leaves a never-started partition holding routed work, so
/// some responses never come.
int64_t RunKeyedWirePuts(uint16_t port, int requests, int64_t key_space,
                         int64_t val_base) {
  Result<std::unique_ptr<WireClient>> client =
      WireClient::Connect({"127.0.0.1", port});
  if (!client.ok()) return 0;
  int64_t acked = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(2000);
  for (int i = 0; i < requests; ++i) {
    int64_t k = i % key_space;
    WireFuturePtr future = (*client)->SubmitAsync(
        "put", KeyVal(k, val_base + i), Value::BigInt(k));
    if (!(*client)->Flush().ok()) break;
    const WireResult* result = nullptr;
    while (!future->TryGet(&result)) {
      if (std::chrono::steady_clock::now() > deadline) break;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    if (result == nullptr || !result->transport.ok()) break;
    if (result->committed()) ++acked;
  }
  (*client)->Close();
  return acked;
}

TEST(RebalanceTest, CrashAtEverySiteRecoversToExactlyOneSideOfTheCutover) {
  // One entry per rebalance failpoint site: only a crash after the manifest
  // rename may recover onto the new map; everywhere else the cutover never
  // committed and recovery must land on the old one.
  const struct {
    const char* site;
    bool cutover_committed;
  } kMatrix[] = {
      {"rebalance.before_flip", false},
      {"rebalance.after_flip", false},
      {"rebalance.mid_migration", false},
      {"rebalance.before_manifest", false},
      {"rebalance.after_manifest", true},
  };
  constexpr int64_t kKeys = 48;
  constexpr int kWirePuts = 64;

  int idx = 0;
  for (const auto& step : kMatrix) {
    SCOPED_TRACE(step.site);
    failpoint::ResetAll();
    std::string tag = "killmatrix_" + std::to_string(idx++);
    std::string ckpt_dir = MakeDir(tag + "_ckpt");
    std::string log_dir = MakeDir(tag + "_logs");

    int64_t acked_wire = 0;
    {
      Cluster::Options opts;
      opts.num_partitions = 2;
      opts.log_dir = log_dir;
      opts.log_sync = false;
      Cluster cluster(opts);
      ASSERT_TRUE(cluster.Deploy(KvTopology()).ok());
      cluster.Start();

      // Acked first wave: these rows must survive whichever side of the
      // cutover recovery lands on.
      ClusterInjector injector(&cluster, "put");
      std::vector<Tuple> batch;
      for (int64_t k = 0; k < kKeys; ++k) batch.push_back(KeyVal(k, k));
      for (auto& t : injector.InjectBatchAsync(std::move(batch))) t->Wait();
      cluster.WaitIdle();
      ASSERT_TRUE(cluster.Checkpoint(ckpt_dir).ok());

      WireServer::Options sopts;
      sopts.drain_timeout_ms = 300;
      WireServer server(&cluster, sopts);
      ASSERT_TRUE(server.Start().ok());
      std::thread load([&] {
        acked_wire = RunKeyedWirePuts(server.port(), kWirePuts, kKeys, 1000);
      });

      failpoint::Activate(step.site, failpoint::Action::kCrash);
      Status st = cluster.Rebalance(SplitPlan(0, ckpt_dir));
      EXPECT_FALSE(st.ok()) << step.site << " should have aborted the cutover";
      EXPECT_GE(failpoint::Hits(step.site), 1u);

      load.join();
      server.Stop();
      failpoint::ResetAll();
      // No WaitIdle: a crash after the flip leaves routed work parked on a
      // partition that never started.
      cluster.Stop();
    }

    Cluster::Options opts;
    opts.num_partitions = 2;
    Cluster recovered(opts);
    ASSERT_TRUE(recovered.Deploy(KvTopology()).ok());
    Status st = recovered.Recover(ckpt_dir, log_dir);
    ASSERT_TRUE(st.ok()) << st.ToString();
    if (step.cutover_committed) {
      EXPECT_EQ(recovered.num_partitions(), 3u);
      EXPECT_EQ(recovered.partition_map().version(), 2u);
    } else {
      EXPECT_EQ(recovered.num_partitions(), 2u);
      EXPECT_EQ(recovered.partition_map().version(), 1u);
    }
    ExpectOwnershipConsistent(recovered, "kv");

    // Exactly one side: every first-wave row exactly once, and at least
    // every acked wire put durable (an ack can be lost, never a commit).
    std::vector<std::pair<int64_t, int64_t>> rows = AllRows(recovered, "kv");
    int64_t first_wave = 0;
    int64_t wire_rows = 0;
    for (const auto& [key, val] : rows) {
      if (val < kKeys) ++first_wave;
      if (val >= 1000) ++wire_rows;
    }
    EXPECT_EQ(first_wave, kKeys) << "a pre-rebalance acked row went missing";
    EXPECT_GE(wire_rows, acked_wire);
  }
  failpoint::ResetAll();
}

// ---- Placed topologies: channels across a split ----

WorkflowNode Node(std::string proc, SpKind kind,
                  std::vector<std::string> inputs,
                  std::vector<std::string> outputs) {
  WorkflowNode n;
  n.proc = std::move(proc);
  n.kind = kind;
  n.input_streams = std::move(inputs);
  n.output_streams = std::move(outputs);
  return n;
}

/// Pinned border on partition 0 feeding a keyed consumer through a channel:
/// "ingest" emits into sA, "apply" runs on the key's owner and inserts into
/// "sink". The channel must keep delivering exactly-once while the key
/// space is re-partitioned under it.
Topology KeyedConsumerTopology() {
  Topology topo("split_pipeline");
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
          })
      .AddStage(Node("ingest", SpKind::kBorder, {}, {"sA"}),
                Placement::Pinned(0))
      .AddStage(Node("apply", SpKind::kInterior, {"sA"}, {}),
                Placement::Keyed(0));
  return topo;
}

TEST(RebalanceTest, PlacedChannelsStayExactlyOnceAcrossSplitAndRecover) {
  constexpr int kBefore = 40;
  constexpr int kAfter = 40;
  std::string ckpt_dir = MakeDir("chan_ckpt");
  std::string log_dir = MakeDir("chan_logs");

  Topology topo = KeyedConsumerTopology();

  std::vector<std::pair<int64_t, int64_t>> live_rows;
  {
    Cluster::Options opts;
    opts.num_partitions = 2;
    opts.routing = PartitionMap::Mode::kModulo;
    opts.log_dir = log_dir;
    opts.log_sync = false;
    Cluster cluster(opts);
    ASSERT_TRUE(cluster.Deploy(topo).ok());
    cluster.Start();
    StreamInjector inject(&cluster.partition(0), "ingest");
    for (int i = 0; i < kBefore; ++i) inject.InjectAsync(KeyVal(i, i));
    cluster.WaitIdle();

    // Split the keyed consumer space: partition 1's range halves onto a
    // new partition 2; its sink rows migrate with their keys.
    RebalancePlan plan;
    plan.kind = RebalancePlan::Kind::kSplit;
    plan.source = 1;
    plan.keyed_tables = {{"sink", 0}};
    plan.checkpoint_dir = ckpt_dir;
    RebalanceReport report;
    Status st = cluster.Rebalance(plan, &report);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(cluster.num_partitions(), 3u);

    for (int i = kBefore; i < kBefore + kAfter; ++i) {
      inject.InjectAsync(KeyVal(i, i));
    }
    cluster.WaitIdle();
    live_rows = AllRows(cluster, "sink");
    cluster.Stop();
  }
  // Exactly-once across the split: every batch delivered once.
  ASSERT_EQ(live_rows.size(), static_cast<size_t>(kBefore + kAfter));
  for (int i = 0; i < kBefore + kAfter; ++i) {
    EXPECT_EQ(live_rows[static_cast<size_t>(i)].first, i);
  }

  // Kill-and-recover the grown placed cluster: channels reconcile against
  // the adopted post-split map, still exactly-once.
  Cluster::Options opts;
  opts.num_partitions = 2;
  opts.routing = PartitionMap::Mode::kModulo;
  Cluster recovered(opts);
  ASSERT_TRUE(recovered.Deploy(topo).ok());
  Status st = recovered.Recover(ckpt_dir, log_dir);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(recovered.num_partitions(), 3u);
  recovered.Start();
  recovered.WaitIdle();
  recovered.Stop();
  EXPECT_EQ(AllRows(recovered, "sink"), live_rows);
  ExpectOwnershipConsistent(recovered, "sink");
}

// ---- One deployment per cluster ----

TEST(DeployOnceTest, SecondDeployIsRejected) {
  Cluster cluster(2);
  ASSERT_TRUE(cluster.Deploy(KvTopology()).ok());
  EXPECT_EQ(cluster.Deploy(KvTopology()).code(), StatusCode::kAlreadyExists);
  // A second deploy adding new procedures is rejected before it touches a
  // partition: Rebalance and Recover rebuild partitions from the first
  // topology only, so accepting it would leave new partitions without them.
  Topology probe("probe");
  probe.RegisterProcedure("probe", SpKind::kOltp, PutProc());
  EXPECT_EQ(cluster.Deploy(probe).code(), StatusCode::kAlreadyExists);
  for (size_t p = 0; p < cluster.num_partitions(); ++p) {
    EXPECT_FALSE(cluster.partition(p).HasProcedure("probe")) << p;
  }
}

TEST(DeployOnceTest, SplitTargetRunsEveryProcedureOfTheExtendedWorkload) {
  // A workload topology extended before its one deploy — the chaos
  // harness's voter pattern — reaches a partition spun up by a split whole.
  VoterClusterConfig config;
  config.num_contestants = 32;
  config.initial_votes = 10;
  Topology topo = BuildVoterClusterDeployment(config);
  topo.CreateTable("kv", KeyValSchema())
      .RegisterProcedure("put", SpKind::kBorder, PutProc());

  Cluster cluster(2);
  ASSERT_TRUE(cluster.Deploy(topo).ok());
  cluster.Start();
  Status st = cluster.Rebalance(SplitPlan(0, MakeDir("deploy_once_ckpt")));
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(cluster.num_partitions(), 3u);
  for (const char* proc : {"vc_vote", "vc_adjust", "put"}) {
    EXPECT_TRUE(cluster.partition(2).HasProcedure(proc)) << proc;
  }

  // Both the workload's own procedures and the extension commit there.
  int64_t key = 0;
  while (cluster.PartitionOf(Value::BigInt(key)) != 2) ++key;
  EXPECT_TRUE(cluster.ExecuteSync("put", KeyVal(key, 1), Value::BigInt(key), 1)
                  .committed());
  int64_t contestant = 0;
  while (cluster.PartitionOf(Value::BigInt(contestant)) != 2) ++contestant;
  ASSERT_LT(contestant, config.num_contestants);
  EXPECT_TRUE(cluster.ExecuteSync("vc_vote", {Value::BigInt(contestant)},
                                  Value::BigInt(contestant))
                  .committed());
  cluster.WaitIdle();
  cluster.Stop();
}

// ---- Decision-log rotation at the coordinated checkpoint ----

TEST(RebalanceTest, DecisionLogRotatesWithCheckpointAndRecovers) {
  std::string ckpt_dir = MakeDir("declog_ckpt");
  std::string log_dir = MakeDir("declog_logs");

  VoterClusterConfig config;
  config.num_contestants = 8;
  config.initial_votes = 100;
  int64_t expected_total =
      static_cast<int64_t>(config.num_contestants) * config.initial_votes;

  std::vector<int64_t> live_counts;
  {
    Cluster::Options opts;
    opts.num_partitions = 2;
    opts.routing = PartitionMap::Mode::kModulo;
    opts.log_dir = log_dir;
    opts.log_sync = false;
    Cluster cluster(opts);
    ASSERT_TRUE(cluster.Deploy(BuildVoterClusterDeployment(config)).ok());
    cluster.Start();
    VoterClusterApp app(&cluster, config);
    app.Transfer(0, 1, 10);
    cluster.WaitIdle();

    ASSERT_TRUE(cluster.Checkpoint(ckpt_dir).ok());
    // The rotation replaced the legacy decision log with the epoch file.
    EXPECT_FALSE(FileExists(log_dir + "/coord-decisions.log"));
    EXPECT_TRUE(FileExists(log_dir + "/coord-decisions.e1.log"));

    // Post-cut multi-partition traffic lands in the rotated epoch.
    app.Transfer(2, 3, 25);
    app.Transfer(1, 0, 5);
    cluster.WaitIdle();
    for (int c = 0; c < config.num_contestants; ++c) {
      live_counts.push_back(*app.Count(c));
    }
    cluster.Stop();
  }

  Cluster::Options opts;
  opts.num_partitions = 2;
  opts.routing = PartitionMap::Mode::kModulo;
  Cluster recovered(opts);
  ASSERT_TRUE(recovered.Deploy(BuildVoterClusterDeployment(config)).ok());
  Status st = recovered.Recover(ckpt_dir, log_dir);
  ASSERT_TRUE(st.ok()) << st.ToString();
  recovered.Start();
  VoterClusterApp app(&recovered, config);
  int64_t total = 0;
  for (int c = 0; c < config.num_contestants; ++c) {
    int64_t count = *app.Count(c);
    EXPECT_EQ(count, live_counts[static_cast<size_t>(c)]) << "contestant " << c;
    total += count;
  }
  EXPECT_EQ(total, expected_total);
  EXPECT_TRUE(app.CheckInvariant().ok());
  recovered.Stop();
}

}  // namespace
}  // namespace sstore
