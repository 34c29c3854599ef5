#include "cluster/cluster.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cstdio>
#include <mutex>
#include <set>
#include <thread>
#include <utility>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/failpoint.h"
#include "log/snapshot.h"

namespace sstore {

namespace {

Cluster::Options WithPartitions(int num_partitions) {
  Cluster::Options options;
  options.num_partitions = num_partitions;
  return options;
}

constexpr char kManifestName[] = "CHECKPOINT";
constexpr char kDecisionLogName[] = "coord-decisions.log";

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

/// The names of the entries of `dir` (none when it cannot be read).
std::vector<std::string> ListDir(const std::string& dir) {
  std::vector<std::string> names;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return names;
  while (const struct dirent* e = ::readdir(d)) names.emplace_back(e->d_name);
  ::closedir(d);
  return names;
}

/// The manifest names the one complete checkpoint in `dir`: one frame
/// (common/bytes.h) whose payload is the checkpoint id, the log epoch and
/// the partition map, whose partition count is the checkpoint's. It is
/// published with WriteFileAtomic after every snapshot is on disk, so a
/// crash mid-checkpoint leaves the previous manifest — and the previous
/// consistent cut — intact. Since the manifest also records the partition
/// map, that rename is the atomic commit point of a rebalance cutover:
/// recovery lands on either the pre- or post-rebalance map, never between.
constexpr uint32_t kManifestMagic = 0x53434b50;  // "SCKP"

Status WriteManifest(const std::string& dir, uint64_t checkpoint_id,
                     uint64_t log_epoch, const PartitionMap& map) {
  ByteWriter payload;
  payload.PutU64(checkpoint_id);
  payload.PutU64(log_epoch);
  map.EncodeTo(&payload);
  ByteWriter file;
  file.PutFrame(kManifestMagic, payload.data());
  return WriteFileAtomic(dir + "/" + kManifestName, file.data(), "manifest");
}

/// Reads what WriteManifest writes. The file must be exactly one intact
/// frame and its payload exactly the three fields; anything else is
/// kCorruption.
Result<PartitionMap> ReadManifest(const std::string& dir,
                                  uint64_t* checkpoint_id,
                                  uint64_t* log_epoch) {
  std::string path = dir + "/" + kManifestName;
  SSTORE_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, ReadFile(path));
  ByteReader file(bytes);
  ByteReader in(nullptr, 0);
  Status framed = file.NextFrame(kManifestMagic, &in);
  if (!framed.ok() || !file.AtEnd()) {
    return Status::Corruption("malformed checkpoint manifest at " + path +
                              (framed.ok() ? ": trailing bytes"
                                           : ": " + framed.message()));
  }
  Result<uint64_t> id = in.GetU64();
  Result<uint64_t> epoch = in.GetU64();
  if (!id.ok() || !epoch.ok()) {
    return Status::Corruption("checkpoint manifest at " + path +
                              " lacks its checkpoint id or log epoch");
  }
  if (in.AtEnd()) {
    return Status::Corruption("checkpoint manifest at " + path +
                              " records no partition map");
  }
  Result<PartitionMap> map = PartitionMap::DecodeFrom(&in);
  if (!map.ok()) {
    return Status::Corruption("checkpoint manifest at " + path + ": " +
                              map.status().message());
  }
  if (!in.AtEnd()) {
    return Status::Corruption("checkpoint manifest at " + path +
                              " has bytes after its partition map");
  }
  *checkpoint_id = *id;
  *log_epoch = *epoch;
  return map;
}

}  // namespace

Cluster::Cluster(const Options& options)
    : options_(options),
      map_(options.num_partitions < 1 ? 1
                                      : static_cast<size_t>(
                                            options.num_partitions),
           options.routing) {
  size_t n = map_.num_partitions();
  // Observability substrate: the trace-ring vector — like stores_ — is
  // reserved to the ceiling so runtime growth never reallocates under
  // readers.
  trace_rings_.reserve(kMaxClusterPartitions);
  // Reserved to the ceiling so Rebalance's push_back never reallocates the
  // slot array under concurrent partition(p) readers.
  stores_.reserve(kMaxClusterPartitions);
  for (size_t p = 0; p < n; ++p) {
    stores_.push_back(MakeStore(p));
    InstrumentStore(*stores_.back(), p);
  }
  num_partitions_.store(n, std::memory_order_release);
  TxnCoordinator::Options coord_opts;
  if (!options_.log_dir.empty()) {
    coord_opts.decision_log_path =
        options_.log_dir + "/" + kDecisionLogName;
  }
  coord_opts.log_sync = options_.log_sync;
  std::vector<Partition*> partitions;
  partitions.reserve(n);
  for (auto& store : stores_) partitions.push_back(&store->partition());
  coordinator_ =
      std::make_unique<TxnCoordinator>(std::move(partitions), coord_opts);
}

Cluster::Cluster(int num_partitions) : Cluster(WithPartitions(num_partitions)) {}

Cluster::~Cluster() { Stop(); }

std::unique_ptr<SStore> Cluster::MakeStore(size_t p) const {
  SStore::Options store_opts;
  store_opts.partition_id = static_cast<int>(p);
  store_opts.queue_capacity = options_.queue_capacity;
  return std::make_unique<SStore>(store_opts);
}

Status Cluster::AttachLog(SStore& store, size_t p, uint64_t epoch) const {
  if (options_.log_dir.empty()) return Status::OK();
  CommandLog::Options log_opts;
  log_opts.path = LogPath(options_.log_dir, epoch, p);
  log_opts.group_size = options_.group_commit_size;
  log_opts.sync = options_.log_sync;
  return store.partition().AttachCommandLog(std::move(log_opts),
                                            options_.recovery_mode);
}

Status Cluster::Deploy(const Topology& topology) {
  if (deployed_.has_value()) {
    return Status::AlreadyExists("cluster already deployed topology '" +
                                 deployed_->name() + "'");
  }
  SSTORE_ASSIGN_OR_RETURN(std::vector<ChannelSpec> channels,
                          topology.Channels());
  for (const WorkflowNode& node : topology.workflow().nodes()) {
    Result<Placement> placement = topology.placement_of(node.proc);
    if (placement.ok() && placement->kind == Placement::Kind::kPinned &&
        placement->partition >= stores_.size()) {
      return Status::InvalidArgument(
          "stage '" + node.proc + "' pinned to partition " +
          std::to_string(placement->partition) + " of a " +
          std::to_string(stores_.size()) + "-partition cluster");
    }
  }
  // A log that cannot open fails the deploy before anything is applied,
  // instead of leaving the cluster silently non-durable.
  for (size_t p = 0; p < stores_.size(); ++p) {
    SSTORE_RETURN_NOT_OK(AttachLog(*stores_[p], p, log_epoch_));
  }
  for (size_t p = 0; p < stores_.size(); ++p) {
    Status s = topology.ApplyTo(*stores_[p], p);
    if (!s.ok()) {
      return Status(s.code(),
                    "partition " + std::to_string(p) + ": " + s.message());
    }
  }
  for (const ChannelSpec& spec : channels) {
    channels_.push_back(std::make_unique<StreamChannel>(this, spec));
    channels_.back()->InstallHooks();
  }
  // Retained so a partition added by Rebalance (or re-created by Recover
  // after a split) receives the identical slice.
  deployed_ = topology;
  return Status::OK();
}

TxnOutcome Cluster::ExecuteSync(const std::string& proc, Tuple params,
                                const Value& key, int64_t batch_id) {
  size_t p = 0;
  bool inline_mode = false;
  BatchTicketPtr ticket = AdmitRouted(
      [&](const PartitionMap& map) {
        p = map.PartitionOf(key);
        // Inline only when the whole cluster is down (seeding,
        // single-threaded tests, recovery replay). A single stopped
        // partition on an otherwise running cluster is the live-rebalance
        // window — its store is being migrated into and checkpointed from
        // the control thread, so executing inline here would race that;
        // spill-enqueue instead and Wait() until the cutover starts it.
        inline_mode = true;
        for (size_t q = 0; q < map.num_partitions() && inline_mode; ++q) {
          inline_mode = !stores_[q]->partition().running();
        }
        return std::array<size_t, 1>{p};
      },
      [&]() -> BatchTicketPtr {
        if (inline_mode) return nullptr;
        return partition(p).SubmitAsync(
            Invocation{proc, std::move(params), batch_id},
            EnqueuePolicy::kSpillWhenFull);
      });
  Partition& part = partition(p);
  if (ticket == nullptr) {
    // Partition::ExecuteSync runs the invocation inline on this thread and
    // drains the PE cascades it triggers, outside the view. No concurrent
    // flip exists to race — Rebalance on a stopped cluster runs on the
    // control thread, which is us.
    return part.ExecuteSync(proc, std::move(params), batch_id);
  }
  TxnOutcome outcome = ticket->Wait()[0];
  // The modeled client<->PE round trip (paper Figures 6/8): a synchronous
  // cluster client pays it exactly as a single-partition one does.
  part.PayClientRoundTrip();
  return outcome;
}

std::vector<BatchTicketPtr> Cluster::SubmitBatchAsync(
    std::vector<Invocation> invs) {
  // Invocation indices per partition; invocations move only once admitted.
  std::vector<std::vector<size_t>> routed;
  std::vector<size_t> touched;
  return AdmitRouted(
      [&](const PartitionMap& map) -> const std::vector<size_t>& {
        routed.assign(map.num_partitions(), {});
        touched.clear();
        for (size_t i = 0; i < invs.size(); ++i) {
          size_t p = map.PartitionOfId(invs[i].batch_id);
          if (routed[p].empty()) touched.push_back(p);
          routed[p].push_back(i);
        }
        return touched;
      },
      [&] {
        std::vector<BatchTicketPtr> tickets;
        tickets.reserve(touched.size());
        for (size_t p : touched) {
          std::vector<Invocation> batch;
          batch.reserve(routed[p].size());
          for (size_t i : routed[p]) batch.push_back(std::move(invs[i]));
          tickets.push_back(partition(p).SubmitBatchAsync(
              std::move(batch), EnqueuePolicy::kSpillWhenFull));
        }
        return tickets;
      });
}

BatchTicketPtr Cluster::SubmitBatchToPartition(size_t p,
                                               std::vector<Invocation> invs) {
  return stores_[p]->partition().SubmitBatchAsync(std::move(invs));
}

BatchTicketPtr Cluster::SubmitMulti(
    const std::string& proc, std::vector<std::pair<Value, Tuple>> ops) {
  // Routing happens inside the coordinator's admission gate so a concurrent
  // Rebalance — which quiesces that gate before flipping the map — can
  // never interleave between routing and submission.
  return coordinator_->SubmitMulti(
      [this, proc, ops = std::move(ops)]() mutable {
        RoutingView view = LockRouting();
        std::vector<MultiOp> routed;
        routed.reserve(ops.size());
        for (auto& [key, params] : ops) {
          MultiOp op;
          op.partition = view.map().PartitionOf(key);
          op.inv = Invocation{proc, std::move(params), 0};
          routed.push_back(std::move(op));
        }
        return routed;
      });
}

std::vector<TxnOutcome> Cluster::ExecuteMulti(
    const std::string& proc, std::vector<std::pair<Value, Tuple>> ops) {
  return SubmitMulti(proc, std::move(ops))->Wait();
}

std::vector<TxnOutcome> Cluster::ExecuteOnAll(const std::string& proc,
                                              Tuple params) {
  // One fragment per partition, submitted in partition order — op index i
  // is partition i's fragment, so the returned outcomes are indexed by
  // partition id. Atomic end to end via the coordinator. The partition
  // count is read inside the admission gate, like SubmitMulti's routing: a
  // Rebalance split grows the cluster only while the gate is quiesced, so
  // an admitted transaction always covers every partition.
  BatchTicketPtr ticket = coordinator_->SubmitMulti([&] {
    std::vector<MultiOp> ops(num_partitions());
    for (size_t p = 0; p < ops.size(); ++p) {
      ops[p].partition = p;
      ops[p].inv = Invocation{proc, params, 0};
    }
    return ops;
  });
  return ticket->Wait();
}

std::string Cluster::SnapshotPath(const std::string& dir,
                                  uint64_t checkpoint_id, size_t p) const {
  return dir + "/ckpt-" + std::to_string(checkpoint_id) + "-partition-" +
         std::to_string(p) + ".snap";
}

std::string Cluster::LogPath(const std::string& log_dir, uint64_t epoch,
                             size_t p) const {
  if (epoch == 0) {
    return log_dir + "/partition-" + std::to_string(p) + ".log";
  }
  return log_dir + "/partition-" + std::to_string(p) + ".e" +
         std::to_string(epoch) + ".log";
}

std::string Cluster::DecisionLogPath(const std::string& log_dir,
                                     uint64_t epoch) const {
  if (epoch == 0) return log_dir + "/" + kDecisionLogName;
  return log_dir + "/coord-decisions.e" + std::to_string(epoch) + ".log";
}

void Cluster::DeleteDeadFiles(const std::string& dir, uint64_t checkpoint_id,
                              const std::vector<SnapshotDeltaSpec>& specs) const {
  // sscanf pulls the numbers out of a name; the name is one of ours only
  // when the path builder rebuilds it exactly.
  for (const std::string& name : ListDir(dir)) {
    unsigned long long id = 0;
    size_t p = 0;
    if (std::sscanf(name.c_str(), "ckpt-%llu-partition-%zu", &id, &p) != 2 ||
        SnapshotPath(dir, id, p) != dir + "/" + name || id == checkpoint_id) {
      continue;
    }
    bool base = false;
    if (p < specs.size()) {
      for (const auto& [table, base_id] : specs[p].unchanged) {
        if (base_id == id) base = true;
      }
    }
    if (!base) std::remove((dir + "/" + name).c_str());
  }
  const std::string& log_dir = options_.log_dir;
  if (log_dir.empty()) return;
  for (const std::string& name : ListDir(log_dir)) {
    const std::string path = log_dir + "/" + name;
    unsigned long long epoch = 0;  // a name without `.e<epoch>` is epoch 0
    size_t p = 0;
    bool ours = false;
    if (std::sscanf(name.c_str(), "partition-%zu.e%llu", &p, &epoch) >= 1) {
      ours = LogPath(log_dir, epoch, p) == path;
    } else {
      std::sscanf(name.c_str(), "coord-decisions.e%llu", &epoch);
      ours = DecisionLogPath(log_dir, epoch) == path;
    }
    if (ours && epoch < checkpoint_id) std::remove(path.c_str());
  }
}

Status Cluster::CheckpointAtBarrier(const std::string& dir,
                                    CheckpointReport* report) {
  // A simulated kill while every worker sits parked: nothing of this
  // checkpoint is durable yet, so recovery lands on the previous cut.
  SSTORE_RETURN_NOT_OK(failpoint::Check("checkpoint.barrier"));

  uint64_t checkpoint_id = next_checkpoint_id_++;

  // Delta tracking is per-directory: a reference entry resolves against an
  // earlier checkpoint file in the *same* directory, so checkpointing
  // somewhere new restarts from full copies.
  if (dir != snapshot_baseline_dir_) {
    snapshot_baselines_.clear();
    snapshot_baseline_dir_ = dir;
  }
  snapshot_baselines_.resize(stores_.size());

  // Mark the logs *before* writing snapshots: a crash in between leaves a
  // mark with no manifest pointing at it, which recovery simply ignores
  // (the manifest still names the previous complete checkpoint).
  Status st;
  for (auto& store : stores_) {
    st = store->partition().AppendCheckpointMark(checkpoint_id);
    if (!st.ok()) break;
  }
  CheckpointReport local;
  local.checkpoint_id = checkpoint_id;
  // Versions captured at write time; the baselines advance only once the
  // whole checkpoint (manifest + rotation) committed, so a failed attempt
  // never leaves a future checkpoint referencing files recovery ignores.
  std::vector<std::map<std::string, uint64_t>> versions(stores_.size());
  std::vector<SnapshotDeltaSpec> specs(stores_.size());
  if (st.ok()) {
    for (size_t p = 0; p < stores_.size() && st.ok(); ++p) {
      const std::map<std::string, TableBaseline>& base =
          snapshot_baselines_[p];
      for (const std::string& name : stores_[p]->catalog().TableNames()) {
        Result<Table*> table = stores_[p]->catalog().GetTable(name);
        if (!table.ok()) {
          st = table.status();
          break;
        }
        uint64_t v = (*table)->version();
        versions[p][name] = v;
        auto it = base.find(name);
        // Unchanged since its last full copy: write a reference instead of
        // re-serializing — this is what shrinks the barrier pause for cold
        // tables.
        if (it != base.end() && it->second.version == v) {
          specs[p].unchanged[name] = it->second.checkpoint_id;
        }
      }
      if (!st.ok()) break;
      SnapshotWriteStats ws;
      st = SnapshotManager::WriteSnapshot(SnapshotPath(dir, checkpoint_id, p),
                                          stores_[p]->catalog(), &specs[p],
                                          &ws);
      local.tables_full += ws.tables_full;
      local.tables_delta += ws.tables_delta;
      local.snapshot_bytes += ws.bytes;
    }
  }

  // Log truncation: with every worker still parked, rotate each partition's
  // log (and the coordinator's decision log) to a fresh epoch file whose
  // first record is this checkpoint's mark, so the replayable suffix
  // restarts at the cut instead of accumulating forever. The manifest
  // naming the new epoch is made durable *first*: a crash (or error)
  // before/during rotation then leaves the manifest pointing at epoch files
  // that are absent or end at the mark — both replay as an empty suffix,
  // which is exactly right because no transaction can commit (and no
  // multi-partition decision can be made) until the barrier releases and
  // the coordinator un-quiesces. The reverse order would let workers keep
  // committing into files no durable manifest references. Old-epoch files
  // are deleted only after everything above stuck (DeleteDeadFiles). Every
  // partition of a logged cluster rotates, including in Recover's re-arm,
  // whose partitions have no log yet.
  const bool will_rotate = !options_.log_dir.empty();
  if (st.ok()) {
    // The manifest records the routing table, making the rename above the
    // atomic commit point of a rebalance cutover.
    PartitionMap map(1);
    {
      std::shared_lock<std::shared_mutex> lock(route_mu_);
      map = map_;
    }
    st = WriteManifest(dir, checkpoint_id,
                       will_rotate ? checkpoint_id : log_epoch_, map);
  }
  // A kill between the manifest rename and the rotation below: the durable
  // manifest names epoch files that do not exist yet, which replay as an
  // empty suffix — correct, since nothing can commit until the barrier
  // releases.
  if (st.ok()) st = failpoint::Check("checkpoint.after_manifest");
  if (st.ok() && will_rotate) {
    for (size_t p = 0; p < stores_.size() && st.ok(); ++p) {
      st = AttachLog(*stores_[p], p, checkpoint_id);
      if (st.ok()) {
        st = stores_[p]->partition().AppendCheckpointMark(checkpoint_id);
      }
    }
    // The decision log rotates with the partition logs: the quiesced
    // coordinator guarantees no transaction spans the cut, so pre-cut
    // decisions are subsumed by the snapshots.
    if (st.ok()) {
      st = coordinator_->AttachDecisionLog(
          DecisionLogPath(options_.log_dir, checkpoint_id));
    }
    if (st.ok()) log_epoch_ = checkpoint_id;
    // A rotation failure leaves the failing partition's old log attached
    // but closed (Partition::AttachCommandLog): its logged commits abort
    // until the cluster is recovered, and the error is returned.
  }
  if (st.ok()) {
    for (size_t p = 0; p < stores_.size(); ++p) {
      for (const auto& [name, v] : versions[p]) {
        if (specs[p].unchanged.find(name) == specs[p].unchanged.end()) {
          snapshot_baselines_[p][name] = TableBaseline{checkpoint_id, v};
        }
      }
    }
    if (report != nullptr) *report = local;
    DeleteDeadFiles(dir, checkpoint_id, specs);
  }
  return st;
}

Status Cluster::CheckUniformlyRunning(size_t* running_count) const {
  size_t count = 0;
  for (const auto& store : stores_) {
    if (const_cast<SStore&>(*store).partition().running()) ++count;
  }
  if (count != 0 && count != stores_.size()) {
    return Status::Internal(
        "checkpoint needs a uniformly running or stopped cluster");
  }
  *running_count = count;
  return Status::OK();
}

Status Cluster::CheckpointQuiesced(const std::string& dir,
                                   CheckpointReport* report) {
  size_t running_count = 0;
  for (auto& store : stores_) {
    if (store->partition().running()) ++running_count;
  }

  WallClock clock;
  int64_t pause_start = clock.NowMicros();
  // Stop-the-world barrier: every worker parks at a closure task, so the
  // per-partition cut is at a transaction boundary and the catalog is safe
  // to read from this thread. Producers keep enqueueing behind the barrier
  // — except the wire server, which watches the gate flag and sheds kBusy
  // instead of growing the backlog while the cluster is paused.
  std::shared_ptr<WorkerBarrier> barrier;
  if (running_count != 0) {
    checkpoint_gate_closed_.store(true, std::memory_order_release);
    barrier = std::make_shared<WorkerBarrier>(stores_.size());
    for (auto& store : stores_) {
      store->partition().SubmitClosure(
          [barrier](Partition&) { barrier->ArriveAndWait(); });
    }
    barrier->WaitAllArrived();
  }

  Status st = CheckpointAtBarrier(dir, report);

  if (barrier != nullptr) barrier->Release();
  checkpoint_gate_closed_.store(false, std::memory_order_release);
  int64_t pause_end = clock.NowMicros();
  if (st.ok() && report != nullptr) {
    report->barrier_pause_us = static_cast<uint64_t>(pause_end - pause_start);
  }
  coordinator_->QuiesceEnd();
  if (st.ok()) coordinator_->NoteCheckpoint();
  return st;
}

Status Cluster::Checkpoint(const std::string& dir, CheckpointReport* report) {
  std::lock_guard<std::mutex> control(control_mu_);
  size_t running_count = 0;
  SSTORE_RETURN_NOT_OK(CheckUniformlyRunning(&running_count));

  // No multi-partition transaction may span the cut: block new submissions
  // and wait for in-flight rounds to drain. Afterwards no request queue
  // holds a participant fragment.
  coordinator_->QuiesceBegin();
  return CheckpointQuiesced(dir, report);
}

Status Cluster::TryCheckpoint(const std::string& dir, CheckpointReport* report,
                              int quiesce_timeout_ms) {
  // The background checkpointer's entry point: never blocks behind another
  // control-plane operation, never stalls waiting for a long transaction —
  // both report kUnavailable and the caller retries after backoff.
  std::unique_lock<std::mutex> control(control_mu_, std::try_to_lock);
  if (!control.owns_lock()) {
    return Status::Unavailable(
        "control plane busy (checkpoint or rebalance in progress)");
  }
  size_t running_count = 0;
  SSTORE_RETURN_NOT_OK(CheckUniformlyRunning(&running_count));
  if (!coordinator_->TryQuiesceBegin(quiesce_timeout_ms)) {
    return Status::Unavailable(
        "coordinator did not quiesce within " +
        std::to_string(quiesce_timeout_ms) + "ms");
  }
  return CheckpointQuiesced(dir, report);
}

Status Cluster::Rebalance(const RebalancePlan& plan,
                          RebalanceReport* report) {
  std::lock_guard<std::mutex> control(control_mu_);
  if (plan.checkpoint_dir.empty()) {
    return Status::InvalidArgument(
        "rebalance needs a checkpoint_dir: the cutover is committed through "
        "the checkpoint manifest");
  }
  size_t n = stores_.size();
  size_t running_count = 0;
  for (auto& store : stores_) {
    if (store->partition().running()) ++running_count;
  }
  if (running_count != 0 && running_count != n) {
    return Status::Internal(
        "rebalance needs a uniformly running or stopped cluster");
  }
  bool was_running = running_count != 0;
  if (plan.source >= n) {
    return Status::InvalidArgument("rebalance source partition " +
                                   std::to_string(plan.source) +
                                   " out of range");
  }
  // Validate the migration plan while the old map is still the only map: a
  // typo'd table name or out-of-range key column must fail here, before
  // anything is published — an error after the flip leaves a cluster that
  // needs recovery. (Catalogs are DDL-frozen after Deploy, so reading them
  // from the control thread is safe.)
  for (const auto& [table_name, key_column] : plan.keyed_tables) {
    for (size_t p = 0; p < n; ++p) {
      Result<Table*> table = stores_[p]->catalog().GetTable(table_name);
      if (!table.ok()) {
        return Status(table.status().code(),
                      "rebalance keyed table '" + table_name +
                          "' on partition " + std::to_string(p) + ": " +
                          table.status().message());
      }
      if (key_column < 0 || static_cast<size_t>(key_column) >=
                                (*table)->schema().num_columns()) {
        return Status::InvalidArgument(
            "rebalance key column " + std::to_string(key_column) +
            " out of range for table '" + table_name + "'");
      }
    }
  }

  // ---- Prepare (no pause): successor map, and for a split onto a new
  // partition, a fully constructed + deployed store. ----
  size_t target;
  PartitionMap new_map(1);
  std::unique_ptr<SStore> new_store;
  if (plan.kind == RebalancePlan::Kind::kSplit) {
    target = plan.target == static_cast<size_t>(-1) ? n : plan.target;
    if (target > n) {
      return Status::InvalidArgument(
          "split target " + std::to_string(target) +
          " beyond the next free partition id " + std::to_string(n));
    }
    if (target < n && map_.OwnsKeys(target) && target != plan.source) {
      return Status::InvalidArgument(
          "split target " + std::to_string(target) +
          " still owns keys; only a new or retired partition can receive a "
          "split");
    }
    SSTORE_ASSIGN_OR_RETURN(new_map, map_.WithSplit(plan.source, target));
    if (target == n) {
      if (n >= kMaxClusterPartitions) {
        return Status::InvalidArgument("cluster is at its partition ceiling");
      }
      new_store = MakeStore(target);
      SSTORE_RETURN_NOT_OK(AttachLog(*new_store, target, log_epoch_));
      Status deployed = deployed_.has_value()
                            ? deployed_->ApplyTo(*new_store, target)
                            : Status::OK();
      if (!deployed.ok()) {
        return Status(deployed.code(), "deploying split target partition " +
                                           std::to_string(target) + ": " +
                                           deployed.message());
      }
      InstrumentStore(*new_store, target);
    }
  } else {
    if (plan.target >= n || plan.target == plan.source) {
      return Status::InvalidArgument(
          "merge needs a surviving target distinct from the source");
    }
    target = plan.target;
    SSTORE_ASSIGN_OR_RETURN(new_map, map_.WithMerge(plan.source, target));
  }
  uint64_t new_version = new_map.version();

  // Crash here leaves the cluster entirely on the old map: no routing flip,
  // no migrated rows, no manifest. Recovery must land on the old side.
  SSTORE_RETURN_NOT_OK(failpoint::Check("rebalance.before_flip"));

  // ---- Quiesce: no multi-partition transaction spans the flip. ----
  coordinator_->QuiesceBegin();
  WallClock clock;

  // ---- The flip: exclusive routing lock for microseconds. Publishing the
  // barrier closures and the new map under one exclusive section gives the
  // cutover its ordering guarantee: every task routed with the old map is
  // ahead of the barrier on its old owner (FIFO), every task routed with
  // the new map is behind it. Nothing in here blocks: closures spill. ----
  int64_t flip_start = clock.NowMicros();
  std::shared_ptr<WorkerBarrier> barrier;
  bool grew = new_store != nullptr;
  {
    std::unique_lock<std::shared_mutex> route(route_mu_);
    if (grew) {
      stores_.push_back(std::move(new_store));
      coordinator_->AddPartition(&stores_.back()->partition());
      num_partitions_.store(stores_.size(), std::memory_order_release);
    }
    if (was_running) {
      // Same serving-layer gate as a checkpoint barrier: the wire server
      // sheds kBusy while the workers are parked for the cutover.
      checkpoint_gate_closed_.store(true, std::memory_order_release);
      barrier = std::make_shared<WorkerBarrier>(n);
      for (size_t p = 0; p < n; ++p) {
        stores_[p]->partition().SubmitClosure(
            [barrier](Partition&) { barrier->ArriveAndWait(); },
            EnqueuePolicy::kSpillWhenFull);
      }
    }
    map_ = std::move(new_map);
  }
  int64_t flip_end = clock.NowMicros();

  // Workers drain everything routed with the old map, then park. Work for
  // the new partition queues in its (not yet started) store meanwhile.
  if (barrier != nullptr) barrier->WaitAllArrived();
  int64_t barrier_start = clock.NowMicros();

  // ---- At the barrier: extend channels, migrate the moving slice, and
  // commit the cutover through the coordinated checkpoint. ----
  if (grew) {
    for (auto& channel : channels_) channel->OnPartitionAdded(target);
  }
  // Failure sites around each cutover step. All flow through `st` so the
  // barrier is always released and the gate reopened below — a fired site
  // aborts the rebalance, never deadlocks the workers. The in-memory map is
  // flipped but nothing is durable until the manifest rename inside
  // CheckpointAtBarrier; a crash anywhere before that recovers to the old
  // map, a crash after it recovers to the new one.
  uint64_t rows_moved = 0;
  Status st = failpoint::Check("rebalance.after_flip");
  if (st.ok()) st = MigrateKeyedRows(plan, &rows_moved);
  if (st.ok()) st = failpoint::Check("rebalance.before_manifest");
  if (st.ok()) st = CheckpointAtBarrier(plan.checkpoint_dir, nullptr);
  if (st.ok()) st = failpoint::Check("rebalance.after_manifest");

  if (barrier != nullptr) barrier->Release();
  checkpoint_gate_closed_.store(false, std::memory_order_release);
  int64_t barrier_end = clock.NowMicros();
  // The new partition joins the running cluster only after the cutover is
  // durable; its queued work (routed there since the flip) now drains.
  // Start it *before* un-quiescing the coordinator, so a multi-partition
  // transaction admitted right after the gate opens never observes a
  // part-running/part-stopped cluster.
  if (st.ok() && grew && was_running) stores_[target]->Start();
  coordinator_->QuiesceEnd();
  if (st.ok()) coordinator_->NoteCheckpoint();

  if (report != nullptr) {
    report->map_version = new_version;
    report->source = plan.source;
    report->target = target;
    report->rows_migrated = rows_moved;
    report->routing_pause_us = static_cast<uint64_t>(flip_end - flip_start);
    report->barrier_pause_us =
        static_cast<uint64_t>(barrier_end - barrier_start);
  }
  return st;
}

Status Cluster::MigrateKeyedRows(const RebalancePlan& plan,
                                 uint64_t* rows_moved) {
  *rows_moved = 0;
  SStore& source = *stores_[plan.source];
  for (const auto& [table_name, key_column] : plan.keyed_tables) {
    Result<Table*> src = source.catalog().GetTable(table_name);
    if (!src.ok()) {
      return Status(src.status().code(), "rebalance keyed table '" +
                                             table_name + "': " +
                                             src.status().message());
    }
    Table& src_table = **src;
    if (key_column < 0 ||
        static_cast<size_t>(key_column) >= src_table.schema().num_columns()) {
      return Status::InvalidArgument(
          "rebalance key column " + std::to_string(key_column) +
          " out of range for table '" + table_name + "'");
    }
    // Collect movers first (mutating mid-ForEach would disturb iteration),
    // then move row by row. The map was already flipped, so "owner" is the
    // post-rebalance owner; rows staying put are untouched.
    std::vector<std::pair<RowId, size_t>> movers;
    src_table.ForEach(
        [&](RowId rid, const Tuple& row, const RowMeta&) {
          size_t owner =
              map_.PartitionOf(row[static_cast<size_t>(key_column)]);
          if (owner != plan.source) movers.emplace_back(rid, owner);
          return true;
        },
        /*include_staged=*/true);
    for (const auto& [rid, owner] : movers) {
      Result<RowMeta> meta = src_table.GetMeta(rid);
      RowMeta row_meta = meta.ok() ? *meta : RowMeta{};
      Result<Table*> dst = stores_[owner]->catalog().GetTable(table_name);
      if (!dst.ok()) {
        return Status(dst.status().code(),
                      "rebalance target partition " + std::to_string(owner) +
                          " lacks table '" + table_name + "'");
      }
      SSTORE_ASSIGN_OR_RETURN(Tuple row, src_table.Delete(rid));
      Result<RowId> inserted = (*dst)->Insert(std::move(row), row_meta);
      if (!inserted.ok()) return inserted.status();
      ++*rows_moved;
      // Mid-migration crash: some rows already landed on the new owner,
      // the rest still on the source, and no manifest committed. Recovery
      // must roll the whole move back to the old map.
      SSTORE_RETURN_NOT_OK(failpoint::Check("rebalance.mid_migration"));
    }
  }
  return Status::OK();
}

Status Cluster::Recover(const std::string& dir, const std::string& log_dir) {
  for (auto& store : stores_) {
    if (store->partition().running()) {
      return Status::InvalidArgument("recover before Start()");
    }
  }
  uint64_t checkpoint_id = 0;
  uint64_t manifest_epoch = 0;
  SSTORE_ASSIGN_OR_RETURN(PartitionMap manifest_map,
                          ReadManifest(dir, &checkpoint_id, &manifest_epoch));
  const size_t manifest_partitions = manifest_map.num_partitions();
  if (manifest_partitions < stores_.size()) {
    return Status::Corruption(
        "checkpoint has " + std::to_string(manifest_partitions) +
        " partitions, cluster has " + std::to_string(stores_.size()));
  }
  if (manifest_partitions > stores_.size()) {
    // The checkpoint was cut after a split grew the cluster: spin up the
    // missing partitions exactly as Rebalance did — same store options (no
    // log: recovery must not truncate files about to be replayed), same
    // deployed slice — before restoring.
    if (!deployed_.has_value()) {
      return Status::InvalidArgument(
          "recovering a grown cluster needs Deploy() before Recover()");
    }
    for (size_t p = stores_.size(); p < manifest_partitions; ++p) {
      std::unique_ptr<SStore> store = MakeStore(p);
      Status deployed = deployed_->ApplyTo(*store, p);
      if (!deployed.ok()) {
        return Status(deployed.code(), "deploying recovered partition " +
                                           std::to_string(p) + ": " +
                                           deployed.message());
      }
      InstrumentStore(*store, p);
      stores_.push_back(std::move(store));
      coordinator_->AddPartition(&stores_.back()->partition());
      num_partitions_.store(stores_.size(), std::memory_order_release);
      for (auto& channel : channels_) channel->OnPartitionAdded(p);
    }
  }
  {
    std::unique_lock<std::shared_mutex> route(route_mu_);
    map_ = std::move(manifest_map);
  }

  // Replaying a producer's log re-fires its commit hooks; the emissions it
  // re-creates were already transported pre-crash (or will be reconciled
  // below), so the channels must not forward during replay.
  for (auto& channel : channels_) channel->SetEnabled(false);

  std::set<int64_t> committed_gids;
  int64_t max_gid = 0;
  if (!log_dir.empty()) {
    SSTORE_ASSIGN_OR_RETURN(
        std::vector<int64_t> gids,
        TxnCoordinator::ReadCommittedGids(
            DecisionLogPath(log_dir, manifest_epoch)));
    for (int64_t gid : gids) {
      committed_gids.insert(gid);
      if (gid > max_gid) max_gid = gid;
    }
  }

  WallClock clock;
  RecoverStats stats;
  int64_t replay_start = clock.NowMicros();
  for (size_t p = 0; p < stores_.size(); ++p) {
    std::string log_path;
    if (!log_dir.empty()) {
      std::string candidate = LogPath(log_dir, manifest_epoch, p);
      if (FileExists(candidate)) log_path = candidate;
    }
    RecoveryManager::ReplayOptions replay;
    replay.from_checkpoint_id = checkpoint_id;
    replay.committed_gids = &committed_gids;
    // Delta snapshots: a reference entry names the checkpoint whose file
    // (in the same directory) holds the table's last full copy.
    replay.snapshot_base_resolver = [this, &dir, p](uint64_t base_id) {
      return SnapshotPath(dir, base_id, p);
    };
    RecoveryManager& recovery = stores_[p]->recovery();
    SSTORE_RETURN_NOT_OK(
        recovery.Recover(SnapshotPath(dir, checkpoint_id, p), log_path,
                         options_.recovery_mode, replay));
    const RecoveryManager::ReplayStats& rs = recovery.replay_stats();
    stats.records_replayed += rs.records_replayed;
    stats.residual_triggers += rs.residual_triggers;
    stats.in_doubt_committed += rs.in_doubt_committed;
    stats.in_doubt_aborted += rs.in_doubt_aborted;
    stats.torn_nested_groups += rs.torn_nested_groups;
  }
  stats.replay_us = static_cast<uint64_t>(clock.NowMicros() - replay_start);
  coordinator_->NoteInDoubt(stats.in_doubt_committed, stats.in_doubt_aborted);
  // New global txn ids must not collide with decisions already on disk,
  // and a post-recovery Checkpoint() must not reuse (and clobber) the
  // snapshot files the manifest still points at.
  coordinator_->SetNextGlobalTxnId(max_gid + 1);
  next_checkpoint_id_ = checkpoint_id + 1;
  log_epoch_ = manifest_epoch;
  // Restored table versions bear no relation to the tracked baselines (and
  // the baselines may point at another directory's files): start the delta
  // tracking over from full copies.
  snapshot_baselines_.clear();
  snapshot_baseline_dir_.clear();

  // ---- Re-arm durability (composable recovery). ----
  // Without this, a recovered cluster would run with no logs attached: the
  // first kill-recover works, the second loses everything since. The
  // re-arm is one ordinary checkpoint cut of the exact replayed state
  // (before channel reconciliation mutates anything): snapshots, a
  // manifest naming the new epoch, fresh epoch command logs and decision
  // log, and only then the replayed epoch's files deleted. The workers are
  // stopped, so the cut needs no barrier.
  int64_t rearm_start = clock.NowMicros();
  if (!log_dir.empty()) {
    options_.log_dir = log_dir;
    Status st = CheckpointAtBarrier(dir, nullptr);
    if (!st.ok()) {
      return Status(st.code(),
                    "re-arming durability after recovery: " + st.message());
    }
    stats.rearm_us = static_cast<uint64_t>(clock.NowMicros() - rearm_start);
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    last_recover_ = stats;
  }

  // Channel reconciliation: any raw boundary-stream batch the replay left
  // pending is re-routed (against the just-adopted map); sub-deliveries the
  // consumer's durable cursor already covers are released, the rest are
  // queued for delivery at Start(). Exactly-once across the crash.
  for (auto& channel : channels_) {
    SSTORE_RETURN_NOT_OK(channel->ReconcileAfterRecovery());
  }
  for (auto& channel : channels_) channel->SetEnabled(true);
  return Status::OK();
}

void Cluster::Start() {
  size_t n = num_partitions();
  for (size_t p = 0; p < n; ++p) stores_[p]->Start();
}

void Cluster::Stop() {
  // The checkpointer goes first: its barrier needs running workers to
  // drain, so stopping partitions under an in-flight background checkpoint
  // would deadlock the shutdown.
  StopCheckpointer();
  size_t n = num_partitions();
  for (size_t p = 0; p < n; ++p) stores_[p]->Stop();
}

Status Cluster::StartCheckpointer(const Checkpointer::Options& options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("checkpointer needs a directory");
  }
  if (options.interval_ms == 0 && options.log_bytes_threshold == 0) {
    return Status::InvalidArgument(
        "checkpointer needs a cadence or a log-bytes threshold (it would "
        "otherwise only fire on Request())");
  }
  if (checkpointer_.running()) {
    return Status::AlreadyExists("checkpointer already running");
  }
  checkpointer_.Start(options);
  return Status::OK();
}

void Cluster::StopCheckpointer() { checkpointer_.Stop(); }

bool Cluster::running() const {
  size_t n = num_partitions();
  for (size_t p = 0; p < n; ++p) {
    if (!const_cast<SStore&>(*stores_[p]).partition().running()) return false;
  }
  return n != 0;
}

size_t Cluster::TotalQueueDepth() {
  size_t n = num_partitions();
  size_t total = 0;
  for (size_t p = 0; p < n; ++p) total += stores_[p]->partition().QueueDepth();
  return total;
}

void Cluster::WaitIdle() {
  // One pass suffices without channels: a PE trigger on partition p only
  // ever re-enqueues on p (shared-nothing), so once each partition has been
  // seen idle the cluster is quiescent. Each wait sleeps on that
  // partition's idle cv. Index loops (not iterators) because a concurrent
  // Rebalance may grow the store vector — the reserved capacity keeps
  // existing slots stable.
  size_t n = num_partitions();
  for (size_t p = 0; p < n; ++p) stores_[p]->partition().WaitIdle();
  if (channels_.empty()) return;
  // Channel deliveries hop partitions: a producer past its idle check may
  // have enqueued onto a consumer already checked. Repeat until a full pass
  // sees no residual work (delivery chains follow the finite DAG, so this
  // terminates). Guarded on running(): a stopped or not-yet-started
  // partition holds its queue (Partition::WaitIdle returns immediately for
  // it), and spinning on depth would never end — e.g. deliveries queued by
  // recovery reconciliation before Start().
  while (running() && TotalQueueDepth() != 0) {
    n = num_partitions();
    for (size_t p = 0; p < n; ++p) stores_[p]->partition().WaitIdle();
  }
  for (auto& channel : channels_) channel->ScheduleAckDrains();
  n = num_partitions();
  for (size_t p = 0; p < n; ++p) stores_[p]->partition().WaitIdle();
}

ClusterStats Cluster::GatherStats() const {
  ClusterStats out;
  out.coord = coordinator_->stats();
  size_t n = num_partitions();
  out.per_partition.reserve(n);
  out.per_partition_engine.reserve(n);
  out.per_partition_log.reserve(n);
  for (size_t p = 0; p < n; ++p) {
    SStore& s = const_cast<SStore&>(*stores_[p]);
    const Partition::Stats ps = s.partition().stats();
    const EngineStats es = s.ee().stats();
    const LogStats ls = s.partition().log_stats();
    out.per_partition.push_back(ps);
    out.per_partition_engine.push_back(es);
    out.per_partition_log.push_back(ls);
    out.log += ls;

    out.txn.committed += ps.committed;
    out.txn.aborted += ps.aborted;
    out.txn.client_requests += ps.client_requests;
    out.txn.internal_requests += ps.internal_requests;
    out.txn.nested_groups += ps.nested_groups;
    out.txn.producer_blocks += ps.producer_blocks;
    if (ps.queue_high_watermark > out.txn.queue_high_watermark) {
      out.txn.queue_high_watermark = ps.queue_high_watermark;
    }

    out.engine.boundary_crossings += es.boundary_crossings;
    out.engine.boundary_bytes += es.boundary_bytes;
    out.engine.fragments_executed += es.fragments_executed;
    out.engine.ee_trigger_firings += es.ee_trigger_firings;
    out.engine.gc_deleted_rows += es.gc_deleted_rows;
  }
  for (const auto& channel : channels_) {
    const StreamChannel::Stats one = channel->stats();
    out.channel.deliveries += one.deliveries;
    out.channel.rows_forwarded += one.rows_forwarded;
    out.channel.redeliveries_suppressed += one.redeliveries_suppressed;
    out.channel.delivery_failures += one.delivery_failures;
  }
  out.checkpoint = checkpointer_.stats();
  std::lock_guard<std::mutex> lock(stats_mu_);
  out.recover = last_recover_;
  return out;
}

void Cluster::InstrumentStore(SStore& store, size_t p) {
  PartitionInstruments ins;
  ins.latency_us = &txn_latency_;
  ins.latency_sample_every = options_.latency_sample_every;
  if (options_.trace_sample_every != 0 && options_.trace_ring_capacity != 0) {
    while (trace_rings_.size() <= p) {
      trace_rings_.push_back(
          std::make_unique<TraceRing>(options_.trace_ring_capacity));
    }
    ins.trace = trace_rings_[p].get();
    ins.trace_sample_every = options_.trace_sample_every;
  }
  store.partition().SetInstruments(ins);
}

MetricsSnapshot Cluster::SnapshotMetrics() const {
  MetricsSnapshot out;
  auto add_histogram = [&out](std::string name, const LatencyHistogram& h) {
    MetricSample sample;
    sample.name = std::move(name);
    sample.kind = MetricKind::kHistogram;
    sample.hist = h.snapshot();
    sample.value = static_cast<double>(sample.hist.count);
    out.samples.push_back(std::move(sample));
  };
  add_histogram("sstore_txn_latency_us", txn_latency_);

  auto add = [&out](std::string name, MetricKind kind, uint64_t value) {
    out.Add(std::move(name), kind, static_cast<double>(value));
  };
  const ClusterStats cs = GatherStats();
  const size_t n = cs.per_partition.size();
  std::vector<size_t> depths(n);
  size_t depth = 0;
  for (size_t p = 0; p < n; ++p) {
    depths[p] = const_cast<SStore&>(*stores_[p]).partition().QueueDepth();
    depth += depths[p];
  }

  add("sstore_partitions", MetricKind::kGauge, n);

  // Transaction-engine totals.
  add("sstore_txn_committed_total", MetricKind::kCounter, cs.txn.committed);
  add("sstore_txn_aborted_total", MetricKind::kCounter, cs.txn.aborted);
  add("sstore_txn_client_requests_total", MetricKind::kCounter,
      cs.txn.client_requests);
  add("sstore_txn_internal_requests_total", MetricKind::kCounter,
      cs.txn.internal_requests);
  add("sstore_txn_nested_groups_total", MetricKind::kCounter,
      cs.txn.nested_groups);
  add("sstore_producer_blocks_total", MetricKind::kCounter,
      cs.txn.producer_blocks);
  add("sstore_queue_high_watermark", MetricKind::kGauge,
      cs.txn.queue_high_watermark);
  add("sstore_queue_depth", MetricKind::kGauge, depth);

  // Execution-engine totals.
  add("sstore_engine_fragments_executed_total", MetricKind::kCounter,
      cs.engine.fragments_executed);
  add("sstore_engine_ee_trigger_firings_total", MetricKind::kCounter,
      cs.engine.ee_trigger_firings);
  add("sstore_engine_boundary_crossings_total", MetricKind::kCounter,
      cs.engine.boundary_crossings);
  add("sstore_engine_boundary_bytes_total", MetricKind::kCounter,
      cs.engine.boundary_bytes);
  add("sstore_engine_gc_deleted_rows_total", MetricKind::kCounter,
      cs.engine.gc_deleted_rows);

  // Cross-partition coordinator.
  add("sstore_coord_multi_txns_total", MetricKind::kCounter,
      cs.coord.multi_txns);
  add("sstore_coord_prepares_total", MetricKind::kCounter, cs.coord.prepares);
  add("sstore_coord_commits_total", MetricKind::kCounter, cs.coord.commits);
  add("sstore_coord_aborts_total", MetricKind::kCounter, cs.coord.aborts);
  add_histogram("sstore_coord_round_latency_us",
                coordinator_->round_latency_us());

  // Durability (cumulative across rotation epochs).
  add("sstore_log_records_appended_total", MetricKind::kCounter,
      cs.log.records_appended);
  add("sstore_log_flushes_total", MetricKind::kCounter, cs.log.flush_count);
  add("sstore_log_bytes_written_total", MetricKind::kCounter,
      cs.log.bytes_written);
  // Realized group-commit amortization (§4.4): records per durable flush.
  out.Add("sstore_log_group_commit_ratio", MetricKind::kGauge,
          cs.log.flush_count == 0
              ? 0.0
              : static_cast<double>(cs.log.records_appended) /
                    static_cast<double>(cs.log.flush_count));

  // Stream channels (zeros when the deploy has none).
  add("sstore_channel_deliveries_total", MetricKind::kCounter,
      cs.channel.deliveries);
  add("sstore_channel_rows_forwarded_total", MetricKind::kCounter,
      cs.channel.rows_forwarded);
  add("sstore_channel_redeliveries_suppressed_total", MetricKind::kCounter,
      cs.channel.redeliveries_suppressed);
  add("sstore_channel_delivery_failures_total", MetricKind::kCounter,
      cs.channel.delivery_failures);

  // Background checkpointer (zeros until StartCheckpointer).
  add("sstore_checkpoint_completed_total", MetricKind::kCounter,
      cs.checkpoint.completed);
  add("sstore_checkpoint_failed_total", MetricKind::kCounter,
      cs.checkpoint.failed);
  add("sstore_checkpoint_busy_deferred_total", MetricKind::kCounter,
      cs.checkpoint.busy_deferred);
  add("sstore_checkpoint_last_barrier_pause_us", MetricKind::kGauge,
      cs.checkpoint.last_barrier_pause_us);
  add("sstore_checkpoint_max_barrier_pause_us", MetricKind::kGauge,
      cs.checkpoint.max_barrier_pause_us);
  add("sstore_checkpoint_tables_delta_total", MetricKind::kCounter,
      cs.checkpoint.tables_delta_total);

  // The last Recover (zeros until one ran).
  add("sstore_recover_replay_us", MetricKind::kGauge, cs.recover.replay_us);
  add("sstore_recover_rearm_us", MetricKind::kGauge, cs.recover.rearm_us);
  add("sstore_recover_records_replayed", MetricKind::kGauge,
      cs.recover.records_replayed);
  add("sstore_recover_residual_triggers", MetricKind::kGauge,
      cs.recover.residual_triggers);
  add("sstore_recover_in_doubt_committed", MetricKind::kGauge,
      cs.recover.in_doubt_committed);
  add("sstore_recover_in_doubt_aborted", MetricKind::kGauge,
      cs.recover.in_doubt_aborted);
  add("sstore_recover_torn_nested_groups", MetricKind::kGauge,
      cs.recover.torn_nested_groups);

  // Per-partition samples for skew analysis (sstore_top's table).
  for (size_t p = 0; p < n; ++p) {
    const std::string label = std::to_string(p);
    const Partition::Stats& ps = cs.per_partition[p];
    const LogStats& ls = cs.per_partition_log[p];
    add(LabeledMetric("sstore_partition_committed_total", "partition", label),
        MetricKind::kCounter, ps.committed);
    add(LabeledMetric("sstore_partition_aborted_total", "partition", label),
        MetricKind::kCounter, ps.aborted);
    add(LabeledMetric("sstore_partition_queue_depth", "partition", label),
        MetricKind::kGauge, depths[p]);
    add(LabeledMetric("sstore_partition_queue_high_watermark", "partition",
                      label),
        MetricKind::kGauge, ps.queue_high_watermark);
    add(LabeledMetric("sstore_partition_log_records_total", "partition",
                      label),
        MetricKind::kCounter, ls.records_appended);
    add(LabeledMetric("sstore_partition_log_flushes_total", "partition",
                      label),
        MetricKind::kCounter, ls.flush_count);
    add(LabeledMetric("sstore_partition_log_bytes_total", "partition", label),
        MetricKind::kCounter, ls.bytes_written);
  }
  return out;
}

std::string Cluster::DumpTraceJson() const {
  std::vector<TraceEvent> all;
  for (const auto& ring : trace_rings_) {
    if (ring == nullptr) continue;
    std::vector<TraceEvent> events = ring->Events();
    all.insert(all.end(), events.begin(), events.end());
  }
  return TraceEventsToJson(all);
}

}  // namespace sstore
