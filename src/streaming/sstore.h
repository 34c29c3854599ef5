#ifndef SSTORE_STREAMING_SSTORE_H_
#define SSTORE_STREAMING_SSTORE_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "engine/partition.h"
#include "streaming/recovery.h"
#include "streaming/stream.h"
#include "streaming/trigger.h"
#include "streaming/window.h"
#include "streaming/workflow.h"

namespace sstore {

/// The assembled single-partition S-Store engine (paper Figure 4): an
/// H-Store partition engine + execution engine, extended with streams,
/// windows, EE/PE triggers, the streaming scheduler, and the two recovery
/// modes. This is the building block everything above assembles: a Cluster
/// owns N of these, and docs/ARCHITECTURE.md tours the layers.
///
/// Typical use — describe the application once as a Topology
/// (cluster/topology.h). The same value deploys one standalone store, as
/// here, or scales out through Cluster::Deploy, where per-stage placements
/// apply and it follows the cluster through Recover and Rebalance:
///
///   Topology app("app");
///   app.DefineStream("s1", schema)
///       .RegisterProcedure("ingest", SpKind::kBorder, proc)
///       .AddWorkflow(workflow);      // every stage kEverywhere
///   SStore store;
///   app.ApplyTo(store, /*p=*/0);     // partition 0's slice: everything
///   store.Start();
///   StreamInjector injector(&store.partition(), "ingest");
///   injector.InjectSync(tuple);
class SStore {
 public:
  struct Options {
    int partition_id = 0;
    /// When non-empty, a command log is attached at this path.
    std::string log_path;
    /// Records per group commit (1 = flush every transaction, §4.4).
    size_t group_commit_size = 1;
    bool log_sync = true;
    RecoveryMode recovery_mode = RecoveryMode::kStrong;
    /// Request-queue capacity (bounds the request backlog; producers block
    /// when full). 0 = Partition::kDefaultQueueCapacity.
    size_t queue_capacity = 0;
  };

  SStore() : SStore(Options{}) {}
  explicit SStore(const Options& options);
  ~SStore();

  SStore(const SStore&) = delete;
  SStore& operator=(const SStore&) = delete;

  Partition& partition() { return partition_; }
  Catalog& catalog() { return partition_.catalog(); }
  ExecutionEngine& ee() { return partition_.ee(); }
  StreamManager& streams() { return *streams_; }
  WindowManager& windows() { return *windows_; }
  TriggerManager& triggers() { return *triggers_; }
  RecoveryManager& recovery() { return *recovery_; }

  /// OK when Options::log_path was empty or the command log opened; the
  /// open error otherwise. The constructor cannot return a Status, so a
  /// store that silently lost its durability must be detectable here.
  const Status& log_attach_status() const { return log_attach_status_; }

  /// Validates and wires a workflow onto the partition.
  Status DeployWorkflow(const Workflow& workflow) {
    return triggers_->DeployWorkflow(workflow);
  }

  void Start() { partition_.Start(); }
  void Stop() { partition_.Stop(); }

  /// Writes a checkpoint of the whole partition.
  Status Checkpoint(const std::string& snapshot_path) {
    return recovery_->Checkpoint(snapshot_path);
  }

  /// Recovers this (freshly constructed and DDL-initialized) instance.
  /// `replay` carries the cluster-coordinated parameters (checkpoint cut,
  /// in-doubt commit set) when driven by Cluster::Recover.
  Status Recover(const std::string& snapshot_path, const std::string& log_path,
                 RecoveryMode mode,
                 const RecoveryManager::ReplayOptions& replay) {
    return recovery_->Recover(snapshot_path, log_path, mode, replay);
  }
  Status Recover(const std::string& snapshot_path, const std::string& log_path,
                 RecoveryMode mode) {
    return recovery_->Recover(snapshot_path, log_path, mode);
  }

 private:
  Partition partition_;
  std::unique_ptr<StreamManager> streams_;
  std::unique_ptr<WindowManager> windows_;
  std::unique_ptr<TriggerManager> triggers_;
  std::unique_ptr<RecoveryManager> recovery_;
  Status log_attach_status_;
};

}  // namespace sstore

#endif  // SSTORE_STREAMING_SSTORE_H_
