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
/// owns N of these, and docs/ARCHITECTURE.md tours the layers. Durability
/// is the owning Cluster's job: it opens, cuts and replays each store's
/// command log (Cluster::Options::log_dir, Checkpoint, Recover). A
/// standalone store runs without a log unless one is attached directly
/// through Partition::AttachCommandLog.
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

  /// Validates and wires a workflow onto the partition.
  Status DeployWorkflow(const Workflow& workflow) {
    return triggers_->DeployWorkflow(workflow);
  }

  void Start() { partition_.Start(); }
  void Stop() { partition_.Stop(); }

 private:
  Partition partition_;
  std::unique_ptr<StreamManager> streams_;
  std::unique_ptr<WindowManager> windows_;
  std::unique_ptr<TriggerManager> triggers_;
  std::unique_ptr<RecoveryManager> recovery_;
};

}  // namespace sstore

#endif  // SSTORE_STREAMING_SSTORE_H_
