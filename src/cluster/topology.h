#ifndef SSTORE_CLUSTER_TOPOLOGY_H_
#define SSTORE_CLUSTER_TOPOLOGY_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "engine/execution_engine.h"
#include "engine/procedure.h"
#include "storage/schema.h"
#include "streaming/sstore.h"
#include "streaming/window.h"
#include "streaming/workflow.h"

namespace sstore {

/// Where a workflow stage runs in a cluster (paper §4.7, the distributed
/// S-Store direction): replicated on every partition, pinned to one, or
/// spread across partitions by a key column of its input batches.
struct Placement {
  enum class Kind {
    /// The stage is deployed and triggered on every partition; it consumes
    /// whatever its upstream produces locally. The default: a topology
    /// with every stage here replicates the whole application.
    kEverywhere,
    /// The stage runs on exactly one partition. Streams feeding it from any
    /// other partition become channels.
    kPinned,
    /// The stage runs on the partition owning `key_column` of each input
    /// row (the cluster's PartitionMap decides ownership). Batches reaching
    /// it through a channel are split by that column. Two stages keyed by
    /// the same column are assumed co-located per key (the key-preserving
    /// pipeline of the paper) and need no channel between them.
    kKeyed,
  };

  Kind kind = Kind::kEverywhere;
  size_t partition = 0;  // kPinned only
  int key_column = 0;    // kKeyed only: column of the stage's input rows

  static Placement Everywhere() { return Placement{}; }
  static Placement Pinned(size_t p) {
    return Placement{Kind::kPinned, p, 0};
  }
  static Placement Keyed(int column) {
    return Placement{Kind::kKeyed, 0, column};
  }

  /// Is the stage deployed on partition `p`? kKeyed stages are deployed on
  /// every partition (any partition may own some of their keys).
  bool RunsOn(size_t p) const {
    return kind != Kind::kPinned || partition == p;
  }

  /// "everywhere" | "pinned(2)" | "keyed(col 3)".
  std::string Describe() const;
};

/// One stream edge of a placed workflow that crosses a placement boundary:
/// batches emitted into `stream` on a producer partition must be transported
/// to the consumer stage's partition (cluster/stream_channel.h implements
/// the transport). Derived by Topology::Channels, never hand-built.
struct ChannelSpec {
  std::string stream;
  std::vector<std::string> producers;
  std::vector<Placement> producer_placements;  // aligned with `producers`
  std::string consumer;
  Placement consumer_placement;

  /// True when any producer stage of this channel is deployed on `p` (the
  /// partitions where the forwarding hook must be installed).
  bool ProducerRunsOn(size_t p) const;
};

/// A deployable application: the DDL, seed rows, streams, windows, EE
/// fragments and stored procedures that turn a blank SStore partition into
/// the application, plus a workflow DAG with a Placement for every node.
/// The same value deploys a single store (`ApplyTo(store, 0)`) or a whole
/// cluster (`Cluster::Deploy`), and the cluster retains it so Recover and
/// Rebalance can stamp the identical slice onto partitions they create.
///
/// `Topology` is its own fluent builder. Errors are deferred so the chain
/// stays unconditional: `Channels()` validates the DAG and every placement
/// and derives the cross-partition channels, and `ApplyTo` and
/// `Cluster::Deploy` report its error.
///
///   Topology topo("pipeline");
///   topo.DefineStream("sA", schema).DefineStream("sB", schema)
///       .CreateTable("sink", schema)
///       .RegisterProcedure("ingest", SpKind::kBorder, ingest_proc)
///       .RegisterProcedure("transform", SpKind::kInterior, transform_factory)
///       .AddStage(ingest_node, Placement::Pinned(0))
///       .AddStage(transform_node, Placement::Pinned(1));
///   cluster.Deploy(topo);
///
/// Stages default to kEverywhere; a topology whose stages are all
/// kEverywhere stamps the identical application onto every partition and
/// derives no channels.
///
/// Stored procedures are added through a *factory* taking the target store:
/// procedure bodies frequently capture their partition's StreamManager or
/// tables, and a per-store factory lets each partition bind its own instance
/// instead of sharing state across partitions.
class Topology {
 public:
  using ProcedureFactory =
      std::function<std::shared_ptr<StoredProcedure>(SStore&)>;

  explicit Topology(std::string name) : workflow_(std::move(name)) {}

  // ---- Shared steps: applied on every partition, in the order added ----

  Topology& CreateTable(std::string name, Schema schema);
  /// Unique/non-unique hash index on an existing table.
  Topology& CreateIndex(std::string table, std::string index,
                        std::vector<std::string> columns, bool unique);
  /// Seed row inserted at deployment time (e.g. metadata singletons).
  Topology& InsertRow(std::string table, Tuple row);
  Topology& DefineStream(std::string name, Schema schema);
  Topology& DefineWindow(WindowSpec spec);
  Topology& RegisterFragment(std::string name, FragmentFn fn);
  /// Escape hatch for setup the typed steps don't cover.
  Topology& Custom(std::string description, std::function<Status(SStore&)> fn);

  // ---- Procedures ----

  /// Registers a procedure; the factory is called once per partition at
  /// apply time. Stage procedures (named by an AddStage) are deployed only
  /// where their placement runs; the rest deploy everywhere.
  Topology& RegisterProcedure(std::string name, SpKind kind,
                              ProcedureFactory factory);
  /// Convenience for stateless procedures safe to share across partitions.
  Topology& RegisterProcedure(std::string name, SpKind kind,
                              std::shared_ptr<StoredProcedure> proc);

  // ---- Stages and placement ----

  /// Adds a workflow node with its placement.
  Topology& AddStage(WorkflowNode node,
                     Placement placement = Placement::Everywhere());
  /// Adopts every node of an existing workflow at kEverywhere. Combine with
  /// Place() to pin individual stages afterwards.
  Topology& AddWorkflow(const Workflow& workflow);
  /// Overrides the placement of an already-added stage.
  Topology& Place(const std::string& proc, Placement placement);

  // ---- Inspection and deployment ----

  const std::string& name() const { return workflow_.name(); }
  const Workflow& workflow() const { return workflow_; }
  Result<Placement> placement_of(const std::string& proc) const;

  /// Validates the topology (the first deferred builder error, DAG
  /// structure, placements, channel constraints) and derives one channel
  /// per stream edge that crosses a placement boundary.
  Result<std::vector<ChannelSpec>> Channels() const;

  /// Applies partition `p`'s slice to a freshly constructed store: every
  /// shared step in the order added, the procedures whose stage (or OLTP
  /// registration) runs on `p`, channel consumer support (cursor table +
  /// delivery procedure), and the workflow slice's PE triggers. The slice is
  /// a pure function of `p`, so Cluster::Rebalance can apply it to a
  /// partition spun up long after the original deploy. Applying twice to one
  /// store fails (kAlreadyExists from the first DDL step); the first failing
  /// step aborts the apply and its error names the step.
  Status ApplyTo(SStore& store, size_t p) const;

  /// One line per shared step, procedure, stage (with placement annotation)
  /// and channel, for logs and deployment diffing.
  std::string Describe() const;

 private:
  struct Step {
    const char* kind;         // "CreateTable", "DefineStream", ...
    std::string description;  // "table lr_vehicles"
    std::function<Status(SStore&)> apply;
  };

  struct ProcedureSpec {
    std::string name;
    SpKind kind;
    ProcedureFactory factory;
  };

  Topology& AddStep(const char* kind, std::string description,
                    std::function<Status(SStore&)> apply);

  Workflow workflow_;
  std::vector<Step> steps_;
  std::vector<ProcedureSpec> procedures_;
  std::map<std::string, Placement> placements_;
  Status deferred_error_;  // first AddStage/Place error, reported by Channels
};

}  // namespace sstore

#endif  // SSTORE_CLUSTER_TOPOLOGY_H_
