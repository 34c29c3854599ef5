#include "cluster/topology.h"

#include <algorithm>
#include <set>
#include <utility>

#include "cluster/stream_channel.h"
#include "streaming/trigger.h"

namespace sstore {

std::string Placement::Describe() const {
  switch (kind) {
    case Kind::kEverywhere:
      return "everywhere";
    case Kind::kPinned:
      return "pinned(" + std::to_string(partition) + ")";
    case Kind::kKeyed:
      return "keyed(col " + std::to_string(key_column) + ")";
  }
  return "unknown";
}

bool ChannelSpec::ProducerRunsOn(size_t p) const {
  for (const Placement& placement : producer_placements) {
    if (placement.RunsOn(p)) return true;
  }
  return false;
}

Topology& Topology::AddStep(const char* kind, std::string description,
                            std::function<Status(SStore&)> apply) {
  steps_.push_back(Step{kind, std::move(description), std::move(apply)});
  return *this;
}

Topology& Topology::CreateTable(std::string name, Schema schema) {
  std::string desc = "table " + name;
  return AddStep("CreateTable", std::move(desc),
                 [name = std::move(name), schema = std::move(schema)](
                     SStore& store) -> Status {
                   return store.catalog().CreateTable(name, schema).status();
                 });
}

Topology& Topology::CreateIndex(std::string table, std::string index,
                                std::vector<std::string> columns,
                                bool unique) {
  std::string desc = "index " + table + "." + index;
  return AddStep("CreateIndex", std::move(desc),
                 [table = std::move(table), index = std::move(index),
                  columns = std::move(columns),
                  unique](SStore& store) -> Status {
                   SSTORE_ASSIGN_OR_RETURN(Table * t,
                                           store.catalog().GetTable(table));
                   return t->CreateIndex(index, columns, unique);
                 });
}

Topology& Topology::InsertRow(std::string table, Tuple row) {
  std::string desc = "seed row in " + table;
  return AddStep("InsertRow", std::move(desc),
                 [table = std::move(table), row = std::move(row)](
                     SStore& store) -> Status {
                   SSTORE_ASSIGN_OR_RETURN(Table * t,
                                           store.catalog().GetTable(table));
                   return t->Insert(row).status();
                 });
}

Topology& Topology::DefineStream(std::string name, Schema schema) {
  std::string desc = "stream " + name;
  return AddStep("DefineStream", std::move(desc),
                 [name = std::move(name), schema = std::move(schema)](
                     SStore& store) -> Status {
                   return store.streams().DefineStream(name, schema);
                 });
}

Topology& Topology::DefineWindow(WindowSpec spec) {
  std::string desc = "window " + spec.name;
  return AddStep("DefineWindow", std::move(desc),
                 [spec = std::move(spec)](SStore& store) -> Status {
                   return store.windows().DefineWindow(spec);
                 });
}

Topology& Topology::RegisterFragment(std::string name, FragmentFn fn) {
  std::string desc = "fragment " + name;
  return AddStep("RegisterFragment", std::move(desc),
                 [name = std::move(name), fn = std::move(fn)](
                     SStore& store) -> Status {
                   return store.ee().RegisterFragment(name, fn);
                 });
}

Topology& Topology::Custom(std::string description,
                           std::function<Status(SStore&)> fn) {
  return AddStep("Custom", std::move(description), std::move(fn));
}

Topology& Topology::RegisterProcedure(std::string name, SpKind kind,
                                      ProcedureFactory factory) {
  procedures_.push_back(
      ProcedureSpec{std::move(name), kind, std::move(factory)});
  return *this;
}

Topology& Topology::RegisterProcedure(std::string name, SpKind kind,
                                      std::shared_ptr<StoredProcedure> proc) {
  return RegisterProcedure(
      std::move(name), kind,
      [proc = std::move(proc)](SStore&) { return proc; });
}

Topology& Topology::AddStage(WorkflowNode node, Placement placement) {
  std::string proc = node.proc;
  Status added = workflow_.AddNode(std::move(node));
  if (added.ok()) {
    placements_[proc] = placement;
  } else if (deferred_error_.ok()) {
    deferred_error_ = added;
  }
  return *this;
}

Topology& Topology::AddWorkflow(const Workflow& workflow) {
  for (const WorkflowNode& node : workflow.nodes()) {
    AddStage(node, Placement::Everywhere());
  }
  return *this;
}

Topology& Topology::Place(const std::string& proc, Placement placement) {
  auto it = placements_.find(proc);
  if (it != placements_.end()) {
    it->second = placement;
  } else if (deferred_error_.ok()) {
    deferred_error_ =
        Status::NotFound("Place() names unknown stage '" + proc + "'");
  }
  return *this;
}

Result<Placement> Topology::placement_of(const std::string& proc) const {
  auto it = placements_.find(proc);
  if (it == placements_.end()) {
    return Status::NotFound("topology has no stage '" + proc + "'");
  }
  return it->second;
}

Result<std::vector<ChannelSpec>> Topology::Channels() const {
  SSTORE_RETURN_NOT_OK(deferred_error_);
  std::vector<ChannelSpec> channels;
  if (workflow_.nodes().empty()) return channels;  // DDL and OLTP only
  for (const WorkflowNode& node : workflow_.nodes()) {
    const Placement& placement = placements_.at(node.proc);
    if (placement.kind == Placement::Kind::kKeyed && placement.key_column < 0) {
      return Status::InvalidArgument("stage '" + node.proc +
                                     "': keyed placement needs a "
                                     "non-negative key column");
    }
  }
  SSTORE_RETURN_NOT_OK(workflow_.Validate());
  for (const auto& [proc, placement] : placements_) {
    (void)placement;
    bool registered = false;
    for (const ProcedureSpec& spec : procedures_) {
      registered = registered || spec.name == proc;
    }
    if (!registered) {
      return Status::InvalidArgument("stage '" + proc +
                                     "' has no registered procedure");
    }
  }

  // Derive the channels: a stream edge is local only when the consumer is
  // guaranteed present wherever the producer commits *and* the batch's
  // routing requirement is satisfied there — kEverywhere consumers always,
  // kPinned consumers only under a producer pinned to the same partition,
  // kKeyed consumers only under a producer keyed by the same column (the
  // key-preserving pipeline). Everything else crosses a placement boundary.
  for (const WorkflowNode& node : workflow_.nodes()) {
    const Placement& consumer = placements_.at(node.proc);
    for (const std::string& stream : node.input_streams) {
      std::vector<std::string> producers = workflow_.ProducersOf(stream);
      if (producers.empty()) continue;  // externally fed stream: local
      bool boundary = false;
      std::vector<Placement> producer_placements;
      for (const std::string& producer : producers) {
        const Placement& pp = placements_.at(producer);
        bool local =
            consumer.kind == Placement::Kind::kEverywhere ||
            (consumer.kind == Placement::Kind::kPinned &&
             pp.kind == Placement::Kind::kPinned &&
             pp.partition == consumer.partition) ||
            (consumer.kind == Placement::Kind::kKeyed &&
             pp.kind == Placement::Kind::kKeyed &&
             pp.key_column == consumer.key_column);
        boundary = boundary || !local;
        producer_placements.push_back(pp);
      }
      if (!boundary) continue;
      // v1 transport constraints, enforced here so they fail at deploy time
      // rather than as silent mis-wirings at run time.
      if (workflow_.ConsumersOf(stream).size() != 1) {
        return Status::InvalidArgument(
            "stream '" + stream +
            "' crosses a placement boundary but has multiple consumers; "
            "boundary streams support exactly one consumer stage");
      }
      if (node.input_streams.size() != 1) {
        return Status::InvalidArgument(
            "stage '" + node.proc +
            "' joins multiple input streams across a placement boundary; "
            "channel consumers take exactly one input stream");
      }
      ChannelSpec channel;
      channel.stream = stream;
      channel.producers = std::move(producers);
      channel.producer_placements = std::move(producer_placements);
      channel.consumer = node.proc;
      channel.consumer_placement = consumer;
      channels.push_back(std::move(channel));
    }
  }

  // Cascade constraint: a channel's delivered ids are monotonic per lane
  // only if its producer stage's own batch ids arrive in commit order. An
  // injector-fed border or a single-lane upstream channel guarantees that;
  // a *multi-lane* upstream channel interleaves its lanes at the consumer,
  // so a stage fed by one would emit non-monotonic ids downstream and the
  // next channel's cursor dedup would silently drop batches. Reject it.
  for (const ChannelSpec& channel : channels) {
    for (const std::string& producer : channel.producers) {
      Result<const WorkflowNode*> producer_node =
          workflow_.node(producer);
      if (!producer_node.ok()) continue;
      for (const std::string& input : (*producer_node)->input_streams) {
        const ChannelSpec* upstream = nullptr;
        for (const ChannelSpec& candidate : channels) {
          if (candidate.stream == input && candidate.consumer == producer) {
            upstream = &candidate;
          }
        }
        if (upstream == nullptr) continue;
        bool single_lane = !upstream->producer_placements.empty();
        for (const Placement& pp : upstream->producer_placements) {
          single_lane = single_lane &&
                        pp.kind == Placement::Kind::kPinned &&
                        pp.partition ==
                            upstream->producer_placements[0].partition;
        }
        if (!single_lane) {
          return Status::InvalidArgument(
              "stage '" + producer + "' feeds channel stream '" +
              channel.stream + "' but is itself fed by multi-lane channel "
              "stream '" + input +
              "'; cascaded channels require a single-lane (pinned-producer) "
              "upstream so batch ids stay monotonic per lane");
        }
      }
    }
  }

  // Chain-depth bound: a stage fed through a channel inherits a
  // channel-range batch id and re-encodes it when it feeds the next
  // boundary, multiplying by the lane stride (~10 bits) per hop on top of
  // kChannelBatchIdBase. Past two chained boundaries the encoding can
  // overflow int64 within a realistic batch count, silently breaking
  // per-lane monotonicity and the cursors' duplicate detection — reject at
  // deploy time. (The workflow is already validated acyclic, so the
  // recursion terminates.)
  constexpr size_t kMaxChannelChainDepth = 2;
  std::function<size_t(const ChannelSpec&)> chain_depth =
      [&](const ChannelSpec& channel) -> size_t {
    size_t upstream_depth = 0;
    for (const std::string& producer : channel.producers) {
      Result<const WorkflowNode*> node = workflow_.node(producer);
      if (!node.ok()) continue;
      for (const std::string& input : (*node)->input_streams) {
        for (const ChannelSpec& candidate : channels) {
          if (candidate.stream == input && candidate.consumer == producer) {
            upstream_depth = std::max(upstream_depth, chain_depth(candidate));
          }
        }
      }
    }
    return 1 + upstream_depth;
  };
  for (const ChannelSpec& channel : channels) {
    if (chain_depth(channel) > kMaxChannelChainDepth) {
      return Status::InvalidArgument(
          "stream '" + channel.stream + "' is the " +
          std::to_string(chain_depth(channel)) +
          "th chained placement boundary on its path; chains deeper than " +
          std::to_string(kMaxChannelChainDepth) +
          " would overflow the per-lane batch-id encoding");
    }
  }
  return channels;
}

Status Topology::ApplyTo(SStore& store, size_t p) const {
  SSTORE_ASSIGN_OR_RETURN(std::vector<ChannelSpec> channels, Channels());

  // Shared slice: DDL, seed rows, streams, windows, fragments are identical
  // on every partition (recovery re-creates partitions from the same slice,
  // so the slice must be a pure function of the partition id).
  for (size_t i = 0; i < steps_.size(); ++i) {
    Status s = steps_[i].apply(store);
    if (!s.ok()) {
      return Status(s.code(), "deployment step " + std::to_string(i) + " (" +
                                  steps_[i].description + "): " + s.message());
    }
  }

  // Procedures: stage procedures only where their placement runs; OLTP and
  // helper procedures everywhere.
  for (const ProcedureSpec& spec : procedures_) {
    auto it = placements_.find(spec.name);
    if (it != placements_.end() && !it->second.RunsOn(p)) continue;
    std::shared_ptr<StoredProcedure> proc = spec.factory(store);
    if (proc == nullptr) {
      return Status::InvalidArgument("procedure factory returned null for '" +
                                     spec.name + "'");
    }
    SSTORE_RETURN_NOT_OK(
        store.partition().RegisterProcedure(spec.name, spec.kind,
                                            std::move(proc)));
  }

  // Channel consumer support (cursor table + delivery procedure) wherever
  // the consumer stage runs.
  for (const ChannelSpec& channel : channels) {
    if (!channel.consumer_placement.RunsOn(p)) continue;
    SSTORE_RETURN_NOT_OK(InstallChannelConsumerSupport(store, channel));
  }

  // Workflow slice: PE triggers for the locally running stages, with
  // channel streams gated to the channel's delivery procedure and their GC
  // claim pinned to one (each batch there has exactly one consuming party:
  // the forwarder for raw batches, the local consumer for delivered ones).
  // With every stage kEverywhere this is exactly TriggerManager's
  // all-local DeployWorkflow.
  WorkflowSliceOptions slice;
  for (const auto& [proc, placement] : placements_) {
    if (placement.RunsOn(p)) slice.local_procs.insert(proc);
  }
  for (const ChannelSpec& channel : channels) {
    bool touches = channel.consumer_placement.RunsOn(p) ||
                   channel.ProducerRunsOn(p);
    if (!touches) continue;
    WorkflowSliceOptions::EmitterFilter filter;
    filter.proc = ChannelIngestProcName(channel.stream);
    filter.min_batch_id = kChannelBatchIdBase;
    slice.emitter_filters[channel.stream] = filter;
    slice.consumer_count_overrides[channel.stream] = 1;
  }
  return store.triggers().DeployWorkflowSlice(workflow_, slice);
}

std::string Topology::Describe() const {
  std::string out;
  for (size_t i = 0; i < steps_.size(); ++i) {
    out += std::to_string(i) + ": " + steps_[i].kind + " " +
           steps_[i].description + "\n";
  }
  for (const ProcedureSpec& spec : procedures_) {
    out += std::string(placements_.count(spec.name) != 0 ? "stage-procedure "
                                                          : "procedure ") +
           spec.name + " (" + SpKindToString(spec.kind) + ")\n";
  }
  for (const WorkflowNode& node : workflow_.nodes()) {
    out += "stage " + node.proc +
           " placement=" + placements_.at(node.proc).Describe();
    if (!node.input_streams.empty()) {
      out += " inputs=[";
      for (size_t i = 0; i < node.input_streams.size(); ++i) {
        out += (i == 0 ? "" : ",") + node.input_streams[i];
      }
      out += "]";
    }
    if (!node.output_streams.empty()) {
      out += " outputs=[";
      for (size_t i = 0; i < node.output_streams.size(); ++i) {
        out += (i == 0 ? "" : ",") + node.output_streams[i];
      }
      out += "]";
    }
    out += "\n";
  }
  Result<std::vector<ChannelSpec>> channels = Channels();
  if (!channels.ok()) {
    return out + "invalid: " + channels.status().ToString() + "\n";
  }
  for (const ChannelSpec& channel : *channels) {
    out += "channel " + channel.stream + ": ";
    for (size_t i = 0; i < channel.producers.size(); ++i) {
      out += (i == 0 ? "" : ",") + channel.producers[i] + "@" +
             channel.producer_placements[i].Describe();
    }
    out += " -> " + channel.consumer + "@" +
           channel.consumer_placement.Describe() + "\n";
  }
  return out;
}

}  // namespace sstore
