// Linear Road on a multi-partition cluster (paper §4.7 / Figure 11).
//
// One Cluster owns N shared-nothing partitions; one Topology installs
// the identical two-SP workflow on every partition; a keyed ClusterInjector
// routes each position report by its x-way column, so x-way w always lands
// on partition w % N and per-x-way report order is preserved end to end.
//
// `--placed` switches to the placement-aware topology instead (the paper's
// distributed direction): the ingest stage stays keyed by x-way on the
// border partitions, the minute rollup is pinned to the last partition, and
// minute-boundary batches cross partitions through a stream channel — the
// demo then also reports the channel traffic.
//
// `--mp-ratio R` mixes multi-partition load in: roughly every 1/R simulated
// seconds a network-wide congestion probe runs as one atomic transaction
// across every partition through the TxnCoordinator (Cluster::ExecuteOnAll),
// so the demo shows single- and multi-partition traffic side by side.
//
// Run: ./build/examples/cluster_linear_road [xways] [partitions] [sim_seconds]
//      ./build/examples/cluster_linear_road --xways 8 --partitions 4 --seconds 130 --mp-ratio 0.1
//      ./build/examples/cluster_linear_road --xways 8 --partitions 4 --placed

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/cluster_injector.h"
#include "cluster/stream_channel.h"
#include "cluster/topology.h"
#include "query/expr.h"
#include "workloads/linear_road.h"

using namespace sstore;  // NOLINT: example brevity

int main(int argc, char** argv) {
  int xways = 4;
  int partitions = 4;
  int sim_seconds = 130;
  double mp_ratio = 0.0;
  bool placed = false;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--xways") == 0 && i + 1 < argc) {
      xways = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--partitions") == 0 && i + 1 < argc) {
      partitions = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--seconds") == 0 && i + 1 < argc) {
      sim_seconds = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--mp-ratio") == 0 && i + 1 < argc) {
      mp_ratio = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--placed") == 0) {
      placed = true;
    } else if (argv[i][0] != '-') {
      // Back-compat positional form: [xways] [partitions] [sim_seconds].
      int v = std::atoi(argv[i]);
      if (positional == 0) xways = v;
      if (positional == 1) partitions = v;
      if (positional == 2) sim_seconds = v;
      ++positional;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  if (partitions > xways) partitions = xways;

  // --- One cluster, one topology, N identical shared-nothing partitions. ---
  Cluster::Options opts;
  opts.num_partitions = partitions;
  opts.routing = PartitionMap::Mode::kModulo;  // x-way w -> partition w % N
  Cluster cluster(opts);

  LinearRoadConfig config;
  config.num_xways = xways;
  config.vehicles_per_xway = 40;
  config.duration_sec = sim_seconds;
  config.stop_probability = 0.002;
  config.seed = 42;
  // Replicated: every stage on every partition. Placed: ingest keyed by
  // x-way, rollup pinned to the last partition, s_minute crossing
  // partitions as a stream channel.
  Topology topo =
      placed ? BuildPlacedLinearRoadTopology(
                   config, static_cast<size_t>(partitions - 1))
             : BuildLinearRoadDeployment(config);
  // Supplemental OLTP procedure for the multi-partition probe: counts this
  // partition's tracked vehicles. ExecuteOnAll runs it atomically on every
  // partition; the client sums the fragments for a network-wide total. It is
  // part of the one deployed topology, so partitions added later get it too.
  topo.RegisterProcedure(
      "xway_probe", SpKind::kOltp,
      std::make_shared<LambdaProcedure>([](ProcContext& ctx) {
        SSTORE_ASSIGN_OR_RETURN(Table * vehicles, ctx.table("lr_vehicles"));
        ctx.EmitOutput({Value::BigInt(
            static_cast<int64_t>(vehicles->row_count()))});
        return Status::OK();
      }));
  Status deployed = cluster.Deploy(topo);
  if (!deployed.ok()) {
    std::fprintf(stderr, "deployment failed: %s\n",
                 deployed.ToString().c_str());
    return 1;
  }
  cluster.Start();

  // --- Keyed injection: column 2 of a position report is the x-way. ---
  ClusterInjector::Options inj_opts;
  inj_opts.key_column = 2;
  ClusterInjector injector(&cluster, "position_report", inj_opts);

  LinearRoadGenerator gen(config);
  std::vector<BatchTicketPtr> tickets;
  int64_t total_reports = 0;
  int64_t probes = 0;
  int64_t last_probe_total = 0;
  int probe_every = mp_ratio > 0
                        ? std::max(1, static_cast<int>(1.0 / mp_ratio))
                        : 0;
  for (int s = 0; s < sim_seconds; ++s) {
    for (const PositionReport& r : gen.NextSecond()) {
      tickets.push_back(injector.InjectAsync(r.ToTuple()));
      ++total_reports;
    }
    if (probe_every > 0 && s % probe_every == 0) {
      // Atomic cross-partition read: one consistent count per partition.
      std::vector<TxnOutcome> outs = cluster.ExecuteOnAll("xway_probe", {});
      last_probe_total = 0;
      for (const TxnOutcome& out : outs) {
        if (out.committed() && !out.output.empty()) {
          last_probe_total += out.output[0][0].as_int64();
        }
      }
      ++probes;
    }
  }
  for (auto& t : tickets) t->Wait();
  cluster.WaitIdle();  // let the PE-triggered minute rollups drain

  // --- Gather: aggregate engine counters + per-partition application state. ---
  ClusterStats stats = cluster.GatherStats();
  size_t notifications = 0, archived = 0;
  double tolls = 0.0;
  for (size_t p = 0; p < cluster.num_partitions(); ++p) {
    SStore& store = cluster.store(p);
    notifications +=
        store.streams().Drain(kLinearRoadNotificationsStream).ValueOr({}).size();
    Result<Table*> segstats = store.catalog().GetTable("lr_segstats");
    if (segstats.ok()) archived += (*segstats)->row_count();
    Result<Table*> vehicles = store.catalog().GetTable("lr_vehicles");
    if (vehicles.ok()) {
      Executor exec;
      AggregateSpec agg;
      agg.table = *vehicles;
      agg.aggregates = {{AggFunc::kSum, 6}};
      Result<std::vector<Tuple>> rows = exec.Aggregate(agg);
      if (rows.ok() && !rows->empty() && !(*rows)[0][0].is_null()) {
        tolls += (*rows)[0][0].ToNumeric().ValueOr(0.0);
      }
    }
  }
  cluster.Stop();

  std::printf("x-ways: %d across %zu partition(s), %d simulated seconds%s\n",
              xways, cluster.num_partitions(), sim_seconds,
              placed ? " (placed topology)" : "");
  if (placed) {
    for (const auto& channel : cluster.channels()) {
      StreamChannel::Stats cs = channel->stats();
      std::printf(
          "channel %s -> %s: %llu deliveries, %llu rows forwarded\n",
          channel->spec().stream.c_str(), channel->spec().consumer.c_str(),
          static_cast<unsigned long long>(cs.deliveries),
          static_cast<unsigned long long>(cs.rows_forwarded));
    }
  }
  std::printf("position reports processed: %lld\n",
              static_cast<long long>(total_reports));
  std::printf("committed transactions (cluster total): %llu\n",
              static_cast<unsigned long long>(stats.committed()));
  for (size_t p = 0; p < stats.per_partition.size(); ++p) {
    std::printf("  partition %zu: %llu committed (%lld batches injected)\n", p,
                static_cast<unsigned long long>(stats.per_partition[p].committed),
                static_cast<long long>(injector.batches_injected(p)));
  }
  std::printf("toll/accident notifications delivered: %zu\n", notifications);
  std::printf("per-minute segment statistics archived: %zu\n", archived);
  std::printf("total tolls charged: %.1f\n", tolls);
  if (probes > 0) {
    std::printf(
        "multi-partition probes: %lld (%llu commits, %llu aborts, "
        "avg round %.1f us; last network-wide vehicle count %lld)\n",
        static_cast<long long>(probes),
        static_cast<unsigned long long>(stats.coord.commits),
        static_cast<unsigned long long>(stats.coord.aborts),
        cluster.coordinator().round_latency_us().snapshot().Mean(),
        static_cast<long long>(last_probe_total));
  }
  return total_reports > 0 &&
                 stats.committed() >= static_cast<uint64_t>(total_reports)
             ? 0
             : 1;
}
