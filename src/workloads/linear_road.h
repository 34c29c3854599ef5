#ifndef SSTORE_WORKLOADS_LINEAR_ROAD_H_
#define SSTORE_WORKLOADS_LINEAR_ROAD_H_

#include <cstdint>
#include <vector>

#include "cluster/topology.h"
#include "common/rng.h"
#include "common/status.h"
#include "streaming/injector.h"
#include "streaming/sstore.h"

namespace sstore {

/// Stream names of the Linear Road workflow, public so cluster clients can
/// drain the terminal stream per partition.
inline constexpr char kLinearRoadMinuteStream[] = "s_minute";
inline constexpr char kLinearRoadNotificationsStream[] = "s_notifications";

/// Configuration of the Linear Road subset used in paper §4.7: streaming
/// position reports only (no historical queries), partitioned by x-way.
struct LinearRoadConfig {
  int num_xways = 1;
  int vehicles_per_xway = 50;
  int num_segments = 100;
  /// Simulated duration (the paper simulates 30 minutes; tests compress).
  int duration_sec = 60;
  /// Per vehicle-second probability of stopping (stopped pairs in one
  /// segment create an accident).
  double stop_probability = 0.0005;
  int stop_duration_sec = 20;
  uint64_t seed = 777;
};

/// One vehicle position report: the input tuple of the workflow.
struct PositionReport {
  int64_t time_sec = 0;
  int64_t vid = 0;
  int64_t xway = 0;
  int64_t lane = 0;
  int64_t seg = 0;
  int64_t speed = 0;  // m/s; 0 == stopped

  Tuple ToTuple() const {
    return {Value::Timestamp(time_sec), Value::BigInt(vid),
            Value::BigInt(xway),        Value::BigInt(lane),
            Value::BigInt(seg),         Value::BigInt(speed)};
  }
};

/// Synthetic traffic generator: each vehicle advances along its x-way at a
/// randomized speed, occasionally stopping (possibly forming accidents), and
/// emits one position report per simulated second.
class LinearRoadGenerator {
 public:
  explicit LinearRoadGenerator(const LinearRoadConfig& config);

  /// All reports for the next simulated second, every vehicle reporting.
  std::vector<PositionReport> NextSecond();

  int64_t current_second() const { return second_; }

 private:
  struct Vehicle {
    int64_t vid;
    int64_t xway;
    int64_t lane;
    double pos_m;
    int64_t speed;
    int64_t stopped_until = -1;
  };

  LinearRoadConfig config_;
  Rng rng_;
  std::vector<Vehicle> vehicles_;
  int64_t second_ = 0;
};

/// The two-SP workflow of paper §4.7 deployed on one partition:
///   SP1 "position_report" (border): updates the vehicle's position, detects
///   segment crossings (charging the previous segment's toll and notifying
///   the vehicle of tolls/accidents ahead), and detects stopped cars and
///   accidents. On each minute boundary it triggers SP2.
///   SP2 "minute_rollup" (interior): computes per-segment tolls for the
///   previous minute from congestion, archives statistics into a historical
///   table, and clears expired accidents.
///
/// Tolls/accident notifications are emitted to the terminal stream
/// "s_notifications", drained by the client.
///
/// The complete deployment — tables, streams, both SPs, and the workflow —
/// with every stage kEverywhere. `Cluster::Deploy` applies it identically to
/// every shared-nothing partition (paper §4.7: the stream is partitioned by
/// x-way and each partition runs the whole workflow for its x-ways);
/// `LinearRoadApp` applies it to its single store.
Topology BuildLinearRoadDeployment(const LinearRoadConfig& config);

/// The *placed* Linear Road variant (paper §4.7's distributed direction):
/// the ingest stage `position_report` stays on the border partitions —
/// keyed by the x-way column, exactly how ClusterInjector routes reports —
/// while the toll/accident rollup stage is pinned to `rollup_partition`.
/// Minute-boundary batches emitted into `s_minute` on any ingest partition
/// cross the placement boundary through a stream channel, so the pinned
/// rollup sees every partition's minute markers (each lane in batch order)
/// and deduplicates minutes through its own `lr_rollup_meta` row.
///
/// Semantics note: tolls are archived centrally on the rollup partition, so
/// this variant trades the replicated deployment's per-partition toll
/// lookups for a single consolidated rollup — the topology the benchmark
/// compares against replicating every stage everywhere.
Topology BuildPlacedLinearRoadTopology(const LinearRoadConfig& config,
                                       size_t rollup_partition);

class LinearRoadApp {
 public:
  LinearRoadApp(SStore* store, const LinearRoadConfig& config)
      : store_(store), config_(config) {}

  Status Setup();

  /// Injects one report (async); returns the ticket.
  BatchTicketPtr InjectAsync(const PositionReport& report);

  /// Drains and counts pending toll/accident notifications.
  Result<size_t> DrainNotifications();

  /// Rows in the historical per-minute statistics table.
  Result<size_t> ArchivedStats() const;
  /// Open (uncleared) accidents.
  Result<size_t> OpenAccidents() const;
  /// Total tolls charged across all vehicle accounts.
  Result<double> TotalTollsCharged() const;

 private:
  SStore* store_;
  LinearRoadConfig config_;
  std::unique_ptr<StreamInjector> injector_;
};

}  // namespace sstore

#endif  // SSTORE_WORKLOADS_LINEAR_ROAD_H_
