#include "workloads/linear_road.h"

#include "query/expr.h"

namespace sstore {

namespace {

constexpr double kSegmentMeters = 100.0;

Schema VehicleSchema() {
  return Schema({{"vid", ValueType::kBigInt},
                 {"xway", ValueType::kBigInt},
                 {"lane", ValueType::kBigInt},
                 {"seg", ValueType::kBigInt},
                 {"speed", ValueType::kBigInt},
                 {"last_ts", ValueType::kTimestamp},
                 {"balance", ValueType::kDouble}});
}

}  // namespace

LinearRoadGenerator::LinearRoadGenerator(const LinearRoadConfig& config)
    : config_(config), rng_(config.seed) {
  for (int x = 0; x < config_.num_xways; ++x) {
    for (int i = 0; i < config_.vehicles_per_xway; ++i) {
      Vehicle v;
      v.vid = static_cast<int64_t>(x) * 1'000'000 + i;
      v.xway = x;
      v.lane = i % 4;
      v.pos_m = rng_.NextDouble() * config_.num_segments * kSegmentMeters;
      v.speed = rng_.NextRange(20, 35);
      vehicles_.push_back(v);
    }
  }
}

std::vector<PositionReport> LinearRoadGenerator::NextSecond() {
  std::vector<PositionReport> reports;
  reports.reserve(vehicles_.size());
  for (Vehicle& v : vehicles_) {
    if (v.stopped_until >= second_) {
      v.speed = 0;
    } else if (rng_.NextBool(config_.stop_probability)) {
      v.stopped_until = second_ + config_.stop_duration_sec;
      v.speed = 0;
    } else {
      v.speed = rng_.NextRange(20, 35);
    }
    v.pos_m += static_cast<double>(v.speed);
    int64_t seg = static_cast<int64_t>(v.pos_m / kSegmentMeters) %
                  config_.num_segments;
    PositionReport r;
    r.time_sec = second_;
    r.vid = v.vid;
    r.xway = v.xway;
    r.lane = v.lane;
    r.seg = seg;
    r.speed = v.speed;
    reports.push_back(r);
  }
  ++second_;
  return reports;
}

namespace {

/// The DDL shared by the replicated and the placed topology.
void AddLinearRoadDdl(Topology& topo) {
  topo.CreateTable("lr_vehicles", VehicleSchema())
      .CreateIndex("lr_vehicles", "pk", {"vid"}, /*unique=*/true)
      .CreateTable("lr_segstats", Schema({{"xway", ValueType::kBigInt},
                                          {"seg", ValueType::kBigInt},
                                          {"minute", ValueType::kBigInt},
                                          {"vehicle_count", ValueType::kBigInt},
                                          {"toll", ValueType::kDouble}}))
      .CreateTable("lr_accidents", Schema({{"xway", ValueType::kBigInt},
                                           {"seg", ValueType::kBigInt},
                                           {"since_sec", ValueType::kBigInt},
                                           {"cleared", ValueType::kBigInt}}))
      .CreateTable("lr_stopped", Schema({{"vid", ValueType::kBigInt},
                                         {"xway", ValueType::kBigInt},
                                         {"seg", ValueType::kBigInt},
                                         {"since_sec", ValueType::kBigInt}}))
      .CreateIndex("lr_stopped", "pk", {"vid"}, /*unique=*/true)
      .CreateTable("lr_meta", Schema({{"last_minute", ValueType::kBigInt}}))
      .InsertRow("lr_meta", {Value::BigInt(-1)})
      .DefineStream(kLinearRoadMinuteStream,
                    Schema({{"minute", ValueType::kBigInt}}))
      .DefineStream(kLinearRoadNotificationsStream,
                    Schema({{"vid", ValueType::kBigInt},
                            {"seg", ValueType::kBigInt},
                            {"toll", ValueType::kDouble},
                            {"accident_ahead", ValueType::kBigInt}}));
}

/// The two workflow nodes; placement is the deployment's choice.
std::pair<WorkflowNode, WorkflowNode> LinearRoadNodes() {
  WorkflowNode n1, n2;
  n1.proc = "position_report";
  n1.kind = SpKind::kBorder;
  n1.output_streams = {kLinearRoadMinuteStream, kLinearRoadNotificationsStream};
  n2.proc = "minute_rollup";
  n2.kind = SpKind::kInterior;
  n2.input_streams = {kLinearRoadMinuteStream};
  return {n1, n2};
}

// ---- SP1 — border: per position report. Stateless across partitions
// (touches only its own partition's tables through ctx), so one shared
// instance serves every partition.
std::shared_ptr<StoredProcedure> MakePositionReportProc(
    const LinearRoadConfig& config) {
  return std::make_shared<LambdaProcedure>([config](ProcContext& ctx) {
        const Tuple& p = ctx.params();
        int64_t ts = p[0].as_int64();
        const Value& vid = p[1];
        int64_t xway = p[2].as_int64();
        int64_t seg = p[4].as_int64();
        int64_t speed = p[5].as_int64();

        SSTORE_ASSIGN_OR_RETURN(Table * vehicles, ctx.table("lr_vehicles"));
        SSTORE_ASSIGN_OR_RETURN(std::vector<Tuple> existing,
                                ctx.exec().IndexScan(vehicles, "pk", {vid}));
        int64_t prev_seg = -1;
        if (existing.empty()) {
          SSTORE_ASSIGN_OR_RETURN(
              RowId rid, ctx.exec().Insert(vehicles,
                                           {vid, p[2], p[3], p[4], p[5],
                                            Value::Timestamp(ts),
                                            Value::Double(0.0)}));
          (void)rid;
        } else {
          prev_seg = existing[0][3].as_int64();
          SSTORE_ASSIGN_OR_RETURN(
              size_t n, ctx.exec().Update(vehicles, Eq(Col(0), Lit(vid)),
                                          {{2, Lit(p[3])},
                                           {3, Lit(p[4])},
                                           {4, Lit(p[5])},
                                           {5, Lit(Value::Timestamp(ts))}}));
          (void)n;
        }

        // Segment crossing: charge the toll of the segment just left (from
        // the latest archived minute stats) and notify about the road ahead.
        if (prev_seg >= 0 && seg != prev_seg) {
          SSTORE_ASSIGN_OR_RETURN(Table * segstats, ctx.table("lr_segstats"));
          ScanSpec toll_scan;
          toll_scan.table = segstats;
          toll_scan.predicate = And(Eq(Col(0), LitInt(xway)),
                                    Eq(Col(1), LitInt(prev_seg)));
          // order_by keys index the *post-projection* row, so project the
          // minute alongside the toll and sort on it to get the latest
          // archived minute (not the largest toll ever).
          toll_scan.projection = {2, 4};  // (minute, toll)
          toll_scan.order_by = {{0, /*descending=*/true}};
          toll_scan.limit = 1;
          SSTORE_ASSIGN_OR_RETURN(std::vector<Tuple> toll_rows,
                                  ctx.exec().Scan(toll_scan));
          double toll = toll_rows.empty() ? 0.0 : toll_rows[0][1].as_double();
          if (toll > 0.0) {
            SSTORE_ASSIGN_OR_RETURN(
                size_t n,
                ctx.exec().Update(vehicles, Eq(Col(0), Lit(vid)),
                                  {{6, Add(Col(6), LitDouble(toll))}}));
            (void)n;
          }
          // Accidents in the next 4 segments ahead?
          SSTORE_ASSIGN_OR_RETURN(Table * accidents, ctx.table("lr_accidents"));
          SSTORE_ASSIGN_OR_RETURN(
              size_t ahead,
              ctx.exec().Count(accidents,
                               And(And(Eq(Col(0), LitInt(xway)),
                                       Eq(Col(3), LitInt(0))),
                                   And(Gt(Col(1), LitInt(seg)),
                                       Le(Col(1), LitInt(seg + 4))))));
          SSTORE_RETURN_NOT_OK(ctx.EmitToStream(
              kLinearRoadNotificationsStream,
              {{vid, Value::BigInt(seg), Value::Double(toll),
                Value::BigInt(ahead > 0 ? 1 : 0)}}));
        }

        // Stopped-car and accident detection.
        SSTORE_ASSIGN_OR_RETURN(Table * stopped, ctx.table("lr_stopped"));
        if (speed == 0) {
          SSTORE_ASSIGN_OR_RETURN(std::vector<Tuple> already,
                                  ctx.exec().IndexScan(stopped, "pk", {vid}));
          if (already.empty()) {
            SSTORE_ASSIGN_OR_RETURN(
                RowId rid,
                ctx.exec().Insert(stopped, {vid, Value::BigInt(xway),
                                            Value::BigInt(seg),
                                            Value::BigInt(ts)}));
            (void)rid;
          }
          SSTORE_ASSIGN_OR_RETURN(
              size_t stopped_here,
              ctx.exec().Count(stopped, And(Eq(Col(1), LitInt(xway)),
                                            Eq(Col(2), LitInt(seg)))));
          if (stopped_here >= 2) {
            SSTORE_ASSIGN_OR_RETURN(Table * accidents, ctx.table("lr_accidents"));
            SSTORE_ASSIGN_OR_RETURN(
                size_t open,
                ctx.exec().Count(accidents, And(And(Eq(Col(0), LitInt(xway)),
                                                    Eq(Col(1), LitInt(seg))),
                                                Eq(Col(3), LitInt(0)))));
            if (open == 0) {
              SSTORE_ASSIGN_OR_RETURN(
                  RowId rid,
                  ctx.exec().Insert(accidents, {Value::BigInt(xway),
                                                Value::BigInt(seg),
                                                Value::BigInt(ts),
                                                Value::BigInt(0)}));
              (void)rid;
            }
          }
        } else {
          SSTORE_ASSIGN_OR_RETURN(
              size_t n, ctx.exec().Delete(stopped, Eq(Col(0), Lit(vid))));
          (void)n;
        }

        // Minute boundary: trigger the rollup exactly once per minute.
        SSTORE_ASSIGN_OR_RETURN(Table * meta, ctx.table("lr_meta"));
        ScanSpec ms;
        ms.table = meta;
        SSTORE_ASSIGN_OR_RETURN(std::vector<Tuple> mrow, ctx.exec().Scan(ms));
        int64_t minute = ts / 60;
        if (minute > mrow[0][0].as_int64()) {
          SSTORE_ASSIGN_OR_RETURN(
              size_t n,
              ctx.exec().Update(meta, nullptr, {{0, LitInt(minute)}}));
          (void)n;
          SSTORE_RETURN_NOT_OK(ctx.EmitToStream(kLinearRoadMinuteStream,
                                                {{Value::BigInt(minute)}}));
        }
        return Status::OK();
      });
}

// ---- SP2 — interior: per-minute rollup. Reads its batch through the
// partition's own StreamManager, so each partition gets an instance bound
// to its store via the factory. With `dedupe_minutes` (the placed variant,
// where every ingest partition's channel lane delivers its own marker for
// the same minute), already-rolled-up minutes commit as no-ops against the
// rollup partition's lr_rollup_meta row.
Topology::ProcedureFactory MakeMinuteRollupFactory(
    const LinearRoadConfig& config, bool dedupe_minutes) {
  return [config, dedupe_minutes](
             SStore& store) -> std::shared_ptr<StoredProcedure> {
        SStore* bound = &store;
        return std::make_shared<LambdaProcedure>([config, dedupe_minutes,
                                                  bound](ProcContext& ctx) {
          SSTORE_ASSIGN_OR_RETURN(
              std::vector<Tuple> batch,
              bound->streams().BatchContents(kLinearRoadMinuteStream,
                                             ctx.batch_id()));
          if (batch.empty()) return Status::OK();
          int64_t minute = batch[0][0].as_int64();
          if (dedupe_minutes) {
            SSTORE_ASSIGN_OR_RETURN(Table * meta,
                                    ctx.table("lr_rollup_meta"));
            ScanSpec ms;
            ms.table = meta;
            SSTORE_ASSIGN_OR_RETURN(std::vector<Tuple> mrow,
                                    ctx.exec().Scan(ms));
            if (minute <= mrow[0][0].as_int64()) return Status::OK();
            SSTORE_ASSIGN_OR_RETURN(
                size_t n,
                ctx.exec().Update(meta, nullptr, {{0, LitInt(minute)}}));
            (void)n;
          }

          // Congestion per (xway, seg) -> archived stats + next minute's toll.
          SSTORE_ASSIGN_OR_RETURN(Table * vehicles, ctx.table("lr_vehicles"));
          SSTORE_ASSIGN_OR_RETURN(Table * segstats, ctx.table("lr_segstats"));
          AggregateSpec agg;
          agg.table = vehicles;
          agg.group_by = {1, 3};  // xway, seg
          agg.aggregates = {{AggFunc::kCount, 0}};
          SSTORE_ASSIGN_OR_RETURN(std::vector<Tuple> congestion,
                                  ctx.exec().Aggregate(agg));
          for (const Tuple& row : congestion) {
            int64_t count = row[2].as_int64();
            // LR-style quadratic toll above a congestion threshold (scaled to
            // our smaller per-x-way populations).
            int64_t threshold = 3;
            double toll =
                count > threshold
                    ? 0.5 * static_cast<double>((count - threshold) *
                                                (count - threshold))
                    : 0.0;
            SSTORE_ASSIGN_OR_RETURN(
                RowId rid,
                ctx.exec().Insert(segstats,
                                  {row[0], row[1], Value::BigInt(minute),
                                   Value::BigInt(count), Value::Double(toll)}));
            (void)rid;
          }

          // Clear accidents whose scene has been removed.
          SSTORE_ASSIGN_OR_RETURN(Table * accidents, ctx.table("lr_accidents"));
          int64_t clear_before = minute * 60 - config.stop_duration_sec;
          SSTORE_ASSIGN_OR_RETURN(
              size_t cleared,
              ctx.exec().Update(accidents,
                                And(Eq(Col(3), LitInt(0)),
                                    Le(Col(2), LitInt(clear_before))),
                                {{3, LitInt(1)}}));
          (void)cleared;
          SSTORE_ASSIGN_OR_RETURN(Table * stopped, ctx.table("lr_stopped"));
          SSTORE_ASSIGN_OR_RETURN(
              size_t n,
              ctx.exec().Delete(stopped, Le(Col(3), LitInt(clear_before))));
          (void)n;
          return Status::OK();
        });
      };
}

}  // namespace

Topology BuildLinearRoadDeployment(const LinearRoadConfig& config) {
  Topology topo("linear_road");
  AddLinearRoadDdl(topo);
  // Every stage everywhere — the replicated shape.
  auto [n1, n2] = LinearRoadNodes();
  topo.RegisterProcedure("position_report", SpKind::kBorder,
                         MakePositionReportProc(config))
      .RegisterProcedure("minute_rollup", SpKind::kInterior,
                         MakeMinuteRollupFactory(config,
                                                 /*dedupe_minutes=*/false))
      .AddStage(n1)
      .AddStage(n2);
  return topo;
}

Topology BuildPlacedLinearRoadTopology(const LinearRoadConfig& config,
                                       size_t rollup_partition) {
  Topology topo("linear_road_placed");
  AddLinearRoadDdl(topo);
  topo.CreateTable("lr_rollup_meta",
                   Schema({{"last_minute", ValueType::kBigInt}}))
      .InsertRow("lr_rollup_meta", {Value::BigInt(-1)})
      .RegisterProcedure("position_report", SpKind::kBorder,
                         MakePositionReportProc(config))
      .RegisterProcedure("minute_rollup", SpKind::kInterior,
                         MakeMinuteRollupFactory(config,
                                                 /*dedupe_minutes=*/true));
  auto [n1, n2] = LinearRoadNodes();
  // Ingest stays on the border partitions, keyed by x-way (column 2 of a
  // position report — the same column ClusterInjector routes by); the
  // rollup is pinned downstream, fed through the s_minute channel.
  topo.AddStage(n1, Placement::Keyed(2))
      .AddStage(n2, Placement::Pinned(rollup_partition));
  return topo;
}

Status LinearRoadApp::Setup() {
  SSTORE_RETURN_NOT_OK(
      BuildLinearRoadDeployment(config_).ApplyTo(*store_, /*p=*/0));
  injector_ = std::make_unique<StreamInjector>(&store_->partition(),
                                               "position_report");
  return Status::OK();
}

BatchTicketPtr LinearRoadApp::InjectAsync(const PositionReport& report) {
  return injector_->InjectAsync(report.ToTuple());
}

Result<size_t> LinearRoadApp::DrainNotifications() {
  SSTORE_ASSIGN_OR_RETURN(
      std::vector<Tuple> rows,
      store_->streams().Drain(kLinearRoadNotificationsStream));
  return rows.size();
}

Result<size_t> LinearRoadApp::ArchivedStats() const {
  SSTORE_ASSIGN_OR_RETURN(Table * t, store_->catalog().GetTable("lr_segstats"));
  return t->row_count();
}

Result<size_t> LinearRoadApp::OpenAccidents() const {
  SSTORE_ASSIGN_OR_RETURN(Table * t, store_->catalog().GetTable("lr_accidents"));
  Executor exec;
  return exec.Count(t, Eq(Col(3), LitInt(0)));
}

Result<double> LinearRoadApp::TotalTollsCharged() const {
  SSTORE_ASSIGN_OR_RETURN(Table * t, store_->catalog().GetTable("lr_vehicles"));
  Executor exec;
  AggregateSpec agg;
  agg.table = t;
  agg.aggregates = {{AggFunc::kSum, 6}};
  SSTORE_ASSIGN_OR_RETURN(std::vector<Tuple> rows, exec.Aggregate(agg));
  if (rows.empty() || rows[0][0].is_null()) return 0.0;
  return *rows[0][0].ToNumeric();
}

}  // namespace sstore
