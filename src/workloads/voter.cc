#include "workloads/voter.h"

#include "query/expr.h"

namespace sstore {

namespace {

constexpr char kValidated[] = "s_validated";
constexpr char kMaintained[] = "s_maintained";
constexpr char kTrendingWindow[] = "w_trending";

Schema ContestantSchema() {
  return Schema({{"contestant_id", ValueType::kBigInt},
                 {"name", ValueType::kString},
                 {"active", ValueType::kBigInt},
                 {"vote_count", ValueType::kBigInt}});
}

Schema VoteSchema() {
  return Schema({{"phone", ValueType::kBigInt},
                 {"contestant_id", ValueType::kBigInt},
                 {"ts", ValueType::kTimestamp}});
}

Schema BoardSchema() {
  return Schema(
      {{"contestant_id", ValueType::kBigInt}, {"cnt", ValueType::kBigInt}});
}

Schema IdSchema() { return Schema({{"contestant_id", ValueType::kBigInt}}); }

/// Rewrites one leaderboard table from fresh rows.
Status RewriteBoard(Executor& exec, Table* board, std::vector<Tuple> rows) {
  SSTORE_ASSIGN_OR_RETURN(size_t del, exec.Delete(board, nullptr));
  (void)del;
  SSTORE_ASSIGN_OR_RETURN(size_t ins, exec.InsertMany(board, std::move(rows)));
  (void)ins;
  return Status::OK();
}

/// Top-3 / bottom-3 over active contestants' running totals.
Status RecomputeTopBottom(ProcContext& ctx) {
  SSTORE_ASSIGN_OR_RETURN(Table * contestants, ctx.table("contestants"));
  SSTORE_ASSIGN_OR_RETURN(Table * top, ctx.table("lb_top"));
  SSTORE_ASSIGN_OR_RETURN(Table * bottom, ctx.table("lb_bottom"));

  ScanSpec spec;
  spec.table = contestants;
  spec.predicate = Eq(Col(2), LitInt(1));
  spec.projection = {0, 3};
  spec.order_by = {{1, /*descending=*/true}, {0, false}};
  spec.limit = 3;
  SSTORE_ASSIGN_OR_RETURN(std::vector<Tuple> top3, ctx.exec().Scan(spec));
  SSTORE_RETURN_NOT_OK(RewriteBoard(ctx.exec(), top, std::move(top3)));

  spec.order_by = {{1, false}, {0, false}};
  SSTORE_ASSIGN_OR_RETURN(std::vector<Tuple> bottom3, ctx.exec().Scan(spec));
  return RewriteBoard(ctx.exec(), bottom, std::move(bottom3));
}

/// Trending top-3 from the last-100-votes window (native window table in
/// S-Store mode, manual table in H-Store mode).
Status RecomputeTrending(ProcContext& ctx, const std::string& window_table) {
  SSTORE_ASSIGN_OR_RETURN(Table * w, ctx.table(window_table));
  SSTORE_ASSIGN_OR_RETURN(Table * board, ctx.table("lb_trending"));
  AggregateSpec agg;
  agg.table = w;
  agg.group_by = {0};
  agg.aggregates = {{AggFunc::kCount, 0}};
  agg.order_by = {{1, /*descending=*/true}, {0, false}};
  agg.limit = 3;
  SSTORE_ASSIGN_OR_RETURN(std::vector<Tuple> trending, ctx.exec().Aggregate(agg));
  return RewriteBoard(ctx.exec(), board, std::move(trending));
}

}  // namespace

VoteGenerator::VoteGenerator(const VoterConfig& config, uint64_t seed,
                             double invalid_fraction)
    : config_(config), rng_(seed), invalid_fraction_(invalid_fraction) {
  total_weight_ = config_.num_contestants * (config_.num_contestants + 1) / 2;
}

Tuple VoteGenerator::Next() {
  clock_us_ += 100;
  if (config_.validate_votes && rng_.NextBool(invalid_fraction_)) {
    if (rng_.NextBool(0.5)) {
      // Repeated phone number (rejected by the unique index).
      return {Value::BigInt(last_phone_), Value::BigInt(0),
              Value::Timestamp(clock_us_)};
    }
    // Unknown contestant.
    return {Value::BigInt(next_phone_++),
            Value::BigInt(config_.num_contestants + 7),
            Value::Timestamp(clock_us_)};
  }
  // Skewed popularity: contestant i drawn with weight (i + 1).
  int64_t r = rng_.NextRange(1, total_weight_);
  int64_t contestant = 0;
  int64_t cumulative = 0;
  for (int64_t i = 0; i < config_.num_contestants; ++i) {
    cumulative += i + 1;
    if (r <= cumulative) {
      contestant = i;
      break;
    }
  }
  last_phone_ = next_phone_;
  return {Value::BigInt(next_phone_++), Value::BigInt(contestant),
          Value::Timestamp(clock_us_)};
}

Status VoterApp::Setup() {
  SSTORE_RETURN_NOT_OK(SetupTables());
  if (config_.sstore_mode) {
    SSTORE_RETURN_NOT_OK(SetupSStoreProcs());
    injector_ = std::make_unique<StreamInjector>(&store_->partition(), "validate");
  } else {
    SSTORE_RETURN_NOT_OK(SetupHStoreProcs());
  }
  return Status::OK();
}

Status VoterApp::SetupTables() {
  Catalog& cat = store_->catalog();
  SSTORE_ASSIGN_OR_RETURN(Table * contestants,
                          cat.CreateTable("contestants", ContestantSchema()));
  SSTORE_RETURN_NOT_OK(
      contestants->CreateIndex("pk", {"contestant_id"}, /*unique=*/true));
  for (int64_t i = 0; i < config_.num_contestants; ++i) {
    SSTORE_ASSIGN_OR_RETURN(
        RowId rid,
        contestants->Insert({Value::BigInt(i),
                             Value::String("contestant_" + std::to_string(i)),
                             Value::BigInt(1), Value::BigInt(0)}));
    (void)rid;
  }

  SSTORE_ASSIGN_OR_RETURN(Table * votes, cat.CreateTable("votes", VoteSchema()));
  if (config_.validate_votes) {
    // The index Spark Streaming lacks (paper §4.6.3): phone lookups are
    // O(1) here, a full scan there.
    SSTORE_RETURN_NOT_OK(votes->CreateIndex("by_phone", {"phone"}, true));
  }
  SSTORE_RETURN_NOT_OK(
      votes->CreateIndex("by_contestant", {"contestant_id"}, false));

  SSTORE_RETURN_NOT_OK(cat.CreateTable("lb_top", BoardSchema()).status());
  SSTORE_RETURN_NOT_OK(cat.CreateTable("lb_bottom", BoardSchema()).status());
  SSTORE_RETURN_NOT_OK(cat.CreateTable("lb_trending", BoardSchema()).status());

  SSTORE_ASSIGN_OR_RETURN(
      Table * stats,
      cat.CreateTable("stats", Schema({{"total_votes", ValueType::kBigInt}})));
  SSTORE_ASSIGN_OR_RETURN(RowId srid, stats->Insert({Value::BigInt(0)}));
  (void)srid;

  if (config_.sstore_mode) {
    SSTORE_RETURN_NOT_OK(store_->streams().DefineStream(kValidated, IdSchema()));
    SSTORE_RETURN_NOT_OK(store_->streams().DefineStream(kMaintained, IdSchema()));
    WindowSpec w;
    w.name = kTrendingWindow;
    w.schema = IdSchema();
    w.kind = WindowKind::kTupleBased;
    w.size = config_.trending_window_size;
    w.slide = config_.trending_slide;
    w.owner_proc = "maintain";
    SSTORE_RETURN_NOT_OK(store_->windows().DefineWindow(w));
  } else {
    // Manual trending window: explicit sequence column + counter table.
    SSTORE_RETURN_NOT_OK(cat.CreateTable("t_trending",
                                         Schema({{"contestant_id", ValueType::kBigInt},
                                                 {"wseq", ValueType::kBigInt}}))
                             .status());
    SSTORE_ASSIGN_OR_RETURN(
        Table * tmeta,
        cat.CreateTable("t_meta", Schema({{"next_seq", ValueType::kBigInt}})));
    SSTORE_ASSIGN_OR_RETURN(RowId mrid, tmeta->Insert({Value::BigInt(1)}));
    (void)mrid;
  }
  return Status::OK();
}

namespace {

/// Validate one vote and record it; emits / outputs the contestant id.
Status ValidateBody(ProcContext& ctx, const VoterConfig& config,
                    bool sstore_mode) {
  const Tuple& vote = ctx.params();
  SSTORE_ASSIGN_OR_RETURN(Table * votes, ctx.table("votes"));
  if (config.validate_votes) {
    SSTORE_ASSIGN_OR_RETURN(Table * contestants, ctx.table("contestants"));
    SSTORE_ASSIGN_OR_RETURN(
        std::vector<Tuple> found,
        ctx.exec().IndexScan(contestants, "pk", {vote[1]}));
    if (found.empty() || found[0][2].as_int64() != 1) {
      return Status::Aborted("vote for unknown or removed contestant");
    }
    // The unique by_phone index rejects re-votes (kConstraintViolation).
  }
  SSTORE_ASSIGN_OR_RETURN(RowId rid, ctx.exec().Insert(votes, vote));
  (void)rid;
  if (sstore_mode) {
    return ctx.EmitToStream(kValidated, {{vote[1]}});
  }
  ctx.EmitOutput({vote[1]});
  return Status::OK();
}

/// Update totals, trending window, and all three leaderboards for a batch
/// of validated contestant ids.
Status MaintainBody(ProcContext& ctx, SStore* store, const VoterConfig& config,
                    std::vector<Tuple> contestant_rows, bool sstore_mode) {
  SSTORE_ASSIGN_OR_RETURN(Table * contestants, ctx.table("contestants"));
  for (const Tuple& row : contestant_rows) {
    SSTORE_ASSIGN_OR_RETURN(
        size_t n, ctx.exec().Update(contestants, Eq(Col(0), Lit(row[0])),
                                    {{3, Add(Col(3), LitInt(1))}}));
    (void)n;
    if (sstore_mode) {
      SSTORE_RETURN_NOT_OK(
          store->windows().Insert(ctx.exec(), kTrendingWindow, {{row[0]}}));
    } else {
      SSTORE_ASSIGN_OR_RETURN(Table * trending, ctx.table("t_trending"));
      SSTORE_ASSIGN_OR_RETURN(Table * tmeta, ctx.table("t_meta"));
      ScanSpec ms;
      ms.table = tmeta;
      SSTORE_ASSIGN_OR_RETURN(std::vector<Tuple> mrow, ctx.exec().Scan(ms));
      int64_t seq = mrow[0][0].as_int64();
      SSTORE_ASSIGN_OR_RETURN(
          RowId rid,
          ctx.exec().Insert(trending, {row[0], Value::BigInt(seq)}));
      (void)rid;
      SSTORE_ASSIGN_OR_RETURN(
          size_t um,
          ctx.exec().Update(tmeta, nullptr, {{0, Add(Col(0), LitInt(1))}}));
      (void)um;
      SSTORE_ASSIGN_OR_RETURN(
          size_t del,
          ctx.exec().Delete(
              trending,
              Le(Col(1), LitInt(seq - config.trending_window_size))));
      (void)del;
    }
  }
  SSTORE_RETURN_NOT_OK(RecomputeTopBottom(ctx));
  SSTORE_RETURN_NOT_OK(
      RecomputeTrending(ctx, sstore_mode ? kTrendingWindow : "t_trending"));
  if (sstore_mode) {
    return ctx.EmitToStream(kMaintained, std::move(contestant_rows));
  }
  return Status::OK();
}

/// Count votes; every `delete_every` validated votes, remove the lowest
/// active contestant and their recorded votes.
Status LowestBody(ProcContext& ctx, const VoterConfig& config,
                  size_t batch_votes) {
  SSTORE_ASSIGN_OR_RETURN(Table * stats, ctx.table("stats"));
  SSTORE_ASSIGN_OR_RETURN(
      size_t n,
      ctx.exec().Update(stats, nullptr,
                        {{0, Add(Col(0), LitInt(static_cast<int64_t>(batch_votes)))}}));
  (void)n;
  ScanSpec ss;
  ss.table = stats;
  SSTORE_ASSIGN_OR_RETURN(std::vector<Tuple> srow, ctx.exec().Scan(ss));
  int64_t total = srow[0][0].as_int64();
  if (total == 0 || total % config.delete_every != 0) return Status::OK();

  SSTORE_ASSIGN_OR_RETURN(Table * contestants, ctx.table("contestants"));
  ScanSpec active_scan;
  active_scan.table = contestants;
  active_scan.predicate = Eq(Col(2), LitInt(1));
  active_scan.projection = {0, 3};
  active_scan.order_by = {{1, false}, {0, false}};
  SSTORE_ASSIGN_OR_RETURN(std::vector<Tuple> active,
                          ctx.exec().Scan(active_scan));
  if (active.size() <= 1) return Status::OK();  // a winner remains

  const Value& victim = active[0][0];
  SSTORE_ASSIGN_OR_RETURN(
      size_t deact,
      ctx.exec().Update(contestants, Eq(Col(0), Lit(victim)), {{2, LitInt(0)}}));
  (void)deact;
  // Return the victim's votes to their voters (delete, freeing the phones).
  SSTORE_ASSIGN_OR_RETURN(Table * votes, ctx.table("votes"));
  SSTORE_ASSIGN_OR_RETURN(std::vector<RowId> rids,
                          votes->IndexLookup("by_contestant", {victim}));
  for (RowId rid : rids) {
    SSTORE_RETURN_NOT_OK(ctx.exec().DeleteRow(votes, rid));
  }
  // Leaderboards must reflect the removal immediately.
  return RecomputeTopBottom(ctx);
}

}  // namespace

Status VoterApp::SetupSStoreProcs() {
  VoterConfig config = config_;
  SStore* store = store_;

  SSTORE_RETURN_NOT_OK(store_->partition().RegisterProcedure(
      "validate", SpKind::kBorder,
      std::make_shared<LambdaProcedure>([config](ProcContext& ctx) {
        return ValidateBody(ctx, config, /*sstore_mode=*/true);
      })));

  SSTORE_RETURN_NOT_OK(store_->partition().RegisterProcedure(
      "maintain", SpKind::kInterior,
      std::make_shared<LambdaProcedure>([config, store](ProcContext& ctx) {
        SSTORE_ASSIGN_OR_RETURN(
            std::vector<Tuple> rows,
            store->streams().BatchContents(kValidated, ctx.batch_id()));
        return MaintainBody(ctx, store, config, std::move(rows),
                            /*sstore_mode=*/true);
      })));

  SSTORE_RETURN_NOT_OK(store_->partition().RegisterProcedure(
      "lowest", SpKind::kInterior,
      std::make_shared<LambdaProcedure>([config, store](ProcContext& ctx) {
        SSTORE_ASSIGN_OR_RETURN(
            std::vector<Tuple> rows,
            store->streams().BatchContents(kMaintained, ctx.batch_id()));
        return LowestBody(ctx, config, rows.size());
      })));

  Workflow wf("leaderboard");
  WorkflowNode n1, n2, n3;
  n1.proc = "validate";
  n1.kind = SpKind::kBorder;
  n1.output_streams = {kValidated};
  n2.proc = "maintain";
  n2.kind = SpKind::kInterior;
  n2.input_streams = {kValidated};
  n2.output_streams = {kMaintained};
  n3.proc = "lowest";
  n3.kind = SpKind::kInterior;
  n3.input_streams = {kMaintained};
  SSTORE_RETURN_NOT_OK(wf.AddNode(n1));
  SSTORE_RETURN_NOT_OK(wf.AddNode(n2));
  SSTORE_RETURN_NOT_OK(wf.AddNode(n3));
  return store_->DeployWorkflow(wf);
}

Status VoterApp::SetupHStoreProcs() {
  VoterConfig config = config_;
  SStore* store = store_;

  SSTORE_RETURN_NOT_OK(store_->partition().RegisterProcedure(
      "validate", SpKind::kOltp,
      std::make_shared<LambdaProcedure>([config](ProcContext& ctx) {
        return ValidateBody(ctx, config, /*sstore_mode=*/false);
      })));
  SSTORE_RETURN_NOT_OK(store_->partition().RegisterProcedure(
      "maintain", SpKind::kOltp,
      std::make_shared<LambdaProcedure>([config, store](ProcContext& ctx) {
        std::vector<Tuple> rows = {{ctx.params()[0]}};
        return MaintainBody(ctx, store, config, std::move(rows),
                            /*sstore_mode=*/false);
      })));
  return store_->partition().RegisterProcedure(
      "lowest", SpKind::kOltp,
      std::make_shared<LambdaProcedure>([config](ProcContext& ctx) {
        return LowestBody(ctx, config, 1);
      }));
}

Status VoterApp::ProcessVoteHStore(Tuple vote) {
  int64_t batch = next_hstore_batch_.fetch_add(1);
  TxnOutcome validated =
      store_->partition().ExecuteSync("validate", std::move(vote), batch);
  if (!validated.committed()) return validated.status;
  const Value contestant = validated.output.at(0).at(0);
  TxnOutcome maintained =
      store_->partition().ExecuteSync("maintain", {contestant}, batch);
  if (!maintained.committed()) return maintained.status;
  TxnOutcome lowest =
      store_->partition().ExecuteSync("lowest", {contestant}, batch);
  return lowest.status;
}

Result<std::vector<Tuple>> VoterApp::Leaderboard(const std::string& which) const {
  std::string table_name = "lb_" + which;
  SSTORE_ASSIGN_OR_RETURN(Table * board, store_->catalog().GetTable(table_name));
  Executor exec;
  ScanSpec spec;
  spec.table = board;
  bool ascending = which == "bottom";
  spec.order_by = {{1, /*descending=*/!ascending}, {0, false}};
  return exec.Scan(spec);
}

Result<int64_t> VoterApp::TotalValidVotes() const {
  SSTORE_ASSIGN_OR_RETURN(Table * stats, store_->catalog().GetTable("stats"));
  Executor exec;
  ScanSpec spec;
  spec.table = stats;
  SSTORE_ASSIGN_OR_RETURN(std::vector<Tuple> rows, exec.Scan(spec));
  return rows[0][0].as_int64();
}

Result<int64_t> VoterApp::ActiveContestants() const {
  SSTORE_ASSIGN_OR_RETURN(Table * contestants,
                          store_->catalog().GetTable("contestants"));
  Executor exec;
  SSTORE_ASSIGN_OR_RETURN(size_t n,
                          exec.Count(contestants, Eq(Col(2), LitInt(1))));
  return static_cast<int64_t>(n);
}

Result<int64_t> VoterApp::VoteCount(int64_t contestant) const {
  SSTORE_ASSIGN_OR_RETURN(Table * contestants,
                          store_->catalog().GetTable("contestants"));
  Executor exec;
  SSTORE_ASSIGN_OR_RETURN(
      std::vector<Tuple> rows,
      exec.IndexScan(contestants, "pk", {Value::BigInt(contestant)}));
  if (rows.empty()) return Status::NotFound("no such contestant");
  return rows[0][3].as_int64();
}

}  // namespace sstore
