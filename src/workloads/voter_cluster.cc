#include "workloads/voter_cluster.h"

#include "query/expr.h"

namespace sstore {

namespace {

Schema ContestantSchema() {
  return Schema({{"contestant_id", ValueType::kBigInt},
                 {"vote_count", ValueType::kBigInt}});
}

Schema StatsSchema() { return Schema({{"total_votes", ValueType::kBigInt}}); }

/// Looks up the contestant's row and applies `delta`, aborting on unknown
/// ids or a balance that would go negative. Shared by vc_vote and
/// vc_adjust; `delta` for a vote is +1.
Status AdjustCount(ProcContext& ctx, const Value& contestant, int64_t delta) {
  SSTORE_ASSIGN_OR_RETURN(Table * contestants, ctx.table("vc_contestants"));
  SSTORE_ASSIGN_OR_RETURN(std::vector<Tuple> rows,
                          ctx.exec().IndexScan(contestants, "pk",
                                               {contestant}));
  if (rows.empty()) {
    return Status::Aborted("unknown contestant " + contestant.ToString());
  }
  int64_t current = rows[0][1].as_int64();
  if (current + delta < 0) {
    return Status::Aborted("contestant " + contestant.ToString() + " has " +
                           std::to_string(current) + " votes, cannot apply " +
                           std::to_string(delta));
  }
  SSTORE_ASSIGN_OR_RETURN(
      size_t n, ctx.exec().Update(contestants, Eq(Col(0), Lit(contestant)),
                                  {{1, Add(Col(1), LitInt(delta))}}));
  (void)n;
  return Status::OK();
}

}  // namespace

Topology BuildVoterClusterDeployment(const VoterClusterConfig& config) {
  Topology topo("voter_cluster");
  topo.CreateTable("vc_contestants", ContestantSchema())
      .CreateIndex("vc_contestants", "pk", {"contestant_id"}, /*unique=*/true);
  // Every partition seeds every row; only the owner's copy receives writes,
  // so non-owned copies stay at the seed and reads consult the owner.
  for (int64_t c = 0; c < config.num_contestants; ++c) {
    topo.InsertRow("vc_contestants",
                   {Value::BigInt(c), Value::BigInt(config.initial_votes)});
  }
  topo.CreateTable("vc_stats", StatsSchema())
      .InsertRow("vc_stats", {Value::BigInt(0)});

  topo.RegisterProcedure(
      "vc_vote", SpKind::kOltp,
      std::make_shared<LambdaProcedure>([](ProcContext& ctx) {
        SSTORE_RETURN_NOT_OK(AdjustCount(ctx, ctx.params()[0], 1));
        // The counter moves in the same transaction as the count, so every
        // transaction-consistent cut satisfies the workload invariant.
        SSTORE_ASSIGN_OR_RETURN(Table * stats, ctx.table("vc_stats"));
        SSTORE_ASSIGN_OR_RETURN(
            size_t n, ctx.exec().Update(stats, nullptr,
                                        {{0, Add(Col(0), LitInt(1))}}));
        (void)n;
        return Status::OK();
      }));

  topo.RegisterProcedure(
      "vc_adjust", SpKind::kOltp,
      std::make_shared<LambdaProcedure>([](ProcContext& ctx) {
        return AdjustCount(ctx, ctx.params()[0], ctx.params()[1].as_int64());
      }));
  return topo;
}

bool VoterClusterApp::PickCrossPartitionPair(int64_t* a, int64_t* b) const {
  for (int64_t x = 0; x < config_.num_contestants; ++x) {
    for (int64_t y = x + 1; y < config_.num_contestants; ++y) {
      if (OwnerOf(x) != OwnerOf(y)) {
        *a = x;
        *b = y;
        return true;
      }
    }
  }
  return false;
}

BatchTicketPtr VoterClusterApp::TransferAsync(int64_t from, int64_t to,
                                              int64_t n) {
  std::vector<std::pair<Value, Tuple>> ops;
  ops.emplace_back(Value::BigInt(from),
                   Tuple{Value::BigInt(from), Value::BigInt(-n)});
  ops.emplace_back(Value::BigInt(to),
                   Tuple{Value::BigInt(to), Value::BigInt(n)});
  return cluster_->SubmitMulti("vc_adjust", std::move(ops));
}

std::vector<TxnOutcome> VoterClusterApp::Transfer(int64_t from, int64_t to,
                                                  int64_t n) {
  return TransferAsync(from, to, n)->Wait();
}

Result<int64_t> VoterClusterApp::Count(int64_t contestant) const {
  SStore& owner = cluster_->store(OwnerOf(contestant));
  SSTORE_ASSIGN_OR_RETURN(Table * contestants,
                          owner.catalog().GetTable("vc_contestants"));
  Executor exec;
  SSTORE_ASSIGN_OR_RETURN(
      std::vector<Tuple> rows,
      exec.IndexScan(contestants, "pk", {Value::BigInt(contestant)}));
  if (rows.empty()) return Status::NotFound("no such contestant");
  return rows[0][1].as_int64();
}

Result<int64_t> VoterClusterApp::TotalVotes() const {
  int64_t total = 0;
  for (int64_t c = 0; c < config_.num_contestants; ++c) {
    SSTORE_ASSIGN_OR_RETURN(int64_t count, Count(c));
    total += count;
  }
  return total;
}

Result<int64_t> VoterClusterApp::TotalVoteTxns() const {
  int64_t total = 0;
  for (size_t p = 0; p < cluster_->num_partitions(); ++p) {
    SSTORE_ASSIGN_OR_RETURN(Table * stats,
                            cluster_->store(p).catalog().GetTable("vc_stats"));
    Executor exec;
    ScanSpec spec;
    spec.table = stats;
    SSTORE_ASSIGN_OR_RETURN(std::vector<Tuple> rows, exec.Scan(spec));
    total += rows[0][0].as_int64();
  }
  return total;
}

Status VoterClusterApp::CheckInvariant() const {
  SSTORE_ASSIGN_OR_RETURN(int64_t votes, TotalVotes());
  SSTORE_ASSIGN_OR_RETURN(int64_t txns, TotalVoteTxns());
  int64_t expected =
      config_.num_contestants * config_.initial_votes + txns;
  if (votes != expected) {
    return Status::Internal("invariant violated: total votes " +
                            std::to_string(votes) + " != seeded+voted " +
                            std::to_string(expected));
  }
  return Status::OK();
}

}  // namespace sstore
