#ifndef SSTORE_WORKLOADS_VOTER_CLUSTER_H_
#define SSTORE_WORKLOADS_VOTER_CLUSTER_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "common/status.h"

namespace sstore {

/// Voter-style multi-partition workload: contestants are sharded across the
/// cluster by contestant id, votes are single-partition OLTP on the owner,
/// and *vote transfers* (a campaign merging its support into another) are
/// atomic multi-partition transactions through the TxnCoordinator — the
/// subtract and the add land on different owners and must both happen or
/// neither.
///
/// Every vote updates both the contestant's count and a per-partition total
/// counter inside one transaction, so at any transaction-consistent cut
///   sum(owner vote_count) == num_contestants*initial_votes + sum(totals),
/// and transfers conserve the left-hand sum outright. The coordinated
/// checkpoint and recovery tests use exactly this invariant to prove a cut
/// never catches half of a transfer.
struct VoterClusterConfig {
  int64_t num_contestants = 32;
  /// Seeded per contestant (on its owner) so transfers have budget.
  int64_t initial_votes = 1000;
};

/// Builds the identical-per-partition deployment: table `vc_contestants`
/// (contestant_id, vote_count) with a unique pk index and seeded rows,
/// singleton `vc_stats` (total_votes), and two OLTP procedures:
/// - `vc_vote`   (contestant_id): vote_count += 1, total_votes += 1;
///   aborts on an unknown contestant.
/// - `vc_adjust` (contestant_id, delta): vote_count += delta; aborts on an
///   unknown contestant or a balance that would go negative — the abort the
///   coordinator tests inject to prove all-or-nothing.
Topology BuildVoterClusterDeployment(const VoterClusterConfig& config);

/// Client-side driver binding the workload to a Cluster.
class VoterClusterApp {
 public:
  VoterClusterApp(Cluster* cluster, VoterClusterConfig config)
      : cluster_(cluster), config_(config) {}

  const VoterClusterConfig& config() const { return config_; }

  size_t OwnerOf(int64_t contestant) const {
    return cluster_->PartitionOf(Value::BigInt(contestant));
  }

  /// Picks one contestant owned by each of two *different* partitions, for
  /// guaranteed cross-partition transfers; false if the cluster has one
  /// partition or ownership is degenerate.
  bool PickCrossPartitionPair(int64_t* a, int64_t* b) const;

  // ---- Single-partition OLTP (routed by contestant) ----

  TxnOutcome Vote(int64_t contestant) {
    return cluster_->ExecuteSync("vc_vote", {Value::BigInt(contestant)},
                                 Value::BigInt(contestant));
  }

  // ---- Multi-partition transactions ----

  /// Moves `n` votes from one contestant to another atomically; the
  /// fragments run on each contestant's owner partition. Aborts everywhere
  /// if `from` has fewer than `n` votes.
  BatchTicketPtr TransferAsync(int64_t from, int64_t to, int64_t n);
  std::vector<TxnOutcome> Transfer(int64_t from, int64_t to, int64_t n);

  // ---- Inspection (idle or stopped cluster) ----

  /// The contestant's count on its owner partition.
  Result<int64_t> Count(int64_t contestant) const;
  /// Sum of every contestant's count on its owner.
  Result<int64_t> TotalVotes() const;
  /// Sum of the per-partition vote-transaction counters.
  Result<int64_t> TotalVoteTxns() const;
  /// The consistent-cut invariant: TotalVotes() ==
  /// num_contestants*initial_votes + TotalVoteTxns(). Non-OK with both
  /// sides in the message when violated.
  Status CheckInvariant() const;

 private:
  Cluster* cluster_;
  VoterClusterConfig config_;
};

}  // namespace sstore

#endif  // SSTORE_WORKLOADS_VOTER_CLUSTER_H_
