// Seeded randomized chaos harness (ISSUE 10): one seed deterministically
// derives a whole schedule — the workload mix (wire clients over a voter
// cluster with an optional background checkpointer and concurrent rebalance,
// or a placed channel topology), the subset of failpoint sites to arm, and
// each site's skip/count trigger. RunSchedule drives N generations of
// run -> simulated crash -> Recover -> invariant checks. On failure the test
// prints the seed and the exact SSTORE_FAILPOINTS-style spec, so
// SSTORE_CHAOS_SEED=<s> replays the identical schedule.
//
// Invariants checked after every recovery:
//  - vote conservation (VoterClusterApp::CheckInvariant),
//  - client-observed commits are a subset of durable state
//    (TotalVoteTxns >= acked: an ack can be lost after commit, never the
//    reverse),
//  - channel exactly-once: every committed ingest key appears in the sink
//    exactly once, no matter how forwards were dropped, duplicated, stalled,
//    or crashed between delivery and GC.

#ifndef SSTORE_TESTS_CHAOS_HARNESS_H_
#define SSTORE_TESTS_CHAOS_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/topology.h"
#include "common/status.h"
#include "workloads/voter_cluster.h"

namespace sstore {
namespace chaos {

/// The voter deployment plus an unseeded keyed table "chaos_kv" (key column
/// 0) fed by a border procedure "chaos_put". Rebalance scenarios migrate
/// chaos_kv: vc_contestants is replicated by design (every partition seeds
/// every row, so a migration insert would collide with the target's unique
/// pk), while chaos_kv rows live only on their owning partition.
Topology ChaosVoterDeployment(const VoterClusterConfig& config);

/// One armed failpoint in a schedule.
struct FaultPick {
  std::string site;
  std::string action;  // "error" | "torn" | "crash"
  int skip = 0;
  int count = 1;  // -1 = every hit
};

/// A fully materialized schedule. Every field is a pure function of `seed`.
struct Schedule {
  uint64_t seed = 0;
  bool wire_flavor = true;  // false: placed channel topology instead
  int clients = 1;          // wire flavor: concurrent pipelined clients
  int requests_per_client = 24;
  int generations = 2;  // crash -> Recover cycles before the final verify
  bool with_checkpointer = false;
  bool with_rebalance = false;  // wire flavor only: concurrent split
  /// The mode the live clusters log under and the recovered ones replay
  /// with (paper §3.2.5). Drawn from its own hash of the seed, independent
  /// of every other field.
  RecoveryMode recovery_mode = RecoveryMode::kStrong;
  std::vector<FaultPick> picks;

  /// The picks in SSTORE_FAILPOINTS syntax ("site=action@skipxcount;...").
  std::string Spec() const;
  /// One-line human summary for failure messages.
  std::string Describe() const;
};

/// Derives the schedule for `seed`. Same seed, same schedule, byte for byte.
Schedule MakeSchedule(uint64_t seed);

/// Runs the schedule end to end. `dir_tag` namespaces the temp directories
/// so concurrent schedules don't collide. OK when every invariant held;
/// otherwise the message names the broken invariant (caller prints seed +
/// spec for replay).
Status RunSchedule(const Schedule& schedule, const std::string& dir_tag);

/// CI plumbing. SSTORE_CHAOS_SEED replays exactly one seed;
/// SSTORE_CHAOS_BASE_SEED and SSTORE_CHAOS_SCHEDULES configure the sweep.
bool EnvSeed(uint64_t* seed);
uint64_t EnvBaseSeed(uint64_t fallback);
int EnvScheduleCount(int fallback);

}  // namespace chaos
}  // namespace sstore

#endif  // SSTORE_TESTS_CHAOS_HARNESS_H_
