#ifndef SSTORE_WORKLOADS_VOTER_H_
#define SSTORE_WORKLOADS_VOTER_H_

#include <atomic>
#include <memory>
#include <string>

#include "common/rng.h"
#include "common/status.h"
#include "streaming/injector.h"
#include "streaming/sstore.h"

namespace sstore {

/// Configuration of the Voter-with-Leaderboard application (paper §1.1,
/// evaluated in §4.5/§4.6).
struct VoterConfig {
  int64_t num_contestants = 6;
  /// Remove the lowest contestant every this many validated votes.
  int64_t delete_every = 1000;
  /// Trending leaderboard window: last N validated votes, sliding by 1.
  int64_t trending_window_size = 100;
  int64_t trending_slide = 1;
  /// When false, the application runs in H-Store mode: the client drives
  /// validate -> maintain -> delete as three synchronous transactions, and
  /// the trending window is maintained manually in a base table.
  bool sstore_mode = true;
  /// When false, phone-number validation is skipped (Figure 10's second
  /// variant, built to play to Spark's map-reduce strengths).
  bool validate_votes = true;
};

/// Generates a reproducible stream of votes: (phone BIGINT, contestant
/// BIGINT, ts TIMESTAMP). Contestant popularity is skewed (weights 1..N) so
/// leaderboards are non-trivial. A configurable fraction of votes is invalid
/// (repeated phone or unknown contestant).
class VoteGenerator {
 public:
  VoteGenerator(const VoterConfig& config, uint64_t seed = 12345,
                double invalid_fraction = 0.02);

  Tuple Next();

 private:
  VoterConfig config_;
  Rng rng_;
  double invalid_fraction_;
  int64_t next_phone_ = 1'000'000;
  int64_t last_phone_ = 1'000'000;
  int64_t clock_us_ = 0;
  int64_t total_weight_;
};

/// The leaderboard-maintenance workflow: three stored procedures that must
/// run serially per vote (paper Figure 1):
///   1. validate  (border):  validate the vote, record it in Votes;
///   2. maintain  (interior): update per-contestant totals, the 100-vote
///      trending window, and the top-3 / bottom-3 / trending leaderboards;
///   3. lowest    (interior): every `delete_every` votes, remove the lowest
///      contestant, return their votes, and fix the leaderboards.
class VoterApp {
 public:
  VoterApp(SStore* store, const VoterConfig& config)
      : store_(store), config_(config) {}

  /// Creates all tables/streams/windows, registers the procedures, and (in
  /// S-Store mode) deploys the workflow with PE triggers.
  Status Setup();

  // ---- S-Store mode driving ----
  BatchTicketPtr InjectVoteAsync(Tuple vote) {
    return injector_->InjectAsync(std::move(vote));
  }
  TxnOutcome InjectVoteSync(Tuple vote) {
    return injector_->InjectSync(std::move(vote));
  }

  // ---- H-Store mode driving ----
  /// The client submits the three transactions synchronously, passing the
  /// result of each to the next — it cannot pipeline (paper §4.5). Returns
  /// kAborted for invalid votes (nothing recorded).
  Status ProcessVoteHStore(Tuple vote);

  // ---- Inspection ----
  /// `which` in {"top", "bottom", "trending"}; rows (contestant_id, count)
  /// best-first.
  Result<std::vector<Tuple>> Leaderboard(const std::string& which) const;
  Result<int64_t> TotalValidVotes() const;
  Result<int64_t> ActiveContestants() const;
  Result<int64_t> VoteCount(int64_t contestant) const;

  const VoterConfig& config() const { return config_; }

 private:
  Status SetupTables();
  Status SetupSStoreProcs();
  Status SetupHStoreProcs();

  SStore* store_;
  VoterConfig config_;
  std::unique_ptr<StreamInjector> injector_;
  std::atomic<int64_t> next_hstore_batch_{1};
};

}  // namespace sstore

#endif  // SSTORE_WORKLOADS_VOTER_H_
