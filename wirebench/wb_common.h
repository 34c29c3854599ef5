// Shared pieces of the wire benchmark: the seeded request generator, the
// outcome classification behind failed requests, exact percentiles, the
// open-loop due-time schedule, the server host built from public APIs, and
// the one-thread load generator that speaks the wire protocol over
// non-blocking sockets. wb_server, wb_gen, wb_trace and wb_selftest are thin
// mains over this file.
#ifndef WIREBENCH_WB_COMMON_H_
#define WIREBENCH_WB_COMMON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/bytes.h"
#include "common/rng.h"
#include "common/status.h"
#include "server/wire_protocol.h"
#include "server/wire_server.h"
#include "workloads/voter.h"
#include "workloads/voter_cluster.h"

namespace wb {

using sstore::Result;
using sstore::Status;

int64_t NowNs();

/// Refuses anything but an optimized Release build: numbers from a debug
/// or unoptimized build are not comparable. Returns the reason on refusal.
Status CheckReleaseBuild();

// ---- Workloads ---------------------------------------------------------

enum class WorkloadKind { kVoteWire, kVoteDurable, kLeaderboardWire };

Result<WorkloadKind> ParseWorkload(const std::string& name);
const char* WorkloadName(WorkloadKind kind);
bool IsLeaderboard(WorkloadKind kind);

/// Every workload runs 64 contestants (the value server_voter ships).
constexpr int64_t kContestants = 64;
/// Vote workloads: seeded votes per contestant.
constexpr int64_t kInitialVotes = 1000;
/// Leaderboard: contestants 0..kReserved-1 never receive a valid vote, so
/// the lowest-contestant removal (every kDeleteEvery valid votes, lowest
/// count first, ties by id) always takes one of them and no valid vote ever
/// targets a removed contestant. The mix stays stationary for the run.
constexpr int64_t kReserved = 8;
constexpr int64_t kDeleteEvery = 100000;
/// Partitions per workload: vote_* shard over 2, the leaderboard's
/// workflow lives on 1.
int PartitionsFor(WorkloadKind kind);

/// One generated request: what the generator expects of it.
struct Request {
  int64_t contestant = 0;
  int64_t phone = 0;      // leaderboard only
  int64_t batch_id = 0;   // leaderboard only: strictly increasing
  bool valid = true;      // false: the generator expects an abort
};

/// Seeded request stream. Vote workloads: vc_vote for a uniform contestant,
/// 1% for an unknown contestant (an expected abort). Leaderboard: validate
/// with a fresh phone for a contestant drawn with weight (i+1) over the
/// non-reserved ids, 2% invalid (half a repeated phone, half an unknown
/// contestant), batch ids 1, 2, 3, ...
class RequestGen {
 public:
  RequestGen(WorkloadKind kind, uint64_t seed);
  Request Next();
  /// Appends one complete kSubmit frame for `req`.
  void Encode(const Request& req, uint64_t request_id,
              sstore::ByteWriter* out) const;
  /// The same request as an in-process invocation.
  sstore::Invocation ToInvocation(const Request& req) const;

 private:
  WorkloadKind kind_;
  sstore::Rng rng_;
  int64_t next_phone_ = 5'000'000;
  int64_t last_valid_phone_ = 0;
  int64_t next_batch_ = 1;
};

// ---- Outcomes ----------------------------------------------------------

enum class Outcome {
  kCommitted,        // valid request, committed
  kExpectedAbort,    // generator-marked invalid, aborted: a correct outcome
  kUnexpectedAbort,  // valid request, aborted
  kWrongCommit,      // invalid request, committed: an output error
  kBusy,             // shed by admission control
  kTransport,        // connection failed before a response arrived
};

/// `resp` null means the request's connection failed (transport).
Outcome Classify(const sstore::WireResponse* resp, bool valid);
/// Whether the outcome counts in failed_ratio.
bool CountsAsFailed(Outcome outcome);
/// Whether the outcome breaks an output check.
bool BreaksOutput(Outcome outcome);

// ---- Statistics --------------------------------------------------------

/// Exact percentile with linear interpolation between closest ranks
/// (numpy's default). `p` in [0, 100]. Sorts `*values`. NaN when empty.
double Percentile(std::vector<double>* values, double p);

/// Median of integer-microsecond samples read as grouped data: a value v
/// covers [v - 0.5, v + 0.5) and the median is interpolated inside its
/// group, so a stage that takes 2-3 us does not read as a flat "2".
double GroupedMedian(std::vector<int64_t> values);

// ---- Open-loop schedule ------------------------------------------------

/// Request i is due at start + i / rate. Lateness is the generator's own
/// scheduling slack: when the loop first sees a request due, how long ago
/// that was. A stall of the loop shows here; a server that answers slowly
/// does not (that shows in latency, which is timed from the due time).
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(int64_t start_ns, double rate_per_s, uint64_t count);
  int64_t DueNs(uint64_t i) const;
  uint64_t count() const { return count_; }
  /// Returns how many requests are newly due at `now_ns` (from *next_),
  /// advancing it, and folds the lateness of the first of them into
  /// late_ns_max().
  uint64_t TakeDue(int64_t now_ns, uint64_t* next);
  int64_t late_ns_max() const { return late_ns_max_; }

 private:
  int64_t start_ns_;
  double interval_ns_;
  uint64_t count_;
  int64_t late_ns_max_ = 0;
};

// ---- Server host -------------------------------------------------------

struct HostOptions {
  WorkloadKind kind = WorkloadKind::kVoteWire;
  /// Scratch directory for vote_durable's log and checkpoint.
  std::string dir;
  uint32_t latency_sample_every = 64;
  uint32_t trace_sample_every = 32;
  size_t trace_ring_capacity = 4096;
};

/// The benchmark's server: a Cluster with the workload deployed, started,
/// (vote_durable: an initial checkpoint cut) and a WireServer listening on
/// an ephemeral loopback port with one I/O thread. Public APIs only.
class ServerHost {
 public:
  explicit ServerHost(HostOptions options);
  ~ServerHost();
  ServerHost(const ServerHost&) = delete;
  ServerHost& operator=(const ServerHost&) = delete;

  /// Makes the scratch directories, constructs the cluster and deploys the
  /// workload, without starting anything (the inline baseline stops here).
  Status Prepare();
  /// Prepare(), start the workers, cut vote_durable's initial checkpoint,
  /// start the WireServer.
  Status Start();
  /// Drain-and-stop the WireServer and wait until the cluster is idle.
  void StopServing();
  uint16_t port() const { return server_ ? server_->port() : 0; }
  sstore::Cluster& cluster() { return *cluster_; }
  sstore::WireServer& server() { return *server_; }
  const HostOptions& options() const { return options_; }
  std::string log_dir() const { return options_.dir + "/log"; }
  std::string checkpoint_dir() const { return options_.dir + "/ckpt"; }
  sstore::Cluster::Options cluster_options() const;

  /// Output-check inputs, read from an idle cluster. Committed vote count
  /// per contestant (vote_*: the owner's count minus the seed; leaderboard:
  /// VoteCount), as a JSON object with the workload's check fields.
  std::string ReportJson();

  /// vote_durable: recovers the checkpoint + log into a fresh cluster and
  /// returns the recovered per-contestant vote deltas (size kContestants).
  /// Sets *replay_s to the Recover call's duration.
  Result<std::vector<int64_t>> RecoverVotes(double* replay_s) const;

 private:
  HostOptions options_;
  std::unique_ptr<sstore::Cluster> cluster_;
  std::unique_ptr<sstore::VoterApp> voter_app_;  // leaderboard only
  std::unique_ptr<sstore::WireServer> server_;
};

/// Peak resident set of this process (VmHWM) in KiB, 0 if unreadable.
int64_t PeakRssKb();

// ---- Load generator ----------------------------------------------------

/// Client-side in-flight cap per connection, below WireServer's 1024-frame
/// cap: an open-loop request due on a full connection waits (its latency
/// still counts from its due time) instead of being shed with kBusy.
constexpr uint64_t kConnCap = 768;
/// Open loop: a phase whose generator ran later than this fails instead of
/// reporting numbers (run.py then checks the round's outputs and discards
/// its metrics). Healthy runs on the
/// 4-vCPU reference VM see 2-15 ms, up to ~50 ms on a contended host.
constexpr double kLateLimitMs = 50;

struct GenConfig {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  WorkloadKind kind = WorkloadKind::kVoteWire;
  uint64_t seed = 1;
  int connections = 4;
  /// Closed loop: requests in flight over all connections.
  int window = 256;
  /// Record per-request client spans (the traced run).
  bool record_spans = false;
};

/// Client-side stages of one request, in nanoseconds on NowNs().
struct ClientSpan {
  uint64_t request_id = 0;
  int64_t contestant = 0;
  int64_t txn_id = 0;
  bool committed = false;
  int64_t encode_ns = 0;
  int64_t send_ns = 0;     // the send() call that carried the frame
  int64_t decode_ns = 0;
  int64_t e2e_ns = 0;      // encode start -> response decoded
};

struct PhaseResult {
  std::string name;
  double seconds = 0;
  uint64_t issued = 0;
  uint64_t committed = 0;
  uint64_t expected_aborts = 0;
  uint64_t busy = 0;
  uint64_t transport = 0;
  uint64_t unexpected_aborts = 0;
  uint64_t wrong_commits = 0;
  /// The measured window: closed loop up to the drain, open loop the
  /// recorded part of the schedule. Bins below split it.
  int64_t start_ns = 0;
  double window_s = 0;
  /// Closed loop: send -> response. Open loop: due -> response.
  std::vector<double> latency_us;
  /// Parallel to latency_us: when the request was due (sent), seconds
  /// since start_ns.
  std::vector<float> due_s;
  /// When each commit was acknowledged, seconds since start_ns.
  std::vector<float> commit_s;
  double late_us_max = 0;
  /// kStats counter deltas over the phase (closed loop only).
  std::map<std::string, double> counters;
  uint64_t failed() const { return busy + transport + unexpected_aborts; }
};

using StatsMap = std::map<std::string, double>;

class LoadGen {
 public:
  explicit LoadGen(GenConfig config);
  ~LoadGen();
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Opens every connection (non-blocking, TCP_NODELAY).
  Status Connect();
  /// Closes every connection. A host stopping its WireServer waits for
  /// peers to hang up, so close before stopping an in-process server.
  void Close();
  /// Pings on connection 0 and returns NowNs() when the pong arrived.
  Result<int64_t> Ping();
  /// One kStats round trip on connection 0, parsed into name -> value.
  Result<StatsMap> FetchStats();
  /// Polls kStats until the server reports an empty queue.
  Status WaitServerIdle();

  /// Closed loop with `window` requests in flight for `seconds`, then a
  /// drain: the phase ends once every response is in and the server
  /// reports an empty queue. Fills counters with the kStats deltas.
  Status ClosedLoop(const std::string& name, double seconds, PhaseResult* out);
  /// Open loop at `rate` per second: `warm_s` unrecorded, then `seconds`
  /// recorded; latency from each request's due time. If the generator runs
  /// later than kLateLimitMs it stops issuing, drains what is in flight,
  /// waits for an empty server queue and fails with kUnavailable.
  Status OpenLoop(const std::string& name, double rate, double warm_s,
                  double seconds, PhaseResult* out);

  // Session totals over every phase run so far.
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  uint64_t output_errors() const { return output_errors_; }
  uint64_t acked_commits() const { return acked_commits_; }
  /// Acknowledged commits per contestant id in [0, kContestants).
  const std::vector<int64_t>& acked_per_contestant() const {
    return acked_per_contestant_;
  }
  const std::vector<ClientSpan>& spans() const { return spans_; }
  void ClearSpans() { spans_.clear(); }

 private:
  struct Conn;
  struct Slot;

  void Issue(size_t conn, int64_t due_ns);
  Status FlushAll();
  /// Waits up to `timeout_ns` (0: poll) for readable connections and
  /// handles every complete response.
  Status Pump(int64_t timeout_ns);
  Status HandleFrame(size_t conn, const uint8_t* payload, size_t len);
  Status Drain();
  /// Pumps until the pending kPong / kStats answer arrives.
  Status AwaitControl();

  GenConfig config_;
  RequestGen requests_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<Slot> slots_;
  uint64_t next_id_ = 1;
  uint64_t outstanding_ = 0;
  PhaseResult* phase_ = nullptr;
  bool record_latency_ = false;
  bool refill_ = false;  // closed loop: answer each response with a request
  std::vector<size_t> refill_conns_;
  // Control requests (kPing / kStats) go out on connection 0 with ids from
  // a range no submit reaches.
  static constexpr uint64_t kControlIdBase = uint64_t{1} << 62;
  uint64_t next_control_id_ = kControlIdBase;
  bool control_done_ = false;
  int64_t control_ns_ = 0;
  std::string control_text_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t output_errors_ = 0;
  uint64_t acked_commits_ = 0;
  std::vector<int64_t> acked_per_contestant_;
  std::vector<ClientSpan> spans_;
};

// ---- Output helpers ----------------------------------------------------

/// Minimal JSON object writer for the programs' one-line reports.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value);
  JsonObject& Int(const std::string& key, int64_t value);
  JsonObject& Str(const std::string& key, const std::string& value);
  JsonObject& Bool(const std::string& key, bool value);
  JsonObject& Raw(const std::string& key, const std::string& json);
  JsonObject& IntArray(const std::string& key,
                       const std::vector<int64_t>& values);
  std::string str() const { return "{" + body_ + "}"; }

 private:
  void Key(const std::string& key);
  std::string body_;
};

std::string JsonEscape(const std::string& s);

/// Steadier reading of a phase: split the window into equal bins of about
/// `bin_s` seconds (at least one) and take the median over bins of the
/// per-bin commit rate and of the per-bin p50 / p90 latency (bins with
/// fewer than 100 samples are skipped; NaN when every bin is). A transient
/// stall of the shared host moves one or two bins, not the median. When
/// `seconds` runs past the window (the closed loop's drain to an empty
/// queue), the last bin's rate covers the drain too.
struct BinnedSummary {
  int bins = 0;
  double tps = 0;
  double p50_us = 0;
  double p90_us = 0;
  /// Per-bin figures, in bin order (latency bins with too few samples are
  /// left out).
  std::vector<double> bin_tps;
  std::vector<double> bin_p50_us;
};
BinnedSummary SummarizeBins(const PhaseResult& phase, double bin_s);
constexpr double kBinSeconds = 0.25;

/// Phase summary (counts, throughput or latency percentiles, sample count,
/// and the binned medians).
std::string PhaseJson(PhaseResult* phase);

/// Parses `--key value` pairs; returns false on a stray argument.
bool ParseFlags(int argc, char** argv, std::map<std::string, std::string>* out);

}  // namespace wb

#endif  // WIREBENCH_WB_COMMON_H_
