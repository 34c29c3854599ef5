#include "wb_common.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <arpa/inet.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <thread>

#include "obs/metrics.h"

namespace wb {

using sstore::ByteWriter;
using sstore::Cluster;
using sstore::StatusCode;
using sstore::Value;
using sstore::WireResponse;
using sstore::WireResponseType;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Status CheckReleaseBuild() {
#ifndef NDEBUG
  return Status::InvalidArgument("assertions are enabled (NDEBUG unset)");
#else
  if (std::string(WB_BUILD_TYPE) != "Release") {
    return Status::InvalidArgument(std::string("build type is '") +
                                   WB_BUILD_TYPE + "', not Release");
  }
  return Status::OK();
#endif
}

// ---- Workloads ---------------------------------------------------------

Result<WorkloadKind> ParseWorkload(const std::string& name) {
  if (name == "vote_wire") return WorkloadKind::kVoteWire;
  if (name == "vote_durable") return WorkloadKind::kVoteDurable;
  if (name == "leaderboard_wire") return WorkloadKind::kLeaderboardWire;
  return Status::InvalidArgument("unknown workload '" + name + "'");
}

const char* WorkloadName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kVoteWire:
      return "vote_wire";
    case WorkloadKind::kVoteDurable:
      return "vote_durable";
    case WorkloadKind::kLeaderboardWire:
      return "leaderboard_wire";
  }
  return "?";
}

bool IsLeaderboard(WorkloadKind kind) {
  return kind == WorkloadKind::kLeaderboardWire;
}

int PartitionsFor(WorkloadKind kind) { return IsLeaderboard(kind) ? 1 : 2; }

RequestGen::RequestGen(WorkloadKind kind, uint64_t seed)
    : kind_(kind), rng_(seed * 0x9e3779b97f4a7c15ull + 17) {}

Request RequestGen::Next() {
  Request req;
  if (!IsLeaderboard(kind_)) {
    req.valid = !rng_.NextBool(0.01);
    req.contestant = req.valid ? rng_.NextRange(0, kContestants - 1)
                               : kContestants + rng_.NextRange(0, 63);
    return req;
  }
  req.batch_id = next_batch_++;
  // Skewed popularity over the voted ids: kReserved + i with weight i + 1.
  const int64_t voted = kContestants - kReserved;
  int64_t r = rng_.NextRange(1, voted * (voted + 1) / 2);
  int64_t pick = 0;
  for (int64_t cumulative = 0; pick < voted; ++pick) {
    cumulative += pick + 1;
    if (r <= cumulative) break;
  }
  req.contestant = kReserved + pick;
  if (rng_.NextBool(0.02)) {
    req.valid = false;
    if (last_valid_phone_ != 0 && rng_.NextBool(0.5)) {
      req.phone = last_valid_phone_;  // re-vote: the unique phone index
    } else {
      req.phone = next_phone_++;
      req.contestant = kContestants + 7;  // unknown contestant
    }
    return req;
  }
  req.phone = next_phone_++;
  last_valid_phone_ = req.phone;
  return req;
}

sstore::Invocation RequestGen::ToInvocation(const Request& req) const {
  if (!IsLeaderboard(kind_)) {
    return sstore::Invocation{"vc_vote", {Value::BigInt(req.contestant)}, 0};
  }
  return sstore::Invocation{
      "validate",
      {Value::BigInt(req.phone), Value::BigInt(req.contestant),
       Value::Timestamp(req.batch_id * 100)},
      req.batch_id};
}

void RequestGen::Encode(const Request& req, uint64_t request_id,
                        ByteWriter* out) const {
  const sstore::Invocation inv = ToInvocation(req);
  // Votes route by contestant; the leaderboard's validate by batch id.
  const Value key = Value::BigInt(req.contestant);
  sstore::EncodeSubmit(out, request_id, inv.proc, inv.params,
                       IsLeaderboard(kind_) ? nullptr : &key, inv.batch_id);
}

// ---- Outcomes ----------------------------------------------------------

Outcome Classify(const WireResponse* resp, bool valid) {
  if (resp == nullptr) return Outcome::kTransport;
  if (resp->type == WireResponseType::kBusy) return Outcome::kBusy;
  if (resp->type != WireResponseType::kResult) return Outcome::kTransport;
  if (resp->status.ok()) {
    return valid ? Outcome::kCommitted : Outcome::kWrongCommit;
  }
  return valid ? Outcome::kUnexpectedAbort : Outcome::kExpectedAbort;
}

bool CountsAsFailed(Outcome outcome) {
  return outcome == Outcome::kBusy || outcome == Outcome::kTransport ||
         outcome == Outcome::kUnexpectedAbort;
}

bool BreaksOutput(Outcome outcome) {
  return outcome == Outcome::kWrongCommit ||
         outcome == Outcome::kUnexpectedAbort;
}

// ---- Statistics --------------------------------------------------------

double Percentile(std::vector<double>* values, double p) {
  if (values->empty()) return std::nan("");
  std::sort(values->begin(), values->end());
  double rank = p / 100.0 * static_cast<double>(values->size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, values->size() - 1);
  double frac = rank - static_cast<double>(lo);
  return (*values)[lo] + frac * ((*values)[hi] - (*values)[lo]);
}

double GroupedMedian(std::vector<int64_t> values) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const double half = static_cast<double>(values.size()) / 2.0;
  const int64_t v = values[values.size() / 2];
  auto range = std::equal_range(values.begin(), values.end(), v);
  double below = static_cast<double>(range.first - values.begin());
  double in_group = static_cast<double>(range.second - range.first);
  return static_cast<double>(v) - 0.5 + (half - below) / in_group;
}

// ---- Open-loop schedule ------------------------------------------------

OpenLoopSchedule::OpenLoopSchedule(int64_t start_ns, double rate_per_s,
                                   uint64_t count)
    : start_ns_(start_ns), interval_ns_(1e9 / rate_per_s), count_(count) {}

int64_t OpenLoopSchedule::DueNs(uint64_t i) const {
  return start_ns_ +
         static_cast<int64_t>(static_cast<double>(i) * interval_ns_);
}

uint64_t OpenLoopSchedule::TakeDue(int64_t now_ns, uint64_t* next) {
  uint64_t first = *next;
  while (*next < count_ && DueNs(*next) <= now_ns) ++*next;
  if (*next > first) {
    late_ns_max_ = std::max(late_ns_max_, now_ns - DueNs(first));
  }
  return *next - first;
}

// ---- Server host -------------------------------------------------------

namespace {

Status MakeDirs(const std::string& path) {
  std::string partial;
  for (size_t i = 0; i <= path.size(); ++i) {
    if (i == path.size() || path[i] == '/') {
      if (!partial.empty() && ::mkdir(partial.c_str(), 0755) != 0 &&
          errno != EEXIST) {
        return Status::IOError("mkdir " + partial + ": " +
                               std::strerror(errno));
      }
    }
    if (i < path.size()) partial += path[i];
  }
  return Status::OK();
}

sstore::VoterConfig LeaderboardConfig() {
  sstore::VoterConfig config;
  config.num_contestants = kContestants;
  config.delete_every = kDeleteEvery;
  return config;
}

sstore::VoterClusterConfig VoteConfig() {
  return sstore::VoterClusterConfig{kContestants, kInitialVotes};
}

}  // namespace

ServerHost::ServerHost(HostOptions options) : options_(std::move(options)) {}

ServerHost::~ServerHost() {
  if (server_) server_->Stop();
  if (cluster_) cluster_->Stop();
}

Cluster::Options ServerHost::cluster_options() const {
  Cluster::Options o;
  o.num_partitions = PartitionsFor(options_.kind);
  if (options_.kind == WorkloadKind::kVoteDurable) {
    o.log_dir = log_dir();
    o.group_commit_size = 1;  // every ack follows its own fsync
    o.log_sync = true;
  }
  o.latency_sample_every = options_.latency_sample_every;
  o.trace_sample_every = options_.trace_sample_every;
  o.trace_ring_capacity = options_.trace_ring_capacity;
  return o;
}

Status ServerHost::Prepare() {
  const bool durable = options_.kind == WorkloadKind::kVoteDurable;
  if (durable) {
    if (options_.dir.empty()) {
      return Status::InvalidArgument("vote_durable needs a scratch --dir");
    }
    SSTORE_RETURN_NOT_OK(MakeDirs(log_dir()));
    SSTORE_RETURN_NOT_OK(MakeDirs(checkpoint_dir()));
  }
  cluster_ = std::make_unique<Cluster>(cluster_options());
  if (IsLeaderboard(options_.kind)) {
    voter_app_ = std::make_unique<sstore::VoterApp>(&cluster_->store(0),
                                                    LeaderboardConfig());
    SSTORE_RETURN_NOT_OK(voter_app_->Setup());
  } else {
    SSTORE_RETURN_NOT_OK(
        cluster_->Deploy(sstore::BuildVoterClusterDeployment(VoteConfig())));
  }
  return Status::OK();
}

Status ServerHost::Start() {
  SSTORE_RETURN_NOT_OK(Prepare());
  cluster_->Start();
  if (options_.kind == WorkloadKind::kVoteDurable) {
    SSTORE_RETURN_NOT_OK(cluster_->Checkpoint(checkpoint_dir()));
  }
  server_ = std::make_unique<sstore::WireServer>(cluster_.get(),
                                                 sstore::WireServer::Options{});
  return server_->Start();
}

void ServerHost::StopServing() {
  if (server_) server_->Stop();
  if (cluster_) cluster_->WaitIdle();
}

namespace {

std::string CountsJson(const std::vector<int64_t>& counts) {
  std::string out = "[";
  for (size_t i = 0; i < counts.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(counts[i]);
  }
  return out + "]";
}

std::string NumArrayJson(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.9g", i > 0 ? "," : "", values[i]);
    out += buf;
  }
  return out + "]";
}

}  // namespace

std::string ServerHost::ReportJson() {
  JsonObject report;
  std::vector<int64_t> counts(kContestants, 0);
  if (IsLeaderboard(options_.kind)) {
    Status err = Status::OK();
    for (int64_t c = 0; c < kContestants; ++c) {
      Result<int64_t> n = voter_app_->VoteCount(c);
      if (!n.ok()) err = n.status();
      counts[c] = n.ok() ? *n : -1;
    }
    Result<int64_t> total = voter_app_->TotalValidVotes();
    Result<int64_t> active = voter_app_->ActiveContestants();
    auto top = voter_app_->Leaderboard("top");
    std::string top_json = "[";
    if (top.ok()) {
      for (size_t i = 0; i < top->size(); ++i) {
        if (i > 0) top_json += ",";
        top_json += "[" + std::to_string((*top)[i][0].as_int64()) + "," +
                    std::to_string((*top)[i][1].as_int64()) + "]";
      }
    }
    top_json += "]";
    if (!total.ok()) err = total.status();
    if (!active.ok()) err = active.status();
    if (!top.ok()) err = top.status();
    report.Bool("read_ok", err.ok())
        .Str("read_error", err.ok() ? "" : err.ToString())
        .Int("total_valid_votes", total.ok() ? *total : -1)
        .Int("active_contestants", active.ok() ? *active : -1)
        .Int("contestants", kContestants)
        .Int("delete_every", kDeleteEvery)
        .Raw("top", top_json);
  } else {
    sstore::VoterClusterApp app(cluster_.get(), VoteConfig());
    Status inv = app.CheckInvariant();
    Status err = Status::OK();
    for (int64_t c = 0; c < kContestants; ++c) {
      Result<int64_t> n = app.Count(c);
      if (!n.ok()) err = n.status();
      counts[c] = n.ok() ? *n - kInitialVotes : -1;
    }
    report.Bool("read_ok", err.ok())
        .Str("read_error", err.ok() ? "" : err.ToString())
        .Bool("invariant_ok", inv.ok())
        .Str("invariant", inv.ok() ? "holds" : inv.ToString());
  }
  report.Raw("counts", CountsJson(counts));
  return report.str();
}

Result<std::vector<int64_t>> ServerHost::RecoverVotes(double* replay_s) const {
  Cluster::Options opts = cluster_options();
  opts.log_dir.clear();  // Recover replays; attaching logs would truncate
  Cluster recovered(opts);
  SSTORE_RETURN_NOT_OK(
      recovered.Deploy(sstore::BuildVoterClusterDeployment(VoteConfig())));
  int64_t t0 = NowNs();
  SSTORE_RETURN_NOT_OK(recovered.Recover(checkpoint_dir(), log_dir()));
  *replay_s = static_cast<double>(NowNs() - t0) / 1e9;
  sstore::VoterClusterApp app(&recovered, VoteConfig());
  SSTORE_RETURN_NOT_OK(app.CheckInvariant());
  std::vector<int64_t> counts(kContestants, 0);
  for (int64_t c = 0; c < kContestants; ++c) {
    SSTORE_ASSIGN_OR_RETURN(int64_t n, app.Count(c));
    counts[c] = n - kInitialVotes;
  }
  return counts;
}

int64_t PeakRssKb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atoll(line.c_str() + 6);
    }
  }
  return 0;
}

// ---- Load generator ----------------------------------------------------

namespace {

constexpr size_t kSlotBits = 17;
constexpr size_t kSlotMask = (size_t{1} << kSlotBits) - 1;

}  // namespace

struct LoadGen::Conn {
  int fd = -1;
  ByteWriter out;
  size_t out_off = 0;
  sstore::WireFrameBuffer in;
  uint64_t outstanding = 0;
  /// Open loop: due times (and whether recorded) waiting for a slot.
  std::deque<std::pair<int64_t, bool>> held;
  /// Traced run: slots whose frames sit in `out` unsent.
  std::vector<uint64_t> unsent_ids;
};

struct LoadGen::Slot {
  uint64_t id = 0;  // 0: free
  int64_t due_ns = 0;
  int64_t encode_start_ns = 0;
  int64_t encode_ns = 0;
  int64_t send_ns = 0;
  Request req;
  uint32_t conn = 0;
  bool record = false;
};

LoadGen::LoadGen(GenConfig config)
    : config_(std::move(config)),
      requests_(config_.kind, config_.seed),
      slots_(size_t{1} << kSlotBits),
      acked_per_contestant_(kContestants, 0) {}

LoadGen::~LoadGen() { Close(); }

void LoadGen::Close() {
  for (auto& conn : conns_) {
    if (conn->fd >= 0) ::close(conn->fd);
    conn->fd = -1;
  }
}

Status LoadGen::Connect() {
  for (int i = 0; i < config_.connections; ++i) {
    auto conn = std::make_unique<Conn>();
    conn->fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (conn->fd < 0) return Status::IOError("socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(config_.port);
    if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
      ::close(conn->fd);
      return Status::InvalidArgument("bad host " + config_.host);
    }
    if (::connect(conn->fd, reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      Status s = Status::IOError(std::string("connect: ") +
                                 std::strerror(errno));
      ::close(conn->fd);
      return s;
    }
    int one = 1;
    ::setsockopt(conn->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    int flags = ::fcntl(conn->fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(conn->fd, F_SETFL, flags | O_NONBLOCK) != 0) {
      ::close(conn->fd);
      return Status::IOError("fcntl O_NONBLOCK failed");
    }
    conns_.push_back(std::move(conn));
  }
  return Status::OK();
}

void LoadGen::Issue(size_t c, int64_t due_ns) {
  Conn& conn = *conns_[c];
  Request req = requests_.Next();
  uint64_t id = next_id_++;
  Slot& slot = slots_[id & kSlotMask];
  // The ring holds far more ids than can be in flight (connections x cap);
  // a live slot here means a response went missing.
  if (slot.id != 0) {
    std::fprintf(stderr, "request slot %llu still in flight\n",
                 static_cast<unsigned long long>(slot.id));
    std::abort();
  }
  slot.id = id;
  slot.due_ns = due_ns;
  slot.req = req;
  slot.conn = static_cast<uint32_t>(c);
  slot.record = record_latency_;
  slot.encode_start_ns = NowNs();
  requests_.Encode(req, id, &conn.out);
  if (config_.record_spans) {
    slot.encode_ns = NowNs() - slot.encode_start_ns;
    conn.unsent_ids.push_back(id);
  }
  ++conn.outstanding;
  ++outstanding_;
  ++attempted_;
  if (phase_ != nullptr) ++phase_->issued;
}

Status LoadGen::FlushAll() {
  for (auto& conn_ptr : conns_) {
    Conn& conn = *conn_ptr;
    const std::vector<uint8_t>& buf = conn.out.data();
    while (conn.out_off < buf.size()) {
      int64_t t0 = config_.record_spans ? NowNs() : 0;
      ssize_t n = ::send(conn.fd, buf.data() + conn.out_off,
                         buf.size() - conn.out_off, MSG_NOSIGNAL);
      if (n > 0) {
        conn.out_off += static_cast<size_t>(n);
        if (config_.record_spans && conn.out_off == buf.size()) {
          int64_t took = NowNs() - t0;
          for (uint64_t id : conn.unsent_ids) {
            slots_[id & kSlotMask].send_ns = took;
          }
          conn.unsent_ids.clear();
        }
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      return Status::IOError(std::string("send: ") + std::strerror(errno));
    }
    if (conn.out_off == buf.size() && conn.out_off > 0) {
      conn.out.Clear();
      conn.out_off = 0;
    }
  }
  return Status::OK();
}

Status LoadGen::Pump(int64_t timeout_ns) {
  std::vector<pollfd> fds(conns_.size());
  for (size_t i = 0; i < conns_.size(); ++i) {
    fds[i].fd = conns_[i]->fd;
    fds[i].events = POLLIN;
    if (conns_[i]->out_off < conns_[i]->out.size()) fds[i].events |= POLLOUT;
  }
  timespec ts{static_cast<time_t>(timeout_ns / 1000000000),
              static_cast<long>(timeout_ns % 1000000000)};
  int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
  if (ready < 0) {
    if (errno == EINTR) return Status::OK();
    return Status::IOError(std::string("ppoll: ") + std::strerror(errno));
  }
  if (ready == 0) return Status::OK();
  static thread_local std::vector<uint8_t> buf(256 * 1024);
  for (size_t i = 0; i < conns_.size(); ++i) {
    if (fds[i].revents & POLLOUT) SSTORE_RETURN_NOT_OK(FlushAll());
    if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    Conn& conn = *conns_[i];
    for (;;) {
      ssize_t n = ::recv(conn.fd, buf.data(), buf.size(), 0);
      if (n > 0) {
        conn.in.Feed(buf.data(), static_cast<size_t>(n));
        for (;;) {
          const uint8_t* payload = nullptr;
          size_t len = 0;
          SSTORE_ASSIGN_OR_RETURN(bool got, conn.in.Next(&payload, &len));
          if (!got) break;
          SSTORE_RETURN_NOT_OK(HandleFrame(i, payload, len));
        }
        if (static_cast<size_t>(n) < buf.size()) break;
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      // EOF or error: every request still in flight on it is lost.
      uint64_t lost = conn.outstanding;
      if (phase_ != nullptr) phase_->transport += lost;
      failed_ += lost;
      return Status::IOError("connection " + std::to_string(i) +
                             " closed with " + std::to_string(lost) +
                             " requests in flight");
    }
  }
  return Status::OK();
}

Status LoadGen::HandleFrame(size_t c, const uint8_t* payload, size_t len) {
  int64_t decode_start = config_.record_spans ? NowNs() : 0;
  WireResponse resp;
  SSTORE_RETURN_NOT_OK(sstore::DecodeResponse(payload, len, &resp));
  int64_t now = NowNs();
  if (resp.request_id >= kControlIdBase) {
    control_done_ = true;
    control_ns_ = now;
    control_text_ = std::move(resp.stats_text);
    return Status::OK();
  }
  if (resp.type == WireResponseType::kError) {
    return Status::Internal("server protocol error: " + resp.status.ToString());
  }
  Slot& slot = slots_[resp.request_id & kSlotMask];
  if (slot.id != resp.request_id) {
    return Status::Internal("response for unknown request id " +
                            std::to_string(resp.request_id));
  }
  Outcome outcome = Classify(&resp, slot.req.valid);
  Conn& conn = *conns_[slot.conn];
  --conn.outstanding;
  --outstanding_;
  if (CountsAsFailed(outcome)) ++failed_;
  if (BreaksOutput(outcome)) ++output_errors_;
  if (outcome == Outcome::kCommitted) {
    ++acked_commits_;
    if (slot.req.contestant >= 0 && slot.req.contestant < kContestants) {
      ++acked_per_contestant_[slot.req.contestant];
    }
  }
  if (phase_ != nullptr) {
    switch (outcome) {
      case Outcome::kCommitted: ++phase_->committed; break;
      case Outcome::kExpectedAbort: ++phase_->expected_aborts; break;
      case Outcome::kUnexpectedAbort: ++phase_->unexpected_aborts; break;
      case Outcome::kWrongCommit: ++phase_->wrong_commits; break;
      case Outcome::kBusy: ++phase_->busy; break;
      case Outcome::kTransport: ++phase_->transport; break;
    }
    if (slot.record) {
      phase_->latency_us.push_back(static_cast<double>(now - slot.due_ns) /
                                   1e3);
      phase_->due_s.push_back(
          static_cast<float>((slot.due_ns - phase_->start_ns) / 1e9));
    }
    if (outcome == Outcome::kCommitted) {
      phase_->commit_s.push_back(
          static_cast<float>((now - phase_->start_ns) / 1e9));
    }
  }
  if (config_.record_spans && slot.record) {
    ClientSpan span;
    span.request_id = slot.id;
    span.contestant = slot.req.contestant;
    span.txn_id = resp.txn_id;
    span.committed = outcome == Outcome::kCommitted;
    span.encode_ns = slot.encode_ns;
    span.send_ns = slot.send_ns;
    span.decode_ns = now - decode_start;
    span.e2e_ns = now - slot.encode_start_ns;
    spans_.push_back(span);
  }
  slot.id = 0;
  if (refill_) refill_conns_.push_back(c);
  return Status::OK();
}

Status LoadGen::Drain() {
  int64_t deadline = NowNs() + int64_t{30} * 1000000000;
  while (outstanding_ > 0) {
    SSTORE_RETURN_NOT_OK(FlushAll());
    SSTORE_RETURN_NOT_OK(Pump(1000000));
    if (NowNs() > deadline) {
      return Status::Internal(std::to_string(outstanding_) +
                              " responses missing after 30 s");
    }
  }
  return Status::OK();
}

Status LoadGen::AwaitControl() {
  const int64_t deadline = NowNs() + int64_t{10} * 1000000000;
  while (!control_done_) {
    if (NowNs() > deadline) {
      return Status::Internal("no control response within 10 s");
    }
    SSTORE_RETURN_NOT_OK(Pump(1000000));
  }
  return Status::OK();
}

Result<int64_t> LoadGen::Ping() {
  control_done_ = false;
  sstore::EncodePing(&conns_[0]->out, next_control_id_++);
  SSTORE_RETURN_NOT_OK(FlushAll());
  SSTORE_RETURN_NOT_OK(AwaitControl());
  return control_ns_;
}

Result<StatsMap> LoadGen::FetchStats() {
  control_done_ = false;
  sstore::EncodeStatsRequest(&conns_[0]->out, next_control_id_++);
  SSTORE_RETURN_NOT_OK(FlushAll());
  SSTORE_RETURN_NOT_OK(AwaitControl());
  StatsMap out;
  for (auto& [name, value] : sstore::ParseMetricsText(control_text_)) {
    out[name] = value;
  }
  return out;
}

Status LoadGen::WaitServerIdle() {
  int64_t deadline = NowNs() + int64_t{30} * 1000000000;
  for (;;) {
    SSTORE_ASSIGN_OR_RETURN(StatsMap stats, FetchStats());
    auto it = stats.find("sstore_queue_depth");
    if (it == stats.end()) {
      return Status::Internal("kStats has no sstore_queue_depth");
    }
    if (it->second == 0) return Status::OK();
    if (NowNs() > deadline) {
      return Status::Internal("server queue not empty after 30 s");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

Status LoadGen::ClosedLoop(const std::string& name, double seconds,
                           PhaseResult* out) {
  out->name = name;
  SSTORE_ASSIGN_OR_RETURN(StatsMap before, FetchStats());
  phase_ = out;
  record_latency_ = true;
  const int64_t t0 = NowNs();
  const int64_t stop_at = t0 + static_cast<int64_t>(seconds * 1e9);
  out->start_ns = t0;
  out->window_s = seconds;
  const size_t n = conns_.size();
  for (int i = 0; i < config_.window; ++i) Issue(i % n, NowNs());
  refill_ = true;
  Status status = FlushAll();
  while (status.ok() && NowNs() < stop_at) {
    status = Pump(1000000);
    if (!status.ok()) break;
    for (size_t c : refill_conns_) Issue(c, NowNs());
    refill_conns_.clear();
    status = FlushAll();
  }
  refill_ = false;
  refill_conns_.clear();
  if (status.ok()) status = Drain();
  if (status.ok()) status = WaitServerIdle();
  const int64_t t1 = NowNs();
  phase_ = nullptr;
  record_latency_ = false;
  SSTORE_RETURN_NOT_OK(status);
  out->seconds = static_cast<double>(t1 - t0) / 1e9;
  SSTORE_ASSIGN_OR_RETURN(StatsMap after, FetchStats());
  for (const auto& [key, value] : after) {
    auto it = before.find(key);
    out->counters[key] = value - (it == before.end() ? 0.0 : it->second);
  }
  return Status::OK();
}

Status LoadGen::OpenLoop(const std::string& name, double rate, double warm_s,
                         double seconds, PhaseResult* out) {
  out->name = name;
  const uint64_t warm_n = static_cast<uint64_t>(std::llround(rate * warm_s));
  const uint64_t total =
      warm_n + static_cast<uint64_t>(std::llround(rate * seconds));
  OpenLoopSchedule schedule(NowNs() + 1000000, rate, total);
  const size_t n = conns_.size();
  const uint64_t cap = kConnCap;
  const int64_t late_limit_ns = static_cast<int64_t>(kLateLimitMs * 1e6);
  const int64_t give_up =
      schedule.DueNs(total) + int64_t{30} * 1000000000;
  // Sized up front: growing these mid-phase stalls the loop for ms.
  out->latency_us.reserve(total);
  out->due_s.reserve(total);
  out->commit_s.reserve(total);
  phase_ = out;
  out->start_ns = schedule.DueNs(warm_n);
  out->window_s = seconds;
  uint64_t next = 0;
  uint64_t held = 0;
  Status status = Status::OK();
  Status late = Status::OK();
  while (status.ok()) {
    const int64_t now = NowNs();
    uint64_t first = next;
    uint64_t due = schedule.TakeDue(now, &next);
    for (uint64_t k = first; k < first + due; ++k) {
      size_t c = k % n;
      record_latency_ = k >= warm_n;
      if (conns_[c]->outstanding < cap && conns_[c]->held.empty()) {
        Issue(c, schedule.DueNs(k));
      } else {
        conns_[c]->held.emplace_back(schedule.DueNs(k), record_latency_);
        ++held;
      }
    }
    if (schedule.late_ns_max() > late_limit_ns) {
      late = Status::Unavailable(
          "generator ran " + std::to_string(schedule.late_ns_max() / 1000) +
          " us late, over the " + std::to_string(kLateLimitMs) +
          " ms limit");
      // Issue nothing more, but let what is in flight finish, so the
      // session's output checks still hold on this round.
      for (auto& conn : conns_) conn->held.clear();
      held = 0;
      status = Drain();
      break;
    }
    status = FlushAll();
    if (!status.ok()) break;
    if (next >= total && outstanding_ == 0 && held == 0) break;
    if (now > give_up) {
      status = Status::Internal("open loop did not finish");
      break;
    }
    // Spin while the schedule has requests left; then wait for the tail.
    status = Pump(next < total ? 0 : 1000000);
    for (size_t c = 0; c < n && held > 0; ++c) {
      Conn& conn = *conns_[c];
      while (!conn.held.empty() && conn.outstanding < cap) {
        record_latency_ = conn.held.front().second;
        Issue(c, conn.held.front().first);
        conn.held.pop_front();
        --held;
      }
    }
  }
  phase_ = nullptr;
  record_latency_ = false;
  out->late_us_max = static_cast<double>(schedule.late_ns_max()) / 1e3;
  out->seconds = seconds;
  SSTORE_RETURN_NOT_OK(status);
  SSTORE_RETURN_NOT_OK(WaitServerIdle());
  return late;
}

// ---- Output helpers ----------------------------------------------------

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

void JsonObject::Key(const std::string& key) {
  if (!body_.empty()) body_ += ",";
  body_ += "\"" + JsonEscape(key) + "\":";
}

JsonObject& JsonObject::Num(const std::string& key, double value) {
  Key(key);
  if (!std::isfinite(value)) {
    body_ += "null";
  } else {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    body_ += buf;
  }
  return *this;
}

JsonObject& JsonObject::Int(const std::string& key, int64_t value) {
  Key(key);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::Str(const std::string& key, const std::string& value) {
  Key(key);
  body_ += "\"" + JsonEscape(value) + "\"";
  return *this;
}

JsonObject& JsonObject::Bool(const std::string& key, bool value) {
  Key(key);
  body_ += value ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::Raw(const std::string& key, const std::string& json) {
  Key(key);
  body_ += json;
  return *this;
}

JsonObject& JsonObject::IntArray(const std::string& key,
                                 const std::vector<int64_t>& values) {
  return Raw(key, CountsJson(values));
}

BinnedSummary SummarizeBins(const PhaseResult& phase, double bin_s) {
  BinnedSummary out;
  // Equal bins spanning the whole window, about bin_s each, at least one.
  const int nbins =
      std::max(1, static_cast<int>(std::lround(phase.window_s / bin_s)));
  const double width = phase.window_s / nbins;
  if (width <= 0) return out;
  auto bin_of = [&](float t) {
    return t < 0 ? -1 : std::min(nbins - 1, static_cast<int>(t / width));
  };
  // The closed loop's last bin runs on to the drained queue (phase.seconds),
  // so the commits of the drain count too.
  const double end_s = std::max(phase.window_s, phase.seconds);
  std::vector<double> commits(nbins, 0.0);
  for (float t : phase.commit_s) {
    if (t < end_s && bin_of(t) >= 0) commits[bin_of(t)] += 1;
  }
  std::vector<std::vector<double>> lat(nbins);
  for (size_t i = 0; i < phase.latency_us.size(); ++i) {
    float t = phase.due_s[i];
    if (t < phase.window_s && bin_of(t) >= 0) {
      lat[bin_of(t)].push_back(phase.latency_us[i]);
    }
  }
  std::vector<double> rates, p50s, p90s;
  for (int b = 0; b < nbins; ++b) {
    rates.push_back(commits[b] / (b + 1 < nbins ? width : end_s - b * width));
    if (lat[b].size() < 100) continue;
    p50s.push_back(Percentile(&lat[b], 50));
    p90s.push_back(Percentile(&lat[b], 90));
  }
  out.bins = nbins;
  out.bin_tps = rates;
  out.bin_p50_us = p50s;
  out.tps = Percentile(&rates, 50);
  out.p50_us = Percentile(&p50s, 50);
  out.p90_us = Percentile(&p90s, 50);
  return out;
}

std::string PhaseJson(PhaseResult* phase) {
  BinnedSummary binned = SummarizeBins(*phase, kBinSeconds);
  JsonObject o;
  o.Str("name", phase->name)
      .Num("seconds", phase->seconds)
      .Int("issued", static_cast<int64_t>(phase->issued))
      .Int("committed", static_cast<int64_t>(phase->committed))
      .Int("expected_aborts", static_cast<int64_t>(phase->expected_aborts))
      .Int("busy", static_cast<int64_t>(phase->busy))
      .Int("transport", static_cast<int64_t>(phase->transport))
      .Int("unexpected_aborts", static_cast<int64_t>(phase->unexpected_aborts))
      .Int("wrong_commits", static_cast<int64_t>(phase->wrong_commits))
      .Num("throughput_tps",
           phase->seconds > 0
               ? static_cast<double>(phase->committed) / phase->seconds
               : 0.0)
      .Int("samples", static_cast<int64_t>(phase->latency_us.size()))
      .Num("p50_us", Percentile(&phase->latency_us, 50))
      .Num("p90_us", Percentile(&phase->latency_us, 90))
      .Num("p99_us", Percentile(&phase->latency_us, 99))
      .Num("late_us_max", phase->late_us_max)
      .Int("bins", binned.bins)
      .Num("tps_bin_median", binned.tps)
      .Num("p50_us_bin_median", binned.p50_us)
      .Num("p90_us_bin_median", binned.p90_us)
      .Raw("bin_tps", NumArrayJson(binned.bin_tps))
      .Raw("bin_p50_us", NumArrayJson(binned.bin_p50_us));
  if (!phase->counters.empty()) {
    JsonObject counters;
    for (const auto& [key, value] : phase->counters) {
      if (value != 0) counters.Num(key, value);
    }
    o.Raw("counters", counters.str());
  }
  return o.str();
}

bool ParseFlags(int argc, char** argv,
                std::map<std::string, std::string>* out) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0 || i + 1 >= argc) return false;
    (*out)[arg.substr(2)] = argv[++i];
  }
  return true;
}

}  // namespace wb
