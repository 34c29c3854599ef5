#ifndef SSTORE_SERVER_WIRE_SERVER_H_
#define SSTORE_SERVER_WIRE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "common/status.h"
#include "server/wire_protocol.h"

namespace sstore {

namespace server_internal {
class EventLoop;
struct Connection;
}  // namespace server_internal

/// The cluster's front door: a binary-protocol TCP server whose unit of work
/// is a *batch*, matching the engine's batch-at-a-time hot path
/// (docs/ARCHITECTURE.md "Serving layer").
///
/// Threading model — no thread-per-request, no thread-per-connection:
///  - one acceptor thread owns the listening socket and hands each accepted
///    connection to an I/O loop round-robin;
///  - N I/O threads each run a non-blocking epoll loop over their pinned
///    connections (a connection never migrates, so per-connection state is
///    single-threaded and lock-free).
///
/// Dataflow per readable connection: the loop drains the socket's whole
/// readable backlog, decodes every complete frame, and submits them as ONE
/// batch per touched partition (`Partition::SubmitBatchAsync`, spill policy —
/// the loop never blocks on a full queue). The batch ticket's completion hook
/// (fired on the partition worker after the last invocation commits/aborts)
/// hands the outcomes back to the loop through an eventfd; the loop then
/// encodes all of that batch's responses into the connection's write buffer
/// and flushes with one write. Request/response cost is therefore amortized
/// exactly like the in-process batched path PR 2 measured — syscalls, ticket
/// allocations, and wakeups are per *flush*, not per request.
///
/// Admission control (bounded memory under overload, paper §4.6 spirit):
///  - per-connection in-flight cap: at most `max_inflight_per_conn` frames
///    submitted-but-unanswered; excess frames are answered kBusy immediately
///    instead of buffering without bound;
///  - partition saturation: when a request routes to a partition whose
///    request queue is already at capacity (the same queue-depth signal the
///    blocking backpressure stats watch), it is shed with kBusy rather than
///    spilled — what lands past the capacity stays bounded by
///    connections × max_inflight_per_conn.
/// kBusy is an explicit retry-after signal; the client library surfaces it
/// (`WireResult::busy`) rather than retrying silently.
///
/// Stop() is drain-and-stop: the acceptor closes, reading stops, every
/// already-submitted frame's response is still written back, and connections
/// close only once nothing is in flight — a client never loses a response
/// for a request the server accepted (tests/server_test.cc holds this across
/// Stop() under load).
class WireServer {
 public:
  struct Options {
    /// TCP port; 0 binds an ephemeral port (read it back with port()).
    uint16_t port = 0;
    /// Loopback-only by default; set to false to bind 0.0.0.0.
    bool loopback_only = true;
    /// I/O event-loop threads (connections are pinned round-robin).
    int num_io_threads = 1;
    /// Frames per connection submitted but not yet answered before kBusy.
    size_t max_inflight_per_conn = 1024;
    /// Stop() waits this long for the loss-free drain handshake (responses
    /// flushed, peers hang up) before closing abruptly. A peer that never
    /// closes can delay Stop() by at most this much.
    int drain_timeout_ms = 5000;
  };

  /// Counters only go up from construction and are readable live;
  /// connections_active is live occupancy, max_conn_inflight a lifetime
  /// maximum.
  struct Stats {
    uint64_t connections_accepted = 0;
    uint64_t connections_active = 0;
    uint64_t frames_received = 0;
    uint64_t responses_sent = 0;   // kResult + kBusy + kPong + kError
    uint64_t busy_shed = 0;        // kBusy responses (all shed causes)
    /// kBusy responses sent because a checkpoint/rebalance barrier held
    /// every worker parked (Cluster::CheckpointBarrierClosed) — the server
    /// sheds instead of growing the backlog behind a paused cluster.
    uint64_t busy_during_checkpoint = 0;
    uint64_t batches_submitted = 0;  // BatchTickets handed to partitions
    uint64_t requests_submitted = 0;  // kSubmit frames that reached a queue
    uint64_t protocol_errors = 0;
    /// kStats frames answered (the live metrics endpoint, e.g. sstore_top).
    uint64_t stats_requests = 0;
    /// Connections closed because their unflushed write buffer exceeded
    /// 4 MiB (peer stopped reading responses).
    uint64_t overload_closed = 0;
    /// Highest submitted-but-unanswered count any connection reached —
    /// never exceeds Options::max_inflight_per_conn.
    uint64_t max_conn_inflight = 0;
  };

  WireServer(Cluster* cluster, Options options);
  ~WireServer();

  WireServer(const WireServer&) = delete;
  WireServer& operator=(const WireServer&) = delete;

  /// Binds, listens, and starts the acceptor + I/O threads. The cluster must
  /// already be Deploy()ed and Start()ed.
  Status Start();

  /// Drain-and-stop (idempotent): stop accepting and reading, flush every
  /// in-flight response, close connections, join threads. Does not stop the
  /// cluster.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// The bound port (after a successful Start).
  uint16_t port() const { return port_; }

  Stats stats() const;

 private:
  friend class server_internal::EventLoop;

  void AcceptLoop();
  /// Appends the sstore_wire_* samples, built from stats(), to the
  /// cluster's snapshot for a kStats answer.
  void AppendMetrics(MetricsSnapshot* out) const;

  Cluster* cluster_;
  Options options_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::thread acceptor_;
  std::vector<std::unique_ptr<server_internal::EventLoop>> loops_;
  size_t next_loop_ = 0;

  // Server-wide counters, incremented (relaxed) at event time by the
  // acceptor and loop threads; stats() is a live snapshot.
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> connections_active_{0};
  std::atomic<uint64_t> frames_received_{0};
  std::atomic<uint64_t> responses_sent_{0};
  std::atomic<uint64_t> busy_shed_{0};
  std::atomic<uint64_t> busy_during_checkpoint_{0};
  std::atomic<uint64_t> batches_submitted_{0};
  std::atomic<uint64_t> requests_submitted_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> stats_requests_{0};
  std::atomic<uint64_t> overload_closed_{0};
  std::atomic<uint64_t> max_conn_inflight_{0};
};

}  // namespace sstore

#endif  // SSTORE_SERVER_WIRE_SERVER_H_
