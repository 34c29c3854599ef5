#include "server/wire_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "common/failpoint.h"

namespace sstore {
namespace server_internal {

namespace {

/// Pending-connection queue length passed to listen().
constexpr int kListenBacklog = 128;

/// Unflushed response bytes a connection may accumulate before it is closed
/// as overloaded. The in-flight cap bounds kResult responses, but
/// kBusy/kPong are generated without consuming an in-flight slot — a peer
/// that writes requests and never reads responses would otherwise grow the
/// write buffer without bound.
constexpr size_t kMaxUnflushedBytes = 4 << 20;

Status SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IOError("fcntl(O_NONBLOCK) failed");
  }
  return Status::OK();
}

void SetNoDelay(int fd) {
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

/// Per-connection state. Owned by exactly one EventLoop thread; the only
/// cross-thread access is the shared_ptr held by in-flight completions
/// (created on the loop, consumed back on the loop) — every field below is
/// touched on the loop thread only.
struct Connection {
  int fd = -1;
  WireFrameBuffer rdbuf;
  /// Encoded-but-unwritten responses; cleared (capacity retained) once the
  /// socket accepts everything — the per-connection reuse the hot path needs.
  ByteWriter wrbuf;
  size_t wr_off = 0;
  /// kSubmit frames handed to a partition queue and not yet answered.
  size_t inflight = 0;
  bool read_open = true;
  bool want_write = false;
  bool closed = false;
  /// Peer sent FIN: its receive direction is exhausted, so closing our fd
  /// cannot destroy undelivered responses.
  bool peer_eof = false;
  /// Drain half-close sent (shutdown(SHUT_WR)); incoming bytes are being
  /// discarded until the peer's EOF, at which point the fd closes. Closing
  /// outright with unread bytes in the receive buffer would RST the
  /// connection and destroy responses still in flight to the peer — the
  /// exact loss drain-and-stop promises not to have.
  bool wr_shutdown = false;
};

using ConnectionPtr = std::shared_ptr<Connection>;

/// One completed per-(connection, partition) batch traveling from the
/// partition worker back to the connection's loop.
struct Completion {
  ConnectionPtr conn;
  std::vector<uint64_t> request_ids;
  std::vector<TxnOutcome> outcomes;  // aligned with request_ids
};

/// The loop's cross-thread mailbox, shared-owned so a ticket completion can
/// outlive the EventLoop: a connection that dies with frames in flight
/// (EPOLLHUP, read error, protocol error) lets the loop drain and be
/// destroyed while its BatchTickets are still pending on partition workers.
/// Those late callbacks hold only a weak_ptr to this struct — never a raw
/// EventLoop — so they either deliver into a live mailbox or drop the
/// completion, and `stopped` (flipped under `mu` before the eventfd closes)
/// keeps them from writing a closed or kernel-reused descriptor.
struct LoopMailbox {
  std::mutex mu;
  std::vector<int> adopted;
  std::vector<Completion> completions;
  int wake_fd = -1;
  bool stopped = false;
};

class EventLoop {
 public:
  EventLoop(WireServer* server, Cluster* cluster)
      : server_(server), cluster_(cluster) {}

  ~EventLoop() {
    if (mailbox_ != nullptr) {
      // Late ticket completions may still resolve this mailbox; make them
      // no-ops before the eventfd number can be closed (and reused).
      std::lock_guard<std::mutex> lock(mailbox_->mu);
      mailbox_->stopped = true;
      if (mailbox_->wake_fd >= 0) {
        ::close(mailbox_->wake_fd);
        mailbox_->wake_fd = -1;
      }
    }
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
  }

  Status Init() {
    epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) return Status::IOError("epoll_create1 failed");
    mailbox_ = std::make_shared<LoopMailbox>();
    mailbox_->wake_fd = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (mailbox_->wake_fd < 0) return Status::IOError("eventfd failed");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = mailbox_->wake_fd;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, mailbox_->wake_fd, &ev) < 0) {
      return Status::IOError("epoll_ctl(wakeup) failed");
    }
    return Status::OK();
  }

  void StartThread() {
    thread_ = std::thread([this] { Run(); });
  }

  /// Any thread: hand a prepared (non-blocking, NODELAY) socket to this loop.
  void Adopt(int fd) {
    {
      std::lock_guard<std::mutex> lock(mailbox_->mu);
      mailbox_->adopted.push_back(fd);
    }
    Wake();
  }

  /// Partition worker threads: a batch submitted by some loop completed.
  /// Static and addressed by weak mailbox — the EventLoop itself may be gone
  /// by the time a ticket for a dead connection fires.
  static void PostCompletion(const std::weak_ptr<LoopMailbox>& weak,
                             Completion completion) {
    std::shared_ptr<LoopMailbox> mailbox = weak.lock();
    if (mailbox == nullptr) return;  // loop destroyed; outcomes are dropped
    std::lock_guard<std::mutex> lock(mailbox->mu);
    if (mailbox->stopped) return;  // eventfd closed; outcomes are dropped
    mailbox->completions.push_back(std::move(completion));
    uint64_t one = 1;
    ssize_t n = ::write(mailbox->wake_fd, &one, sizeof(one));
    (void)n;  // EAGAIN means a wake is already pending — exactly as good.
  }

  /// Any thread: stop reading; keep flushing until nothing is in flight.
  void BeginDrain() {
    draining_.store(true, std::memory_order_release);
    Wake();
  }

  /// True once every connection has zero in-flight frames and an empty
  /// write buffer (drained connections are closed as they empty).
  bool Drained() const { return drained_.load(std::memory_order_acquire); }

  void StopAndJoin() {
    stop_.store(true, std::memory_order_release);
    Wake();
    if (thread_.joinable()) thread_.join();
  }

 private:
  void Wake() {
    uint64_t one = 1;
    ssize_t n = ::write(mailbox_->wake_fd, &one, sizeof(one));
    (void)n;  // EAGAIN means a wake is already pending — exactly as good.
  }

  void Run() {
    std::vector<epoll_event> events(64);
    while (!stop_.load(std::memory_order_acquire)) {
      int n = epoll_wait(epoll_fd_, events.data(),
                         static_cast<int>(events.size()), 100);
      if (n < 0 && errno != EINTR) break;
      DrainWakeups();
      AdoptPending();
      for (int i = 0; i < n; ++i) {
        if (events[i].data.fd == mailbox_->wake_fd) continue;
        auto it = conns_.find(events[i].data.fd);
        if (it == conns_.end()) continue;
        ConnectionPtr conn = it->second;
        if (events[i].events & (EPOLLHUP | EPOLLERR)) {
          // Peer vanished: in-flight tickets still complete, their
          // responses are dropped at the closed check.
          CloseConn(conn);
          continue;
        }
        if (events[i].events & EPOLLIN) {
          if (conn->read_open) {
            HandleReadable(conn);
          } else if (conn->wr_shutdown && !conn->closed) {
            DiscardReadable(conn);
          }
        }
        if ((events[i].events & EPOLLOUT) && !conn->closed) {
          FlushWrites(conn);
        }
      }
      ProcessCompletions();
      if (draining_.load(std::memory_order_acquire)) {
        EnterDrain();
        UpdateDrained();
      }
    }
    // Fail-safe on shutdown: drop whatever is left.
    for (auto& [fd, conn] : conns_) {
      conn->closed = true;
      ::close(conn->fd);
      server_->connections_active_.fetch_sub(1, std::memory_order_relaxed);
    }
    conns_.clear();
  }

  void DrainWakeups() {
    uint64_t buf;
    while (::read(mailbox_->wake_fd, &buf, sizeof(buf)) > 0) {
    }
  }

  void AdoptPending() {
    std::vector<int> fds;
    {
      std::lock_guard<std::mutex> lock(mailbox_->mu);
      fds.swap(mailbox_->adopted);
    }
    for (int fd : fds) {
      if (draining_.load(std::memory_order_acquire)) {
        ::close(fd);  // raced with Stop(): refuse, nothing in flight yet
        continue;
      }
      auto conn = std::make_shared<Connection>();
      conn->fd = fd;
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = fd;
      if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
        ::close(fd);
        continue;
      }
      conns_.emplace(fd, std::move(conn));
      server_->connections_active_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  static constexpr size_t kMaxReadPerPass = 1 << 20;

  /// Drains the socket's readable backlog — capped at kMaxReadPerPass per
  /// pass — then submits every decoded frame in one go: the coalescing step,
  /// M frames that arrived while this loop was busy become one BatchTicket
  /// per touched partition. The cap keeps one fast pipeliner from growing
  /// rdbuf ahead of admission control without bound and head-of-line
  /// starving the loop's other connections; level-triggered EPOLLIN
  /// re-reports the socket on the next epoll_wait, so the remainder is
  /// picked up after everyone else gets a turn.
  void HandleReadable(const ConnectionPtr& conn) {
    uint8_t chunk[64 * 1024];
    bool eof = false;
    size_t consumed = 0;
    while (consumed < kMaxReadPerPass) {
      // Socket-fault sites: a fired `reset` behaves like ECONNRESET
      // mid-frame, `eagain` like a kernel buffer that reports readable but
      // yields nothing (level-triggered epoll re-reports, so this is a
      // storm, not a loss), `short` like a 1-byte trickle that forces frame
      // reassembly across reads. EvaluateFast is one relaxed load when
      // nothing is armed.
      size_t want = sizeof(chunk);
      if (failpoint::EvaluateFast("wire.read.reset") !=
          failpoint::Action::kOff) {
        CloseConn(conn);
        return;
      }
      if (failpoint::EvaluateFast("wire.read.eagain") !=
          failpoint::Action::kOff) {
        break;
      }
      if (failpoint::EvaluateFast("wire.read.short") !=
          failpoint::Action::kOff) {
        want = 1;
      }
      ssize_t n = ::read(conn->fd, chunk, want);
      if (n > 0) {
        conn->rdbuf.Feed(chunk, static_cast<size_t>(n));
        consumed += static_cast<size_t>(n);
        continue;
      }
      if (n == 0) {
        eof = true;
      } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // backlog drained
      } else if (errno == EINTR) {
        continue;
      } else {
        CloseConn(conn);
        return;
      }
      break;
    }

    std::vector<WireRequest> submits;
    const uint8_t* payload;
    size_t len;
    for (;;) {
      Result<bool> has = conn->rdbuf.Next(&payload, &len);
      if (!has.ok()) {
        ProtocolError(conn, 0, has.status());
        return;
      }
      if (!*has) break;
      server_->frames_received_.fetch_add(1, std::memory_order_relaxed);
      WireRequest req;
      WireRequestType type = WireRequestType::kSubmit;
      Status st = DecodeRequest(payload, len, &req, &type);
      if (!st.ok()) {
        ProtocolError(conn, req.request_id, st);
        return;
      }
      switch (type) {
        case WireRequestType::kPing:
          EncodePong(&conn->wrbuf, req.request_id);
          server_->responses_sent_.fetch_add(1, std::memory_order_relaxed);
          break;
        case WireRequestType::kStats:
          // Shed site: lets tests force a kBusy answer to a stats poll —
          // the retry-with-backoff path FetchStats must survive when a
          // barrier pause or admission control sheds a monitoring client.
          if (failpoint::EvaluateFast("wire.shed.stats") !=
              failpoint::Action::kOff) {
            Busy(conn, req.request_id);
            break;
          }
          // Answered in-line like kPong: the cluster's typed stats and
          // then the server's are read at this moment, so the reply is a
          // live view without touching any partition queue. Counted before
          // rendering so the snapshot includes the request it is answering.
          server_->stats_requests_.fetch_add(1, std::memory_order_relaxed);
          {
            MetricsSnapshot snap = server_->cluster_->SnapshotMetrics();
            server_->AppendMetrics(&snap);
            EncodeStatsText(&conn->wrbuf, req.request_id,
                            RenderPrometheusText(snap));
          }
          server_->responses_sent_.fetch_add(1, std::memory_order_relaxed);
          break;
        case WireRequestType::kSubmit:
          submits.push_back(std::move(req));
          break;
      }
    }
    if (!submits.empty()) SubmitRequests(conn, std::move(submits));
    FlushWrites(conn);
    if (eof && !conn->closed) {
      // Half-close: the peer is gone for reads. Anything already submitted
      // still completes and is written best-effort; close once drained.
      conn->peer_eof = true;
      conn->read_open = false;
      UpdateInterest(conn);
      MaybeCloseDrained(conn);
    }
  }

  /// Admission control + batched submit. Routing and enqueues happen under
  /// ONE RoutingView, with the spill policy — this loop must never block on
  /// a full queue (the view blocks a concurrent Rebalance flip, and blocking
  /// here would head-of-line-block every connection pinned to the loop).
  /// Bounded memory comes from shedding instead: a frame is answered kBusy
  /// when the connection is over its in-flight cap or the target partition's
  /// queue is already at capacity (the queue-depth signal behind the
  /// blocking backpressure stats), so what lands past the capacity never
  /// exceeds the admitted in-flight frames.
  void SubmitRequests(const ConnectionPtr& conn,
                      std::vector<WireRequest> reqs) {
    struct Group {
      std::vector<Invocation> invs;
      std::vector<uint64_t> ids;
    };
    std::unordered_map<size_t, Group> groups;
    size_t admitted = 0;
    // A checkpoint/rebalance barrier holds every worker parked: nothing
    // submitted now runs until the barrier releases, so queueing behind it
    // only grows the backlog (and the pause). Shed the whole batch as
    // kBusy — the client retries after the barrier, typically a few ms.
    if (cluster_->CheckpointBarrierClosed()) {
      for (WireRequest& req : reqs) {
        Busy(conn, req.request_id);
        server_->busy_during_checkpoint_.fetch_add(1,
                                                   std::memory_order_relaxed);
      }
      return;
    }
    {
      Cluster::RoutingView view = cluster_->LockRouting();
      for (WireRequest& req : reqs) {
        if (conn->inflight + admitted >=
            server_->options_.max_inflight_per_conn) {
          Busy(conn, req.request_id);
          continue;
        }
        size_t p = req.key.has_value()
                       ? view.map().PartitionOf(*req.key)
                       : view.map().PartitionOfId(req.batch_id);
        Partition& part = cluster_->partition(p);
        // Saturation counts what this very pass is already adding: a whole
        // coalesced backlog lands at once, and admitting it all against the
        // queue's pre-pass depth would push it past capacity unboundedly.
        auto git = groups.find(p);
        size_t building = git == groups.end() ? 0 : git->second.invs.size();
        if (part.QueueDepth() + building >= part.queue_capacity()) {
          Busy(conn, req.request_id);
          continue;
        }
        Group& g = groups[p];
        g.invs.push_back(
            Invocation{std::move(req.proc), std::move(req.params),
                       req.batch_id});
        g.ids.push_back(req.request_id);
        ++admitted;
      }
      conn->inflight += admitted;
      NoteInflightWatermark(conn->inflight);
      for (auto& [p, g] : groups) {
        size_t count = g.invs.size();
        BatchTicketPtr ticket = cluster_->partition(p).SubmitBatchAsync(
            std::move(g.invs), EnqueuePolicy::kSpillWhenFull);
        // Weak capture: the partition worker may fire this after the
        // connection died and the drained loop was destroyed (see
        // LoopMailbox) — it must never dereference the EventLoop. The hook
        // holds no ticket: the outcomes are handed over when it fires.
        ticket->SetOnComplete(
            [weak = std::weak_ptr<LoopMailbox>(mailbox_), conn,
             ids = std::move(g.ids)](std::vector<TxnOutcome> outcomes) mutable {
              PostCompletion(weak, Completion{std::move(conn), std::move(ids),
                                              std::move(outcomes)});
            });
        server_->batches_submitted_.fetch_add(1, std::memory_order_relaxed);
        server_->requests_submitted_.fetch_add(count,
                                               std::memory_order_relaxed);
      }
    }
  }

  void ProcessCompletions() {
    std::vector<Completion> done;
    {
      std::lock_guard<std::mutex> lock(mailbox_->mu);
      done.swap(mailbox_->completions);
    }
    for (Completion& completion : done) {
      ConnectionPtr& conn = completion.conn;
      conn->inflight -= completion.request_ids.size();
      if (conn->closed) continue;  // peer gone; outcomes are discarded
      for (size_t i = 0; i < completion.request_ids.size(); ++i) {
        EncodeResult(&conn->wrbuf, completion.request_ids[i],
                     completion.outcomes[i]);
      }
      server_->responses_sent_.fetch_add(completion.request_ids.size(),
                                         std::memory_order_relaxed);
      FlushWrites(conn);
      MaybeCloseDrained(conn);
    }
  }

  void Busy(const ConnectionPtr& conn, uint64_t request_id) {
    EncodeBusy(&conn->wrbuf, request_id);
    server_->busy_shed_.fetch_add(1, std::memory_order_relaxed);
    server_->responses_sent_.fetch_add(1, std::memory_order_relaxed);
  }

  void ProtocolError(const ConnectionPtr& conn, uint64_t request_id,
                     const Status& error) {
    server_->protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    EncodeError(&conn->wrbuf, request_id, error);
    server_->responses_sent_.fetch_add(1, std::memory_order_relaxed);
    FlushWrites(conn);  // best effort; framing is lost either way
    CloseConn(conn);
  }

  void FlushWrites(const ConnectionPtr& conn) {
    if (conn->closed) return;
    const std::vector<uint8_t>& buf = conn->wrbuf.data();
    while (conn->wr_off < buf.size()) {
      // Short-write site: the kernel accepted 1 byte then "filled up" —
      // the remainder stays buffered and EPOLLOUT finishes it, exactly the
      // partial-send bookkeeping a slow peer exercises.
      size_t len = buf.size() - conn->wr_off;
      bool tear = failpoint::EvaluateFast("wire.write.short") !=
                  failpoint::Action::kOff;
      if (tear) len = 1;
      ssize_t n =
          ::send(conn->fd, buf.data() + conn->wr_off, len, MSG_NOSIGNAL);
      if (n > 0) {
        conn->wr_off += static_cast<size_t>(n);
        if (tear) break;
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      CloseConn(conn);  // EPIPE/ECONNRESET: drop the rest
      return;
    }
    if (conn->wr_off == buf.size()) {
      conn->wrbuf.Clear();  // keeps capacity — the buffer-reuse fast path
      conn->wr_off = 0;
      if (conn->want_write) {
        conn->want_write = false;
        UpdateInterest(conn);
      }
    } else if (!conn->want_write) {
      conn->want_write = true;
      UpdateInterest(conn);
    }
    // The in-flight cap bounds kResult bytes, but kBusy/kPong never consume
    // an in-flight slot — a peer that keeps writing requests without reading
    // responses would grow this buffer without bound. Past the threshold the
    // peer is overloading us: close instead of buffering.
    if (!conn->closed && buf.size() - conn->wr_off > kMaxUnflushedBytes) {
      server_->overload_closed_.fetch_add(1, std::memory_order_relaxed);
      CloseConn(conn);
    }
  }

  void UpdateInterest(const ConnectionPtr& conn) {
    epoll_event ev{};
    ev.events = ((conn->read_open || conn->wr_shutdown) ? EPOLLIN : 0u) |
                (conn->want_write ? EPOLLOUT : 0u);
    ev.data.fd = conn->fd;
    epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
  }

  /// Read-and-drop after the drain half-close: the peer may still be
  /// pipelining frames it doesn't know will go unanswered. Consuming them
  /// keeps the receive buffer empty so the eventual close() cannot RST away
  /// responses the peer hasn't read yet; its EOF is the signal to close.
  void DiscardReadable(const ConnectionPtr& conn) {
    uint8_t chunk[64 * 1024];
    for (;;) {
      ssize_t n = ::read(conn->fd, chunk, sizeof(chunk));
      if (n > 0) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (n < 0 && errno == EINTR) continue;
      conn->peer_eof = n == 0;
      CloseConn(conn);
      return;
    }
  }

  /// A connection that can no longer produce work (reads closed by EOF or
  /// drain) ends as soon as its last response is on the wire: immediately
  /// when the peer already EOFed (nothing unread can remain), otherwise via
  /// shutdown(SHUT_WR) — our FIN unblocks the peer's reader, and its EOF in
  /// DiscardReadable completes the handshake.
  void MaybeCloseDrained(const ConnectionPtr& conn) {
    if (conn->closed || conn->read_open) return;
    if (conn->inflight != 0 || conn->wrbuf.size() != conn->wr_off) return;
    if (conn->peer_eof) {
      CloseConn(conn);
    } else if (!conn->wr_shutdown) {
      conn->wr_shutdown = true;
      ::shutdown(conn->fd, SHUT_WR);
      UpdateInterest(conn);
      DiscardReadable(conn);  // whatever piled up while reads were off
    }
  }

  void CloseConn(const ConnectionPtr& conn) {
    if (conn->closed) return;
    conn->closed = true;
    epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
    ::close(conn->fd);
    conns_.erase(conn->fd);
    server_->connections_active_.fetch_sub(1, std::memory_order_relaxed);
  }

  void EnterDrain() {
    if (drain_entered_) return;
    drain_entered_ = true;
    // Snapshot: conns_ mutates under MaybeCloseDrained.
    std::vector<ConnectionPtr> open;
    open.reserve(conns_.size());
    for (auto& [fd, conn] : conns_) open.push_back(conn);
    for (ConnectionPtr& conn : open) {
      if (conn->read_open) {
        conn->read_open = false;
        UpdateInterest(conn);
      }
      MaybeCloseDrained(conn);
    }
  }

  void UpdateDrained() {
    // Every connection fully closed — which requires the half-close
    // handshake above to have finished, i.e. the peer read everything we
    // flushed and hung up. Only then is an abrupt stop loss-free.
    if (conns_.empty()) drained_.store(true, std::memory_order_release);
  }

  void NoteInflightWatermark(size_t inflight) {
    uint64_t cur = server_->max_conn_inflight_.load(std::memory_order_relaxed);
    while (inflight > cur && !server_->max_conn_inflight_.compare_exchange_weak(
                                 cur, inflight, std::memory_order_relaxed)) {
    }
  }

  WireServer* server_;
  Cluster* cluster_;
  int epoll_fd_ = -1;
  std::thread thread_;

  /// Loop-thread-only state.
  std::unordered_map<int, ConnectionPtr> conns_;
  bool drain_entered_ = false;

  /// Cross-thread mailbox (acceptor adopts, workers complete); shared-owned
  /// because ticket completions can outlive the loop — see LoopMailbox.
  std::shared_ptr<LoopMailbox> mailbox_;

  std::atomic<bool> stop_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> drained_{false};
};

}  // namespace server_internal

using server_internal::EventLoop;

WireServer::WireServer(Cluster* cluster, Options options)
    : cluster_(cluster), options_(options) {
  if (options_.num_io_threads < 1) options_.num_io_threads = 1;
  if (options_.max_inflight_per_conn == 0) options_.max_inflight_per_conn = 1;
}

WireServer::~WireServer() { Stop(); }

Status WireServer::Start() {
  if (running()) return Status::InvalidArgument("server already running");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return Status::IOError("socket() failed");
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  addr.sin_addr.s_addr =
      options_.loopback_only ? htonl(INADDR_LOOPBACK) : htonl(INADDR_ANY);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IOError("bind to port " + std::to_string(options_.port) +
                           " failed: " + std::strerror(errno));
  }
  socklen_t addr_len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len) <
      0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IOError("getsockname failed");
  }
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, server_internal::kListenBacklog) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IOError("listen failed");
  }

  loops_.clear();
  for (int i = 0; i < options_.num_io_threads; ++i) {
    auto loop = std::make_unique<EventLoop>(this, cluster_);
    Status st = loop->Init();
    if (!st.ok()) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      loops_.clear();
      return st;
    }
    loops_.push_back(std::move(loop));
  }
  running_.store(true, std::memory_order_release);
  for (auto& loop : loops_) loop->StartThread();
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void WireServer::AcceptLoop() {
  while (running()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    int r = ::poll(&pfd, 1, 50);
    if (r <= 0) continue;
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    // Accept-failure site: the connection dies before adoption, as if
    // accept() returned EMFILE or the socket RSTed in the backlog. The
    // peer's connect() already succeeded, so it learns only from the EOF.
    if (failpoint::EvaluateFast("wire.accept") != failpoint::Action::kOff) {
      ::close(fd);
      continue;
    }
    if (!server_internal::SetNonBlocking(fd).ok()) {
      ::close(fd);
      continue;
    }
    server_internal::SetNoDelay(fd);
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    loops_[next_loop_]->Adopt(fd);
    next_loop_ = (next_loop_ + 1) % loops_.size();
  }
}

void WireServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Drain: reads stop, in-flight batches complete and their responses go
  // out, drained connections half-close and wait for the peer's EOF.
  // Partition workers make the progress here, so this cannot be waited for
  // on a partition worker thread. The deadline bounds Stop() against peers
  // that never hang up; past it the fail-safe close may drop responses the
  // peer had not read.
  for (auto& loop : loops_) loop->BeginDrain();
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(options_.drain_timeout_ms);
  for (auto& loop : loops_) {
    while (!loop->Drained() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  for (auto& loop : loops_) loop->StopAndJoin();
  loops_.clear();
}

WireServer::Stats WireServer::stats() const {
  Stats out;
  out.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  out.connections_active = connections_active_.load(std::memory_order_relaxed);
  out.frames_received = frames_received_.load(std::memory_order_relaxed);
  out.responses_sent = responses_sent_.load(std::memory_order_relaxed);
  out.busy_shed = busy_shed_.load(std::memory_order_relaxed);
  out.busy_during_checkpoint =
      busy_during_checkpoint_.load(std::memory_order_relaxed);
  out.batches_submitted = batches_submitted_.load(std::memory_order_relaxed);
  out.requests_submitted = requests_submitted_.load(std::memory_order_relaxed);
  out.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  out.stats_requests = stats_requests_.load(std::memory_order_relaxed);
  out.overload_closed = overload_closed_.load(std::memory_order_relaxed);
  out.max_conn_inflight = max_conn_inflight_.load(std::memory_order_relaxed);
  return out;
}

void WireServer::AppendMetrics(MetricsSnapshot* out) const {
  const Stats st = stats();
  auto add = [out](const char* name, MetricKind kind, uint64_t value) {
    out->Add(name, kind, static_cast<double>(value));
  };
  add("sstore_wire_connections_active", MetricKind::kGauge,
      st.connections_active);
  add("sstore_wire_connections_accepted_total", MetricKind::kCounter,
      st.connections_accepted);
  add("sstore_wire_frames_received_total", MetricKind::kCounter,
      st.frames_received);
  add("sstore_wire_responses_sent_total", MetricKind::kCounter,
      st.responses_sent);
  add("sstore_wire_requests_submitted_total", MetricKind::kCounter,
      st.requests_submitted);
  add("sstore_wire_batches_submitted_total", MetricKind::kCounter,
      st.batches_submitted);
  add("sstore_wire_busy_shed_total", MetricKind::kCounter, st.busy_shed);
  add("sstore_wire_protocol_errors_total", MetricKind::kCounter,
      st.protocol_errors);
  add("sstore_wire_stats_requests_total", MetricKind::kCounter,
      st.stats_requests);
  add("sstore_wire_busy_during_checkpoint_total", MetricKind::kCounter,
      st.busy_during_checkpoint);
  add("sstore_wire_overload_closed_total", MetricKind::kCounter,
      st.overload_closed);
  add("sstore_wire_max_conn_inflight", MetricKind::kGauge,
      st.max_conn_inflight);
}

}  // namespace sstore
