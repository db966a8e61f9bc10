#include "server/server.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <future>

#include "workload/driver.h"

namespace gom::server {

namespace {

constexpr size_t kRecvChunk = 64 * 1024;
/// Per-EPOLLIN read budget: level-triggered epoll re-delivers readiness,
/// so capping the bytes consumed per event keeps one firehose connection
/// from starving the rest of the reactor's work.
constexpr size_t kMaxChunksPerEvent = 4;

Status Errno(const char* what) {
  return Status::IoError(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

/// Per-connection state. The reactor thread owns the socket (reads, frame
/// reassembly, EPOLLOUT draining, teardown); workers share it through a
/// shared_ptr to execute requests and write responses. Teardown handshake:
/// the connection is finished — on the reactor thread, exactly once
/// (`finished`) — when reads are closed (`reads_done`), nothing admitted
/// is still in flight (`inflight`) and the write buffer is empty (or the
/// client is `broken`, making its contents undeliverable).
struct Server::Connection {
  int fd = -1;
  workload::Session* session = nullptr;

  std::mutex write_mu;  // serializes socket sends + guards outbuf/out_off
  std::vector<uint8_t> outbuf;  // bytes the socket wouldn't take
  size_t out_off = 0;

  // Reactor-thread-only state.
  std::vector<uint8_t> inbuf;  // partial-frame reassembly
  bool want_write = false;     // EPOLLOUT currently armed
  std::chrono::steady_clock::time_point last_activity;

  std::mutex exec_mu;  // serializes Session use across workers
  std::atomic<size_t> inflight{0};
  std::atomic<bool> reads_done{false};
  std::atomic<bool> broken{false};  // write failed; client is gone
  std::atomic<bool> finished{false};
};

Server::Server(workload::Environment* env, ServerOptions options)
    : env_(env), options_(options), admission_(options.admission) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (running_.load()) {
    return Status::FailedPrecondition("server already running");
  }
  listen_fd_ =
      ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0) return Errno("socket");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status st = Errno("bind");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  if (::listen(listen_fd_, 128) < 0) {
    Status st = Errno("listen");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    port_ = ntohs(addr.sin_port);
  }

  reactor_ = std::make_unique<Reactor>();
  Status st = reactor_->Init();
  if (!st.ok()) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    reactor_.reset();
    return st;
  }
  st = reactor_->Add(listen_fd_, EPOLLIN, [this](uint32_t) { OnAcceptable(); });
  if (!st.ok()) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    reactor_.reset();
    return st;
  }

  // Prime the session pool from this thread: the first MakeSession()
  // creates the pool and flips the GMR catalog into concurrent mode, and
  // Environment documents that transition as a coordinating-thread action.
  // Later accepts only draw from the (mutex-guarded) existing pool.
  env_->ReleaseSession(env_->MakeSession());

  stopping_.store(false);
  workers_quit_.store(false);
  running_.store(true);
  size_t n = options_.num_workers > 0 ? options_.num_workers : 1;
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back(&Server::WorkerLoop, this);
  }
  // The idle sweep needs no sub-timeout precision; a quarter-period tick
  // bounds eviction lag at 1.25x the configured timeout.
  int idle_ms = admission_.options().idle_timeout_ms;
  int tick_ms = idle_ms > 0 ? std::max(10, std::min(idle_ms / 4, 200)) : 200;
  reactor_thread_ = std::thread([this, tick_ms] {
    reactor_->Run([this] { IdleSweep(); }, tick_ms);
  });
  return Status::Ok();
}

void Server::Stop() {
  if (!running_.exchange(false)) return;
  stopping_.store(true);

  // Phase 1 (on the reactor): stop accepting and close reads on every
  // connection. Once this task completes no further request can be
  // admitted — buffered-but-undecoded bytes are dropped, exactly like a
  // reader hitting EOF mid-buffer.
  {
    std::promise<void> done;
    reactor_->Post([this, &done] {
      reactor_->Del(listen_fd_);
      std::vector<std::shared_ptr<Connection>> conns;
      {
        std::lock_guard<std::mutex> lock(conns_mu_);
        conns = conns_;
      }
      for (const auto& conn : conns) CloseReads(conn);
      done.set_value();
    });
    done.get_future().wait();
  }

  // Phase 2: with admission over, the workers drain the queue and exit.
  // Every admitted request still executes and gets its response written
  // (directly or into the connection's write buffer). The flag is set
  // under the queue mutex: a worker between its predicate check and its
  // wait would otherwise miss the notification and never wake.
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    workers_quit_.store(true);
  }
  queue_cv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();

  // Phase 3 (on the reactor): push out any responses still sitting in
  // write buffers (bounded — a stalled client forfeits its tail), then
  // finish every remaining connection.
  {
    std::promise<void> done;
    reactor_->Post([this, &done] {
      std::vector<std::shared_ptr<Connection>> conns;
      {
        std::lock_guard<std::mutex> lock(conns_mu_);
        conns = conns_;
      }
      for (const auto& conn : conns) {
        if (!conn->broken.load(std::memory_order_acquire)) {
          std::lock_guard<std::mutex> lock(conn->write_mu);
          auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(500);
          while (conn->out_off < conn->outbuf.size() &&
                 std::chrono::steady_clock::now() < deadline) {
            ssize_t w = ::send(conn->fd, conn->outbuf.data() + conn->out_off,
                               conn->outbuf.size() - conn->out_off,
                               MSG_NOSIGNAL);
            if (w > 0) {
              conn->out_off += static_cast<size_t>(w);
              continue;
            }
            if (w < 0 && errno == EINTR) continue;
            if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
              pollfd p{conn->fd, POLLOUT, 0};
              ::poll(&p, 1, 50);
              continue;
            }
            conn->broken.store(true, std::memory_order_release);
            break;
          }
        }
        FinishConnection(conn);
      }
      done.set_value();
    });
    done.get_future().wait();
  }

  reactor_->Stop();
  if (reactor_thread_.joinable()) reactor_thread_.join();
  reactor_.reset();

  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void Server::OnAcceptable() {
  while (true) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_CLOEXEC | SOCK_NONBLOCK);
    if (fd < 0) return;  // EAGAIN (drained) or transient error: re-polled
    if (stopping_.load()) {
      ::close(fd);
      return;
    }
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conn->session = env_->MakeSession();
    conn->last_activity = std::chrono::steady_clock::now();
    Status st = reactor_->Add(
        fd, EPOLLIN,
        [this, conn](uint32_t events) { OnConnEvent(conn, events); });
    if (!st.ok()) {
      env_->ReleaseSession(conn->session);
      ::close(fd);
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.push_back(conn);
    }
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.connections_accepted;
      ++stats_.open_connections;
    }
  }
}

void Server::OnConnEvent(const std::shared_ptr<Connection>& conn,
                         uint32_t events) {
  if (conn->finished.load(std::memory_order_acquire)) return;
  if (events & EPOLLERR) {
    // Socket error: nothing further can be read or delivered. EPOLLERR is
    // reported regardless of the interest mask, so deregister to avoid a
    // level-triggered spin while in-flight requests finish.
    conn->broken.store(true, std::memory_order_release);
    CloseReads(conn);
    reactor_->Del(conn->fd);
    conn->want_write = false;
    MaybeFinish(conn);
    return;
  }
  if (events & EPOLLOUT) DrainOutbuf(conn);
  if (conn->finished.load(std::memory_order_acquire)) return;
  if (events & (EPOLLIN | EPOLLHUP)) {
    if (!conn->reads_done.load(std::memory_order_acquire)) {
      HandleReadable(conn);
    } else if (events & EPOLLHUP) {
      // Peer fully gone after we stopped reading: buffered responses are
      // undeliverable, and EPOLLHUP ignores the interest mask — same
      // deregister-to-avoid-spin dance as EPOLLERR.
      conn->broken.store(true, std::memory_order_release);
      reactor_->Del(conn->fd);
      conn->want_write = false;
      MaybeFinish(conn);
    }
  }
}

void Server::HandleReadable(const std::shared_ptr<Connection>& conn) {
  // Pull what the socket has (bounded per event), then decode and admit
  // every complete frame.
  bool eof = false;
  for (size_t chunk = 0; chunk < kMaxChunksPerEvent; ++chunk) {
    size_t base = conn->inbuf.size();
    conn->inbuf.resize(base + kRecvChunk);
    ssize_t n = ::recv(conn->fd, conn->inbuf.data() + base, kRecvChunk, 0);
    if (n > 0) {
      conn->inbuf.resize(base + static_cast<size_t>(n));
      if (static_cast<size_t>(n) < kRecvChunk) break;
      continue;
    }
    conn->inbuf.resize(base);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    eof = true;  // orderly close, reset, or hard error
    break;
  }

  std::vector<uint8_t> payload;
  size_t off = 0;
  bool protocol_error = false;
  while (!conn->reads_done.load(std::memory_order_relaxed)) {
    auto consumed = TryDecodeFrame(conn->inbuf.data() + off,
                                   conn->inbuf.size() - off, &payload);
    if (!consumed.ok()) {
      // Framing is lost (bad magic / length / CRC) — nothing later in
      // the stream can be trusted. Tell the client once and hang up.
      WriteResponse(conn, ErrorResponse(0, consumed.status()));
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.protocol_errors;
      protocol_error = true;
      break;
    }
    if (*consumed == 0) break;  // need more bytes
    off += *consumed;
    conn->last_activity = std::chrono::steady_clock::now();
    auto request = DecodeRequest(payload);
    if (!request.ok()) {
      WriteResponse(conn, ErrorResponse(0, request.status()));
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.protocol_errors;
      protocol_error = true;
      break;
    }
    AdmitDecision decision =
        admission_.Admit(conn->inflight.load(std::memory_order_acquire));
    if (decision != AdmitDecision::kAdmit) {
      WriteResponse(
          conn,
          ErrorResponse(request->id,
                        Status::Overloaded(
                            decision == AdmitDecision::kShedQueueFull
                                ? "request queue full, retry"
                                : "connection in-flight cap hit, retry")));
      continue;
    }
    conn->inflight.fetch_add(1, std::memory_order_acq_rel);
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      queue_.push_back(WorkItem{conn, std::move(*request)});
    }
    queue_cv_.notify_one();
  }
  if (off > 0) {
    conn->inbuf.erase(conn->inbuf.begin(),
                      conn->inbuf.begin() + static_cast<ptrdiff_t>(off));
  }

  if (protocol_error || eof) {
    CloseReads(conn);
    MaybeFinish(conn);
  }
}

void Server::DrainOutbuf(const std::shared_ptr<Connection>& conn) {
  {
    std::lock_guard<std::mutex> lock(conn->write_mu);
    while (conn->out_off < conn->outbuf.size()) {
      ssize_t n = ::send(conn->fd, conn->outbuf.data() + conn->out_off,
                         conn->outbuf.size() - conn->out_off, MSG_NOSIGNAL);
      if (n > 0) {
        conn->out_off += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      conn->broken.store(true, std::memory_order_release);
      break;
    }
    conn->outbuf.clear();
    conn->out_off = 0;
    if (conn->want_write) {
      conn->want_write = false;
      (void)reactor_->Mod(conn->fd,
                          conn->reads_done.load(std::memory_order_acquire)
                              ? 0u
                              : static_cast<uint32_t>(EPOLLIN));
    }
  }
  MaybeFinish(conn);
}

void Server::CloseReads(const std::shared_ptr<Connection>& conn) {
  if (conn->reads_done.exchange(true, std::memory_order_acq_rel)) return;
  ::shutdown(conn->fd, SHUT_RD);
  if (!conn->finished.load(std::memory_order_acquire) &&
      !conn->broken.load(std::memory_order_acquire)) {
    // Keep only EPOLLOUT interest (if a drain is pending): a read-closed
    // level-triggered EPOLLIN would fire forever.
    (void)reactor_->Mod(
        conn->fd, conn->want_write ? static_cast<uint32_t>(EPOLLOUT) : 0u);
  }
}

void Server::IdleSweep() {
  int idle_ms = admission_.options().idle_timeout_ms;
  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns = conns_;
  }
  auto now = std::chrono::steady_clock::now();
  for (const auto& conn : conns) {
    if (conn->finished.load(std::memory_order_acquire) ||
        conn->reads_done.load(std::memory_order_acquire)) {
      continue;
    }
    if (conn->inflight.load(std::memory_order_acquire) > 0) {
      // Executing on a worker: busy, not idle. The timeout window restarts
      // when the connection goes quiet.
      conn->last_activity = now;
      continue;
    }
    if (idle_ms <= 0) continue;
    auto idle = std::chrono::duration_cast<std::chrono::milliseconds>(
                    now - conn->last_activity)
                    .count();
    if (idle < idle_ms) continue;
    // Idle (or slow-loris: trickling bytes without ever completing a
    // frame does NOT refresh last_activity — only decoded frames do).
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.idle_closes;
    }
    CloseReads(conn);
    MaybeFinish(conn);
  }
}

void Server::MaybeFinish(const std::shared_ptr<Connection>& conn) {
  if (conn->finished.load(std::memory_order_acquire)) return;
  if (!conn->reads_done.load(std::memory_order_acquire)) return;
  if (conn->inflight.load(std::memory_order_acquire) != 0) return;
  if (!conn->broken.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(conn->write_mu);
    // A response is still queued for the client; the EPOLLOUT drain calls
    // back here once it empties the buffer.
    if (conn->out_off < conn->outbuf.size()) return;
  }
  FinishConnection(conn);
}

void Server::FinishConnection(const std::shared_ptr<Connection>& conn) {
  if (conn->finished.exchange(true)) return;
  if (reactor_ != nullptr) reactor_->Del(conn->fd);
  ::shutdown(conn->fd, SHUT_RDWR);
  ::close(conn->fd);
  conn->fd = -1;
  env_->ReleaseSession(conn->session);
  conn->session = nullptr;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (size_t i = 0; i < conns_.size(); ++i) {
      if (conns_[i] == conn) {
        conns_.erase(conns_.begin() + static_cast<ptrdiff_t>(i));
        break;
      }
    }
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.connections_closed;
  if (stats_.open_connections > 0) --stats_.open_connections;
}

void Server::WorkerLoop() {
  while (true) {
    WorkItem item;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock,
                     [&] { return !queue_.empty() || workers_quit_.load(); });
      if (queue_.empty()) {
        if (workers_quit_.load()) return;
        continue;
      }
      item = std::move(queue_.front());
      queue_.pop_front();
    }
    admission_.OnDequeue();
    Response response;
    {
      // Requests of one connection execute serially: the Session's clock,
      // stats and context are single-writer by design.
      std::lock_guard<std::mutex> exec(item.conn->exec_mu);
      response = Execute(*item.conn, item.request);
    }
    {
      // Count before the response hits the wire: once a client has read
      // its reply, a stats() snapshot must already include the request.
      std::lock_guard<std::mutex> lock(stats_mu_);
      if (response.code == StatusCode::kOk) {
        ++stats_.requests_ok;
      } else {
        ++stats_.requests_error;
      }
    }
    WriteResponse(item.conn, response);
    admission_.OnDone();
    std::shared_ptr<Connection> conn = std::move(item.conn);
    size_t left = conn->inflight.fetch_sub(1, std::memory_order_acq_rel) - 1;
    if (left == 0 && conn->reads_done.load(std::memory_order_acquire)) {
      // Teardown belongs to the reactor thread (epoll bookkeeping).
      reactor_->Post([this, conn] { MaybeFinish(conn); });
    }
  }
}

Response Server::Execute(Connection& conn, const Request& request) {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.requests_by_type[static_cast<size_t>(request.type)];
  }
  Response response;
  response.id = request.id;
  switch (request.type) {
    case RequestType::kPing:
      break;
    case RequestType::kGomql: {
      auto rows = conn.session->RunGomql(request.text);
      if (!rows.ok()) return ErrorResponse(request.id, rows.status());
      response.rows = std::move(*rows);
      break;
    }
    case RequestType::kExplain: {
      auto text = conn.session->ExplainGomql(request.text);
      if (!text.ok()) return ErrorResponse(request.id, text.status());
      response.text = std::move(*text);
      break;
    }
    case RequestType::kForward: {
      auto value =
          options_.read_hooks != nullptr && options_.read_hooks->forward
              ? options_.read_hooks->forward(request.function, request.args,
                                             request.min_lsn)
              : conn.session->ForwardQuery(request.function, request.args);
      if (!value.ok()) return ErrorResponse(request.id, value.status());
      response.rows.push_back({std::move(*value)});
      break;
    }
    case RequestType::kBackward: {
      auto rows =
          options_.read_hooks != nullptr && options_.read_hooks->backward
              ? options_.read_hooks->backward(
                    request.function, request.lo, request.hi,
                    request.lo_inclusive, request.hi_inclusive,
                    request.min_lsn)
              : conn.session->BackwardQuery(request.function, request.lo,
                                            request.hi, request.lo_inclusive,
                                            request.hi_inclusive);
      if (!rows.ok()) return ErrorResponse(request.id, rows.status());
      response.rows = std::move(*rows);
      break;
    }
    case RequestType::kStats:
      response.text = StatsJson();
      break;
    case RequestType::kUpdate: {
      auto value = conn.session->RunOperation(request.function, request.args);
      if (!value.ok()) return ErrorResponse(request.id, value.status());
      response.rows.push_back({std::move(*value)});
      break;
    }
  }
  return response;
}

void Server::WriteResponse(const std::shared_ptr<Connection>& conn,
                           const Response& response) {
  if (conn->broken.load(std::memory_order_acquire)) return;
  std::vector<uint8_t> frame;
  EncodeResponse(response, &frame);
  std::lock_guard<std::mutex> lock(conn->write_mu);
  if (!conn->outbuf.empty()) {
    // A drain is already pending; append so responses keep their order.
    conn->outbuf.insert(conn->outbuf.end(), frame.begin(), frame.end());
    return;
  }
  size_t sent = 0;
  while (sent < frame.size()) {
    ssize_t n = ::send(conn->fd, frame.data() + sent, frame.size() - sent,
                       MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Socket full: buffer the tail and have the reactor arm EPOLLOUT.
      conn->outbuf.assign(frame.begin() + static_cast<ptrdiff_t>(sent),
                          frame.end());
      conn->out_off = 0;
      std::shared_ptr<Connection> c = conn;
      reactor_->Post([this, c] {
        if (c->finished.load(std::memory_order_acquire) ||
            c->broken.load(std::memory_order_acquire) || c->want_write) {
          return;
        }
        bool pending;
        {
          std::lock_guard<std::mutex> inner(c->write_mu);
          pending = c->out_off < c->outbuf.size();
        }
        if (!pending) return;
        Status st = reactor_->Mod(
            c->fd, static_cast<uint32_t>(EPOLLOUT) |
                       (c->reads_done.load(std::memory_order_acquire)
                            ? 0u
                            : static_cast<uint32_t>(EPOLLIN)));
        if (st.ok()) {
          c->want_write = true;
        } else {
          c->broken.store(true, std::memory_order_release);
          MaybeFinish(c);
        }
      });
      return;
    }
    conn->broken.store(true, std::memory_order_release);
    return;
  }
}

Server::StatsSnapshot Server::stats() const {
  StatsSnapshot s;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    s = stats_;
  }
  s.admission = admission_.snapshot();
  return s;
}

std::string Server::StatsJson() const {
  StatsSnapshot s = stats();
  std::string out = "{";
  auto add = [&out](const char* key, uint64_t v, bool last = false) {
    out += "\"";
    out += key;
    out += "\": ";
    out += std::to_string(v);
    if (!last) out += ", ";
  };
  add("connections_accepted", s.connections_accepted);
  add("connections_closed", s.connections_closed);
  add("open_connections", s.open_connections);
  add("protocol_errors", s.protocol_errors);
  add("idle_closes", s.idle_closes);
  add("requests_ok", s.requests_ok);
  add("requests_error", s.requests_error);
  add("ping", s.requests_by_type[static_cast<size_t>(RequestType::kPing)]);
  add("gomql", s.requests_by_type[static_cast<size_t>(RequestType::kGomql)]);
  add("explain",
      s.requests_by_type[static_cast<size_t>(RequestType::kExplain)]);
  add("forward",
      s.requests_by_type[static_cast<size_t>(RequestType::kForward)]);
  add("backward",
      s.requests_by_type[static_cast<size_t>(RequestType::kBackward)]);
  add("stats", s.requests_by_type[static_cast<size_t>(RequestType::kStats)]);
  add("update", s.requests_by_type[static_cast<size_t>(RequestType::kUpdate)]);
  add("admitted", s.admission.admitted);
  add("shed_queue_full", s.admission.shed_queue_full);
  add("shed_conn_cap", s.admission.shed_conn_cap);
  add("queued", s.admission.queued);
  add("executing", s.admission.executing);
  add("peak_queued", s.admission.peak_queued, /*last=*/true);
  out += "}";
  return out;
}

}  // namespace gom::server
