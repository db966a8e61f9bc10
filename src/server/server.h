#ifndef GOMFM_SERVER_SERVER_H_
#define GOMFM_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/admission.h"
#include "server/reactor.h"
#include "server/wire.h"
#include "workload/session.h"

namespace gom::workload {
struct Environment;
}

namespace gom::server {

/// Replica read overrides: when installed, forward and backward queries
/// are answered by these hooks instead of the connection's Session. A
/// replica serves reads from its replicated state only — no lazy
/// rematerialization, no row insertion — and honors the request's
/// `min_lsn` staleness bound (answering kStale when behind, which clients
/// retry). GOMql, EXPLAIN, ping and stats keep their normal paths.
///
/// Hooks are called concurrently from worker threads; the installer is
/// responsible for internal synchronization (gomfm_replica wraps them in a
/// shared hold of the session-pool gate, against the apply thread's
/// exclusive hold).
struct ReadHooks {
  std::function<Result<Value>(FunctionId, std::vector<Value>, Lsn)> forward;
  std::function<Result<RowSet>(FunctionId, double, double, bool, bool, Lsn)>
      backward;
};

struct ServerOptions {
  /// TCP port on 127.0.0.1; 0 binds an ephemeral port (query `port()`
  /// after Start). The server is loopback-only by design — it is a test
  /// and benchmark front door, not an internet-facing endpoint.
  uint16_t port = 0;
  size_t num_workers = 4;
  AdmissionOptions admission;
  /// Non-null switches forward/backward execution to replica mode.
  std::shared_ptr<ReadHooks> read_hooks;
};

/// The GOM service front door: an event-driven TCP/loopback server
/// answering wire-protocol requests against one `workload::Environment`.
///
/// Threading model (see DESIGN.md "Event-driven serving & group commit"):
///  * one *reactor* thread running an epoll loop that owns every socket —
///    it accepts, reassembles frames from non-blocking reads, runs
///    admission (shed requests are answered inline with kOverloaded),
///    drains write buffers the workers could not send without blocking,
///    and sweeps idle connections on a coarse timer;
///  * `num_workers` worker threads — execute admitted requests against the
///    connection's `workload::Session` and write responses (directly on
///    the socket when it has room, spilling to the connection's write
///    buffer and arming EPOLLOUT otherwise).
///
/// Connection count therefore no longer adds threads: 64 connections cost
/// 64 fds in one epoll set, not 64 reader stacks competing for cores.
///
/// Each connection draws a Session from the environment's SessionPool on
/// accept and releases it for reuse when the connection ends. Forward and
/// backward queries, GOMql retrieves and EXPLAINs are readers on the
/// shared-latch read path; only GOMql materialize statements take the
/// pool's writer-exclusive gate (Session::RunGomql), so server traffic
/// composes with in-process update storms exactly like reader sessions do.
///
/// Requests of one connection may be admitted concurrently (pipelining, up
/// to the per-connection cap) but *execute* serially in admission order —
/// a per-connection execution mutex keeps the single Session race-free.
///
/// Stop() drains gracefully: accepting stops, connection reads shut down,
/// already-admitted requests finish and their responses are written, then
/// all threads are joined and sessions released. Safe to call from a
/// signal-triggered path (gomfm_serve wires SIGTERM to it via a self-pipe)
/// and idempotent.
class Server {
 public:
  explicit Server(workload::Environment* env, ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and spawns the acceptor + workers.
  Status Start();

  /// Graceful drain; blocks until every thread exited. Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  uint16_t port() const { return port_; }

  struct StatsSnapshot {
    uint64_t connections_accepted = 0;
    uint64_t connections_closed = 0;
    uint64_t protocol_errors = 0;  // connections dropped on bad frames
    uint64_t idle_closes = 0;
    uint64_t requests_ok = 0;
    uint64_t requests_error = 0;
    uint64_t requests_by_type[8] = {0, 0, 0, 0, 0, 0, 0, 0};  // RequestType idx
    size_t open_connections = 0;
    AdmissionController::Snapshot admission;
  };
  StatsSnapshot stats() const;
  /// The same snapshot rendered as a flat JSON object (the kStats
  /// response payload).
  std::string StatsJson() const;

  AdmissionController& admission() { return admission_; }

 private:
  struct Connection;
  struct WorkItem {
    std::shared_ptr<Connection> conn;
    Request request;
  };

  // --- reactor-thread handlers (never called from elsewhere) ---
  void OnAcceptable();
  void OnConnEvent(const std::shared_ptr<Connection>& conn, uint32_t events);
  /// Drains the socket and decodes/admits every complete frame buffered.
  void HandleReadable(const std::shared_ptr<Connection>& conn);
  /// EPOLLOUT: pushes the connection's write buffer into the socket.
  void DrainOutbuf(const std::shared_ptr<Connection>& conn);
  /// Stops reading this connection (protocol error / EOF / idle / drain):
  /// no further admission is possible once this ran.
  void CloseReads(const std::shared_ptr<Connection>& conn);
  /// Timer sweep: evicts connections idle past the admission idle timeout.
  void IdleSweep();
  /// Closes the connection iff reads are done, no request is in flight and
  /// the write buffer is empty (or the client is gone) — the graceful part
  /// of graceful drain. Reactor thread only; exactly-once.
  void MaybeFinish(const std::shared_ptr<Connection>& conn);
  void FinishConnection(const std::shared_ptr<Connection>& conn);

  void WorkerLoop();
  /// Executes one admitted request against the connection's session.
  Response Execute(Connection& conn, const Request& request);
  /// Frames and writes a response on the connection. Sends directly while
  /// the socket keeps accepting bytes; the remainder is buffered and the
  /// reactor is asked to arm EPOLLOUT. Write failures mark the connection
  /// broken; the response is then dropped — the client is gone. Any
  /// thread.
  void WriteResponse(const std::shared_ptr<Connection>& conn,
                     const Response& response);

  workload::Environment* env_;
  ServerOptions options_;
  AdmissionController admission_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  /// Workers may only exit once reads are closed on every connection —
  /// until then the reactor can still admit buffered frames, and every
  /// admitted request must execute and get its response written (the
  /// drain guarantee).
  std::atomic<bool> workers_quit_{false};

  std::unique_ptr<Reactor> reactor_;
  std::thread reactor_thread_;
  std::vector<std::thread> workers_;
  std::mutex conns_mu_;  // guards conns_ (reactor thread + Stop + stats)
  std::vector<std::shared_ptr<Connection>> conns_;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<WorkItem> queue_;

  mutable std::mutex stats_mu_;
  StatsSnapshot stats_;
};

}  // namespace gom::server

#endif  // GOMFM_SERVER_SERVER_H_
