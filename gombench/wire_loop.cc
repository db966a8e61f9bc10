#include "wire_loop.h"

#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <string>

#include "server/wire.h"

namespace gombench {

using gom::Status;
using gom::Value;
namespace server = gom::server;

Status ConnectAll(uint16_t port, size_t n, std::vector<WireConn>* conns) {
  conns->resize(n);
  for (auto& c : *conns) {
    c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (c.fd < 0) return Status::IoError(std::strerror(errno));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
      return Status::IoError(std::string("connect: ") + std::strerror(errno));
    }
    int flags = ::fcntl(c.fd, F_GETFL, 0);
    ::fcntl(c.fd, F_SETFL, flags | O_NONBLOCK);
  }
  return Status::Ok();
}

void CloseAll(std::vector<WireConn>* conns) {
  for (auto& c : *conns) {
    if (c.fd >= 0) ::close(c.fd);
    c.fd = -1;
  }
  conns->clear();
}

namespace {

/// The wire form of a prepared operation.
server::Request ToRequest(const Context& ctx, const Pending& p) {
  server::Request req;
  req.id = p.request_id;
  switch (p.cls) {
    case kFwd:
      req.type = server::RequestType::kForward;
      req.function = ctx.volume;
      req.args = {Value::Ref(ctx.oracle->oid(p.key))};
      break;
    case kBwd:
      req.type = server::RequestType::kBackward;
      req.function = ctx.volume;
      req.lo = p.lo;
      req.hi = p.hi;
      break;
    case kGomql:
      req.type = server::RequestType::kGomql;
      req.text = p.text;
      break;
    case kUpdate:
      req.type = server::RequestType::kUpdate;
      req.function = ctx.op_scale;
      req.args = {Value::Ref(ctx.oracle->oid(p.key)), Value::Float(p.factor),
                  Value::Float(p.factor), Value::Float(p.factor)};
      break;
    case kNumClasses:
      break;
  }
  return req;
}

/// Pushes the pending frame into the socket; false on a dead connection.
bool TrySend(WireConn& c) {
  while (c.out_off < c.out.size()) {
    ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                       c.out.size() - c.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      c.out_off += static_cast<size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
  return true;
}

/// Reads everything available; false when the peer closed or failed.
bool Receive(WireConn& c) {
  constexpr size_t kChunk = 16384;
  while (true) {
    size_t base = c.in.size();
    c.in.resize(base + kChunk);
    ssize_t n = ::recv(c.fd, c.in.data() + base, kChunk, 0);
    if (n > 0) {
      c.in.resize(base + static_cast<size_t>(n));
      if (static_cast<size_t>(n) < kChunk) return true;
      continue;
    }
    c.in.resize(base);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
}

}  // namespace

Status RunWire(const Context& ctx, std::span<Client> clients,
               std::span<WireConn> conns, int64_t stop_ns, uint64_t max_ops,
               SpanLog* spans) {
  auto start = [&](size_t i) -> bool {
    WireConn& c = conns[i];
    Prepare(ctx, clients[i], &c.p);
    c.out.clear();
    c.out_off = 0;
    server::EncodeRequest(ToRequest(ctx, c.p), &c.out);
    if (spans != nullptr) {
      c.span = spans->Begin(SpanOf(kWireFwd, c.p.cls),
                            UINT32_MAX, c.p.request_id);
    }
    c.p.t0_ns = NowNs();
    c.inflight = true;
    return TrySend(c);
  };

  size_t active = 0;
  for (size_t i = 0; i < conns.size(); ++i) {
    if (!start(i)) return Status::IoError("send failed");
    ++active;
  }
  std::vector<pollfd> pfds;
  std::vector<size_t> idx;
  std::vector<uint8_t> payload;
  while (active > 0) {
    pfds.clear();
    idx.clear();
    for (size_t i = 0; i < conns.size(); ++i) {
      WireConn& c = conns[i];
      if (!c.inflight) continue;
      short ev = c.out_off < c.out.size() ? (POLLIN | POLLOUT) : POLLIN;
      pfds.push_back(pollfd{c.fd, ev, 0});
      idx.push_back(i);
    }
    // Busy-poll: the driver owns a core of the thread budget, and never
    // sleeping keeps its own wake-up latency out of every measurement.
    int r = ::poll(pfds.data(), pfds.size(), 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("poll: ") + std::strerror(errno));
    }
    for (size_t pi = 0; pi < pfds.size(); ++pi) {
      short rev = pfds[pi].revents;
      if (rev == 0) continue;
      size_t i = idx[pi];
      WireConn& c = conns[i];
      Client& cl = clients[i];
      if ((rev & POLLOUT) != 0 && !TrySend(c)) {
        return Status::IoError("send failed");
      }
      if ((rev & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      if (!Receive(c)) return Status::IoError("connection closed by server");
      size_t consumed = 0;
      while (c.inflight) {
        auto n = server::TryDecodeFrame(c.in.data() + consumed,
                                        c.in.size() - consumed, &payload);
        if (!n.ok()) return n.status();
        if (*n == 0) break;
        consumed += *n;
        auto resp = server::DecodeResponse(payload);
        if (!resp.ok()) return resp.status();
        int64_t t1 = NowNs();
        if (spans != nullptr) spans->End(c.span);
        if (resp->id != c.p.request_id) {
          return Status::Internal("reply out of order");
        }
        cl.lat[c.p.cls].Add(static_cast<double>(t1 - c.p.t0_ns) / 1e3,
                            cl.sample_rng);
        Reply reply{resp->code, std::move(resp->rows)};
        Finish(ctx, cl, c.p, reply);
        c.inflight = false;
        if (t1 < stop_ns && (max_ops == 0 || cl.attempted < max_ops)) {
          if (!start(i)) return Status::IoError("send failed");
        } else {
          --active;
        }
      }
      c.in.erase(c.in.begin(), c.in.begin() + static_cast<ptrdiff_t>(consumed));
    }
  }
  return Status::Ok();
}

}  // namespace gombench
