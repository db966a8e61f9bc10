// Closed-loop loopback clients: one driver thread multiplexes every
// connection over poll() with non-blocking sockets, one request in flight
// per connection.
#ifndef GOMBENCH_WIRE_LOOP_H_
#define GOMBENCH_WIRE_LOOP_H_

#include <cstdint>
#include <span>
#include <vector>

#include "gombench.h"

namespace gombench {

struct WireConn {
  int fd = -1;
  std::vector<uint8_t> out;
  size_t out_off = 0;
  std::vector<uint8_t> in;
  Pending p;
  SpanRef span;
  bool inflight = false;
};

/// Opens `n` connections to 127.0.0.1:port, non-blocking once connected.
gom::Status ConnectAll(uint16_t port, size_t n, std::vector<WireConn>* conns);
void CloseAll(std::vector<WireConn>* conns);

/// Runs client i over conns[i] until `stop_ns` or until it has issued
/// `max_ops` operations (0 = no limit), then waits for the replies still
/// in flight. Every reply is judged by the oracle and its latency sampled
/// from send to verified reply. With `spans`, each request is also
/// recorded as one span. Transport errors end the loop with an error.
gom::Status RunWire(const Context& ctx, std::span<Client> clients,
                    std::span<WireConn> conns, int64_t stop_ns,
                    uint64_t max_ops, SpanLog* spans);

}  // namespace gombench

#endif  // GOMBENCH_WIRE_LOOP_H_
