// End-to-end service-layer tests over a real loopback socket: queries
// against a live server, pipelining and overload shedding, protocol-error
// handling, abrupt client disconnects mid-query, and graceful drain with
// requests in flight.

#include "server/server.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "server/client.h"
#include "workload/stack.h"

namespace gom::server {
namespace {

using workload::CompanyStack;
using workload::StackOptions;

struct Rig {
  explicit Rig(ServerOptions sopts = {}, size_t cuboids = 32) {
    StackOptions opts;
    opts.num_cuboids = cuboids;
    opts.seed = 71;
    opts.materialize_volume = true;
    opts.notify = true;
    stack = workload::MakeCompanyStack(opts);
    EXPECT_TRUE(stack->setup.ok()) << stack->setup.ToString();
    server = std::make_unique<Server>(&stack->env, sopts);
    Status st = server->Start();
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  ~Rig() { server->Stop(); }

  std::unique_ptr<CompanyStack> stack;
  std::unique_ptr<Server> server;
};

TEST(ServerTest, PingQueryExplainStatsOverTheWire) {
  Rig rig;
  Client client;
  ASSERT_TRUE(client.Connect(rig.server->port()).ok());
  ASSERT_TRUE(client.Ping().ok());

  // Forward query against the oracle computed in-process.
  auto oracle = rig.stack->env.mgr.ForwardLookup(
      rig.stack->geo.volume, {Value::Ref(rig.stack->cuboids[0])});
  ASSERT_TRUE(oracle.ok());
  auto remote = client.Forward(rig.stack->geo.volume,
                               {Value::Ref(rig.stack->cuboids[0])});
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  EXPECT_EQ(*remote, *oracle);

  // Backward range query: every returned row's value lies in range.
  auto rows = client.Backward(rig.stack->geo.volume, 0.0, 1e12);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), rig.stack->cuboids.size());

  // GOMql text query and its EXPLAIN.
  auto gomql = client.RunGomql(
      "range c: Cuboid retrieve c.volume where c.volume > 0.0");
  ASSERT_TRUE(gomql.ok()) << gomql.status().ToString();
  EXPECT_EQ(gomql->size(), rig.stack->cuboids.size());
  auto plan = client.Explain(
      "range c: Cuboid retrieve c.volume where c.volume > 0.0");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("*"), std::string::npos);

  // Errors come back as Status codes, not dead connections.
  auto bad = client.RunGomql("retrieve nonsense");
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(client.Ping().ok());  // connection still usable

  auto stats = client.ServerStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->find("\"requests_ok\""), std::string::npos);
}

TEST(ServerTest, ConcurrentClientsAgreeWithOracle) {
  Rig rig;
  CompanyStack& s = *rig.stack;
  std::vector<double> expected(s.cuboids.size());
  for (size_t i = 0; i < s.cuboids.size(); ++i) {
    auto v = s.env.mgr.ForwardLookup(s.geo.volume, {Value::Ref(s.cuboids[i])});
    ASSERT_TRUE(v.ok());
    expected[i] = *v->AsDouble();
  }

  constexpr size_t kClients = 4;
  constexpr size_t kQueries = 200;
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      Client client;
      if (!client.Connect(rig.server->port()).ok()) {
        mismatches.fetch_add(kQueries);
        return;
      }
      for (size_t i = 0; i < kQueries; ++i) {
        size_t idx = (t * 131 + i) % s.cuboids.size();
        auto v = client.Forward(s.geo.volume, {Value::Ref(s.cuboids[idx])});
        if (!v.ok() || !v->is_numeric() || *v->AsDouble() != expected[idx]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0u);

  auto snap = rig.server->stats();
  EXPECT_EQ(snap.requests_ok, kClients * kQueries);
  EXPECT_EQ(snap.requests_error, 0u);
}

TEST(ServerTest, PipeliningShedsAtTheConnectionCap) {
  ServerOptions sopts;
  sopts.num_workers = 1;
  sopts.admission.max_inflight_per_conn = 2;
  sopts.admission.max_queue_depth = 64;
  Rig rig(sopts);
  // Stall the read path so pipelined requests pile up behind the single
  // worker instead of completing as fast as they arrive.
  rig.stack->env.mgr.set_io_stall_us(2'000);

  Client client;
  ASSERT_TRUE(client.Connect(rig.server->port()).ok());
  constexpr size_t kBurst = 16;
  for (size_t i = 0; i < kBurst; ++i) {
    Request req;
    req.type = RequestType::kForward;
    req.id = client.NextId();
    req.function = rig.stack->geo.volume;
    req.args = {Value::Ref(rig.stack->cuboids[0])};
    ASSERT_TRUE(client.Send(req).ok());
  }
  size_t ok = 0, overloaded = 0;
  for (size_t i = 0; i < kBurst; ++i) {
    auto resp = client.Receive();
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    if (resp->code == StatusCode::kOk) {
      ++ok;
    } else {
      ASSERT_EQ(resp->code, StatusCode::kOverloaded) << resp->message;
      ++overloaded;
    }
  }
  EXPECT_EQ(ok + overloaded, kBurst);
  EXPECT_GT(ok, 0u);          // admitted work completed
  EXPECT_GT(overloaded, 0u);  // the cap actually shed
  EXPECT_GT(rig.server->stats().admission.shed_conn_cap, 0u);
  EXPECT_TRUE(client.Ping().ok());  // shedding never kills the connection
}

TEST(ServerTest, ProtocolGarbageClosesOnlyThatConnection) {
  Rig rig;
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(rig.server->port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const char junk[] = "GET / HTTP/1.1\r\n\r\n";
  ASSERT_GT(::send(fd, junk, sizeof(junk) - 1, 0), 0);
  // The server answers with an error frame and hangs up.
  char buf[512];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
  }
  EXPECT_EQ(n, 0);  // orderly close, not a reset-and-crash
  ::close(fd);

  // Wait for the connection teardown to be accounted, then check health.
  for (int i = 0; i < 200 && rig.server->stats().open_connections > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(rig.server->stats().protocol_errors, 0u);
  Client client;
  ASSERT_TRUE(client.Connect(rig.server->port()).ok());
  EXPECT_TRUE(client.Ping().ok());
}

TEST(ServerTest, ClientVanishingMidQueryReleasesTheSession) {
  Rig rig;
  rig.stack->env.mgr.set_io_stall_us(2'000);
  {
    Client client;
    ASSERT_TRUE(client.Connect(rig.server->port()).ok());
    Request req;
    req.type = RequestType::kGomql;
    req.id = client.NextId();
    req.text = "range c: Cuboid retrieve c.volume where c.volume > 0.0";
    ASSERT_TRUE(client.Send(req).ok());
    client.Close();  // vanish while the query is (likely) executing
  }
  // The reader sees EOF, the in-flight request still completes, the write
  // fails harmlessly, and the session returns to the pool: eventually no
  // connection is open and every pooled session is free again.
  workload::SessionPool& pool = *rig.stack->env.session_pool;
  for (int i = 0; i < 1000; ++i) {
    if (rig.server->stats().open_connections == 0 &&
        pool.free_count() == pool.session_count()) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(rig.server->stats().open_connections, 0u);
  EXPECT_EQ(pool.free_count(), pool.session_count());

  Client client;
  ASSERT_TRUE(client.Connect(rig.server->port()).ok());
  EXPECT_TRUE(client.Ping().ok());
}

TEST(ServerTest, GracefulDrainUnderLoad) {
  Rig rig;
  CompanyStack& s = *rig.stack;
  s.env.mgr.set_io_stall_us(500);

  std::atomic<bool> stop{false};
  std::atomic<size_t> bad{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Client client;
      if (!client.Connect(rig.server->port()).ok()) return;
      size_t i = 0;
      while (!stop.load(std::memory_order_acquire)) {
        size_t idx = (t * 37 + i++) % s.cuboids.size();
        auto v = client.Forward(s.geo.volume, {Value::Ref(s.cuboids[idx])});
        if (!v.ok()) {
          // Losing the connection to the drain is expected; a wrong answer
          // or server-reported internal error is not.
          if (v.status().code() != StatusCode::kIoError) {
            bad.fetch_add(1);
          }
          return;
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  rig.server->Stop();  // drain with requests in flight
  stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  EXPECT_EQ(bad.load(), 0u);

  auto snap = rig.server->stats();
  EXPECT_EQ(snap.open_connections, 0u);
  EXPECT_EQ(snap.connections_accepted, snap.connections_closed);
  EXPECT_EQ(snap.admission.queued, 0u);
  EXPECT_EQ(snap.admission.executing, 0u);
  // All sessions are back in the pool after the drain.
  EXPECT_EQ(rig.stack->env.session_pool->free_count(),
            rig.stack->env.session_pool->session_count());

  // Stop is idempotent, and a stopped server refuses new work cleanly.
  rig.server->Stop();
  Client late;
  EXPECT_FALSE(late.Connect(rig.server->port()).ok() && late.Ping().ok());
}

TEST(ServerTest, StartStopWithoutTrafficNeverHangs) {
  // Stop right after Start catches workers on their way into the queue
  // wait; the quit flag must reach every one of them. A lost wake-up hangs
  // Stop, so the cycles run on a helper thread under a deadline.
  StackOptions opts;
  opts.num_cuboids = 8;
  opts.seed = 71;
  opts.materialize_volume = true;
  std::shared_ptr<CompanyStack> stack = workload::MakeCompanyStack(opts);
  ASSERT_TRUE(stack->setup.ok()) << stack->setup.ToString();
  auto done = std::make_shared<std::promise<void>>();
  auto start_failures = std::make_shared<std::atomic<int>>(0);
  std::future<void> finished = done->get_future();
  std::thread cycler([stack, done, start_failures] {
    ServerOptions sopts;
    sopts.num_workers = 4;
    for (int i = 0; i < 200; ++i) {
      Server server(&stack->env, sopts);
      if (!server.Start().ok()) start_failures->fetch_add(1);
      server.Stop();
    }
    done->set_value();
  });
  bool ready = finished.wait_for(std::chrono::seconds(60)) ==
               std::future_status::ready;
  if (ready) {
    cycler.join();
  } else {
    cycler.detach();  // hung in Stop; the process exit reaps it
  }
  ASSERT_TRUE(ready) << "Server::Stop hung after Start with no traffic";
  EXPECT_EQ(start_failures->load(), 0);
}

// --- hostile-client behaviour against the reactor ---------------------------

namespace {

int RawConnect(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

}  // namespace

TEST(ServerHostileTest, SlowLorisFrameDripDoesNotStallOtherClients) {
  Rig rig;
  CompanyStack& s = *rig.stack;

  // A valid Ping frame, dripped one byte at a time with pauses: the
  // reactor must buffer the partial frame without dedicating a thread to
  // it or blocking anyone else.
  Request ping;
  ping.type = RequestType::kPing;
  ping.id = 7;
  std::vector<uint8_t> frame;
  EncodeRequest(ping, &frame);

  int loris = RawConnect(rig.server->port());
  Client busy;
  ASSERT_TRUE(busy.Connect(rig.server->port()).ok());

  size_t served_during_drip = 0;
  for (size_t off = 0; off < frame.size(); ++off) {
    ASSERT_EQ(::send(loris, frame.data() + off, 1, 0), 1);
    // The fast client keeps completing full round trips between bytes.
    auto v = busy.Forward(s.geo.volume, {Value::Ref(s.cuboids[0])});
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    ++served_during_drip;
  }
  EXPECT_EQ(served_during_drip, frame.size());

  // Once the last byte lands the dripped request is answered normally.
  uint8_t buf[256];
  ssize_t n = ::recv(loris, buf, sizeof(buf), 0);
  EXPECT_GT(n, 0);
  ::close(loris);
}

TEST(ServerHostileTest, MidFrameDisconnectIsSweptWithoutProtocolError) {
  Rig rig;
  Request ping;
  ping.type = RequestType::kPing;
  ping.id = 1;
  std::vector<uint8_t> frame;
  EncodeRequest(ping, &frame);

  int fd = RawConnect(rig.server->port());
  // Half a frame, then vanish: the buffered prefix is discarded with the
  // connection — an EOF mid-frame is a disconnect, not a protocol crime.
  ASSERT_GT(::send(fd, frame.data(), frame.size() / 2, 0), 0);
  ::close(fd);

  for (int i = 0; i < 400 && rig.server->stats().open_connections > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  auto snap = rig.server->stats();
  EXPECT_EQ(snap.open_connections, 0u);
  EXPECT_EQ(snap.protocol_errors, 0u);

  Client client;
  ASSERT_TRUE(client.Connect(rig.server->port()).ok());
  EXPECT_TRUE(client.Ping().ok());
}

TEST(ServerHostileTest, OversizedFrameHeaderIsRefusedBeforeAllocation) {
  Rig rig;
  int fd = RawConnect(rig.server->port());
  // Valid magic, declared payload far beyond kMaxFrameBytes: the reactor
  // must refuse on the header alone — never reserve gigabytes on a
  // hostile length.
  uint8_t header[kFrameHeaderBytes];
  uint32_t magic = kFrameMagic;
  uint32_t len = kMaxFrameBytes + 1;
  uint32_t crc = 0;
  std::memcpy(header, &magic, 4);
  std::memcpy(header + 4, &len, 4);
  std::memcpy(header + 8, &crc, 4);
  ASSERT_EQ(::send(fd, header, sizeof(header), 0),
            static_cast<ssize_t>(sizeof(header)));

  // The server answers with an error frame (best effort) and hangs up.
  char buf[512];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
  }
  EXPECT_EQ(n, 0);
  ::close(fd);

  for (int i = 0; i < 400 && rig.server->stats().open_connections > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(rig.server->stats().protocol_errors, 0u);
  Client client;
  ASSERT_TRUE(client.Connect(rig.server->port()).ok());
  EXPECT_TRUE(client.Ping().ok());
}

TEST(ServerHostileTest, IdleConnectionsAreEvictedWhileOthersAreServed) {
  ServerOptions sopts;
  sopts.admission.idle_timeout_ms = 150;
  Rig rig(sopts);
  CompanyStack& s = *rig.stack;

  // One connection goes idle after a single request; another keeps
  // issuing traffic the whole time so the sweep runs under load.
  Client idle;
  ASSERT_TRUE(idle.Connect(rig.server->port()).ok());
  ASSERT_TRUE(idle.Ping().ok());

  Client busy;
  ASSERT_TRUE(busy.Connect(rig.server->port()).ok());
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(2'000);
  bool evicted = false;
  size_t i = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    auto v = busy.Forward(
        s.geo.volume, {Value::Ref(s.cuboids[i++ % s.cuboids.size()])});
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    if (rig.server->stats().idle_closes > 0) {
      evicted = true;
      break;
    }
  }
  EXPECT_TRUE(evicted) << "idle connection was not evicted within 2 s";
  // The busy connection was never the one evicted.
  EXPECT_TRUE(busy.Ping().ok());
  // The idle one is gone: its next call fails on a closed socket.
  EXPECT_FALSE(idle.Ping().ok());
}

// --- retry backoff jitter ----------------------------------------------------

TEST(RetryJitterTest, JitteredBackoffIsDeterministicAndBounded) {
  uint64_t a = 42, b = 42, c = 43;
  bool differed = false;
  for (int round = 0; round < 64; ++round) {
    int64_t base = 20 << (round % 5);
    int64_t x = JitteredBackoffMs(base, 0.5, &a);
    int64_t y = JitteredBackoffMs(base, 0.5, &b);
    int64_t z = JitteredBackoffMs(base, 0.5, &c);
    EXPECT_EQ(x, y);  // same seed, same schedule
    if (x != z) differed = true;
    // Equal jitter: always within [base/2, base].
    EXPECT_GE(x, base / 2);
    EXPECT_LE(x, base);
  }
  EXPECT_TRUE(differed) << "distinct seeds produced identical schedules";

  // jitter = 0 restores the fixed schedule exactly.
  uint64_t s = 7;
  EXPECT_EQ(JitteredBackoffMs(80, 0.0, &s), 80);
  EXPECT_EQ(s, 7u);  // state untouched when jitter is off
}

TEST(RetryJitterTest, FailoverClientStillRetriesWithJitterOn) {
  // Against a dead endpoint the client must walk its (single-entry) list,
  // back off with jitter, and give up after max_retries — jitter changes
  // the sleep lengths, never the retry budget.
  RetryOptions ropts;
  ropts.max_retries = 2;
  ropts.initial_backoff_ms = 1;
  ropts.max_backoff_ms = 4;
  ClientOptions copts;
  copts.connect_deadline_ms = 50;
  FailoverClient client({/*unused port*/ 1}, copts, ropts);
  Status st = client.Ping();
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(client.stats().attempts, 0u);  // connects never succeeded
  EXPECT_GE(client.stats().failovers, 2u);
}

}  // namespace
}  // namespace gom::server
