// SessionPool edge cases: session creation racing active readers, the
// writer gate under a waiting writer with churning readers (forward
// queries and GOMql retrieves), GOMql retrieve as a reader, and session
// release/reuse (the server's abrupt-connection-close path).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "workload/session.h"
#include "workload/stack.h"

namespace gom {
namespace {

using workload::CompanyStack;
using workload::Session;
using workload::SessionPool;
using workload::StackOptions;

std::unique_ptr<CompanyStack> MakeStack(size_t cuboids = 64) {
  StackOptions opts;
  opts.num_cuboids = cuboids;
  opts.seed = 53;
  opts.materialize_volume = true;
  opts.notify = true;
  auto stack = workload::MakeCompanyStack(opts);
  EXPECT_TRUE(stack->setup.ok()) << stack->setup.ToString();
  return stack;
}

TEST(SessionPoolTest, MakeSessionRacesActiveReaders) {
  auto stack = MakeStack();
  CompanyStack& s = *stack;

  // Four long-lived readers hammer forward queries while the coordinating
  // thread churns MakeSession/ReleaseSession — the accept path of the
  // server does exactly this against live traffic.
  constexpr size_t kReaders = 4;
  std::vector<Session*> readers;
  for (size_t t = 0; t < kReaders; ++t) readers.push_back(s.env.MakeSession());

  std::atomic<bool> stop{false};
  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      size_t i = 0;
      while (!stop.load(std::memory_order_acquire)) {
        size_t idx = (t * 31 + i++) % s.cuboids.size();
        auto v = readers[t]->ForwardQuery(s.geo.volume,
                                          {Value::Ref(s.cuboids[idx])});
        if (!v.ok()) failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (int round = 0; round < 200; ++round) {
    Session* extra = s.env.MakeSession();
    auto v = extra->ForwardQuery(s.geo.volume, {Value::Ref(s.cuboids[0])});
    EXPECT_TRUE(v.ok()) << v.status().ToString();
    s.env.ReleaseSession(extra);
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0u);

  // Churned sessions were recycled, not accumulated: the pool holds the 4
  // reader sessions plus at most one recycled churn session.
  EXPECT_LE(s.env.session_pool->session_count(), kReaders + 1);
  EXPECT_EQ(s.env.session_pool->free_count(), 1u);
}

TEST(SessionPoolTest, WriterGateUnderChurningReaders) {
  auto stack = MakeStack(32);
  CompanyStack& s = *stack;

  // Readers 0 and 2 run forward queries; 1 and 3 run GOMql retrieves,
  // which are readers too (one answered through the volume index, one by
  // an extension scan whose volume calls are forward lookups).
  static const char* kRetrieves[] = {
      "range c: Cuboid retrieve c where c.volume > 100.0 and "
      "c.volume < 101.0",
      "range c: Cuboid retrieve c.weight where c.volume > 0.0"};
  constexpr size_t kReaders = 4;
  std::vector<Session*> readers;
  for (size_t t = 0; t < kReaders; ++t) readers.push_back(s.env.MakeSession());

  std::atomic<bool> stop{false};
  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      size_t i = 0;
      while (!stop.load(std::memory_order_acquire)) {
        size_t idx = (t * 17 + i++) % s.cuboids.size();
        Status st = Status::Ok();
        if (t % 2 == 0) {
          st = readers[t]
                   ->ForwardQuery(s.geo.volume, {Value::Ref(s.cuboids[idx])})
                   .status();
        } else {
          st = readers[t]->RunGomql(kRetrieves[t / 2]).status();
        }
        if (!st.ok()) failures.fetch_add(1, std::memory_order_relaxed);
        // Brief backoff: glibc's rwlock prefers readers, so four readers
        // re-acquiring back-to-back would starve the waiting writer for
        // minutes. Real sessions think between queries; model that.
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    });
  }

  // The writer repeatedly waits for the exclusive gate under full reader
  // churn. Progress (all 50 storms complete) is the starvation check.
  static const char* kCoords[] = {"X", "Y", "Z"};
  Rng rng(7);
  for (int storm = 0; storm < 50; ++storm) {
    SessionPool::WriterLock lock(s.env.session_pool.get());
    GmrManager::UpdateBatch batch(&s.env.mgr);
    for (int i = 0; i < 4; ++i) {
      Oid c = s.cuboids[rng.UniformInt(0, s.cuboids.size() - 1)];
      auto vertices = s.geo.VerticesOf(&s.env.om, c);
      ASSERT_TRUE(vertices.ok()) << vertices.status().ToString();
      ASSERT_TRUE(s.env.om
                      .SetAttribute(
                          (*vertices)[rng.UniformInt(1, 3)],
                          kCoords[rng.UniformInt(0, 2)],
                          Value::Float(rng.UniformDouble(1, 15)))
                      .ok());
    }
    ASSERT_TRUE(batch.Commit().ok());
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0u);
}

TEST(SessionPoolTest, ReleaseRecyclesAndResetsSessions) {
  auto stack = MakeStack(16);
  CompanyStack& s = *stack;

  Session* a = s.env.MakeSession();
  ASSERT_TRUE(
      a->ForwardQuery(s.geo.volume, {Value::Ref(s.cuboids[0])}).ok());
  EXPECT_GT(a->stats().forward_queries, 0u);
  uint32_t a_id = a->id();

  // Abrupt-close path: the connection dies, the server releases the
  // session with stats intact (post-mortem), and the next connection gets
  // the recycled session with fresh counters.
  s.env.ReleaseSession(a);
  EXPECT_EQ(s.env.session_pool->free_count(), 1u);
  EXPECT_GT(a->stats().forward_queries, 0u);  // not reset on release

  Session* b = s.env.MakeSession();
  EXPECT_EQ(b, a);          // recycled, not newly allocated
  EXPECT_EQ(b->id(), a_id);  // identity preserved
  EXPECT_EQ(b->stats().forward_queries, 0u);  // reset on reuse
  EXPECT_EQ(s.env.session_pool->free_count(), 0u);
  EXPECT_EQ(s.env.session_pool->session_count(), 1u);

  // Releasing two and reacquiring two reuses both (LIFO order is an
  // implementation detail; the set of pointers is what must match).
  Session* c = s.env.MakeSession();
  std::set<Session*> released{b, c};
  s.env.ReleaseSession(b);
  s.env.ReleaseSession(c);
  EXPECT_EQ(s.env.session_pool->free_count(), 2u);
  std::set<Session*> reacquired{s.env.MakeSession(), s.env.MakeSession()};
  EXPECT_EQ(reacquired, released);
  EXPECT_EQ(s.env.session_pool->session_count(), 2u);
}

TEST(SessionPoolTest, GomqlRetrieveRunsBesideReaders) {
  auto stack = MakeStack(32);
  CompanyStack& s = *stack;
  Session* session = s.env.MakeSession();
  SessionPool* pool = s.env.session_pool.get();

  // Every volume result invalid: a retrieve that repaired rows in place
  // would show up as fewer invalid rows afterwards.
  auto loc = s.env.mgr.Locate(s.geo.volume);
  ASSERT_TRUE(loc.ok());
  ASSERT_TRUE(s.env.mgr.InvalidateAllResults(loc->first).ok());
  Gmr* gmr = *s.env.mgr.Get(loc->first);
  const size_t invalid_before = gmr->InvalidRows(loc->second).size();
  ASSERT_EQ(invalid_before, s.cuboids.size());

  // Oracle from reader forward queries (transient, so no repair either).
  std::vector<double> volumes;
  for (Oid c : s.cuboids) {
    auto v = session->ForwardQuery(s.geo.volume, {Value::Ref(c)});
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    volumes.push_back(*v->AsDouble());
  }
  std::vector<double> sorted = volumes;
  std::sort(sorted.begin(), sorted.end());
  const double threshold = sorted[sorted.size() / 2];
  std::set<Oid> expected;
  for (size_t i = 0; i < s.cuboids.size(); ++i) {
    if (volumes[i] > threshold) expected.insert(s.cuboids[i]);
  }

  // Another thread holds the reader side of the gate throughout the
  // retrieve; it gives up after a deadline so a retrieve that waits for
  // the writer side fails the test instead of hanging it.
  std::atomic<bool> held{false}, finish{false}, gave_up{false};
  std::thread holder([&] {
    SessionPool::ReaderLock gate(pool);
    held.store(true);
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!finish.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    gave_up.store(!finish.load());
  });
  while (!held.load()) std::this_thread::yield();
  char query[96];
  std::snprintf(query, sizeof(query),
                "range c: Cuboid retrieve c where c.volume > %.17g", threshold);
  auto rows = session->RunGomql(query);
  finish.store(true);
  holder.join();
  EXPECT_FALSE(gave_up.load()) << "retrieve waited for the reader to leave";
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  std::set<Oid> got;
  for (const auto& row : *rows) got.insert(row[0].as_ref());
  EXPECT_EQ(got, expected);
  EXPECT_EQ(gmr->InvalidRows(loc->second).size(), invalid_before);

  // Materialize still takes the gate exclusively: it waits while a reader
  // holds the gate and completes once the reader leaves.
  Session* other = s.env.MakeSession();
  std::atomic<bool> materialized{false};
  auto reader = std::make_unique<SessionPool::ReaderLock>(pool);
  std::thread writer([&] {
    auto r = other->RunGomql("range c: Cuboid materialize c.weight");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    materialized.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(materialized.load());
  reader.reset();
  writer.join();
  EXPECT_TRUE(materialized.load());
  EXPECT_TRUE(s.env.mgr.IsMaterialized(s.geo.weight));
}

}  // namespace
}  // namespace gom
