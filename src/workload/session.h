#ifndef GOMFM_WORKLOAD_SESSION_H_
#define GOMFM_WORKLOAD_SESSION_H_

#include <algorithm>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/execution_context.h"
#include "common/sim_clock.h"
#include "gom/ids.h"
#include "gom/value.h"

namespace gom::workload {

struct Environment;
class SessionPool;

/// One reader session against a shared Environment. A session owns its own
/// simulated clock and statistics; every query it runs carries an
/// ExecutionContext pointing at them, so CPU charges and counters never
/// race with other sessions (page I/O still charges the environment's
/// global clock — the simulated disk is a shared device).
///
/// Sessions are created on the coordinating thread via
/// `Environment::MakeSession()` and may then be driven from one worker
/// thread each. Queries take every shard gate shared (in index order), so
/// they interleave freely with each other but never overlap an update storm
/// on any shard.
class Session {
 public:
  Result<Value> ForwardQuery(FunctionId f, std::vector<Value> args);
  Result<std::vector<std::vector<Value>>> BackwardQuery(
      FunctionId f, double lo, double hi, bool lo_inclusive = true,
      bool hi_inclusive = true);

  /// Parses and runs one GOMql statement (retrieve or materialize). A
  /// retrieve is a reader: it takes the gates shared and runs under the
  /// session's context, so its GMR probes never write the extension and it
  /// overlaps other readers like Forward/BackwardQuery. Materialize mutates
  /// the catalog, so it takes the gates *exclusively*.
  Result<std::vector<std::vector<Value>>> RunGomql(const std::string& text);

  /// Plans a retrieve statement and renders the §8 EXPLAIN text (all
  /// alternatives with costs, the chosen one starred). A reader, like a
  /// retrieve.
  Result<std::string> ExplainGomql(const std::string& text);

  /// Invokes an update operation op(args) — a registered function that is
  /// not side-effect-free. Takes the gates *exclusively* (it is a one-call
  /// update storm): the operation mutates objects, and the invalidation /
  /// rematerialization it triggers runs on this thread as the writer. (All
  /// gates, not one shard's — a general operation may touch objects of any
  /// shard.) Side-effect-free functions are rejected — reads go through
  /// ForwardQuery, which stays concurrent.
  Result<Value> RunOperation(FunctionId op, std::vector<Value> args);

  uint32_t id() const { return id_; }
  const SessionStats& stats() const { return stats_; }
  SimClock& clock() { return clock_; }
  const ExecutionContext& ctx() const { return ctx_; }

 private:
  friend class SessionPool;
  Session(Environment* env, SessionPool* pool, uint32_t id);

  Environment* env_;
  SessionPool* pool_;
  uint32_t id_;
  SimClock clock_;
  SessionStats stats_;
  ExecutionContext ctx_;
};

/// Owns the environment's sessions and the read/write gates that separate
/// reader queries from update storms. Unsharded there is one gate; a
/// sharded environment has one gate per maintenance plane, so update storms
/// confined to disjoint shard sets hold disjoint gates and proceed in
/// parallel. Sessions hold *every* gate shared per query, a writer takes
/// its shard set exclusively per storm (WriterLock); all acquisition is in
/// ascending gate index, which makes deadlock impossible. Together with the
/// component latches this gives update-storm granularity equivalence — a
/// reader observes the extension either entirely before or entirely after
/// any given storm, never mid-storm.
class SessionPool {
 public:
  /// `shard_gates` is the environment's maintenance-plane count (clamped to
  /// ≥ 1); pass 1 for the classic single writer-exclusive gate.
  explicit SessionPool(Environment* env, size_t shard_gates = 1)
      : env_(env) {
    if (shard_gates == 0) shard_gates = 1;
    gates_.reserve(shard_gates);
    for (size_t s = 0; s < shard_gates; ++s) {
      gates_.push_back(std::make_unique<std::shared_mutex>());
    }
  }

  SessionPool(const SessionPool&) = delete;
  SessionPool& operator=(const SessionPool&) = delete;

  /// Creates a session (reusing a released one when available). Call from
  /// the coordinating thread before handing the session to its worker.
  Session* CreateSession();

  /// Returns a session to the pool for reuse by a later CreateSession().
  /// The caller must guarantee no in-flight query on it — the server calls
  /// this only after a connection's last request drained. Stats and clock
  /// are reset on reuse, not on release, so post-mortem inspection of a
  /// closed connection's counters stays possible.
  void Release(Session* session);

  size_t session_count() const;
  size_t free_count() const;

  /// RAII exclusive hold of gates for one update storm. The default
  /// constructor takes every gate (the classic global storm); the shard-set
  /// constructor takes only the named shards' gates, so storms on disjoint
  /// sets run concurrently. Either way gates lock in ascending index order.
  class WriterLock {
   public:
    explicit WriterLock(SessionPool* pool) : pool_(pool) {
      held_.reserve(pool_->gates_.size());
      for (size_t s = 0; s < pool_->gates_.size(); ++s) held_.push_back(s);
      for (size_t s : held_) pool_->gates_[s]->lock();
    }
    WriterLock(SessionPool* pool, std::vector<size_t> shards)
        : pool_(pool), held_(std::move(shards)) {
      std::sort(held_.begin(), held_.end());
      held_.erase(std::unique(held_.begin(), held_.end()), held_.end());
      for (size_t s : held_) pool_->gates_[s]->lock();
    }
    ~WriterLock() {
      for (size_t i = held_.size(); i-- > 0;) pool_->gates_[held_[i]]->unlock();
    }
    WriterLock(const WriterLock&) = delete;
    WriterLock& operator=(const WriterLock&) = delete;

   private:
    SessionPool* pool_;
    std::vector<size_t> held_;  // ascending, deduplicated
  };

  /// RAII shared hold of every gate (reader side; ascending order).
  class ReaderLock {
   public:
    explicit ReaderLock(SessionPool* pool) : pool_(pool) {
      for (auto& g : pool_->gates_) g->lock_shared();
    }
    ~ReaderLock() {
      for (size_t i = pool_->gates_.size(); i-- > 0;) {
        pool_->gates_[i]->unlock_shared();
      }
    }
    ReaderLock(const ReaderLock&) = delete;
    ReaderLock& operator=(const ReaderLock&) = delete;

   private:
    SessionPool* pool_;
  };

  /// The classic single gate (gate 0). External coordinators built before
  /// sharding (replication, server) run single-gate environments, where
  /// this *is* the writer-exclusive gate.
  std::shared_mutex& gate() { return *gates_[0]; }
  std::shared_mutex& gate_at(size_t shard) { return *gates_[shard]; }
  size_t gate_count() const { return gates_.size(); }

 private:
  friend class Session;

  Environment* env_;
  mutable std::mutex mu_;  // guards sessions_ and free_
  std::vector<std::unique_ptr<Session>> sessions_;
  std::vector<Session*> free_;  // released, awaiting reuse
  std::vector<std::unique_ptr<std::shared_mutex>> gates_;
};

}  // namespace gom::workload

#endif  // GOMFM_WORKLOAD_SESSION_H_
