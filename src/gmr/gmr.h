#ifndef GOMFM_GMR_GMR_H_
#define GOMFM_GMR_GMR_H_

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/execution_context.h"
#include "common/sim_clock.h"
#include "common/status.h"
#include "funclang/delta_analysis.h"
#include "gom/type.h"
#include "gom/value.h"
#include "index/bplus_tree.h"
#include "index/hash_index.h"
#include "storage/chunked_record.h"

namespace gom {

using GmrId = uint32_t;
inline constexpr GmrId kInvalidGmrId = UINT32_MAX;
using RowId = uint64_t;
inline constexpr RowId kInvalidRowId = UINT64_MAX;

/// Demand-driven materialization policy (opt-in). When enabled, an update
/// hitting a *cold* row only invalidates it — the rematerialization happens
/// on the next forward query, exactly as under RematStrategy::kLazy. Rows
/// that are *hot* (accessed at least `hot_threshold` times across the
/// current and previous aging window) are repaired eagerly so readers keep
/// their cache hits. Windows age every `epoch_accesses` tracked accesses of
/// the extension, so hotness decays without any timer thread.
struct DemandOptions {
  bool enabled = false;
  uint32_t hot_threshold = 3;
  uint32_t epoch_accesses = 256;
};

/// §6.2: restriction of an atomic argument. Functions with atomic argument
/// types cannot be materialized for all values; float arguments must be
/// value-restricted, int arguments may be value- or range-restricted.
struct ArgRestriction {
  enum class Kind : uint8_t { kNone, kValues, kIntRange };
  Kind kind = Kind::kNone;
  std::vector<Value> values;  // kValues
  int64_t lo = 0, hi = 0;     // kIntRange (inclusive)

  static ArgRestriction None() { return {}; }
  static ArgRestriction Values(std::vector<Value> vs) {
    return {Kind::kValues, std::move(vs), 0, 0};
  }
  static ArgRestriction IntRange(int64_t lo, int64_t hi) {
    return {Kind::kIntRange, {}, lo, hi};
  }

  /// True when `v` is inside the restricted argument domain.
  Result<bool> Admits(const Value& v) const;

  /// Enumerates the restricted domain (kValues and kIntRange only).
  Result<std::vector<Value>> Enumerate() const;
};

/// Declaration of a generalized materialization relation
/// ⟨⟨f1, …, fm⟩⟩ : [O1:t1, …, On:tn, f1:tn+1, V1:bool, …, fm:tn+m, Vm:bool]
/// (Definition 3.1), optionally p-restricted (Definition 6.1).
struct GmrSpec {
  std::string name;
  /// Shared argument types t1…tn of all member functions.
  std::vector<TypeRef> arg_types;
  /// Per-argument domain restrictions (atomic arguments only); parallel to
  /// `arg_types`, missing entries mean unrestricted.
  std::vector<ArgRestriction> arg_restrictions;
  /// The member functions f1…fm.
  std::vector<FunctionId> functions;
  /// Restriction predicate p : t1,…,tn → bool, or kInvalidFunctionId.
  FunctionId predicate = kInvalidFunctionId;
  /// Complete (one entry per qualifying argument combination) vs
  /// incrementally set-up extension used as a result cache (§3.2).
  bool complete = true;
  /// Row cap for incrementally set-up GMRs (0 = unlimited); exceeding it
  /// evicts the least recently used entry.
  size_t max_rows = 0;

  /// Snapshot mode (the Adiba/Lindsay-style alternative §1 relates to):
  /// no reverse references, no invalidation — updates cost nothing and
  /// reads may be stale until an explicit GmrManager::Refresh() recomputes
  /// the extension wholesale.
  bool snapshot = false;

  size_t arity() const { return arg_types.size(); }
  size_t function_count() const { return functions.size(); }
};

/// One GMR extension: rows [args | result_j, valid_j], kept *consistent*
/// (Definition 3.2: every valid result equals the current function value).
///
/// Physical design per §3.1/§3.3: rows are stored in their own segment,
/// disassociated from the argument objects (the CS-beats-CT result of
/// Jhingran's POSTGRES study); a hash index over the argument combination
/// serves forward queries and one ordered index per numeric result column
/// serves backward range queries. Reads and writes of rows touch their
/// pages through the buffer pool, charging simulated I/O.
class Gmr {
 public:
  Gmr(GmrId id, GmrSpec spec, StorageManager* storage, SimClock* clock,
      const CostModel& cost);

  Gmr(const Gmr&) = delete;
  Gmr& operator=(const Gmr&) = delete;

  struct Row {
    std::vector<Value> args;
    std::vector<Value> results;  // parallel to spec().functions
    std::vector<bool> valid;
    bool live = true;
    uint64_t last_access = 0;  // recency for bounded caches
  };

  GmrId id() const { return id_; }
  const GmrSpec& spec() const { return spec_; }

  /// Observer for extension changes, called with (inserted, args) after a
  /// row joins and before a row leaves the extension — every path included
  /// (explicit removal, predicate eviction, LRU eviction). The GMR manager
  /// uses it to write row-change records to the WAL; a failing hook aborts
  /// the change.
  using ChangeHook =
      std::function<Status(bool inserted, const std::vector<Value>& args)>;
  void set_change_hook(ChangeHook hook) { change_hook_ = std::move(hook); }

  /// Index of `f` in the function list; kNotFound if not a member.
  Result<size_t> FunctionIndex(FunctionId f) const;

  /// Inserts a row for `args` with all results invalid. kAlreadyExists when
  /// a row for the argument combination exists. May evict the LRU row when
  /// the spec's `max_rows` cap is hit.
  Result<RowId> Insert(std::vector<Value> args);

  /// Row for an argument combination (charges an index probe), kNotFound
  /// when absent.
  Result<RowId> FindRow(const std::vector<Value>& args) const;

  /// Reads a row, touching its pages, and marks it most recently used.
  Result<const Row*> Get(RowId row);

  /// Read-only form of Get: touches the row's pages but leaves recency
  /// alone, so it is safe under a shared `latch()`.
  Result<const Row*> Read(RowId row) const;

  /// Marks `row` most recently used (the bounded cache's LRU order).
  /// Requires exclusive access.
  void MarkUsed(RowId row) { rows_[row].last_access = ++access_counter_; }

  /// The forward probe of the read path: resolves `args` and reads result
  /// column `fn_idx` without mutating any bookkeeping — no recency bump,
  /// no insertion, no self-healing. kNotFound means no row for the
  /// argument combination; an engaged optional is a valid cached result
  /// (copied out); nullopt means the row exists but the result is invalid.
  /// Pages are touched (disk time charges the shared global clock); CPU
  /// charges go to `ctx` when supplied. Safe under a shared `latch()`.
  /// When `row_out` is non-null it receives the resolved RowId so callers
  /// can RecordAccess() it (the one permitted piece of bookkeeping: lock-free
  /// hotness counters, still safe under a shared latch).
  Result<std::optional<Value>> ReadResult(const std::vector<Value>& args,
                                          size_t fn_idx,
                                          const ExecutionContext* ctx = nullptr,
                                          RowId* row_out = nullptr) const;

  /// --- Demand-driven hotness tracking -------------------------------------
  /// Reconfigures the policy; requires exclusive access (maintenance plane).
  void set_demand(const DemandOptions& d) { demand_ = d; }
  const DemandOptions& demand() const { return demand_; }

  /// Counts one access of `row` toward its hotness. Lock-free (atomic slot
  /// per row) and safe under a shared latch; no-op while the policy is off,
  /// so tracking cannot perturb runs with the policy disabled.
  void RecordAccess(RowId row) const;

  /// True when `row` was accessed >= hot_threshold times over the current
  /// plus previous aging window. With the policy disabled every row reports
  /// hot (eager repair, i.e. the pre-policy behavior).
  bool IsHot(RowId row) const;

  /// Tracked accesses since the policy was (re)configured.
  uint64_t demand_access_count() const {
    return demand_accesses_.load(std::memory_order_relaxed);
  }

  /// Number of live rows currently hot under the demand policy (0 while the
  /// policy is off — IsHot's "everything is hot" answer there encodes eager
  /// repair, not observed demand). Safe under a shared latch.
  size_t HotRowCount() const;

  /// Validity bit of one result, without touching storage (bookkeeping
  /// read, like ForEachRow — callers Get() any row *data* they consume).
  Result<bool> ResultValid(RowId row, size_t fn_idx) const;

  /// Stores a freshly (re)computed result and marks it valid.
  Status SetResult(RowId row, size_t fn_idx, Value result);

  /// Marks one result invalid (lazy rematerialization, §3.1).
  Status InvalidateResult(RowId row, size_t fn_idx);

  /// Removes the whole row (argument object deleted / predicate now false).
  Status Remove(RowId row);

  /// Ordered scan over *valid* results of column `fn_idx` within
  /// [lo, hi] (backward range query). `cb` returns false to stop. The
  /// index probe charges `ctx`'s clock when supplied; rows are read with
  /// Read(), so the scan is safe under a shared `latch()`.
  void ScanValidRange(size_t fn_idx, double lo, double hi, bool lo_inclusive,
                      bool hi_inclusive, const ExecutionContext* ctx,
                      const std::function<bool(RowId, const Row&)>& cb) const;

  /// Iterates all live rows (no storage touch — callers Get() what they
  /// read). Mutating the GMR during iteration is not allowed.
  void ForEachRow(const std::function<bool(RowId, const Row&)>& cb) const;

  /// RowIds of rows whose result `fn_idx` is invalid.
  std::vector<RowId> InvalidRows(size_t fn_idx) const;

  /// Observed [min, max] of the valid results in column `fn_idx`
  /// (planner statistics); kFailedPrecondition when the column has no
  /// valid numeric results.
  Result<std::pair<double, double>> ValueRange(size_t fn_idx) const;

  /// Per-GMR split of how its stale results were repaired: applied in place
  /// by a derived update function, recomputed through the interpreter, or
  /// sent down the remat path because the delta plane could not absorb the
  /// update. Bumped by the maintenance plane (atomics: concurrent sessions
  /// may snapshot while maintenance runs).
  struct MaintCounters {
    std::atomic<uint64_t> delta_applies{0};
    std::atomic<uint64_t> rematerializations{0};
    std::atomic<uint64_t> fallbacks{0};
  };
  MaintCounters& maint_counters() const { return maint_counters_; }

  /// Leaf-value capture of the delta-maintenance plane, keyed per
  /// (row, result column). An entry exists only while the stored result is
  /// exactly the value its cached leaves evaluate to: every other mutation
  /// of the result — SetResult, InvalidateResult, Remove — drops it, which
  /// is why the cache lives here and not in the maintenance plane.
  /// TakeDeltaLeaves removes and returns the capture (nullopt when none);
  /// after a successful delta apply the caller re-installs the updated
  /// capture with PutDeltaLeaves — *after* its own SetResult call, which
  /// would otherwise clear it again.
  std::optional<std::vector<funclang::DeltaLeaf>> TakeDeltaLeaves(
      RowId row, size_t fn_idx);
  void PutDeltaLeaves(RowId row, size_t fn_idx,
                      std::vector<funclang::DeltaLeaf> leaves);

  size_t live_rows() const { return live_rows_; }
  uint64_t invalidation_count() const { return invalidations_; }
  uint64_t lookup_count() const {
    return lookups_.load(std::memory_order_relaxed);
  }

  /// Per-extension latch, locked by the component layer (shared for the
  /// read plane, exclusive for maintenance). The Gmr's own methods never
  /// take it — they nest (ScanValidRange → Get, Insert → EvictLru), and
  /// the single-threaded owner path must stay latch-free.
  std::shared_mutex& latch() const { return latch_; }

  /// Consistency probe for tests: a Definition-3.2-consistent extension
  /// never has valid == true with a null result.
  Status CheckWellFormed() const;

 private:
  /// The session's clock when `ctx` carries one, else the global clock.
  SimClock* ClockFor(const ExecutionContext* ctx) const {
    return ctx != nullptr && ctx->clock != nullptr ? ctx->clock : clock_;
  }
  Status IndexResult(RowId row, size_t fn_idx, const Value& v);
  Status UnindexResult(RowId row, size_t fn_idx, const Value& v);
  Status EvictLru();

  GmrId id_;
  GmrSpec spec_;
  ChangeHook change_hook_;
  StorageManager* storage_;
  SimClock* clock_;
  CostModel cost_;
  ChunkedRecordStore rows_store_;

  std::vector<Row> rows_;
  std::vector<ChunkedRecordStore::Handle> handles_;
  HashIndex arg_index_;
  /// One ordered index per function column (numeric results only; nullptr
  /// for columns with non-numeric result types).
  std::vector<std::unique_ptr<BPlusTree>> result_indexes_;

  std::map<std::pair<RowId, size_t>, std::vector<funclang::DeltaLeaf>>
      delta_leaves_;

  size_t live_rows_ = 0;
  uint64_t access_counter_ = 0;
  uint64_t invalidations_ = 0;
  /// Hotness slot per row, packed epoch:32 | prev_count:16 | cur_count:16.
  /// Plain storage accessed through std::atomic_ref: the vector only grows
  /// in Insert (exclusive access), while readers under a shared latch bump
  /// slots lock-free.
  mutable std::vector<uint64_t> hot_slots_;
  mutable std::atomic<uint64_t> demand_accesses_{0};
  DemandOptions demand_;
  mutable std::atomic<uint64_t> lookups_{0};
  mutable MaintCounters maint_counters_;
  mutable std::shared_mutex latch_;
};

}  // namespace gom

#endif  // GOMFM_GMR_GMR_H_
