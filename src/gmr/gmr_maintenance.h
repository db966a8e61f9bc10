#ifndef GOMFM_GMR_GMR_MAINTENANCE_H_
#define GOMFM_GMR_GMR_MAINTENANCE_H_

#include <atomic>
#include <unordered_map>
#include <vector>

#include "funclang/delta_analysis.h"
#include "funclang/interpreter.h"
#include "gmr/gmr_catalog.h"
#include "gmr/gmr_stats.h"
#include "storage/wal.h"

namespace gom {

/// When to recompute an invalidated result (§3.1).
enum class RematStrategy : uint8_t {
  /// Invalidated results are recomputed as soon as the invalidation occurs.
  kImmediate,
  /// Invalidated results are only flagged; recomputation happens at the
  /// next access (or an explicit RematerializeAllInvalid()).
  kLazy,
};

struct GmrManagerOptions {
  RematStrategy remat = RematStrategy::kImmediate;
  /// §4.1: mark RRR entries instead of removing them on invalidation, so a
  /// re-used object resurrects its entry instead of delete+insert churn.
  bool second_chance_rrr = false;
  /// Delta maintenance: when an elementary update is covered by a derived
  /// update function, repair the stored result in place instead of
  /// invalidating and rematerializing. Off by default so the paper's
  /// figures stay bit-identical; uncovered updates always fall back to the
  /// remat path regardless of this flag.
  bool enable_delta = false;
  /// Demand-driven materialization (see DemandOptions in gmr.h): cold rows
  /// are only invalidated on update and repaired at next access; hot rows
  /// keep the configured remat strategy. Off by default — when disabled no
  /// access tracking happens at all, so existing figures stay bit-identical.
  DemandOptions demand;
  /// Number of maintenance planes the GmrManager partitions its state into
  /// (catalog, RRR, batch/delta state, WAL stream, gate — one set per
  /// shard, keyed by OID hash of the affinity root). 1 = the unsharded
  /// configuration; every code path then reduces to the pre-sharding
  /// behavior bit for bit.
  size_t shards = 1;
};

/// Cross-plane routing interface a sharded GmrManager implements: the
/// maintenance planes use it to find the plane owning an object's reverse
/// references or a row's argument combination. Declared here (not in
/// gmr_manager.h) to break the header cycle — maintenance never needs the
/// facade, only this directory.
class GmrMaintenance;
class ShardDirectory {
 public:
  virtual ~ShardDirectory() = default;
  /// Shard of the object (by OID hash of its affinity root).
  virtual size_t ShardOfObject(Oid o) const = 0;
  /// Home shard of an argument combination: the shard of the first
  /// object-typed argument (shard 0 for all-atomic combinations).
  virtual size_t ShardOfArgs(const std::vector<Value>& args) const = 0;
  virtual GmrMaintenance* MaintenanceAt(size_t shard) = 0;
  virtual Rrr* RrrAt(size_t shard) = 0;
};

/// The elementary update an invalidation stems from, threaded from the
/// notifier down to per-entry handling so delta rules can be matched
/// against the changed (type, attribute) and applied with the pre-update
/// value. Valid only for the duration of the Invalidate() call.
struct DeltaUpdate {
  TypeId type = kInvalidTypeId;
  AttrId attr = kInvalidAttrId;
  const Value* old_value = nullptr;
  const Value* new_value = nullptr;
};

/// The maintenance plane of the GMR machinery: invalidation and
/// rematerialization (§4), compensating actions (§5.4), restricted-GMR
/// predicate maintenance (§6.1), batched maintenance and the write-ahead
/// intents that make it crash consistent. Everything here may mutate the
/// catalog's extensions; once the catalog is in concurrent mode each public
/// entry point takes the catalog latch exclusively (readers nest extension
/// latches under the shared catalog latch, so exclusive catalog access
/// implies exclusive access to every row it touches).
///
/// Single-writer discipline: maintenance runs on one thread at a time (the
/// owner thread, or the writer of a `SessionPool` holding the writer gate).
class GmrMaintenance {
 public:
  GmrMaintenance(ObjectManager* om, funclang::Interpreter* interp,
                 const funclang::FunctionRegistry* registry,
                 GmrCatalog* catalog, GmrStats* stats,
                 GmrManagerOptions options);

  GmrMaintenance(const GmrMaintenance&) = delete;
  GmrMaintenance& operator=(const GmrMaintenance&) = delete;

  /// RAII exclusive section: locks the catalog latch when concurrent mode
  /// is on and this is the outermost maintenance frame on the thread; a
  /// no-op in single-threaded owner runs. The read path wraps its
  /// writer (mutating) lookups in one as well.
  class ExclusiveRegion {
   public:
    explicit ExclusiveRegion(GmrMaintenance* m) : m_(m) {
      bool outermost = m_->exclusive_depth_++ == 0;
      locked_ = outermost && m_->catalog_->concurrent_mode();
      if (locked_) m_->catalog_->latch().lock();
    }
    ~ExclusiveRegion() {
      --m_->exclusive_depth_;
      if (locked_) m_->catalog_->latch().unlock();
    }
    ExclusiveRegion(const ExclusiveRegion&) = delete;
    ExclusiveRegion& operator=(const ExclusiveRegion&) = delete;

   private:
    GmrMaintenance* m_;
    bool locked_ = false;
  };

  // --- Materialization (§3) --------------------------------------------------

  /// Registers the GMR and, for complete specs, populates the extension for
  /// every qualifying argument combination.
  Result<GmrId> Materialize(GmrSpec spec);

  /// Validation + registration only (recovery replays the extension from
  /// the log instead of repopulating).
  Result<GmrId> RegisterGmr(GmrSpec spec);

  /// Drops the GMR: rows, reverse references, ObjDepFct marks and
  /// dependency entries.
  Status Dematerialize(GmrId id);

  // --- Update notifications (§4) ---------------------------------------------

  Status Invalidate(Oid o);
  Status Invalidate(Oid o, const FidSet& relevant);
  /// Variant carrying the elementary update that caused the invalidation;
  /// with `enable_delta` this is what lets covered updates apply in place.
  Status Invalidate(Oid o, const FidSet& relevant, const DeltaUpdate* update);
  Status NewObject(Oid o, TypeId type);
  Status ForgetObject(Oid o);
  Status Compensate(Oid receiver, TypeId type, FunctionId op,
                    const std::vector<Value>& op_args, const FidSet& relevant);

  // --- Batched maintenance ---------------------------------------------------

  void BeginBatch();
  Status EndBatch();
  bool InBatch() const { return batch_depth_ > 0; }

  /// Two-phase close for sharded batches. Phase 1 closes the innermost
  /// batch and — when outermost — performs the coalesced delta applies and
  /// rematerializations, writing this plane's kBatchFlush marker and remat
  /// records to its own WAL stream. Phase 2 writes the kBatchCommit marker
  /// and flushes. A sharded EndBatch runs phase 1 on every plane before any
  /// plane's phase 2, so a crash leaves each stream either entirely before
  /// its flush or with a durable commit — per-shard atomicity with one
  /// coordination point. EndBatch() == Phase1 + Phase2 back to back, which
  /// is exactly the unsharded code path.
  Status EndBatchPhase1();
  Status EndBatchPhase2();

  // --- Column / extension repair ---------------------------------------------

  /// Recomputes every invalid result in f's column.
  Status EnsureColumnValid(FunctionId f);
  Status RematerializeAllInvalid();
  Status Refresh(GmrId id);
  Status InvalidateAllResults(GmrId id);

  // --- Durability (write-ahead logging) --------------------------------------

  void AttachWal(WriteAheadLog* wal) { wal_ = wal; }
  WriteAheadLog* wal() { return wal_; }
  Status LogUpdateIntent(Oid o);
  Status LogUpdateCommit(Oid o);
  Status LogUpdateAbort(Oid o);
  Status LogDeleteIntent(Oid o);

  // --- Knobs -----------------------------------------------------------------

  void set_remat_strategy(RematStrategy s) { options_.remat = s; }
  RematStrategy remat_strategy() const { return options_.remat; }

  /// Demand-driven materialization knob: records the policy and pushes the
  /// configuration into every registered extension (exclusive access; safe
  /// while reader sessions are live). Extensions registered later inherit
  /// the policy automatically.
  void set_demand_policy(const DemandOptions& d);
  const DemandOptions& demand_policy() const { return options_.demand; }

  /// Re-entrancy guard for call interception on the owner/writer thread:
  /// >0 while this plane is (re)computing a function. Atomic because reader
  /// sessions consult it from the interceptor.
  int compute_depth() const {
    return compute_depth_.load(std::memory_order_relaxed);
  }

  /// Simulated maintenance-I/O latency: every rematerialization sleeps this
  /// long (wall clock). The write-path analogue of
  /// GmrReadPath::set_io_stall_us — it models the I/O-dominated regime
  /// where update-storm scaling comes from writers on *different* shards
  /// overlapping their stalls, which per-shard gates permit and the single
  /// writer-exclusive gate forbids. 0 (the default) never sleeps, so
  /// simulated-time figures are unaffected.
  void set_maintenance_stall_us(int us) {
    maint_stall_us_.store(us, std::memory_order_relaxed);
  }

  // --- Sharding --------------------------------------------------------------

  /// Wires this plane into a sharded manager: `dir` resolves cross-plane
  /// routing, `index` is this plane's shard, `count` the total. Never
  /// called in the unsharded configuration — all helpers below then
  /// short-circuit to plane-local behavior.
  void ConfigureShard(ShardDirectory* dir, size_t index, size_t count) {
    shard_dir_ = dir;
    shard_index_ = index;
    shard_count_ = count;
  }
  size_t shard_index() const { return shard_index_; }

  /// True when this plane is the home of `args` (always true unsharded).
  /// Gates admission: broadcast population (Materialize, NewObject) calls
  /// AdmitCombo on every plane, and exactly one owns each combination.
  bool OwnsArgs(const std::vector<Value>& args) const {
    return shard_count_ <= 1 || shard_dir_->ShardOfArgs(args) == shard_index_;
  }

 private:
  /// Plane owning the row for `args` (this plane unsharded).
  GmrMaintenance* PlaneForArgs(const std::vector<Value>& args) {
    return shard_count_ <= 1
               ? this
               : shard_dir_->MaintenanceAt(shard_dir_->ShardOfArgs(args));
  }

  /// RRR partition holding the reverse references of `o` (the local
  /// catalog's RRR unsharded).
  Rrr* rrr_for(Oid o);

 public:

  // --- Component-internal API (read path, recovery) --------------------------

  /// Invokes f(args) under the re-entrancy guard, counting the
  /// rematerialization.
  Result<Value> ComputeTracked(FunctionId f, const std::vector<Value>& args,
                               funclang::Trace* trace);

  /// Inserts reverse references (and ObjDepFct marks) for every object the
  /// trace touched during (re)materialization of f(args).
  Status RecordReverseRefs(FunctionId f, const std::vector<Value>& args,
                           const funclang::Trace& trace);

  /// RecordReverseRefs from an explicit object list (WAL replay, where the
  /// trace is read from the log instead of a live computation).
  Status RecordReverseRefsFromOids(FunctionId f,
                                   const std::vector<Value>& args,
                                   const std::vector<Oid>& oids);

  /// Removes one reverse reference, unmarking ObjDepFct when it was the
  /// last entry for (object, function).
  Status RemoveReverseRef(const Rrr::Entry& entry);

  /// Creates a row for `args` (predicate permitting); see the .cc for the
  /// force_materialize semantics.
  Status AdmitCombo(Gmr* gmr, const std::vector<Value>& args,
                    bool force_materialize = false);

  /// Computes and stores all member-function results of a row.
  Status MaterializeRow(Gmr* gmr, RowId row);

  /// Enumerates all argument combinations of the spec's (restricted)
  /// domains; object-typed positions range over the type extension.
  Status EnumerateCombos(
      const GmrSpec& spec,
      const std::function<Status(const std::vector<Value>&)>& fn);
  Status EnumerateCombosFixed(
      const GmrSpec& spec, size_t fixed_pos, const Value& fixed,
      const std::function<Status(const std::vector<Value>&)>& fn);

  /// Appends a kRematResult record for a freshly computed result.
  Status LogRemat(GmrId id, size_t col, const std::vector<Value>& args,
                  const Value& value, const std::vector<Oid>& accessed);

 private:
  friend class ExclusiveRegion;

  Status LogMarker(WalRecordType type);
  Status LogRowChange(WalRecordType type, GmrId id,
                      const std::vector<Value>& args);
  bool HasOpenIntent(Oid o) const;

  /// Invalidation entry point shared by the public overloads: brackets the
  /// walk in a self-logged intent…commit pair when no intent is open for
  /// `o` (programmatic Invalidate() calls outside the notifier path).
  Status InvalidateGuarded(Oid o, const FidSet* relevant,
                           const DeltaUpdate* update);
  Status InvalidateImpl(Oid o, const FidSet* relevant,
                        const DeltaUpdate* update);

  /// §4.1 invalidation of one RRR entry under the active strategy.
  Status HandleFunctionEntry(Gmr* gmr, size_t fn_idx, const Rrr::Entry& entry,
                             const DeltaUpdate* update);

  /// Attempts to absorb the update with a derived update function. On
  /// success (`*applied` true) the reverse reference is kept and either the
  /// stored result was repaired in place (with a kDeltaApply record logged)
  /// or — inside an open batch — the apply was folded into a pending
  /// per-(GMR, row, column) delta that EndBatch() materializes once.
  /// Otherwise the caller proceeds down the invalidate/remat path.
  Status TryDeltaApply(Gmr* gmr, size_t fn_idx, RowId row,
                       const Rrr::Entry& entry, const DeltaUpdate& update,
                       bool* applied);

  /// Appends a kDeltaApply record (kRematResult codec; `value` is the
  /// absolute post-delta result, `accessed` the changed objects whose
  /// updates it absorbed).
  Status LogDeltaApply(GmrId id, size_t col, const std::vector<Value>& args,
                       const Value& value, const std::vector<Oid>& changed);

  /// §6.1 predicate maintenance for one RRR entry of a restriction
  /// predicate.
  Status HandlePredicateEntry(Gmr* gmr, const Rrr::Entry& entry);

  /// One deferred invalidation: the (GMR, row, column) coordinate of a
  /// result flagged invalid while a batch was open.
  struct BatchKey {
    GmrId gmr;
    uint32_t col;
    RowId row;
    bool operator==(const BatchKey& other) const {
      return gmr == other.gmr && col == other.col && row == other.row;
    }
  };
  struct BatchKeyHash {
    uint64_t operator()(const BatchKey& k) const {
      return MixHash64(k.row ^
                       MixHash64((static_cast<uint64_t>(k.gmr) << 32) |
                                 k.col));
    }
  };

  /// Recomputes one deferred (GMR, row, column) if its row survived the
  /// batch and no lookup revalidated it in the meantime.
  Status RematerializeDeferred(const BatchKey& key);

  /// A covered update absorbed while a batch was open: the result is left
  /// invalid and the apply is deferred so an update storm on the same row
  /// pays one evaluation + one store write at EndBatch() instead of one per
  /// write — the delta-plane analogue of the coalesced remat queue.
  struct PendingDelta {
    funclang::DeltaClass cls = funclang::DeltaClass::kOpaque;
    /// kScalarRecompute: the leaf capture with every absorbed write already
    /// substituted; `has_capture` false means no capture was available and
    /// EndBatch() evaluates the program against the (then final) base.
    bool has_capture = false;
    std::vector<funclang::DeltaLeaf> leaves;
    /// kAggregateSum: stored result at deferral time plus the accumulated
    /// Σ(new − old) of the absorbed element updates.
    double agg_base = 0.0;
    double agg_acc = 0.0;
    /// Distinct changed objects, for the WAL record's accessed list.
    std::vector<Oid> changed;
  };

  /// Materializes one pending delta at EndBatch(): evaluates the capture
  /// (or the program, or base + acc), logs kDeltaApply, stores the result.
  Status ApplyDeferredDelta(const BatchKey& key, PendingDelta pd);

  ObjectManager* om_;
  funclang::Interpreter* interp_;
  const funclang::FunctionRegistry* registry_;
  GmrCatalog* catalog_;
  GmrStats* stats_;
  GmrManagerOptions options_;
  WriteAheadLog* wal_ = nullptr;
  /// Derives (and caches) update rules per function. Consulted lazily at
  /// invalidation time, only when `enable_delta` is on.
  funclang::DeltaAnalyzer delta_analyzer_;

  /// Updates announced but not yet committed/aborted. `logged` is false for
  /// intents the UsedBy filter suppressed (their commit is suppressed too).
  struct OpenIntent {
    Oid oid;
    bool logged;
  };
  std::vector<OpenIntent> open_intents_;

  std::atomic<int> compute_depth_{0};
  int exclusive_depth_ = 0;  // ExclusiveRegion nesting on the single writer
  std::atomic<int> maint_stall_us_{0};

  ShardDirectory* shard_dir_ = nullptr;
  size_t shard_index_ = 0;
  size_t shard_count_ = 1;

  int batch_depth_ = 0;
  /// Set by EndBatchPhase1 when it performed the outermost flush; consumed
  /// by EndBatchPhase2 (inner closes make phase 2 a no-op).
  bool batch_flush_open_ = false;
  FlatHashSet<BatchKey, BatchKeyHash> batch_pending_;
  /// Flush order: first-invalidation order, for deterministic replay of the
  /// simulated clock charges.
  std::vector<BatchKey> batch_order_;

  /// Deferred delta applies of the open batch. A key queued for a fallback
  /// remat is erased here (the remat subsumes it), so a (row, column) never
  /// has both a pending delta and a pending remat. `delta_order_` gives the
  /// deterministic commit order; erased keys are skipped.
  std::unordered_map<BatchKey, PendingDelta, BatchKeyHash> delta_pending_;
  std::vector<BatchKey> delta_order_;
};

}  // namespace gom

#endif  // GOMFM_GMR_GMR_MAINTENANCE_H_
