#ifndef GOMFM_GMR_GMR_MANAGER_H_
#define GOMFM_GMR_GMR_MANAGER_H_

#include <iterator>
#include <memory>
#include <utility>
#include <vector>

#include "common/shard.h"
#include "gmr/gmr_catalog.h"
#include "gmr/gmr_maintenance.h"
#include "gmr/gmr_read_path.h"
#include "gmr/gmr_stats.h"
#include "gom/object_manager.h"
#include "storage/wal.h"

namespace gom {

/// Facade over the GMR planes:
///
///  * `GmrCatalog`    — the registry: extensions, column/predicate
///    directories, reverse-reference relation, dependency tables.
///  * `GmrReadPath`   — retrieval (§3.2): forward lookups and backward
///    range queries; shared latches for readers, in-place repair for
///    writers.
///  * `GmrMaintenance`— invalidation / rematerialization (§4),
///    compensating actions (§5.4), predicate maintenance (§6.1), batched
///    maintenance and write-ahead intents; exclusive over what it touches.
///
/// With `GmrManagerOptions::shards == N` the facade owns N such plane sets,
/// partitioned by OID hash of each object's *affinity root* (components of
/// a composite share their composite's shard, so one logical object's
/// maintenance never crosses planes). Every plane registers every GMR spec
/// in lockstep — GmrIds are global — but each row lives in exactly one
/// plane: the home shard of its argument combination. Per-object calls
/// (Invalidate, ForgetObject, intents) route to the object's home plane;
/// population and catalog-shape calls broadcast, with
/// `GmrMaintenance::OwnsArgs` guaranteeing each combination is admitted
/// once. With `shards == 1` (the default) every path below reduces to the
/// pre-sharding facade bit for bit.
///
/// The facade preserves the pre-split single-threaded API verbatim; the
/// context-taking overloads and `EnableConcurrentReads()` are the opt-in
/// concurrent surface (`workload::Environment::MakeSession` wires them up).
class GmrManager final : public ShardDirectory {
 public:
  using Stats = GmrStats;

  GmrManager(ObjectManager* om, funclang::Interpreter* interp,
             const funclang::FunctionRegistry* registry,
             StorageManager* storage, GmrManagerOptions options = {});
  ~GmrManager() override = default;

  GmrManager(const GmrManager&) = delete;
  GmrManager& operator=(const GmrManager&) = delete;

  // --- Sharding (ShardDirectory) --------------------------------------------

  size_t shard_count() const { return shards_; }

  /// Shard of `o`: OID hash of its affinity root (identity when unsharded).
  size_t ShardOfObject(Oid o) const override {
    return shards_ <= 1 ? 0 : ShardOfRaw(om_->AffinityRoot(o).raw, shards_);
  }

  /// Home shard of an argument combination: the shard of the first
  /// object-typed argument; all-atomic combinations live in shard 0.
  size_t ShardOfArgs(const std::vector<Value>& args) const override {
    if (shards_ <= 1) return 0;
    for (const Value& a : args) {
      if (a.kind() == ValueKind::kRef) return ShardOfObject(a.as_ref());
    }
    return 0;
  }

  GmrMaintenance* MaintenanceAt(size_t shard) override {
    return &planes_[shard]->maintenance;
  }
  Rrr* RrrAt(size_t shard) override { return &planes_[shard]->catalog.rrr(); }

  // --- Materialization (§3) -------------------------------------------------

  /// Creates the GMR ⟨⟨f1,…,fm⟩⟩ described by `spec`, derives SchemaDepFct
  /// from the static analysis of each member function (and the restriction
  /// predicate), and — for complete specs — populates the extension for
  /// every qualifying argument combination. Sharded, every plane registers
  /// the spec (GmrIds stay global) and populates only the combinations it
  /// owns.
  Result<GmrId> Materialize(GmrSpec spec) {
    GOMFM_ASSIGN_OR_RETURN(GmrId id,
                           planes_[0]->maintenance.Materialize(spec));
    for (size_t s = 1; s < shards_; ++s) {
      GOMFM_ASSIGN_OR_RETURN(GmrId other,
                             planes_[s]->maintenance.Materialize(spec));
      (void)other;  // lockstep registration: same id on every plane
    }
    return id;
  }

  /// Drops the GMR: rows, reverse references, ObjDepFct marks and
  /// dependency entries (broadcast; each plane cleans its partition).
  Status Dematerialize(GmrId id) {
    for (auto& p : planes_) {
      GOMFM_RETURN_IF_ERROR(p->maintenance.Dematerialize(id));
    }
    return Status::Ok();
  }

  /// Plane-0 extension (the whole extension when unsharded; tests and
  /// harnesses inspecting a sharded run iterate `GetAt`).
  Result<Gmr*> Get(GmrId id) { return planes_[0]->catalog.Get(id); }
  Result<Gmr*> GetAt(size_t shard, GmrId id) {
    return planes_[shard]->catalog.Get(id);
  }
  /// (GMR, column) of a materialized function; kNotFound otherwise.
  Result<std::pair<GmrId, size_t>> Locate(FunctionId f) const {
    return planes_[0]->catalog.Locate(f);
  }
  bool IsMaterialized(FunctionId f) const {
    return planes_[0]->catalog.IsMaterialized(f);
  }

  // --- Update notifications (§4) --------------------------------------------

  /// Version-1 invalidation: consider every materialized function.
  Status Invalidate(Oid o) { return maintenance_for(o).Invalidate(o); }

  /// Invalidates results of the functions in `relevant` that used `o`
  /// (the rewritten operations pass ObjDepFct ∩ SchemaDepFct, §5.2).
  Status Invalidate(Oid o, const FidSet& relevant) {
    return maintenance_for(o).Invalidate(o, relevant);
  }

  /// Variant carrying the elementary update behind the invalidation, so
  /// covered updates can be absorbed by derived update functions when the
  /// delta plane is enabled (`GmrManagerOptions::enable_delta`).
  Status Invalidate(Oid o, const FidSet& relevant, const DeltaUpdate* update) {
    return maintenance_for(o).Invalidate(o, relevant, update);
  }

  /// `o` of type `type` was created: extend complete GMRs (§4.2).
  /// Broadcast — each plane admits the combinations it owns.
  Status NewObject(Oid o, TypeId type) {
    for (auto& p : planes_) {
      GOMFM_RETURN_IF_ERROR(p->maintenance.NewObject(o, type));
    }
    return Status::Ok();
  }

  /// `o` is about to be deleted: drop rows it is an argument of (§4.2).
  Status ForgetObject(Oid o) { return maintenance_for(o).ForgetObject(o); }

  /// Runs the compensating actions declared for (type of receiver, op) and
  /// the functions in `relevant`, *before* the update executes (§5.4).
  /// `op_args` are the update operation's arguments (without the receiver).
  Status Compensate(Oid receiver, TypeId type, FunctionId op,
                    const std::vector<Value>& op_args,
                    const FidSet& relevant) {
    return maintenance_for(receiver).Compensate(receiver, type, op, op_args,
                                                relevant);
  }

  // --- Batched maintenance ---------------------------------------------------

  /// Opens an update batch. While a batch is open and the strategy is
  /// kImmediate, invalidations are downgraded to per-(GMR, row, column)
  /// records deduplicated in a flat hash set instead of recomputing on the
  /// spot; the matching EndBatch() recomputes each distinct invalidated
  /// result exactly once, so N updates hitting the same result cost one
  /// rematerialization instead of N. Under kLazy the batch is a no-op
  /// (lazy already defers; results recompute on access). Batches nest —
  /// only the outermost EndBatch() flushes.
  void BeginBatch() {
    for (auto& p : planes_) p->maintenance.BeginBatch();
  }

  /// Closes the innermost batch; the outermost close performs the coalesced
  /// rematerialization. Results recomputed by a ForwardLookup inside the
  /// batch (lazy catch-up) are skipped, as are rows removed in the interim.
  /// Sharded, the close is two-phase: every plane performs its flush work
  /// and writes its kBatchFlush + remat records to its own WAL stream
  /// (phase 1) before any plane writes its kBatchCommit and flushes
  /// (phase 2) — recovery then sees each stream either entirely pre-flush
  /// or durably committed.
  Status EndBatch() {
    Status first = Status::Ok();
    for (auto& p : planes_) {
      Status s = p->maintenance.EndBatchPhase1();
      if (first.ok() && !s.ok()) first = s;
    }
    for (auto& p : planes_) {
      Status s = p->maintenance.EndBatchPhase2();
      if (first.ok() && !s.ok()) first = s;
    }
    return first;
  }

  bool InBatch() const { return planes_[0]->maintenance.InBatch(); }

  /// RAII batch guard:
  ///
  ///   {
  ///     GmrManager::UpdateBatch batch(&mgr);
  ///     ... many updates ...
  ///     GOMFM_RETURN_IF_ERROR(batch.Commit());  // flush + observe errors
  ///   }
  ///
  /// The destructor flushes if Commit() was never called (errors are then
  /// dropped — call Commit() on paths that can report them).
  class UpdateBatch {
   public:
    explicit UpdateBatch(GmrManager* mgr) : mgr_(mgr) { mgr_->BeginBatch(); }
    ~UpdateBatch() {
      if (!done_) {
        Status dropped = mgr_->EndBatch();
        (void)dropped;
      }
    }
    UpdateBatch(const UpdateBatch&) = delete;
    UpdateBatch& operator=(const UpdateBatch&) = delete;

    Status Commit() {
      if (done_) return Status::Ok();
      done_ = true;
      return mgr_->EndBatch();
    }

   private:
    GmrManager* mgr_;
    bool done_ = false;
  };

  // --- Retrieval (§3.2) -----------------------------------------------------

  /// f(args) through the GMR: valid results are returned directly; invalid
  /// or missing results are (re)computed, updating the GMR per its policy.
  /// Falls back to plain evaluation when f is not materialized or its
  /// arguments fall outside a restriction. Routed to the plane owning the
  /// argument combination.
  Result<Value> ForwardLookup(FunctionId f, std::vector<Value> args) {
    return ForwardLookup(nullptr, f, std::move(args));
  }

  /// Context-carrying variant: a non-null `ctx` makes the lookup a reader,
  /// read-only under shared latches (see GmrReadPath).
  Result<Value> ForwardLookup(const ExecutionContext* ctx, FunctionId f,
                              std::vector<Value> args) {
    Plane& p = *planes_[ShardOfArgs(args)];
    return p.read_path.ForwardLookup(ctx, f, std::move(args));
  }

  /// Backward range query: argument combinations with lo ⋞ f(args) ⋞ hi.
  /// Requires a complete GMR; invalid results in f's column are recomputed
  /// first so the answer is correct under lazy rematerialization. Sharded,
  /// the per-plane answers are concatenated in shard order.
  Result<std::vector<std::vector<Value>>> BackwardRange(FunctionId f,
                                                        double lo, double hi,
                                                        bool lo_inclusive,
                                                        bool hi_inclusive) {
    return BackwardRange(nullptr, f, lo, hi, lo_inclusive, hi_inclusive);
  }

  Result<std::vector<std::vector<Value>>> BackwardRange(
      const ExecutionContext* ctx, FunctionId f, double lo, double hi,
      bool lo_inclusive, bool hi_inclusive) {
    std::vector<std::vector<Value>> merged;
    for (auto& p : planes_) {
      GOMFM_ASSIGN_OR_RETURN(
          std::vector<std::vector<Value>> part,
          p->read_path.BackwardRange(ctx, f, lo, hi, lo_inclusive,
                                     hi_inclusive));
      merged.insert(merged.end(), std::make_move_iterator(part.begin()),
                    std::make_move_iterator(part.end()));
    }
    return merged;
  }

  /// Recomputes every invalid result in f's column (broadcast).
  Status EnsureColumnValid(FunctionId f) {
    for (auto& p : planes_) {
      GOMFM_RETURN_IF_ERROR(p->maintenance.EnsureColumnValid(f));
    }
    return Status::Ok();
  }

  /// Lazy-rematerialization catch-up for all GMRs ("when the load of the
  /// object base management system falls below a threshold").
  Status RematerializeAllInvalid() {
    for (auto& p : planes_) {
      GOMFM_RETURN_IF_ERROR(p->maintenance.RematerializeAllInvalid());
    }
    return Status::Ok();
  }

  /// Recomputes a snapshot GMR wholesale: newly qualifying argument
  /// combinations are added, combinations whose objects disappeared are
  /// dropped, and every result is recomputed from the current state.
  /// (Also usable on regular GMRs as a consistency repair.)
  Status Refresh(GmrId id) {
    for (auto& p : planes_) {
      GOMFM_RETURN_IF_ERROR(p->maintenance.Refresh(id));
    }
    return Status::Ok();
  }

  /// Flags every result of the GMR invalid and drops its reverse
  /// references and ObjDepFct marks — the starting state of Fig. 10's
  /// "Lazy" configuration ("all materialized volume results had been
  /// invalidated before the benchmark was started — this causes the RRR
  /// and the sets ObjDepFct to be empty").
  Status InvalidateAllResults(GmrId id) {
    for (auto& p : planes_) {
      GOMFM_RETURN_IF_ERROR(p->maintenance.InvalidateAllResults(id));
    }
    return Status::Ok();
  }

  // --- Durability (write-ahead logging) --------------------------------------

  /// Attaches a write-ahead log (nullptr detaches). With a log attached the
  /// manager writes logical maintenance records — row changes, recomputed
  /// results, update intents, batch markers — that `RecoveryManager`
  /// replays after a crash. Detached, no logging happens at all. Attaches
  /// to plane 0; a sharded environment attaches one stream per plane via
  /// `AttachWalAt`.
  void AttachWal(WriteAheadLog* wal) { planes_[0]->maintenance.AttachWal(wal); }
  /// Per-plane attachment for sharded configurations: plane `shard` logs
  /// its maintenance records to `wal` (conventionally the WAL stream with
  /// id == shard).
  void AttachWalAt(size_t shard, WriteAheadLog* wal) {
    planes_[shard]->maintenance.AttachWal(wal);
  }
  WriteAheadLog* wal() { return planes_[0]->maintenance.wal(); }
  WriteAheadLog* wal_at(size_t shard) {
    return planes_[shard]->maintenance.wal();
  }

  /// Write-ahead declaration that `o` is about to be updated, called from
  /// the notifier's *before* hooks. When `o` has a non-empty ObjDepFct the
  /// intent record is appended and the log synchronously flushed — the
  /// invalidation the update implies must never be lost even if the update
  /// itself is. Objects no materialized result depends on log nothing.
  /// Every call pushes an open-intent frame; pair with LogUpdateCommit()
  /// (update completed) or LogUpdateAbort() (update failed, rolled back).
  /// Sharded, the intent goes to the object's home plane — and thus its
  /// home WAL stream, keeping each stream's intent…commit regions
  /// self-contained.
  Status LogUpdateIntent(Oid o) { return maintenance_for(o).LogUpdateIntent(o); }
  Status LogUpdateCommit(Oid o) { return maintenance_for(o).LogUpdateCommit(o); }
  Status LogUpdateAbort(Oid o) { return maintenance_for(o).LogUpdateAbort(o); }

  /// Write-ahead declaration that `o` is about to be deleted (flushed, like
  /// an update intent; no commit — replay reconciles against the object
  /// base). Called from ForgetObject(); no-op when no result depends on o.
  Status LogDeleteIntent(Oid o) { return maintenance_for(o).LogDeleteIntent(o); }

  // --- Knobs / introspection -------------------------------------------------

  void set_remat_strategy(RematStrategy s) {
    for (auto& p : planes_) p->maintenance.set_remat_strategy(s);
  }
  RematStrategy remat_strategy() const {
    return planes_[0]->maintenance.remat_strategy();
  }

  /// Demand-driven materialization: enable/retune the hotness-tracked cold
  /// row policy across all extensions (current and future).
  void set_demand_policy(const DemandOptions& d) {
    for (auto& p : planes_) p->maintenance.set_demand_policy(d);
  }
  const DemandOptions& demand_policy() const {
    return planes_[0]->maintenance.demand_policy();
  }

  DependencyTables& deps() { return planes_[0]->catalog.deps(); }
  const DependencyTables& deps() const { return planes_[0]->catalog.deps(); }
  Rrr& rrr() { return planes_[0]->catalog.rrr(); }

  /// Plane-0 counters: the entire truth when unsharded (every existing
  /// call site), one partition of it when sharded — use
  /// `AggregateStats()` / `stats_at` for a sharded run.
  const Stats& stats() const { return planes_[0]->stats; }
  /// Mutable access for external gauge owners (the WAL shipper publishes
  /// its retention floor as `wal_oldest_needed_lsn`).
  Stats& stats_mutable() { return planes_[0]->stats; }
  const Stats& stats_at(size_t shard) const { return planes_[shard]->stats; }
  void ResetStats() {
    for (auto& p : planes_) p->stats.Reset();
  }

  /// Sum of every plane's counters (plane 0's snapshot when unsharded).
  /// The gauge `wal_oldest_needed_lsn` is taken from plane 0, not summed.
  Stats::Counters AggregateStats() const;

  /// Registers the RelAttr-derived SchemaDepFct entries for a *native*
  /// materialized function whose dependencies cannot be extracted
  /// statically (the DB programmer supplies them, as with InvalidatedFct).
  void DeclareRelAttr(FunctionId f,
                      const std::set<funclang::RelevantProperty>& rel_attr) {
    for (auto& p : planes_) p->catalog.deps().AddRelAttr(rel_attr, f);
  }

  /// Installs the §3.2 call mapping on the interpreter: nested untraced
  /// invocations of materialized functions are answered through
  /// ForwardLookup. Re-entrant calls issued while the manager itself is
  /// computing (e.g. a lazy recomputation triggered by the lookup), or
  /// while a concurrent session evaluates a fallback, drop through to
  /// plain evaluation.
  void InstallCallInterception();

  /// Switches the catalogs into concurrent mode: from here on the
  /// maintenance planes latch their catalog exclusively at their entry
  /// points and reader sessions may run under shared latches. One-way;
  /// called by `Environment::MakeSession` before any reader thread starts.
  void EnableConcurrentReads() {
    for (auto& p : planes_) p->catalog.set_concurrent_mode(true);
  }

  /// Forwarded to every plane's read path (see GmrReadPath::set_io_stall_us).
  void set_io_stall_us(int us) {
    for (auto& p : planes_) p->read_path.set_io_stall_us(us);
  }

  /// Forwarded to every plane's maintenance (see
  /// GmrMaintenance::set_maintenance_stall_us).
  void set_maintenance_stall_us(int us) {
    for (auto& p : planes_) p->maintenance.set_maintenance_stall_us(us);
  }

  /// Component access (tests, recovery, harnesses): plane 0, plus indexed
  /// variants for sharded runs.
  GmrCatalog& catalog() { return planes_[0]->catalog; }
  GmrMaintenance& maintenance() { return planes_[0]->maintenance; }
  GmrReadPath& read_path() { return planes_[0]->read_path; }
  GmrCatalog& catalog_at(size_t shard) { return planes_[shard]->catalog; }
  GmrMaintenance& maintenance_at(size_t shard) {
    return planes_[shard]->maintenance;
  }
  GmrReadPath& read_path_at(size_t shard) {
    return planes_[shard]->read_path;
  }

 private:
  friend class RecoveryManager;

  /// One maintenance plane: its own stats, catalog (extensions + RRR
  /// partition + directories), maintenance instance and read path.
  struct Plane {
    Plane(ObjectManager* om, funclang::Interpreter* interp,
          const funclang::FunctionRegistry* registry, StorageManager* storage,
          const GmrManagerOptions& options)
        : catalog(om, registry, storage, options.second_chance_rrr),
          maintenance(om, interp, registry, &catalog, &stats, options),
          read_path(interp, &catalog, &maintenance, &stats) {}
    GmrStats stats;
    GmrCatalog catalog;
    GmrMaintenance maintenance;
    GmrReadPath read_path;
  };

  GmrMaintenance& maintenance_for(Oid o) {
    return planes_[ShardOfObject(o)]->maintenance;
  }

  /// Validation + registration part of Materialize() — everything except
  /// populating the extension. RecoveryManager re-registers the original
  /// specs through this (in the original order, so GmrIds in the log stay
  /// meaningful) and then replays the extension from the log instead.
  Result<GmrId> RegisterGmr(GmrSpec spec) {
    GOMFM_ASSIGN_OR_RETURN(GmrId id,
                           planes_[0]->maintenance.RegisterGmr(spec));
    for (size_t s = 1; s < shards_; ++s) {
      GOMFM_ASSIGN_OR_RETURN(GmrId other,
                             planes_[s]->maintenance.RegisterGmr(spec));
      (void)other;  // lockstep registration: same id on every plane
    }
    return id;
  }

  ObjectManager* om_;
  funclang::Interpreter* interp_;
  size_t shards_;
  std::vector<std::unique_ptr<Plane>> planes_;
};

}  // namespace gom

#endif  // GOMFM_GMR_GMR_MANAGER_H_
