#ifndef GOMFM_GMR_GMR_READ_PATH_H_
#define GOMFM_GMR_GMR_READ_PATH_H_

#include <atomic>
#include <vector>

#include "common/execution_context.h"
#include "funclang/interpreter.h"
#include "gmr/gmr_catalog.h"
#include "gmr/gmr_maintenance.h"

namespace gom {

/// The retrieval plane of the GMR machinery: forward lookups (function call
/// interception, §3) and backward range queries (§5.2 inverted access).
///
/// One routine per query. Write authority decides what a call may do with
/// what it finds, and it is `ctx == nullptr`: the owner thread, or a writer
/// holding the session pool's writer gate.
///
///  * A writer runs under the maintenance plane's ExclusiveRegion (a no-op
///    until concurrent mode is switched on) and repairs in place: invalid
///    results are recomputed and stored back, missing rows of incremental
///    GMRs are inserted, complete GMRs self-heal, and a backward query
///    first revalidates the whole column. Its clock charges, stats and WAL
///    records are the single-threaded ones, so the simulated-time figures
///    stay bit-identical.
///
///  * A reader (a session context) holds the catalog latch shared, nests
///    the extension latch shared, and copies values out. Whatever a writer
///    would repair is instead computed transiently on the session's
///    private clock, so the extension is never written and readers only
///    ever see values the single-threaded execution could have produced.
///
/// Both probe the extension the same way: forward through the argument
/// hash index, backward through the result column's ordered index.
class GmrReadPath {
 public:
  GmrReadPath(funclang::Interpreter* interp, GmrCatalog* catalog,
              GmrMaintenance* maintenance, GmrStats* stats)
      : interp_(interp),
        catalog_(catalog),
        maintenance_(maintenance),
        stats_(stats) {}

  GmrReadPath(const GmrReadPath&) = delete;
  GmrReadPath& operator=(const GmrReadPath&) = delete;

  /// Answers f(args) from the GMR when possible (§3.2 forward query).
  Result<Value> ForwardLookup(const ExecutionContext* ctx, FunctionId f,
                              std::vector<Value> args);

  /// All argument combinations whose materialized result of f lies in
  /// [lo, hi] (§5.2 backward query). Requires a complete extension.
  Result<std::vector<std::vector<Value>>> BackwardRange(
      const ExecutionContext* ctx, FunctionId f, double lo, double hi,
      bool lo_inclusive, bool hi_inclusive);

  /// Materialization test for the call interceptor: takes the catalog
  /// latch shared in concurrent mode (and releases it before the
  /// subsequent ForwardLookup re-acquires — shared_mutex is not
  /// recursive).
  bool IsMaterializedShared(FunctionId f) const;

  /// Simulated page-fault latency for reader lookups: each lookup
  /// sleeps this long *while holding the extension latch shared*. Models
  /// the paper's I/O-dominated regime, where throughput scaling comes from
  /// readers overlapping their page faults — possible under shared
  /// latches, impossible under an exclusive lock. Writers never stall
  /// (wall-clock time is simulated there).
  void set_io_stall_us(int us) {
    io_stall_us_.store(us, std::memory_order_relaxed);
  }

 private:
  /// Evaluates f(args) without touching any GMR: the context's
  /// compute_depth is bumped around the call so nested interception stays
  /// off (re-entering the read path would re-acquire latches this thread
  /// may already hold shared).
  Result<Value> PlainEval(const ExecutionContext* ctx, FunctionId f,
                          std::vector<Value> args);

  void MaybeStall() const;

  funclang::Interpreter* interp_;
  GmrCatalog* catalog_;
  GmrMaintenance* maintenance_;
  GmrStats* stats_;
  std::atomic<int> io_stall_us_{0};
};

}  // namespace gom

#endif  // GOMFM_GMR_GMR_READ_PATH_H_
