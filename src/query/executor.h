#ifndef GOMFM_QUERY_EXECUTOR_H_
#define GOMFM_QUERY_EXECUTOR_H_

#include <atomic>
#include <vector>

#include "common/execution_context.h"
#include "funclang/interpreter.h"
#include "gmr/gmr_manager.h"
#include "gom/object_manager.h"
#include "query/query.h"

namespace gom::query {

/// Evaluates queries against the object base, optionally exploiting
/// materialized functions. With `use_gmrs == false` the executor behaves
/// like the paper's *WithoutGMR* program version: backward queries scan the
/// type extension and invoke the function per instance; forward queries
/// invoke the function directly.
class QueryExecutor {
 public:
  QueryExecutor(ObjectManager* om, funclang::Interpreter* interp,
                GmrManager* mgr, bool use_gmrs)
      : om_(om), interp_(interp), mgr_(mgr), use_gmrs_(use_gmrs) {}

  void set_use_gmrs(bool on) { use_gmrs_ = on; }
  bool use_gmrs() const { return use_gmrs_; }

  /// Backward query: the qualifying argument objects. Falls back to an
  /// extension scan when the function is not materialized (or GMR use is
  /// disabled). With a session `ctx` the GMR path runs read-only under
  /// shared latches and charges the session's clock.
  Result<std::vector<Oid>> RunBackward(const BackwardQuery& q,
                                       const ExecutionContext* ctx = nullptr);

  /// Forward query: one function result.
  Result<Value> RunForward(const ForwardQuery& q,
                           const ExecutionContext* ctx = nullptr);

  /// QBE-style retrieval on a GMR (§3.2). Matching rows are returned as
  /// [args…, results…] value vectors. Result columns referenced by a
  /// constant or range spec are revalidated first on complete GMRs so the
  /// answer is correct under lazy rematerialization.
  Result<std::vector<std::vector<Value>>> RunRetrieval(const GmrRetrieval& q);

  uint64_t scans() const { return scans_.load(std::memory_order_relaxed); }
  uint64_t gmr_answers() const {
    return gmr_answers_.load(std::memory_order_relaxed);
  }

 private:
  static bool Matches(const ColumnSpec& spec, const Value& v, bool valid);

  ObjectManager* om_;
  funclang::Interpreter* interp_;
  GmrManager* mgr_;
  bool use_gmrs_;
  std::atomic<uint64_t> scans_{0};
  std::atomic<uint64_t> gmr_answers_{0};
};

}  // namespace gom::query

#endif  // GOMFM_QUERY_EXECUTOR_H_
