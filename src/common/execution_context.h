#ifndef GOMFM_COMMON_EXECUTION_CONTEXT_H_
#define GOMFM_COMMON_EXECUTION_CONTEXT_H_

#include <cstdint>

#include "common/sim_clock.h"

namespace gom {

/// Per-session counters, owned by the session (single writer, so plain
/// fields suffice; cross-session aggregation happens after the threads
/// join).
struct SessionStats {
  uint64_t forward_queries = 0;
  uint64_t backward_queries = 0;
  uint64_t gomql_queries = 0;
  uint64_t update_ops = 0;
  uint64_t eval_nodes = 0;
  uint64_t object_reads = 0;
  uint64_t plain_evaluations = 0;  // misses served without the GMR cache

  void Reset() { *this = SessionStats(); }
};

/// Execution context threaded through the read path: `query::Executor`,
/// `funclang::Interpreter` and `ObjectManager` reads. It replaces the
/// shared mutable members those layers used when only one caller existed.
///
/// - `clock` receives the session's CPU charges (AST nodes, object ops,
///   index probes). Disk time still charges the environment's global clock:
///   the simulated disk is a shared device. Null falls back to the global
///   clock — the single-threaded owner path, bit-identical to before.
/// - `stats` is the per-session stats sink (may be null).
/// - `compute_depth` is the call-interception re-entrancy guard that used
///   to be a `GmrManager` member: >0 while the manager (re)computes on
///   behalf of this session, so nested invocations of materialized
///   functions fall through to plain evaluation.
///
/// A non-null context is a reader: the GMR read path then stays strictly
/// read-only (shared latches, no caching of misses, no reverse-reference
/// writes). A null context carries write authority — the owner thread, or
/// a writer holding the session pool's writer gate.
struct ExecutionContext {
  SimClock* clock = nullptr;
  SessionStats* stats = nullptr;
  uint32_t session_id = 0;
  /// Mutable: the read path bumps it around fallback evaluations while the
  /// context travels as `const ExecutionContext*`. Only the session's own
  /// thread touches it.
  mutable int compute_depth = 0;
};

}  // namespace gom

#endif  // GOMFM_COMMON_EXECUTION_CONTEXT_H_
