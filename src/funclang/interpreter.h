#ifndef GOMFM_FUNCLANG_INTERPRETER_H_
#define GOMFM_FUNCLANG_INTERPRETER_H_

#include <atomic>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/execution_context.h"
#include "funclang/ast.h"
#include "funclang/function_registry.h"
#include "gom/object_manager.h"

namespace gom::funclang {

/// A relevant property of an object type (Def. 5.1 generalized to
/// collections): attribute `attr` of tuple type `type`, or element
/// membership when `attr == kElementsOfAttr`.
struct RelevantProperty {
  TypeId type = kInvalidTypeId;
  AttrId attr = kInvalidAttrId;

  bool operator==(const RelevantProperty& o) const {
    return type == o.type && attr == o.attr;
  }
  bool operator<(const RelevantProperty& o) const {
    return type != o.type ? type < o.type : attr < o.attr;
  }
};

/// What a (re)materialization touched. The accessed-object list feeds the
/// Reverse Reference Relation (§4.1); the accessed-property set is the
/// *dynamic* counterpart of the statically extracted RelAttr (used by tests
/// to validate the appendix analysis).
struct Trace {
  /// Unique accessed objects in first-access order.
  std::vector<Oid> accessed_objects;
  /// Observed relevant properties.
  std::set<RelevantProperty> accessed_properties;

  void RecordObject(Oid oid) {
    if (seen_.insert(oid).second) accessed_objects.push_back(oid);
  }
  void RecordProperty(TypeId type, AttrId attr) {
    accessed_properties.insert({type, attr});
  }

 private:
  std::unordered_set<Oid, OidHash> seen_;
};

class Interpreter;

/// Context handed to native functions: tracked access to the object base.
/// Reads performed through these helpers are recorded in the active trace
/// exactly like interpreted attribute accesses.
class EvalContext {
 public:
  EvalContext(Interpreter* interp, ObjectManager* om, Trace* trace,
              const ExecutionContext* ctx = nullptr)
      : interp_(interp), om_(om), trace_(trace), ctx_(ctx) {}

  ObjectManager& om() { return *om_; }
  Interpreter& interpreter() { return *interp_; }
  Trace* trace() { return trace_; }
  const ExecutionContext* exec_ctx() const { return ctx_; }

  /// Tracked attribute read.
  Result<Value> GetAttr(Oid oid, const std::string& attr_name);

  /// Tracked element read of a set-/list-structured object.
  Result<std::vector<Value>> GetElements(Oid oid);

  /// Tracked nested function invocation.
  Result<Value> Invoke(FunctionId f, std::vector<Value> args);

 private:
  Interpreter* interp_;
  ObjectManager* om_;
  Trace* trace_;
  const ExecutionContext* ctx_;
};

/// Evaluates function-language bodies against the object base.
///
/// When a `Trace` is supplied, every object and relevant property touched
/// during evaluation is recorded — this is how the GMR manager learns which
/// RRR entries to write during (re)materialization. Evaluation charges
/// per-node CPU time to the simulated clock; object reads additionally
/// charge page I/O through the object manager.
class Interpreter {
 public:
  Interpreter(ObjectManager* om, const FunctionRegistry* registry,
              const CostModel& cost = CostModel::Default())
      : om_(om), registry_(registry), cost_(cost) {}

  Interpreter(const Interpreter&) = delete;
  Interpreter& operator=(const Interpreter&) = delete;

  /// Invokes function `f` on `args` (positionally bound to its parameters).
  Result<Value> Invoke(FunctionId f, std::vector<Value> args,
                       Trace* trace = nullptr);

  /// Context-aware variant: per-node CPU charges go to `ctx->clock` (the
  /// session clock) and the context reaches the call interceptor, so
  /// concurrent sessions stop funnelling per-session state through shared
  /// members. `ctx == nullptr` behaves exactly like the overload above.
  Result<Value> Invoke(const ExecutionContext* ctx, FunctionId f,
                       std::vector<Value> args, Trace* trace = nullptr);

  Result<Value> InvokeByName(const std::string& name, std::vector<Value> args,
                             Trace* trace = nullptr);

  /// Evaluates a standalone expression under the given variable bindings
  /// (used by the query planner/executor for parsed GOMql predicates and
  /// retrieve targets). `ctx` works as for the context-aware Invoke.
  Result<Value> Evaluate(const Expr& e,
                         std::unordered_map<std::string, Value> bindings,
                         Trace* trace = nullptr,
                         const ExecutionContext* ctx = nullptr);

  /// §3.2: "every invocation of a materialized function is mapped to a
  /// forward query that will be evaluated by the GMR manager". The
  /// interceptor is consulted for *nested*, *untraced* invocations (traced
  /// runs are (re)materializations, which must evaluate the real body so
  /// the reverse references stay complete). Returning true means `out`
  /// holds the answer; false falls through to normal evaluation.
  using CallInterceptor =
      std::function<bool(const ExecutionContext*, FunctionId,
                         const std::vector<Value>&, Result<Value>* out)>;
  void SetCallInterceptor(CallInterceptor interceptor) {
    interceptor_ = std::move(interceptor);
  }

  ObjectManager* om() { return om_; }
  const FunctionRegistry* registry() const { return registry_; }

  /// Number of AST nodes evaluated since construction (cost introspection).
  uint64_t nodes_evaluated() const {
    return nodes_evaluated_.load(std::memory_order_relaxed);
  }

 private:
  friend class EvalContext;

  using Env = std::unordered_map<std::string, Value>;

  Result<Value> Eval(const Expr& e, Env& env, Trace* trace, int depth,
                     const ExecutionContext* ctx);
  Result<Value> EvalBinary(const Expr& e, Env& env, Trace* trace, int depth,
                           const ExecutionContext* ctx);
  Result<Value> EvalUnary(const Expr& e, Env& env, Trace* trace, int depth,
                          const ExecutionContext* ctx);
  Result<Value> EvalAggregate(const Expr& e, Env& env, Trace* trace, int depth,
                              const ExecutionContext* ctx);

  /// Materializes the elements of a collection-valued result: a composite's
  /// elements directly, or a tracked read of a set/list object.
  Result<std::vector<Value>> CollectionElements(const Value& v, Trace* trace,
                                                const ExecutionContext* ctx);

  /// Tracked attribute read used by both interpreted and native code.
  Result<Value> TrackedGetAttr(Oid oid, const std::string& attr_name,
                               Trace* trace, const ExecutionContext* ctx);

  Result<Value> InvokeAtDepth(FunctionId f, std::vector<Value> args,
                              Trace* trace, int depth,
                              const ExecutionContext* ctx);

  static constexpr int kMaxDepth = 64;

  ObjectManager* om_;
  const FunctionRegistry* registry_;
  CostModel cost_;
  CallInterceptor interceptor_;
  std::atomic<uint64_t> nodes_evaluated_{0};
};

}  // namespace gom::funclang

#endif  // GOMFM_FUNCLANG_INTERPRETER_H_
