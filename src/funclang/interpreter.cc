#include "funclang/interpreter.h"

#include <cmath>
#include <optional>

namespace gom::funclang {

namespace {

/// RAII save/restore of one environment binding, so iteration variables
/// shadow (rather than destroy) same-named outer bindings.
class ScopedBinding {
 public:
  ScopedBinding(std::unordered_map<std::string, Value>* env, std::string name)
      : env_(env), name_(std::move(name)) {
    auto it = env_->find(name_);
    if (it != env_->end()) saved_ = it->second;
  }
  ~ScopedBinding() {
    if (saved_.has_value()) {
      (*env_)[name_] = std::move(*saved_);
    } else {
      env_->erase(name_);
    }
  }

 private:
  std::unordered_map<std::string, Value>* env_;
  std::string name_;
  std::optional<Value> saved_;
};

}  // namespace

Result<Value> EvalContext::GetAttr(Oid oid, const std::string& attr_name) {
  return interp_->TrackedGetAttr(oid, attr_name, trace_, ctx_);
}

Result<std::vector<Value>> EvalContext::GetElements(Oid oid) {
  return interp_->CollectionElements(Value::Ref(oid), trace_, ctx_);
}

Result<Value> EvalContext::Invoke(FunctionId f, std::vector<Value> args) {
  return interp_->InvokeAtDepth(f, std::move(args), trace_, 0, ctx_);
}

Result<Value> Interpreter::InvokeByName(const std::string& name,
                                        std::vector<Value> args, Trace* trace) {
  GOMFM_ASSIGN_OR_RETURN(FunctionId f, registry_->FindId(name));
  return Invoke(f, std::move(args), trace);
}

Result<Value> Interpreter::Invoke(FunctionId f, std::vector<Value> args,
                                  Trace* trace) {
  return InvokeAtDepth(f, std::move(args), trace, 0, nullptr);
}

Result<Value> Interpreter::Invoke(const ExecutionContext* ctx, FunctionId f,
                                  std::vector<Value> args, Trace* trace) {
  return InvokeAtDepth(f, std::move(args), trace, 0, ctx);
}

Result<Value> Interpreter::Evaluate(
    const Expr& e, std::unordered_map<std::string, Value> bindings,
    Trace* trace, const ExecutionContext* ctx) {
  return Eval(e, bindings, trace, 0, ctx);
}

Result<Value> Interpreter::InvokeAtDepth(FunctionId f, std::vector<Value> args,
                                         Trace* trace, int depth,
                                         const ExecutionContext* ctx) {
  if (depth > kMaxDepth) {
    return Status::FailedPrecondition("function call depth limit exceeded");
  }
  // Nested, untraced invocations of materialized functions become forward
  // queries (§3.2). Traced runs are (re)materializations and must execute
  // the real body so the RRR sees every accessed object.
  if (interceptor_ && depth > 0 && trace == nullptr) {
    Result<Value> intercepted = Value::Null();
    if (interceptor_(ctx, f, args, &intercepted)) return intercepted;
  }
  GOMFM_ASSIGN_OR_RETURN(const FunctionDef* def, registry_->Get(f));
  if (args.size() != def->params.size()) {
    return Status::InvalidArgument(
        "function '" + def->name + "' expects " +
        std::to_string(def->params.size()) + " arguments, got " +
        std::to_string(args.size()));
  }
  if (def->is_native()) {
    EvalContext ectx(this, om_, trace, ctx);
    return def->native(ectx, args);
  }
  Env env;
  env.reserve(def->params.size() + def->body.stmts.size());
  for (size_t i = 0; i < args.size(); ++i) {
    env.emplace(def->params[i].name, std::move(args[i]));
  }
  for (const Stmt& stmt : def->body.stmts) {
    GOMFM_ASSIGN_OR_RETURN(Value v, Eval(*stmt.expr, env, trace, depth, ctx));
    if (stmt.kind == Stmt::Kind::kReturn) return v;
    env[stmt.var] = std::move(v);
  }
  return Status::Internal("function '" + def->name + "' fell off the end");
}

Result<Value> Interpreter::TrackedGetAttr(Oid oid,
                                          const std::string& attr_name,
                                          Trace* trace,
                                          const ExecutionContext* ctx) {
  if (trace != nullptr) {
    trace->RecordObject(oid);
    auto type = om_->TypeOf(oid);
    if (type.ok()) {
      auto resolved = om_->schema()->ResolveAttribute(*type, attr_name);
      if (resolved.ok()) trace->RecordProperty(*type, resolved->first);
    }
  }
  return om_->GetAttribute(oid, attr_name, ctx);
}

Result<std::vector<Value>> Interpreter::CollectionElements(
    const Value& v, Trace* trace, const ExecutionContext* ctx) {
  if (v.kind() == ValueKind::kComposite) return v.elements();
  if (v.kind() == ValueKind::kRef) {
    Oid oid = v.as_ref();
    if (trace != nullptr) {
      trace->RecordObject(oid);
      auto type = om_->TypeOf(oid);
      if (type.ok()) trace->RecordProperty(*type, kElementsOfAttr);
    }
    return om_->GetElements(oid, ctx);
  }
  return Status::TypeMismatch(
      std::string("expected a collection, got ") + ValueKindName(v.kind()));
}

Result<Value> Interpreter::Eval(const Expr& e, Env& env, Trace* trace,
                                int depth,
                                const ExecutionContext* ctx) {
  nodes_evaluated_.fetch_add(1, std::memory_order_relaxed);
  SimClock* clk = (ctx != nullptr && ctx->clock != nullptr) ? ctx->clock
                                                            : om_->clock();
  clk->Advance(cost_.cpu_eval_node_seconds);
  if (ctx != nullptr && ctx->stats != nullptr) ++ctx->stats->eval_nodes;

  switch (e.kind) {
    case ExprKind::kConst:
      return e.literal;

    case ExprKind::kVar: {
      auto it = env.find(e.name);
      if (it == env.end()) {
        return Status::InvalidArgument("unbound variable '" + e.name + "'");
      }
      return it->second;
    }

    case ExprKind::kAttr: {
      GOMFM_ASSIGN_OR_RETURN(Value base,
                             Eval(*e.children[0], env, trace, depth, ctx));
      GOMFM_ASSIGN_OR_RETURN(Oid oid, base.AsRef());
      return TrackedGetAttr(oid, e.name, trace, ctx);
    }

    case ExprKind::kBinary:
      return EvalBinary(e, env, trace, depth, ctx);

    case ExprKind::kUnary:
      return EvalUnary(e, env, trace, depth, ctx);

    case ExprKind::kIf: {
      GOMFM_ASSIGN_OR_RETURN(Value cond,
                             Eval(*e.children[0], env, trace, depth, ctx));
      GOMFM_ASSIGN_OR_RETURN(bool b, cond.AsBool());
      return Eval(*e.children[b ? 1 : 2], env, trace, depth, ctx);
    }

    case ExprKind::kCall: {
      GOMFM_ASSIGN_OR_RETURN(FunctionId callee, registry_->FindId(e.callee));
      std::vector<Value> args;
      args.reserve(e.children.size());
      for (const ExprPtr& child : e.children) {
        GOMFM_ASSIGN_OR_RETURN(Value v, Eval(*child, env, trace, depth, ctx));
        args.push_back(std::move(v));
      }
      return InvokeAtDepth(callee, std::move(args), trace, depth + 1, ctx);
    }

    case ExprKind::kAggregate:
      return EvalAggregate(e, env, trace, depth, ctx);

    case ExprKind::kSelect: {
      GOMFM_ASSIGN_OR_RETURN(Value src,
                             Eval(*e.children[0], env, trace, depth, ctx));
      GOMFM_ASSIGN_OR_RETURN(std::vector<Value> elems,
                             CollectionElements(src, trace, ctx));
      std::vector<Value> out;
      {
        ScopedBinding scope(&env, e.var);
        for (Value& elem : elems) {
          env[e.var] = elem;
          GOMFM_ASSIGN_OR_RETURN(Value pred,
                                 Eval(*e.children[1], env, trace, depth, ctx));
          GOMFM_ASSIGN_OR_RETURN(bool keep, pred.AsBool());
          if (keep) out.push_back(std::move(elem));
        }
      }
      return Value::Composite(std::move(out));
    }

    case ExprKind::kMap: {
      GOMFM_ASSIGN_OR_RETURN(Value src,
                             Eval(*e.children[0], env, trace, depth, ctx));
      GOMFM_ASSIGN_OR_RETURN(std::vector<Value> elems,
                             CollectionElements(src, trace, ctx));
      std::vector<Value> out;
      out.reserve(elems.size());
      {
        ScopedBinding scope(&env, e.var);
        for (Value& elem : elems) {
          env[e.var] = std::move(elem);
          GOMFM_ASSIGN_OR_RETURN(Value v,
                                 Eval(*e.children[1], env, trace, depth, ctx));
          out.push_back(std::move(v));
        }
      }
      return Value::Composite(std::move(out));
    }

    case ExprKind::kFlatten: {
      GOMFM_ASSIGN_OR_RETURN(Value src,
                             Eval(*e.children[0], env, trace, depth, ctx));
      GOMFM_ASSIGN_OR_RETURN(std::vector<Value> outer,
                             CollectionElements(src, trace, ctx));
      std::vector<Value> out;
      for (const Value& inner : outer) {
        GOMFM_ASSIGN_OR_RETURN(std::vector<Value> elems,
                               CollectionElements(inner, trace, ctx));
        for (Value& v : elems) out.push_back(std::move(v));
      }
      return Value::Composite(std::move(out));
    }

    case ExprKind::kMakeComposite: {
      std::vector<Value> out;
      out.reserve(e.children.size());
      for (const ExprPtr& child : e.children) {
        GOMFM_ASSIGN_OR_RETURN(Value v, Eval(*child, env, trace, depth, ctx));
        out.push_back(std::move(v));
      }
      return Value::Composite(std::move(out));
    }

    case ExprKind::kAt: {
      GOMFM_ASSIGN_OR_RETURN(Value src,
                             Eval(*e.children[0], env, trace, depth, ctx));
      if (src.kind() != ValueKind::kComposite) {
        return Status::TypeMismatch("At() expects a composite");
      }
      if (e.index >= src.elements().size()) {
        return Status::OutOfRange("At() index out of range");
      }
      return src.elements()[e.index];
    }

    case ExprKind::kContains: {
      GOMFM_ASSIGN_OR_RETURN(Value coll,
                             Eval(*e.children[0], env, trace, depth, ctx));
      GOMFM_ASSIGN_OR_RETURN(Value needle,
                             Eval(*e.children[1], env, trace, depth, ctx));
      GOMFM_ASSIGN_OR_RETURN(std::vector<Value> elems,
                             CollectionElements(coll, trace, ctx));
      for (const Value& v : elems) {
        if (v == needle) return Value::Bool(true);
      }
      return Value::Bool(false);
    }
  }
  return Status::Internal("unknown expression kind");
}

Result<Value> Interpreter::EvalBinary(const Expr& e, Env& env, Trace* trace,
                                      int depth,
                                      const ExecutionContext* ctx) {
  // Short-circuit logical operators.
  if (e.binary_op == BinaryOp::kAnd || e.binary_op == BinaryOp::kOr) {
    GOMFM_ASSIGN_OR_RETURN(Value lhs, Eval(*e.children[0], env, trace, depth, ctx));
    GOMFM_ASSIGN_OR_RETURN(bool l, lhs.AsBool());
    if (e.binary_op == BinaryOp::kAnd && !l) return Value::Bool(false);
    if (e.binary_op == BinaryOp::kOr && l) return Value::Bool(true);
    GOMFM_ASSIGN_OR_RETURN(Value rhs, Eval(*e.children[1], env, trace, depth, ctx));
    GOMFM_ASSIGN_OR_RETURN(bool r, rhs.AsBool());
    return Value::Bool(r);
  }

  GOMFM_ASSIGN_OR_RETURN(Value lhs, Eval(*e.children[0], env, trace, depth, ctx));
  GOMFM_ASSIGN_OR_RETURN(Value rhs, Eval(*e.children[1], env, trace, depth, ctx));

  switch (e.binary_op) {
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kDiv: {
      // Integer arithmetic stays integral; anything else widens to float.
      if (lhs.kind() == ValueKind::kInt && rhs.kind() == ValueKind::kInt &&
          e.binary_op != BinaryOp::kDiv) {
        int64_t a = lhs.as_int(), b = rhs.as_int();
        switch (e.binary_op) {
          case BinaryOp::kAdd:
            return Value::Int(a + b);
          case BinaryOp::kSub:
            return Value::Int(a - b);
          case BinaryOp::kMul:
            return Value::Int(a * b);
          default:
            break;
        }
      }
      GOMFM_ASSIGN_OR_RETURN(double a, lhs.AsDouble());
      GOMFM_ASSIGN_OR_RETURN(double b, rhs.AsDouble());
      switch (e.binary_op) {
        case BinaryOp::kAdd:
          return Value::Float(a + b);
        case BinaryOp::kSub:
          return Value::Float(a - b);
        case BinaryOp::kMul:
          return Value::Float(a * b);
        case BinaryOp::kDiv:
          if (b == 0.0) {
            return Status::InvalidArgument("division by zero");
          }
          return Value::Float(a / b);
        default:
          break;
      }
      return Status::Internal("unreachable arithmetic case");
    }

    case BinaryOp::kEq:
    case BinaryOp::kNe: {
      bool eq;
      if (lhs.is_numeric() && rhs.is_numeric()) {
        eq = *lhs.AsDouble() == *rhs.AsDouble();
      } else {
        eq = lhs == rhs;
      }
      return Value::Bool(e.binary_op == BinaryOp::kEq ? eq : !eq);
    }

    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe: {
      GOMFM_ASSIGN_OR_RETURN(int c, lhs.Compare(rhs));
      switch (e.binary_op) {
        case BinaryOp::kLt:
          return Value::Bool(c < 0);
        case BinaryOp::kLe:
          return Value::Bool(c <= 0);
        case BinaryOp::kGt:
          return Value::Bool(c > 0);
        case BinaryOp::kGe:
          return Value::Bool(c >= 0);
        default:
          break;
      }
      return Status::Internal("unreachable comparison case");
    }

    default:
      return Status::Internal("unhandled binary operator");
  }
}

Result<Value> Interpreter::EvalUnary(const Expr& e, Env& env, Trace* trace,
                                     int depth,
                                     const ExecutionContext* ctx) {
  GOMFM_ASSIGN_OR_RETURN(Value v, Eval(*e.children[0], env, trace, depth, ctx));
  switch (e.unary_op) {
    case UnaryOp::kNot: {
      GOMFM_ASSIGN_OR_RETURN(bool b, v.AsBool());
      return Value::Bool(!b);
    }
    case UnaryOp::kNeg:
      if (v.kind() == ValueKind::kInt) return Value::Int(-v.as_int());
      {
        GOMFM_ASSIGN_OR_RETURN(double d, v.AsDouble());
        return Value::Float(-d);
      }
    case UnaryOp::kSin: {
      GOMFM_ASSIGN_OR_RETURN(double d, v.AsDouble());
      return Value::Float(std::sin(d));
    }
    case UnaryOp::kCos: {
      GOMFM_ASSIGN_OR_RETURN(double d, v.AsDouble());
      return Value::Float(std::cos(d));
    }
    case UnaryOp::kSqrt: {
      GOMFM_ASSIGN_OR_RETURN(double d, v.AsDouble());
      if (d < 0) return Status::InvalidArgument("sqrt of negative value");
      return Value::Float(std::sqrt(d));
    }
    case UnaryOp::kAbs:
      if (v.kind() == ValueKind::kInt) {
        return Value::Int(v.as_int() < 0 ? -v.as_int() : v.as_int());
      }
      {
        GOMFM_ASSIGN_OR_RETURN(double d, v.AsDouble());
        return Value::Float(std::fabs(d));
      }
  }
  return Status::Internal("unhandled unary operator");
}

Result<Value> Interpreter::EvalAggregate(const Expr& e, Env& env, Trace* trace,
                                         int depth,
                                         const ExecutionContext* ctx) {
  GOMFM_ASSIGN_OR_RETURN(Value src, Eval(*e.children[0], env, trace, depth, ctx));
  GOMFM_ASSIGN_OR_RETURN(std::vector<Value> elems,
                         CollectionElements(src, trace, ctx));

  if (e.aggregate_op == AggregateOp::kCount) {
    return Value::Int(static_cast<int64_t>(elems.size()));
  }

  double sum = 0.0;
  bool first = true;
  double best = 0.0;
  {
    ScopedBinding scope(&env, e.var);
    for (Value& elem : elems) {
      env[e.var] = std::move(elem);
      GOMFM_ASSIGN_OR_RETURN(Value v, Eval(*e.children[1], env, trace, depth, ctx));
      GOMFM_ASSIGN_OR_RETURN(double d, v.AsDouble());
      sum += d;
      if (first || (e.aggregate_op == AggregateOp::kMin && d < best) ||
          (e.aggregate_op == AggregateOp::kMax && d > best)) {
        best = d;
        first = false;
      }
    }
  }

  switch (e.aggregate_op) {
    case AggregateOp::kSum:
      return Value::Float(sum);
    case AggregateOp::kAvg:
      return elems.empty() ? Value::Float(0.0)
                           : Value::Float(sum / static_cast<double>(
                                                    elems.size()));
    case AggregateOp::kMin:
    case AggregateOp::kMax:
      if (elems.empty()) {
        return Status::FailedPrecondition("min/max over empty collection");
      }
      return Value::Float(best);
    default:
      return Status::Internal("unhandled aggregate");
  }
}

}  // namespace gom::funclang
