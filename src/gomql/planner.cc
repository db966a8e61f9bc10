#include "gomql/planner.h"

#include <algorithm>
#include <limits>

#include "funclang/builder.h"
#include "funclang/printer.h"
#include "query/applicability.h"

namespace gom::gomql {

namespace fl = funclang;

std::string PlanAlternative::Describe(
    const fl::FunctionRegistry* registry) const {
  char buf[256];
  if (kind == Kind::kExtensionScan) {
    std::snprintf(buf, sizeof(buf), "ExtensionScan (est. %.4g s)",
                  estimated_cost);
    return buf;
  }
  std::snprintf(buf, sizeof(buf),
                "GmrBackward on <<%s>> over %s%.4g, %.4g%s%s (est. %.4g s)",
                registry->NameOf(function).c_str(),
                lo_inclusive ? "[" : "(", lo, hi, hi_inclusive ? "]" : ")",
                residual != nullptr ? " + residual filter" : "",
                estimated_cost);
  return buf;
}

std::string Plan::Explain(const fl::FunctionRegistry* registry) const {
  std::string out = "plan for: " + query.ToString() + "\n";
  for (size_t i = 0; i < alternatives.size(); ++i) {
    out += i == chosen ? "  * " : "    ";
    out += alternatives[i].Describe(registry);
    out += "\n";
  }
  return out;
}

void Planner::Conjuncts(const fl::ExprPtr& e,
                        std::vector<fl::ExprPtr>* out) {
  if (e == nullptr) return;
  if (e->kind == fl::ExprKind::kBinary &&
      e->binary_op == fl::BinaryOp::kAnd) {
    Conjuncts(e->children[0], out);
    Conjuncts(e->children[1], out);
    return;
  }
  out->push_back(e);
}

size_t Planner::CountNodes(const fl::Expr& e) {
  size_t n = 1;
  for (const fl::ExprPtr& c : e.children) n += CountNodes(*c);
  return n;
}

namespace {

/// Clones `e` renaming free variables per `renames` (used to align a
/// restriction predicate's parameter names with the query's range
/// variables before the applicability test).
fl::ExprPtr RenameVars(const fl::ExprPtr& e,
                       const std::map<std::string, std::string>& renames) {
  if (e->kind == fl::ExprKind::kVar) {
    auto it = renames.find(e->name);
    if (it != renames.end()) return fl::Var(it->second);
    return e;
  }
  if (e->children.empty()) return e;
  auto clone = std::make_shared<fl::Expr>(*e);
  for (fl::ExprPtr& c : clone->children) c = RenameVars(c, renames);
  return clone;
}

/// Matches `call(f, {Var(v)}) θ const` or its mirror; fills the bound.
struct RangeBound {
  FunctionId function = kInvalidFunctionId;
  double value = 0;
  bool upper = false;
  bool inclusive = false;
  bool equality = false;
};

bool MatchBound(const fl::Expr& e, const std::vector<RangeVar>& ranges,
                const fl::FunctionRegistry* registry, RangeBound* out) {
  if (e.kind != fl::ExprKind::kBinary) return false;
  const fl::Expr* call = nullptr;
  const fl::Expr* constant = nullptr;
  bool mirrored = false;
  // f(v1, …, vn) with the range variables in declaration order — the shape
  // a GMR over those argument columns answers directly.
  auto is_call_on_var = [&](const fl::Expr& c) {
    if (c.kind != fl::ExprKind::kCall ||
        c.children.size() != ranges.size()) {
      return false;
    }
    for (size_t i = 0; i < ranges.size(); ++i) {
      if (c.children[i]->kind != fl::ExprKind::kVar ||
          c.children[i]->name != ranges[i].name) {
        return false;
      }
    }
    return true;
  };
  auto is_numeric_const = [](const fl::Expr& c) {
    return c.kind == fl::ExprKind::kConst && c.literal.is_numeric();
  };
  if (is_call_on_var(*e.children[0]) && is_numeric_const(*e.children[1])) {
    call = e.children[0].get();
    constant = e.children[1].get();
  } else if (is_numeric_const(*e.children[0]) &&
             is_call_on_var(*e.children[1])) {
    call = e.children[1].get();
    constant = e.children[0].get();
    mirrored = true;
  } else {
    return false;
  }
  auto fid = registry->FindId(call->callee);
  if (!fid.ok()) return false;
  out->function = *fid;
  out->value = *constant->literal.AsDouble();
  fl::BinaryOp op = e.binary_op;
  if (mirrored) {
    // const θ f(c)  ≡  f(c) θ' const with mirrored operator.
    switch (op) {
      case fl::BinaryOp::kLt:
        op = fl::BinaryOp::kGt;
        break;
      case fl::BinaryOp::kLe:
        op = fl::BinaryOp::kGe;
        break;
      case fl::BinaryOp::kGt:
        op = fl::BinaryOp::kLt;
        break;
      case fl::BinaryOp::kGe:
        op = fl::BinaryOp::kLe;
        break;
      default:
        break;
    }
  }
  switch (op) {
    case fl::BinaryOp::kLt:
      out->upper = true;
      out->inclusive = false;
      return true;
    case fl::BinaryOp::kLe:
      out->upper = true;
      out->inclusive = true;
      return true;
    case fl::BinaryOp::kGt:
      out->upper = false;
      out->inclusive = false;
      return true;
    case fl::BinaryOp::kGe:
      out->upper = false;
      out->inclusive = true;
      return true;
    case fl::BinaryOp::kEq:
      out->equality = true;
      return true;
    default:
      return false;
  }
}

}  // namespace

double Planner::EstimateScanCost(const ParsedQuery& query) const {
  const CostModel& cost = CostModel::Default();
  double n = 1;
  for (const RangeVar& rv : query.ranges) {
    n *= static_cast<double>(om_->Extent(rv.type).size());
  }
  size_t nodes = query.where != nullptr ? CountNodes(*query.where) : 1;
  for (const fl::ExprPtr& t : query.targets) nodes += CountNodes(*t);
  // Per candidate: roughly one page fault for the object neighborhood plus
  // the (inlined) predicate evaluation. The factor 4 approximates the call
  // inlining of the geometry functions; precision is irrelevant because
  // index plans win or lose by orders of magnitude.
  double per_candidate = cost.disk_access_seconds +
                         static_cast<double>(nodes) * 4 *
                             cost.cpu_eval_node_seconds;
  return n * per_candidate;
}

Result<PlanAlternative> Planner::TryGmrAlternative(
    const ParsedQuery& query, const std::vector<fl::ExprPtr>& conjuncts) {
  const CostModel& cost = CostModel::Default();

  // Collect bounds for the first materialized function found; everything
  // else becomes the residual filter.
  FunctionId f = kInvalidFunctionId;
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool lo_in = true, hi_in = true;
  std::vector<fl::ExprPtr> residual;
  for (const fl::ExprPtr& conjunct : conjuncts) {
    RangeBound bound;
    if (MatchBound(*conjunct, query.ranges, registry_, &bound) &&
        mgr_->IsMaterialized(bound.function) &&
        (f == kInvalidFunctionId || f == bound.function)) {
      f = bound.function;
      if (bound.equality) {
        lo = std::max(lo, bound.value);
        hi = std::min(hi, bound.value);
      } else if (bound.upper) {
        if (bound.value < hi || (bound.value == hi && !bound.inclusive)) {
          hi = bound.value;
          hi_in = bound.inclusive;
        }
      } else {
        if (bound.value > lo || (bound.value == lo && !bound.inclusive)) {
          lo = bound.value;
          lo_in = bound.inclusive;
        }
      }
      continue;
    }
    residual.push_back(conjunct);
  }
  if (f == kInvalidFunctionId) {
    return Status::NotFound("no materialized function bound in predicate");
  }
  GOMFM_ASSIGN_OR_RETURN(auto loc, mgr_->Locate(f));
  GOMFM_ASSIGN_OR_RETURN(Gmr * gmr, mgr_->Get(loc.first));
  if (!gmr->spec().complete) {
    return Status::FailedPrecondition("GMR extension is incomplete");
  }
  // §6: a p-restricted GMR is applicable only when σ' ⇒ p.
  if (gmr->spec().predicate != kInvalidFunctionId) {
    GOMFM_ASSIGN_OR_RETURN(const fl::FunctionDef* pred,
                           registry_->Get(gmr->spec().predicate));
    if (pred->is_native() || pred->params.size() != query.ranges.size() ||
        query.where == nullptr) {
      return Status::FailedPrecondition("restriction predicate not testable");
    }
    std::map<std::string, std::string> renames;
    for (size_t i = 0; i < query.ranges.size(); ++i) {
      renames[pred->params[i].name] = query.ranges[i].name;
    }
    fl::ExprPtr p_body =
        RenameVars(pred->body.stmts.back().expr, renames);
    query::StringInterner interner;
    auto p_conv = query::FromFunclang(*p_body, &interner);
    auto sigma_conv = query::FromFunclang(*query.where, &interner);
    if (!p_conv.ok() || !sigma_conv.ok()) {
      return Status::FailedPrecondition(
          "predicates outside the decidable comparison class");
    }
    GOMFM_ASSIGN_OR_RETURN(bool applicable,
                           query::RestrictedGmrApplicable(*p_conv,
                                                          *sigma_conv));
    if (!applicable) {
      return Status::FailedPrecondition(
          "restricted GMR not applicable (sigma' does not imply p)");
    }
  }

  PlanAlternative alt;
  alt.kind = PlanAlternative::Kind::kGmrBackward;
  alt.function = f;
  alt.lo = lo;
  alt.hi = hi;
  alt.lo_inclusive = lo_in;
  alt.hi_inclusive = hi_in;
  if (!residual.empty()) {
    fl::ExprPtr combined = residual[0];
    for (size_t i = 1; i < residual.size(); ++i) {
      combined = fl::And(combined, residual[i]);
    }
    alt.residual = combined;
  }

  // Cost: catch-up rematerialization of invalid results + index probe +
  // one page per estimated match (+ residual evaluation).
  size_t invalid = gmr->InvalidRows(loc.second).size();
  double selectivity = 0.1;
  auto range = gmr->ValueRange(loc.second);
  if (range.ok() && range->second > range->first) {
    double clamped_lo = std::max(lo, range->first);
    double clamped_hi = std::min(hi, range->second);
    selectivity = clamped_hi > clamped_lo
                      ? (clamped_hi - clamped_lo) /
                            (range->second - range->first)
                      : 0.0;
  }
  double est_matches = selectivity * static_cast<double>(gmr->live_rows());
  size_t residual_nodes =
      alt.residual != nullptr ? CountNodes(*alt.residual) : 0;
  alt.estimated_cost =
      static_cast<double>(invalid) *
          (cost.disk_access_seconds + 200 * cost.cpu_eval_node_seconds) +
      cost.cpu_index_op_seconds +
      est_matches * (cost.disk_access_seconds * 0.1 +
                     static_cast<double>(residual_nodes) * 4 *
                         cost.cpu_eval_node_seconds);
  return alt;
}

Result<Plan> Planner::PlanRetrieve(const ParsedQuery& query) {
  if (query.kind != ParsedQuery::Kind::kRetrieve) {
    return Status::InvalidArgument("PlanRetrieve expects a retrieve query");
  }
  if (query.ranges.empty()) {
    return Status::InvalidArgument("retrieve query without a range clause");
  }
  Plan plan;
  plan.query = query;

  PlanAlternative scan;
  scan.kind = PlanAlternative::Kind::kExtensionScan;
  scan.residual = query.where;
  scan.estimated_cost = EstimateScanCost(query);
  plan.alternatives.push_back(std::move(scan));

  std::vector<fl::ExprPtr> conjuncts;
  Conjuncts(query.where, &conjuncts);
  auto gmr_alt = TryGmrAlternative(query, conjuncts);
  if (gmr_alt.ok()) plan.alternatives.push_back(std::move(*gmr_alt));

  plan.chosen = 0;
  for (size_t i = 1; i < plan.alternatives.size(); ++i) {
    if (plan.alternatives[i].estimated_cost <
        plan.alternatives[plan.chosen].estimated_cost) {
      plan.chosen = i;
    }
  }
  return plan;
}

Result<QueryRows> Planner::Execute(const Plan& plan) {
  const ParsedQuery& query = plan.query;
  const PlanAlternative& alt = plan.chosen_alternative();

  // Candidate bindings: one value per range variable.
  std::vector<std::vector<Value>> candidates;
  if (alt.kind == PlanAlternative::Kind::kExtensionScan) {
    // Cross product of the range types' extensions (nested-loop scan).
    std::vector<std::vector<Oid>> extents;
    for (const RangeVar& rv : query.ranges) {
      extents.push_back(om_->Extent(rv.type));
    }
    std::vector<Value> combo(query.ranges.size());
    std::function<void(size_t)> rec = [&](size_t pos) {
      if (pos == extents.size()) {
        candidates.push_back(combo);
        return;
      }
      for (Oid o : extents[pos]) {
        combo[pos] = Value::Ref(o);
        rec(pos + 1);
      }
    };
    rec(0);
  } else {
    GOMFM_ASSIGN_OR_RETURN(
        candidates, mgr_->BackwardRange(ctx_, alt.function, alt.lo, alt.hi,
                                        alt.lo_inclusive, alt.hi_inclusive));
  }

  QueryRows rows;
  for (const std::vector<Value>& candidate : candidates) {
    if (candidate.size() != query.ranges.size()) {
      return Status::Internal("candidate arity mismatch");
    }
    std::unordered_map<std::string, Value> bindings;
    for (size_t i = 0; i < query.ranges.size(); ++i) {
      bindings.emplace(query.ranges[i].name, candidate[i]);
    }
    if (alt.residual != nullptr) {
      GOMFM_ASSIGN_OR_RETURN(Value pass,
                             interp_->Evaluate(*alt.residual, bindings,
                                               nullptr, ctx_));
      GOMFM_ASSIGN_OR_RETURN(bool ok, pass.AsBool());
      if (!ok) continue;
    }
    std::vector<Value> row;
    for (const fl::ExprPtr& target : query.targets) {
      GOMFM_ASSIGN_OR_RETURN(
          Value v, interp_->Evaluate(*target, bindings, nullptr, ctx_));
      row.push_back(std::move(v));
    }
    rows.push_back(std::move(row));
  }
  if (query.aggregate == QueryAggregate::kNone) return rows;

  // Query-level aggregation: fold the single target over all bindings.
  if (query.aggregate == QueryAggregate::kCount) {
    return QueryRows{{Value::Int(static_cast<int64_t>(rows.size()))}};
  }
  double sum = 0, best = 0;
  bool first = true;
  for (const auto& row : rows) {
    GOMFM_ASSIGN_OR_RETURN(double d, row[0].AsDouble());
    sum += d;
    if (first || (query.aggregate == QueryAggregate::kMin && d < best) ||
        (query.aggregate == QueryAggregate::kMax && d > best)) {
      best = d;
      first = false;
    }
  }
  switch (query.aggregate) {
    case QueryAggregate::kSum:
      return QueryRows{{Value::Float(sum)}};
    case QueryAggregate::kAvg:
      return QueryRows{{Value::Float(rows.empty() ? 0.0
                                                  : sum / rows.size())}};
    case QueryAggregate::kMin:
    case QueryAggregate::kMax:
      if (rows.empty()) {
        return Status::FailedPrecondition("min/max over an empty answer");
      }
      return QueryRows{{Value::Float(best)}};
    default:
      return Status::Internal("unhandled aggregate");
  }
}

Result<QueryRows> Planner::Run(const ParsedQuery& query) {
  if (query.kind == ParsedQuery::Kind::kMaterialize) {
    GOMFM_RETURN_IF_ERROR(ExecuteMaterialize(query).status());
    return QueryRows{};
  }
  GOMFM_ASSIGN_OR_RETURN(Plan plan, PlanRetrieve(query));
  return Execute(plan);
}

Result<GmrId> Planner::ExecuteMaterialize(const ParsedQuery& query) {
  if (query.kind != ParsedQuery::Kind::kMaterialize) {
    return Status::InvalidArgument("not a materialize statement");
  }
  GmrSpec spec;
  for (const RangeVar& rv : query.ranges) {
    spec.arg_types.push_back(TypeRef::Object(rv.type));
  }
  for (const fl::ExprPtr& target : query.targets) {
    if (target->kind != fl::ExprKind::kCall ||
        target->children.size() != query.ranges.size()) {
      return Status::InvalidArgument(
          "materialize targets must be function invocations over the range "
          "variables, got " + fl::ExprToString(*target));
    }
    for (size_t i = 0; i < query.ranges.size(); ++i) {
      const fl::Expr& arg = *target->children[i];
      if (arg.kind != fl::ExprKind::kVar ||
          arg.name != query.ranges[i].name) {
        return Status::InvalidArgument(
            "materialize target arguments must be the range variables in "
            "declaration order");
      }
    }
    GOMFM_ASSIGN_OR_RETURN(FunctionId f, registry_->FindId(target->callee));
    spec.functions.push_back(f);
    if (!spec.name.empty()) spec.name += "_";
    spec.name += target->callee;
  }
  if (query.where != nullptr) {
    // The where-clause becomes the restriction predicate p (§6).
    fl::FunctionDef pred;
    pred.name = "p_" + spec.name + "_" + std::to_string(registry_->size());
    for (const RangeVar& rv : query.ranges) {
      pred.params.push_back({rv.name, TypeRef::Object(rv.type)});
    }
    pred.result_type = TypeRef::Bool();
    pred.body = fl::Body(query.where);
    GOMFM_ASSIGN_OR_RETURN(spec.predicate,
                           registry_->Register(std::move(pred)));
  }
  return mgr_->Materialize(spec);
}

}  // namespace gom::gomql
