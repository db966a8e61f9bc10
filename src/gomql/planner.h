#ifndef GOMFM_GOMQL_PLANNER_H_
#define GOMFM_GOMQL_PLANNER_H_

#include <string>
#include <vector>

#include "gmr/gmr_manager.h"
#include "gomql/parser.h"

namespace gom::gomql {

/// One access path considered for a retrieve query.
struct PlanAlternative {
  enum class Kind : uint8_t {
    /// Scan the range type's extension, evaluating the predicate per
    /// instance (GOM without materialization support).
    kExtensionScan,
    /// Answer the result-range part of the predicate through the
    /// materialized function's ordered index, filtering any residual
    /// conjuncts afterwards.
    kGmrBackward,
  };

  Kind kind = Kind::kExtensionScan;
  FunctionId function = kInvalidFunctionId;  // kGmrBackward
  double lo = 0, hi = 0;
  bool lo_inclusive = true, hi_inclusive = true;
  /// Conjuncts not answered by the index (nullptr when none).
  funclang::ExprPtr residual;
  double estimated_cost = 0;  // simulated seconds

  std::string Describe(const funclang::FunctionRegistry* registry) const;
};

/// The plan for one query: all considered alternatives plus the choice.
struct Plan {
  ParsedQuery query;
  std::vector<PlanAlternative> alternatives;
  size_t chosen = 0;

  const PlanAlternative& chosen_alternative() const {
    return alternatives[chosen];
  }
  std::string Explain(const funclang::FunctionRegistry* registry) const;
};

/// Result rows of a retrieve query: one vector of target values per
/// qualifying binding.
using QueryRows = std::vector<std::vector<Value>>;

/// The §8 outlook, realized: a small cost-based optimizer that generates
/// query evaluation plans utilizing materialized values instead of
/// recomputing them. It supports single-range-variable retrieve queries
/// (plan + execute) and materialize statements (including p-restricted
/// materialization compiled from the where-clause).
///
/// `ctx` is the execution context retrieve plans run under: a session's
/// context makes them readers of the GMRs (see GmrReadPath), null gives
/// them write authority. Materialize statements need write authority.
class Planner {
 public:
  Planner(ObjectManager* om, funclang::Interpreter* interp, GmrManager* mgr,
          funclang::FunctionRegistry* registry,
          const ExecutionContext* ctx = nullptr)
      : om_(om), interp_(interp), mgr_(mgr), registry_(registry), ctx_(ctx) {}

  /// Enumerates and costs the alternatives for a retrieve query.
  Result<Plan> PlanRetrieve(const ParsedQuery& query);

  /// Executes a previously produced plan.
  Result<QueryRows> Execute(const Plan& plan);

  /// Parses nothing — takes a ParsedQuery: retrieve → plan + execute;
  /// materialize → create the GMR (returns no rows).
  Result<QueryRows> Run(const ParsedQuery& query);

  /// Executes a materialize statement: the targets name the functions, the
  /// where-clause (if any) becomes the restriction predicate p.
  Result<GmrId> ExecuteMaterialize(const ParsedQuery& query);

 private:
  /// Splits an And-chain into conjuncts.
  static void Conjuncts(const funclang::ExprPtr& e,
                        std::vector<funclang::ExprPtr>* out);
  static size_t CountNodes(const funclang::Expr& e);

  Result<PlanAlternative> TryGmrAlternative(
      const ParsedQuery& query,
      const std::vector<funclang::ExprPtr>& conjuncts);

  double EstimateScanCost(const ParsedQuery& query) const;

  ObjectManager* om_;
  funclang::Interpreter* interp_;
  GmrManager* mgr_;
  funclang::FunctionRegistry* registry_;
  const ExecutionContext* ctx_;
};

}  // namespace gom::gomql

#endif  // GOMFM_GOMQL_PLANNER_H_
