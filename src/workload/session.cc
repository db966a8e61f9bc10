#include "workload/session.h"

#include "gomql/parser.h"
#include "gomql/planner.h"
#include "workload/driver.h"

namespace gom::workload {

Session::Session(Environment* env, SessionPool* pool, uint32_t id)
    : env_(env), pool_(pool), id_(id) {
  ctx_.clock = &clock_;
  ctx_.stats = &stats_;
  ctx_.session_id = id_;
}

Result<Value> Session::ForwardQuery(FunctionId f, std::vector<Value> args) {
  SessionPool::ReaderLock gate(pool_);
  ++stats_.forward_queries;
  return env_->mgr.ForwardLookup(&ctx_, f, std::move(args));
}

Result<std::vector<std::vector<Value>>> Session::BackwardQuery(
    FunctionId f, double lo, double hi, bool lo_inclusive,
    bool hi_inclusive) {
  SessionPool::ReaderLock gate(pool_);
  ++stats_.backward_queries;
  return env_->mgr.BackwardRange(&ctx_, f, lo, hi, lo_inclusive,
                                 hi_inclusive);
}

Result<std::vector<std::vector<Value>>> Session::RunGomql(
    const std::string& text) {
  ++stats_.gomql_queries;
  gomql::ParsedQuery query;
  {
    SessionPool::ReaderLock gate(pool_);
    gomql::Parser parser(&env_->schema, &env_->registry);
    GOMFM_ASSIGN_OR_RETURN(query, parser.Parse(text));
    if (query.kind == gomql::ParsedQuery::Kind::kRetrieve) {
      gomql::Planner planner(&env_->om, &env_->interp, &env_->mgr,
                             &env_->registry, &ctx_);
      return planner.Run(query);
    }
  }
  // Materialize mutates the catalog and the registry: writer gate, and
  // write authority (null context) for the planner.
  SessionPool::WriterLock gate(pool_);
  gomql::Planner planner(&env_->om, &env_->interp, &env_->mgr,
                         &env_->registry);
  return planner.Run(query);
}

Result<std::string> Session::ExplainGomql(const std::string& text) {
  SessionPool::ReaderLock gate(pool_);
  ++stats_.gomql_queries;
  gomql::Parser parser(&env_->schema, &env_->registry);
  GOMFM_ASSIGN_OR_RETURN(gomql::ParsedQuery query, parser.Parse(text));
  if (query.kind != gomql::ParsedQuery::Kind::kRetrieve) {
    return Status::InvalidArgument("EXPLAIN supports retrieve queries only");
  }
  gomql::Planner planner(&env_->om, &env_->interp, &env_->mgr,
                         &env_->registry, &ctx_);
  GOMFM_ASSIGN_OR_RETURN(gomql::Plan plan, planner.PlanRetrieve(query));
  return plan.Explain(&env_->registry);
}

Result<Value> Session::RunOperation(FunctionId op, std::vector<Value> args) {
  GOMFM_ASSIGN_OR_RETURN(const funclang::FunctionDef* def,
                         env_->registry.Get(op));
  if (def->side_effect_free) {
    return Status::InvalidArgument("RunOperation: '" + def->name +
                                   "' is side-effect-free; use a forward "
                                   "query");
  }
  SessionPool::WriterLock gate(pool_);
  ++stats_.update_ops;
  // Invoked without the session's context: the exclusive gate makes this
  // thread the writer, so in-place repairs during invalidation are safe.
  return env_->interp.Invoke(op, std::move(args));
}

Session* SessionPool::CreateSession() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!free_.empty()) {
    Session* reused = free_.back();
    free_.pop_back();
    reused->stats_.Reset();
    reused->clock_.Reset();
    return reused;
  }
  uint32_t id = static_cast<uint32_t>(sessions_.size()) + 1;
  sessions_.push_back(
      std::unique_ptr<Session>(new Session(env_, this, id)));
  return sessions_.back().get();
}

void SessionPool::Release(Session* session) {
  if (session == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  free_.push_back(session);
}

size_t SessionPool::session_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

size_t SessionPool::free_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return free_.size();
}

}  // namespace gom::workload
