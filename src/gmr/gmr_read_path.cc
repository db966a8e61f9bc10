#include "gmr/gmr_read_path.h"

#include <chrono>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <thread>

namespace gom {

bool GmrReadPath::IsMaterializedShared(FunctionId f) const {
  if (catalog_->concurrent_mode()) {
    std::shared_lock<std::shared_mutex> cat(catalog_->latch());
    return catalog_->IsMaterialized(f);
  }
  return catalog_->IsMaterialized(f);
}

void GmrReadPath::MaybeStall() const {
  int us = io_stall_us_.load(std::memory_order_relaxed);
  if (us > 0) std::this_thread::sleep_for(std::chrono::microseconds(us));
}

Result<Value> GmrReadPath::PlainEval(const ExecutionContext* ctx,
                                     FunctionId f, std::vector<Value> args) {
  ++ctx->compute_depth;
  Result<Value> result = interp_->Invoke(ctx, f, std::move(args), nullptr);
  --ctx->compute_depth;
  if (ctx->stats != nullptr) ++ctx->stats->plain_evaluations;
  return result;
}

Result<Value> GmrReadPath::ForwardLookup(const ExecutionContext* ctx,
                                         FunctionId f,
                                         std::vector<Value> args) {
  const bool writer = ctx == nullptr;
  std::optional<GmrMaintenance::ExclusiveRegion> region;
  std::shared_lock<std::shared_mutex> cat, ext;
  if (writer) {
    region.emplace(maintenance_);
  } else {
    cat = std::shared_lock<std::shared_mutex>(catalog_->latch());
  }
  auto loc = catalog_->Locate(f);
  if (!loc.ok()) {
    // Not materialized: plain evaluation.
    if (writer) return interp_->Invoke(f, std::move(args));
    cat.unlock();
    return PlainEval(ctx, f, std::move(args));
  }
  GOMFM_ASSIGN_OR_RETURN(Gmr * gmr, catalog_->Get(loc->first));
  size_t col = loc->second;
  if (!writer) {
    ext = std::shared_lock<std::shared_mutex>(gmr->latch());
    MaybeStall();
  }
  RowId row = kInvalidRowId;
  auto cached = gmr->ReadResult(args, col, ctx, &row);
  if (row != kInvalidRowId) {
    gmr->RecordAccess(row);
    if (writer) gmr->MarkUsed(row);
  }
  if (!cached.ok() && cached.status().code() != StatusCode::kNotFound) {
    return cached.status();
  }
  const bool found = cached.ok();
  if (found && cached->has_value()) {
    ++stats_->forward_hits;
    return std::move(**cached);
  }
  if (found) {
    ++stats_->forward_invalid;
  } else {
    ++stats_->forward_misses;
  }
  if (!writer) {
    // A reader never writes the extension: the repair below is left to
    // the writer, and the value is computed transiently.
    ext.unlock();
    cat.unlock();
    return PlainEval(ctx, f, std::move(args));
  }

  const GmrSpec& spec = gmr->spec();
  if (found) {
    // Invalid result: recompute at the latest when it is needed (§3.1).
    gmr->maint_counters().rematerializations.fetch_add(
        1, std::memory_order_relaxed);
  } else {
    // Outside a restricted domain (or not yet cached): compute normally.
    bool in_domain = true;
    for (size_t i = 0; i < args.size() && i < spec.arg_restrictions.size();
         ++i) {
      auto admitted = spec.arg_restrictions[i].Admits(args[i]);
      if (!admitted.ok() || !*admitted) {
        in_domain = false;
        break;
      }
    }
    if (!in_domain || spec.complete) {
      // For complete restricted GMRs, a missing row means the predicate
      // rejected the combination — evaluate the plain function.
      if (spec.complete && spec.predicate == kInvalidFunctionId && in_domain) {
        // Self-heal a complete unrestricted GMR that is missing a row.
        GOMFM_RETURN_IF_ERROR(maintenance_->AdmitCombo(gmr, args));
        return ForwardLookup(nullptr, f, std::move(args));
      }
      return interp_->Invoke(f, std::move(args));
    }
    // Incrementally set-up GMR: cache the freshly computed result (§3.2).
    if (spec.predicate != kInvalidFunctionId) {
      funclang::Trace ptrace;
      GOMFM_ASSIGN_OR_RETURN(
          Value p, maintenance_->ComputeTracked(spec.predicate, args, &ptrace));
      GOMFM_RETURN_IF_ERROR(
          maintenance_->RecordReverseRefs(spec.predicate, args, ptrace));
      GOMFM_ASSIGN_OR_RETURN(bool admitted, p.AsBool());
      if (!admitted) return interp_->Invoke(f, std::move(args));
    }
    GOMFM_ASSIGN_OR_RETURN(row, gmr->Insert(args));
    ++stats_->rows_created;
  }
  funclang::Trace trace;
  GOMFM_ASSIGN_OR_RETURN(Value result,
                         maintenance_->ComputeTracked(f, args, &trace));
  GOMFM_RETURN_IF_ERROR(maintenance_->LogRemat(gmr->id(), col, args, result,
                                               trace.accessed_objects));
  GOMFM_RETURN_IF_ERROR(gmr->SetResult(row, col, result));
  GOMFM_RETURN_IF_ERROR(maintenance_->RecordReverseRefs(f, args, trace));
  return result;
}

Result<std::vector<std::vector<Value>>> GmrReadPath::BackwardRange(
    const ExecutionContext* ctx, FunctionId f, double lo, double hi,
    bool lo_inclusive, bool hi_inclusive) {
  const bool writer = ctx == nullptr;
  std::optional<GmrMaintenance::ExclusiveRegion> region;
  std::shared_lock<std::shared_mutex> cat, ext;
  if (writer) {
    region.emplace(maintenance_);
  } else {
    cat = std::shared_lock<std::shared_mutex>(catalog_->latch());
  }
  GOMFM_ASSIGN_OR_RETURN(auto loc, catalog_->Locate(f));
  GOMFM_ASSIGN_OR_RETURN(Gmr * gmr, catalog_->Get(loc.first));
  if (!gmr->spec().complete) {
    return Status::FailedPrecondition(
        "backward query needs a complete GMR extension");
  }
  ++stats_->backward_queries;
  size_t col = loc.second;
  // The index holds valid results only, so every invalid result of the
  // column must be resolved for the answer to be correct: a writer
  // recomputes them in place first, a reader computes them transiently
  // after the scan.
  std::vector<std::vector<Value>> pending;
  if (writer) {
    GOMFM_RETURN_IF_ERROR(maintenance_->EnsureColumnValid(f));
  } else {
    ext = std::shared_lock<std::shared_mutex>(gmr->latch());
    MaybeStall();
    for (RowId row : gmr->InvalidRows(col)) {
      GOMFM_ASSIGN_OR_RETURN(const Gmr::Row* r, gmr->Read(row));
      pending.push_back(r->args);
    }
  }
  std::vector<std::vector<Value>> out;
  gmr->ScanValidRange(col, lo, hi, lo_inclusive, hi_inclusive, ctx,
                      [&](RowId, const Gmr::Row& row) {
                        out.push_back(row.args);
                        return true;
                      });
  if (writer) return out;
  ext.unlock();
  cat.unlock();
  for (std::vector<Value>& args : pending) {
    auto result = PlainEval(ctx, f, std::vector<Value>(args));
    if (!result.ok()) {
      if (result.status().code() == StatusCode::kNotFound) {
        continue;  // garbage row (dangling argument object, §4.2)
      }
      return result.status();
    }
    if (!result->is_numeric()) continue;
    double d = *result->AsDouble();
    if ((lo_inclusive ? d >= lo : d > lo) &&
        (hi_inclusive ? d <= hi : d < hi)) {
      out.push_back(std::move(args));
    }
  }
  return out;
}

}  // namespace gom
