#include "gmr/gmr.h"

#include <cassert>

namespace gom {

Result<bool> ArgRestriction::Admits(const Value& v) const {
  switch (kind) {
    case Kind::kNone:
      return true;
    case Kind::kValues:
      for (const Value& cand : values) {
        if (cand == v) return true;
        if (cand.is_numeric() && v.is_numeric() &&
            *cand.AsDouble() == *v.AsDouble()) {
          return true;
        }
      }
      return false;
    case Kind::kIntRange: {
      if (v.kind() != ValueKind::kInt) {
        return Status::TypeMismatch("range restriction on non-int value");
      }
      return v.as_int() >= lo && v.as_int() <= hi;
    }
  }
  return Status::Internal("bad restriction kind");
}

Result<std::vector<Value>> ArgRestriction::Enumerate() const {
  switch (kind) {
    case Kind::kNone:
      return Status::FailedPrecondition(
          "unrestricted atomic argument domain cannot be enumerated");
    case Kind::kValues:
      return values;
    case Kind::kIntRange: {
      std::vector<Value> out;
      for (int64_t v = lo; v <= hi; ++v) out.push_back(Value::Int(v));
      return out;
    }
  }
  return Status::Internal("bad restriction kind");
}

namespace {

std::vector<uint8_t> SerializeRow(const Gmr::Row& row) {
  std::vector<uint8_t> out;
  for (const Value& v : row.args) v.Serialize(&out);
  for (size_t i = 0; i < row.results.size(); ++i) {
    row.results[i].Serialize(&out);
    out.push_back(row.valid[i] ? 1 : 0);
  }
  // Pad to a quantum so filling in an initially-null result (1 byte →
  // 9 bytes for a float) updates the record in place instead of
  // relocating freshly inserted rows.
  constexpr size_t kRowQuantum = 16;
  out.resize((out.size() / kRowQuantum + 1) * kRowQuantum, 0);
  return out;
}

}  // namespace

Gmr::Gmr(GmrId id, GmrSpec spec, StorageManager* storage, SimClock* clock,
         const CostModel& cost)
    : id_(id),
      spec_(std::move(spec)),
      storage_(storage),
      clock_(clock),
      cost_(cost),
      rows_store_(storage, storage->CreateSegment("gmr:" + spec_.name)) {
  result_indexes_.resize(spec_.functions.size());
  for (size_t i = 0; i < spec_.functions.size(); ++i) {
    result_indexes_[i] = std::make_unique<BPlusTree>();
  }
  if (spec_.arg_restrictions.size() < spec_.arg_types.size()) {
    spec_.arg_restrictions.resize(spec_.arg_types.size());
  }
}

Result<size_t> Gmr::FunctionIndex(FunctionId f) const {
  for (size_t i = 0; i < spec_.functions.size(); ++i) {
    if (spec_.functions[i] == f) return i;
  }
  return Status::NotFound("function not in GMR '" + spec_.name + "'");
}

Result<RowId> Gmr::Insert(std::vector<Value> args) {
  if (args.size() != spec_.arity()) {
    return Status::InvalidArgument("GMR '" + spec_.name +
                                   "': wrong argument count");
  }
  for (size_t i = 0; i < args.size(); ++i) {
    GOMFM_ASSIGN_OR_RETURN(bool ok, spec_.arg_restrictions[i].Admits(args[i]));
    if (!ok) {
      return Status::FailedPrecondition(
          "GMR '" + spec_.name + "': argument outside restricted domain");
    }
  }
  if (arg_index_.Lookup(args).ok()) {
    return Status::AlreadyExists("GMR '" + spec_.name +
                                 "': row for arguments exists");
  }
  if (spec_.max_rows > 0 && live_rows_ >= spec_.max_rows) {
    GOMFM_RETURN_IF_ERROR(EvictLru());
  }
  if (change_hook_) {
    GOMFM_RETURN_IF_ERROR(change_hook_(/*inserted=*/true, args));
  }

  Row row;
  row.args = std::move(args);
  row.results.resize(spec_.function_count());
  row.valid.assign(spec_.function_count(), false);
  row.last_access = ++access_counter_;

  RowId rid = rows_.size();
  GOMFM_ASSIGN_OR_RETURN(auto handle, rows_store_.Insert(SerializeRow(row)));
  GOMFM_RETURN_IF_ERROR(arg_index_.Insert(row.args, rid));
  clock_->Advance(cost_.cpu_index_op_seconds);
  rows_.push_back(std::move(row));
  handles_.push_back(std::move(handle));
  hot_slots_.push_back(0);
  ++live_rows_;
  return rid;
}

Result<RowId> Gmr::FindRow(const std::vector<Value>& args) const {
  lookups_.fetch_add(1, std::memory_order_relaxed);
  clock_->Advance(cost_.cpu_index_op_seconds);
  return arg_index_.Lookup(args);
}

Result<std::optional<Value>> Gmr::ReadResult(const std::vector<Value>& args,
                                             size_t fn_idx,
                                             const ExecutionContext* ctx,
                                             RowId* row_out) const {
  if (fn_idx >= spec_.function_count()) {
    return Status::InvalidArgument("GMR: bad function index");
  }
  lookups_.fetch_add(1, std::memory_order_relaxed);
  ClockFor(ctx)->Advance(cost_.cpu_index_op_seconds);
  GOMFM_ASSIGN_OR_RETURN(RowId row, arg_index_.Lookup(args));
  if (row >= rows_.size() || !rows_[row].live) {
    return Status::NotFound("GMR '" + spec_.name + "': no such row");
  }
  if (row_out != nullptr) *row_out = row;
  GOMFM_RETURN_IF_ERROR(rows_store_.Touch(handles_[row]));
  const Row& r = rows_[row];
  if (!r.valid[fn_idx]) return std::optional<Value>();
  return std::optional<Value>(r.results[fn_idx]);
}

void Gmr::RecordAccess(RowId row) const {
  if (!demand_.enabled || row >= hot_slots_.size()) return;
  uint32_t epoch_span = demand_.epoch_accesses == 0 ? 1 : demand_.epoch_accesses;
  uint64_t epoch =
      demand_accesses_.fetch_add(1, std::memory_order_relaxed) / epoch_span;
  uint32_t e32 = static_cast<uint32_t>(epoch);
  std::atomic_ref<uint64_t> slot(hot_slots_[row]);
  uint64_t cur = slot.load(std::memory_order_relaxed);
  for (;;) {
    uint32_t slot_epoch = static_cast<uint32_t>(cur >> 32);
    uint64_t next;
    if (slot_epoch == e32) {
      uint16_t c = static_cast<uint16_t>(cur & 0xffff);
      if (c == 0xffff) return;  // saturated; further bumps change nothing
      next = (cur & ~0xffffULL) | static_cast<uint64_t>(c + 1);
    } else if (slot_epoch + 1 == e32) {
      // One window behind: current count ages into the previous-window slot.
      uint16_t c = static_cast<uint16_t>(cur & 0xffff);
      next = (static_cast<uint64_t>(e32) << 32) |
             (static_cast<uint64_t>(c) << 16) | 1;
    } else {
      // Two or more windows behind: all history has decayed away.
      next = (static_cast<uint64_t>(e32) << 32) | 1;
    }
    if (slot.compare_exchange_weak(cur, next, std::memory_order_relaxed)) {
      return;
    }
  }
}

bool Gmr::IsHot(RowId row) const {
  if (!demand_.enabled) return true;  // eager repair when the policy is off
  if (row >= hot_slots_.size()) return false;
  uint32_t epoch_span = demand_.epoch_accesses == 0 ? 1 : demand_.epoch_accesses;
  uint32_t e32 = static_cast<uint32_t>(
      demand_accesses_.load(std::memory_order_relaxed) / epoch_span);
  uint64_t v =
      std::atomic_ref<uint64_t>(hot_slots_[row]).load(std::memory_order_relaxed);
  uint32_t slot_epoch = static_cast<uint32_t>(v >> 32);
  uint32_t count = 0;
  if (slot_epoch == e32) {
    count = static_cast<uint32_t>((v >> 16) & 0xffff) +
            static_cast<uint32_t>(v & 0xffff);
  } else if (slot_epoch + 1 == e32) {
    count = static_cast<uint32_t>(v & 0xffff);
  }
  return count >= demand_.hot_threshold;
}

size_t Gmr::HotRowCount() const {
  if (!demand_.enabled) return 0;
  size_t hot = 0;
  for (RowId r = 0; r < rows_.size(); ++r) {
    if (rows_[r].live && IsHot(r)) ++hot;
  }
  return hot;
}

Result<const Gmr::Row*> Gmr::Get(RowId row) {
  GOMFM_ASSIGN_OR_RETURN(const Row* r, Read(row));
  MarkUsed(row);
  return r;
}

Result<const Gmr::Row*> Gmr::Read(RowId row) const {
  if (row >= rows_.size() || !rows_[row].live) {
    return Status::NotFound("GMR '" + spec_.name + "': no such row");
  }
  GOMFM_RETURN_IF_ERROR(rows_store_.Touch(handles_[row]));
  return &rows_[row];
}

Status Gmr::IndexResult(RowId row, size_t fn_idx, const Value& v) {
  if (result_indexes_[fn_idx] == nullptr || !v.is_numeric()) {
    return Status::Ok();
  }
  return result_indexes_[fn_idx]->Insert(*v.AsDouble(), row);
}

Status Gmr::UnindexResult(RowId row, size_t fn_idx, const Value& v) {
  if (result_indexes_[fn_idx] == nullptr || !v.is_numeric()) {
    return Status::Ok();
  }
  return result_indexes_[fn_idx]->Erase(*v.AsDouble(), row);
}

Result<bool> Gmr::ResultValid(RowId row, size_t fn_idx) const {
  if (row >= rows_.size() || !rows_[row].live) {
    return Status::NotFound("GMR '" + spec_.name + "': no such row");
  }
  if (fn_idx >= spec_.function_count()) {
    return Status::InvalidArgument("GMR: bad function index");
  }
  return static_cast<bool>(rows_[row].valid[fn_idx]);
}

Status Gmr::SetResult(RowId row, size_t fn_idx, Value result) {
  if (row >= rows_.size() || !rows_[row].live) {
    return Status::NotFound("GMR '" + spec_.name + "': no such row");
  }
  if (fn_idx >= spec_.function_count()) {
    return Status::InvalidArgument("GMR: bad function index");
  }
  delta_leaves_.erase({row, fn_idx});
  Row& r = rows_[row];
  if (r.valid[fn_idx]) {
    GOMFM_RETURN_IF_ERROR(UnindexResult(row, fn_idx, r.results[fn_idx]));
  }
  r.results[fn_idx] = std::move(result);
  r.valid[fn_idx] = true;
  GOMFM_RETURN_IF_ERROR(IndexResult(row, fn_idx, r.results[fn_idx]));
  r.last_access = ++access_counter_;
  clock_->Advance(cost_.cpu_index_op_seconds);
  return rows_store_.Update(&handles_[row], SerializeRow(r));
}

Status Gmr::InvalidateResult(RowId row, size_t fn_idx) {
  if (row >= rows_.size() || !rows_[row].live) {
    return Status::NotFound("GMR '" + spec_.name + "': no such row");
  }
  delta_leaves_.erase({row, fn_idx});
  Row& r = rows_[row];
  if (!r.valid[fn_idx]) return Status::Ok();  // already invalid
  GOMFM_RETURN_IF_ERROR(UnindexResult(row, fn_idx, r.results[fn_idx]));
  r.valid[fn_idx] = false;
  ++invalidations_;
  clock_->Advance(cost_.cpu_index_op_seconds);
  return rows_store_.Update(&handles_[row], SerializeRow(r));
}

Status Gmr::Remove(RowId row) {
  if (row >= rows_.size() || !rows_[row].live) {
    return Status::NotFound("GMR '" + spec_.name + "': no such row");
  }
  Row& r = rows_[row];
  if (change_hook_) {
    GOMFM_RETURN_IF_ERROR(change_hook_(/*inserted=*/false, r.args));
  }
  delta_leaves_.erase(delta_leaves_.lower_bound({row, 0}),
                      delta_leaves_.lower_bound({row + 1, 0}));
  for (size_t i = 0; i < spec_.function_count(); ++i) {
    if (r.valid[i]) {
      GOMFM_RETURN_IF_ERROR(UnindexResult(row, i, r.results[i]));
    }
  }
  GOMFM_RETURN_IF_ERROR(arg_index_.Erase(r.args));
  GOMFM_RETURN_IF_ERROR(rows_store_.Delete(handles_[row]));
  handles_[row].clear();
  r.live = false;
  r.args.clear();
  r.results.clear();
  r.valid.clear();
  --live_rows_;
  clock_->Advance(cost_.cpu_index_op_seconds);
  return Status::Ok();
}

std::optional<std::vector<funclang::DeltaLeaf>> Gmr::TakeDeltaLeaves(
    RowId row, size_t fn_idx) {
  auto it = delta_leaves_.find({row, fn_idx});
  if (it == delta_leaves_.end()) return std::nullopt;
  std::vector<funclang::DeltaLeaf> leaves = std::move(it->second);
  delta_leaves_.erase(it);
  return leaves;
}

void Gmr::PutDeltaLeaves(RowId row, size_t fn_idx,
                         std::vector<funclang::DeltaLeaf> leaves) {
  if (row >= rows_.size() || !rows_[row].live || !rows_[row].valid[fn_idx]) {
    return;  // a capture for an invalid result could never be consulted
  }
  delta_leaves_[{row, fn_idx}] = std::move(leaves);
}

Status Gmr::EvictLru() {
  RowId victim = kInvalidRowId;
  uint64_t oldest = UINT64_MAX;
  for (RowId r = 0; r < rows_.size(); ++r) {
    if (rows_[r].live && rows_[r].last_access < oldest) {
      oldest = rows_[r].last_access;
      victim = r;
    }
  }
  if (victim == kInvalidRowId) {
    return Status::FailedPrecondition("GMR cache: nothing to evict");
  }
  return Remove(victim);
}

void Gmr::ScanValidRange(
    size_t fn_idx, double lo, double hi, bool lo_inclusive, bool hi_inclusive,
    const ExecutionContext* ctx,
    const std::function<bool(RowId, const Row&)>& cb) const {
  if (fn_idx >= result_indexes_.size() ||
      result_indexes_[fn_idx] == nullptr) {
    return;
  }
  ClockFor(ctx)->Advance(cost_.cpu_index_op_seconds);
  std::vector<RowId> hits;
  result_indexes_[fn_idx]->RangeScan(lo, hi, lo_inclusive, hi_inclusive,
                                     [&](double, uint64_t row) {
                                       hits.push_back(row);
                                       return true;
                                     });
  for (RowId row : hits) {
    auto got = Read(row);  // touches the row's pages
    if (!got.ok()) continue;
    if (!cb(row, **got)) return;
  }
}

void Gmr::ForEachRow(
    const std::function<bool(RowId, const Row&)>& cb) const {
  for (RowId r = 0; r < rows_.size(); ++r) {
    if (!rows_[r].live) continue;
    if (!cb(r, rows_[r])) return;
  }
}

std::vector<RowId> Gmr::InvalidRows(size_t fn_idx) const {
  std::vector<RowId> out;
  for (RowId r = 0; r < rows_.size(); ++r) {
    if (rows_[r].live && !rows_[r].valid[fn_idx]) out.push_back(r);
  }
  return out;
}

Result<std::pair<double, double>> Gmr::ValueRange(size_t fn_idx) const {
  if (fn_idx >= result_indexes_.size() ||
      result_indexes_[fn_idx] == nullptr) {
    return Status::FailedPrecondition("GMR column has no ordered index");
  }
  double lo, hi;
  if (!result_indexes_[fn_idx]->MinKey(&lo) ||
      !result_indexes_[fn_idx]->MaxKey(&hi)) {
    return Status::FailedPrecondition("GMR column has no valid results");
  }
  return std::make_pair(lo, hi);
}

Status Gmr::CheckWellFormed() const {
  for (const Row& r : rows_) {
    if (!r.live) continue;
    if (r.args.size() != spec_.arity() ||
        r.results.size() != spec_.function_count() ||
        r.valid.size() != spec_.function_count()) {
      return Status::Internal("GMR row shape mismatch");
    }
    for (size_t i = 0; i < r.valid.size(); ++i) {
      if (r.valid[i] && r.results[i].is_null()) {
        return Status::Internal("valid flag set on null result");
      }
    }
  }
  return Status::Ok();
}

}  // namespace gom
