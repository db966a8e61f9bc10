#include "repl/replica.h"

#include <utility>

#include "workload/program_version.h"

namespace gom::repl {

server::ReplMsg ReplicaCore::Hello() const {
  server::ReplMsg msg;
  msg.type = server::ReplMsgType::kHello;
  msg.lsn = applied_;
  return msg;
}

server::ReplMsg ReplicaCore::AckMsg() const {
  server::ReplMsg ack;
  ack.type = server::ReplMsgType::kWalAck;
  ack.lsn = applied_;
  return ack;
}

Result<std::optional<server::ReplMsg>> ReplicaCore::Handle(
    const server::ReplMsg& msg) {
  if (promoted_) {
    return Status::FailedPrecondition(
        "promoted node refuses shipped traffic");
  }
  switch (msg.type) {
    case server::ReplMsgType::kSnapshotBegin: {
      if (applied_ != kNullLsn) {
        return Status::FailedPrecondition(
            "snapshot offered to a replica that already has state; reset "
            "the replica and re-bootstrap");
      }
      snap_active_ = true;
      snap_lsn_ = msg.lsn;
      snap_expected_chunks_ = msg.seq;
      snap_next_chunk_ = 0;
      snap_bytes_.clear();
      return std::optional<server::ReplMsg>{};
    }
    case server::ReplMsgType::kSnapshotChunk: {
      if (!snap_active_) {
        return Status::FailedPrecondition("snapshot chunk without begin");
      }
      if (msg.seq != snap_next_chunk_) {
        snap_active_ = false;
        return Status::OutOfRange("snapshot chunk out of sequence");
      }
      snap_bytes_.insert(snap_bytes_.end(), msg.bytes.begin(),
                         msg.bytes.end());
      ++snap_next_chunk_;
      return std::optional<server::ReplMsg>{};
    }
    case server::ReplMsgType::kSnapshotEnd: {
      if (!snap_active_) {
        return Status::FailedPrecondition("snapshot end without begin");
      }
      snap_active_ = false;
      if (snap_next_chunk_ != snap_expected_chunks_) {
        return Status::OutOfRange("snapshot incomplete");
      }
      if (Crc32(snap_bytes_.data(), snap_bytes_.size()) != msg.seq) {
        return Status::InvalidArgument("snapshot checksum mismatch");
      }
      GOMFM_ASSIGN_OR_RETURN(ReplSnapshot snap, DecodeSnapshot(snap_bytes_));
      snap_bytes_.clear();
      GOMFM_RETURN_IF_ERROR(InstallSnapshot(snap, env_));
      applied_ = snap.lsn;
      ++stats_.snapshots_installed;
      return std::optional<server::ReplMsg>(AckMsg());
    }
    case server::ReplMsgType::kWalShip:
      return HandleShip(msg);
    case server::ReplMsgType::kHello:
    case server::ReplMsgType::kWalAck:
      return Status::InvalidArgument(
          "replica received a replica-to-primary message");
  }
  return Status::InvalidArgument("unknown replication message");
}

Result<std::optional<server::ReplMsg>> ReplicaCore::HandleShip(
    const server::ReplMsg& msg) {
  if (snap_active_) {
    return Status::FailedPrecondition("ship batch inside a snapshot train");
  }
  for (const WalRecord& rec : msg.records) {
    if (rec.lsn <= applied_) {
      ++stats_.duplicates_skipped;
      continue;
    }
    if (rec.lsn != applied_ + 1) {
      ++stats_.gaps_detected;
      return Status::OutOfRange("stream gap: applied " +
                                std::to_string(applied_) + ", got " +
                                std::to_string(rec.lsn) + " — reconnect");
    }
    GOMFM_RETURN_IF_ERROR(recovery_.ApplyRecord(rec));
    applied_ = rec.lsn;
    ++stats_.records_applied;
  }
  return std::optional<server::ReplMsg>(AckMsg());
}

Result<Value> ReplicaCore::ForwardRead(FunctionId f, std::vector<Value> args,
                                       Lsn min_lsn) {
  if (applied_ < min_lsn) {
    ++stats_.stale_reads;
    return Status::Stale("replica applied " + std::to_string(applied_) +
                         " < required " + std::to_string(min_lsn));
  }
  auto loc = env_->mgr.Locate(f);
  if (!loc.ok()) {
    // Not materialized: plain (read-only) evaluation against the base.
    return env_->interp.Invoke(f, std::move(args));
  }
  GOMFM_ASSIGN_OR_RETURN(Gmr * gmr, env_->mgr.Get(loc->first));
  auto cached = gmr->ReadResult(args, loc->second);
  if (cached.ok()) {
    if (cached->has_value()) return std::move(**cached);
    // Row exists but the result is invalid: the primary rematerializes
    // lazily; a replica must not — hand the client a retryable answer.
    ++stats_.stale_reads;
    return Status::Stale("materialized result pending rematerialization");
  }
  if (cached.status().code() == StatusCode::kNotFound) {
    return env_->interp.Invoke(f, std::move(args));
  }
  return cached.status();
}

Result<server::RowSet> ReplicaCore::BackwardRead(FunctionId f, double lo,
                                                 double hi, bool lo_inclusive,
                                                 bool hi_inclusive,
                                                 Lsn min_lsn) {
  if (applied_ < min_lsn) {
    ++stats_.stale_reads;
    return Status::Stale("replica applied " + std::to_string(applied_) +
                         " < required " + std::to_string(min_lsn));
  }
  GOMFM_ASSIGN_OR_RETURN(auto loc, env_->mgr.Locate(f));
  GOMFM_ASSIGN_OR_RETURN(Gmr * gmr, env_->mgr.Get(loc.first));
  if (!gmr->spec().complete) {
    return Status::FailedPrecondition(
        "backward query needs a complete GMR extension");
  }
  if (!gmr->InvalidRows(loc.second).empty()) {
    // The primary would rematerialize these before answering; we cannot.
    ++stats_.stale_reads;
    return Status::Stale("column has invalid results; retry after catch-up");
  }
  server::RowSet out;
  gmr->ScanValidRange(loc.second, lo, hi, lo_inclusive, hi_inclusive,
                      nullptr, [&](RowId, const Gmr::Row& row) {
                        out.push_back(row.args);
                        return true;
                      });
  return out;
}

Status ReplicaCore::Promote() {
  if (promoted_) return Status::Ok();
  recovery_.DiscardOpenRegions();
  GOMFM_RETURN_IF_ERROR(recovery_.ReconcileAll());
  // From here the node maintains its GMRs autonomously, exactly like a
  // freshly recovered primary (same level the workload stacks install).
  env_->InstallNotifier(workload::NotifyLevel::kObjDep);
  promoted_ = true;
  return Status::Ok();
}

}  // namespace gom::repl
