#include <algorithm>
#include <cmath>
#include <cstdio>

#include "gombench.h"

namespace gombench {

const char* const kSpanNames[kNumSpanNames] = {
    "wire.fwd",      "wire.bwd",      "wire.gomql",     "wire.update",
    "session.fwd",   "session.bwd",   "session.gomql",  "session.update",
    "layer.fwd",     "layer.bwd",     "layer.gomql",    "layer.update",
    "gate.reader",   "gate.writer",   "gmr.fwd",        "gmr.bwd",
    "update.invoke", "gomql.parse",   "gomql.plan",     "gomql.exec",
    "funclang.eval"};

namespace {
/// Half-width of backward and GOMql ranges, relative to the centre volume.
constexpr double kRangeWidth = 1e-3;
}  // namespace

KeyDist::KeyDist(size_t n, double zipf_s, uint64_t seed) : n_(n) {
  if (zipf_s <= 0) return;
  cdf_.resize(n);
  double acc = 0;
  for (size_t i = 0; i < n; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i + 1), zipf_s);
    cdf_[i] = acc;
  }
  for (double& c : cdf_) c /= acc;
  perm_.resize(n);
  for (size_t i = 0; i < n; ++i) perm_[i] = static_cast<uint32_t>(i);
  SplitMix64 rng(seed ^ 0x5a17f00dull);
  for (size_t i = n; i > 1; --i) {
    std::swap(perm_[i - 1], perm_[rng.Next() % i]);
  }
}

uint32_t KeyDist::Draw(SplitMix64& rng) const {
  if (cdf_.empty()) return static_cast<uint32_t>(rng.Next() % n_);
  double u = rng.Unit();
  size_t rank = static_cast<size_t>(
      std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return perm_[std::min(rank, n_ - 1)];
}

Oracle::Oracle(std::vector<gom::Oid> oids, std::vector<double> v0,
               size_t clients)
    : oids_(std::move(oids)),
      v0_(std::move(v0)),
      done_(oids_.size()),
      inflight_(clients),
      targets_(kRing) {
  key_of_.reserve(oids_.size());
  by_v0_.reserve(oids_.size());
  for (uint32_t k = 0; k < oids_.size(); ++k) {
    key_of_.emplace(oids_[k].raw, k);
    by_v0_.emplace_back(v0_[k], k);
  }
  std::sort(by_v0_.begin(), by_v0_.end());
  for (auto& f : inflight_) f.store(-1);
}

double Oracle::BeginUpdate(size_t client, uint32_t k) {
  // Announce before taking a sequence number: a reader that sees the
  // sequence number then also sees the announcement (Ambiguous()).
  inflight_[client].store(k);
  uint64_t seq = issued_.fetch_add(1);
  targets_[seq % kRing].store(k);
  return (done_[k].load() & 1) != 0 ? 0.5 : 2.0;
}

void Oracle::EndUpdate(size_t client, uint32_t k) {
  done_[k].fetch_add(1);
  inflight_[client].store(-1);
}

void Oracle::Open(Pending* p) const {
  p->seq_open = issued_.load();
  p->inflight_open.resize(inflight_.size());
  for (size_t i = 0; i < inflight_.size(); ++i) {
    p->inflight_open[i] = inflight_[i].load();
  }
}

void Oracle::Ambiguous(const Pending& p, std::vector<uint32_t>* amb) const {
  amb->clear();
  for (int64_t k : p.inflight_open) {
    if (k >= 0) amb->push_back(static_cast<uint32_t>(k));
  }
  uint64_t seq_now = issued_.load();
  for (const auto& f : inflight_) {
    int64_t k = f.load();
    if (k >= 0) amb->push_back(static_cast<uint32_t>(k));
  }
  if (seq_now - p.seq_open >= kRing) {
    // The ring no longer holds the window: leave every cuboid open.
    amb->resize(oids_.size());
    for (uint32_t k = 0; k < oids_.size(); ++k) (*amb)[k] = k;
    return;
  }
  for (uint64_t s = p.seq_open; s < seq_now; ++s) {
    amb->push_back(targets_[s % kRing].load());
  }
  std::sort(amb->begin(), amb->end());
  amb->erase(std::unique(amb->begin(), amb->end()), amb->end());
}

bool Oracle::CheckForward(const Pending& p, double got,
                          std::vector<uint32_t>* scratch) const {
  if (got == Committed(p.key)) return true;
  Ambiguous(p, scratch);
  bool open = std::binary_search(scratch->begin(), scratch->end(), p.key);
  return open && (got == v0_[p.key] || got == 8 * v0_[p.key]);
}

bool Oracle::CheckRange(const Pending& p, std::vector<uint64_t> oids,
                        std::vector<uint32_t>* scratch) const {
  std::vector<uint32_t>& amb = *scratch;
  Ambiguous(p, &amb);
  auto in_range = [&](double v) { return v >= p.lo && v <= p.hi; };
  auto is_open = [&](uint32_t k) {
    return std::binary_search(amb.begin(), amb.end(), k);
  };
  // Required: settled cuboids whose committed value lies in the range.
  // Value v0 lies in it at even parity, 8*v0 at odd parity; dividing the
  // bounds by 8 is exact.
  std::vector<uint64_t> required;
  auto collect = [&](double lo, double hi, uint32_t parity) {
    auto first = std::lower_bound(
        by_v0_.begin(), by_v0_.end(), lo,
        [](const std::pair<double, uint32_t>& e, double v) {
          return e.first < v;
        });
    for (auto it = first; it != by_v0_.end() && it->first <= hi; ++it) {
      uint32_t k = it->second;
      if ((done_[k].load() & 1) == parity && !is_open(k)) {
        required.push_back(oids_[k].raw);
      }
    }
  };
  collect(p.lo, p.hi, 0);
  collect(p.lo / 8, p.hi / 8, 1);
  std::sort(required.begin(), required.end());

  std::sort(oids.begin(), oids.end());
  if (std::adjacent_find(oids.begin(), oids.end()) != oids.end()) return false;
  size_t matched = 0;
  for (uint64_t raw : oids) {
    if (std::binary_search(required.begin(), required.end(), raw)) {
      ++matched;
      continue;
    }
    auto it = key_of_.find(raw);
    if (it == key_of_.end()) return false;
    uint32_t k = it->second;
    if (!is_open(k) || !(in_range(v0_[k]) || in_range(8 * v0_[k]))) {
      return false;
    }
  }
  return matched == required.size();
}

void Samples::Add(double us, SplitMix64& rng) {
  ++count_;
  if (v_.size() < kCap) {
    v_.push_back(static_cast<float>(us));
    return;
  }
  uint64_t j = rng.Next() % count_;
  if (j < kCap) v_[j] = static_cast<float>(us);
}

Quantiles Summarize(std::vector<float> v, uint64_t ops) {
  Quantiles q;
  q.ops = ops;
  q.samples = v.size();
  if (v.empty()) return q;
  std::sort(v.begin(), v.end());
  auto rank = [&](double p) {
    size_t r = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
    return r == 0 ? size_t{0} : r - 1;
  };
  size_t r50 = rank(0.50), r99 = rank(0.99);
  q.p50 = v[r50];
  q.p99 = v[r99];
  q.beyond_p50 = v.size() - 1 - r50;
  q.beyond_p99 = v.size() - 1 - r99;
  return q;
}

void Prepare(const Context& ctx, Client& c, Pending* p) {
  uint32_t r = static_cast<uint32_t>(c.rng.Next() % 1000000);
  uint32_t acc = 0;
  p->cls = kFwd;
  for (int i = 0; i < kNumClasses; ++i) {
    acc += c.mix.ppm[i];
    if (r < acc) {
      p->cls = static_cast<OpClass>(i);
      break;
    }
  }
  uint32_t key = ctx.keys->Draw(c.rng);
  p->request_id = (static_cast<uint64_t>(c.id) << 40) | ++c.next_request;
  ++c.attempted;
  if (p->cls == kUpdate) {
    // Only this client updates cuboids of its partition, so one update per
    // cuboid is in flight at most.
    key = key - key % c.partitions + c.partition;
    if (key >= ctx.keys->size()) key -= c.partitions;
    p->key = key;
    p->factor = ctx.oracle->BeginUpdate(c.partition, key);
    return;
  }
  p->key = key;
  ctx.oracle->Open(p);
  if (p->cls == kFwd) return;
  double v = ctx.oracle->Committed(key);
  p->lo = v * (1 - kRangeWidth);
  p->hi = v * (1 + kRangeWidth);
  if (p->cls == kGomql) {
    // %.17g round-trips a double exactly and, for volumes in [0.5, 1e6),
    // stays in the plain decimal notation the GOMql lexer reads.
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "range c: Cuboid retrieve c where c.volume >= %.17g and "
                  "c.volume <= %.17g",
                  p->lo, p->hi);
    p->text = buf;
  }
}

bool Finish(const Context& ctx, Client& c, const Pending& p,
            const Reply& reply) {
  bool ok = reply.code == gom::StatusCode::kOk;
  const char* why = ok ? "wrong answer" : "error reply";
  if (p.cls == kUpdate) {
    ctx.oracle->EndUpdate(c.partition, p.key);
    ok = ok && reply.rows.size() == 1 && reply.rows[0].size() == 1;
  } else if (p.cls == kFwd) {
    ok = ok && reply.rows.size() == 1 && reply.rows[0].size() == 1 &&
         reply.rows[0][0].is_numeric() &&
         ctx.oracle->CheckForward(p, *reply.rows[0][0].AsDouble(), &c.scratch);
  } else if (ok) {
    std::vector<uint64_t> oids;
    oids.reserve(reply.rows.size());
    for (const auto& row : reply.rows) {
      if (row.size() != 1 || row[0].kind() != gom::ValueKind::kRef) {
        ok = false;
        break;
      }
      oids.push_back(row[0].as_ref().raw);
    }
    ok = ok && ctx.oracle->CheckRange(p, std::move(oids), &c.scratch);
  }
  if (!ok) {
    ++c.failed;
    if (c.first_error.empty()) {
      c.first_error = std::string(why) + " to " + kClassNames[p.cls] +
                      " on cuboid " + std::to_string(p.key);
    }
  }
  return ok;
}

}  // namespace gombench
