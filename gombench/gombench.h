// Shared pieces of the end-to-end benchmark: seeded op streams, the
// correctness oracle, latency samples and the in-memory span log. See
// README.md in this directory for the workloads and metrics.
#ifndef GOMBENCH_GOMBENCH_H_
#define GOMBENCH_GOMBENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "gom/ids.h"
#include "gom/value.h"

namespace gombench {

using Clock = std::chrono::steady_clock;
using RowSet = std::vector<std::vector<gom::Value>>;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct SplitMix64 {
  uint64_t state;
  explicit SplitMix64(uint64_t seed) : state(seed) {}
  uint64_t Next() {
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1p-53; }
};

/// Operation classes; every latency is sampled per class.
enum OpClass : uint8_t { kFwd = 0, kBwd, kGomql, kUpdate, kNumClasses };
inline constexpr const char* kClassNames[kNumClasses] = {"fwd", "bwd",
                                                         "gomql", "update"};

/// An operation mix in parts per million of a client's operations.
struct Mix {
  uint32_t ppm[kNumClasses] = {0, 0, 0, 0};
};

/// Cuboid keys: uniform, or Zipf(s) over ranks mapped to cuboids through a
/// seeded permutation (so the hot cuboids are not the first-created ones).
class KeyDist {
 public:
  KeyDist(size_t n, double zipf_s, uint64_t seed);
  uint32_t Draw(SplitMix64& rng) const;
  size_t size() const { return n_; }

 private:
  size_t n_;
  std::vector<double> cdf_;      // empty = uniform
  std::vector<uint32_t> perm_;   // rank -> cuboid index
};

/// One client's operation: its class, target cuboid and (for ranges) the
/// bounds, plus what the oracle needs to judge the reply.
struct Pending {
  OpClass cls = kFwd;
  uint32_t key = 0;
  double lo = 0, hi = 0;  // kBwd / kGomql
  double factor = 0;      // kUpdate: the scale factor sent
  std::string text;       // kGomql
  // Oracle window (see Oracle::Open).
  uint64_t seq_open = 0;
  std::vector<int64_t> inflight_open;
  int64_t t0_ns = 0;
  uint64_t request_id = 0;
};

/// A reply from any layer, normalized: a forward answer is one 1x1 row.
struct Reply {
  gom::StatusCode code = gom::StatusCode::kOk;
  RowSet rows;
};

/// Expected answers. Each cuboid's volume alternates between its initial
/// value v0 (computed by plain interpreter evaluation before the run) and
/// 8*v0: updates scale all three axes by 2 and then by 0.5, both exact in
/// binary floating point. Each cuboid is updated by one client only, so
/// at most one update per cuboid is ever in flight.
///
/// A read that overlaps an update may see the value from before or after
/// it. A reader opens a window before it sends and judges the reply
/// against it: every cuboid whose update was in flight at the open, or
/// began before the judgement, may hold either value; every other cuboid
/// must hold its committed value. Thread-safe.
class Oracle {
 public:
  Oracle(std::vector<gom::Oid> oids, std::vector<double> v0, size_t clients);

  size_t size() const { return oids_.size(); }
  gom::Oid oid(uint32_t k) const { return oids_[k]; }
  double Committed(uint32_t k) const {
    return (done_[k].load() & 1) != 0 ? 8 * v0_[k] : v0_[k];
  }

  /// Writer side: announces the update of cuboid k by `client` and returns
  /// its scale factor; EndUpdate commits it once the reply arrived.
  double BeginUpdate(size_t client, uint32_t k);
  void EndUpdate(size_t client, uint32_t k);

  /// Reader side.
  void Open(Pending* p) const;
  bool CheckForward(const Pending& p, double got,
                    std::vector<uint32_t>* scratch) const;
  /// `oids` holds the raw OIDs of the returned cuboids (backward range or
  /// GOMql retrieve).
  bool CheckRange(const Pending& p, std::vector<uint64_t> oids,
                  std::vector<uint32_t>* scratch) const;

  /// Self-test hook: corrupts the expected value of cuboid k.
  void Corrupt(uint32_t k) { v0_[k] += 1.0; }

 private:
  static constexpr size_t kRing = 1 << 16;
  /// Cuboids whose value the window of `p` leaves open, into `*amb`.
  void Ambiguous(const Pending& p, std::vector<uint32_t>* amb) const;

  std::vector<gom::Oid> oids_;
  std::vector<double> v0_;
  std::unordered_map<uint64_t, uint32_t> key_of_;
  std::vector<std::pair<double, uint32_t>> by_v0_;  // sorted
  std::vector<std::atomic<uint32_t>> done_;         // committed updates
  std::vector<std::atomic<int64_t>> inflight_;      // per client, -1 = none
  std::atomic<uint64_t> issued_{0};
  std::vector<std::atomic<uint32_t>> targets_;      // ring of update keys
};

/// Latency samples of one op class in microseconds: all of them up to a
/// fixed capacity, then a uniform reservoir, so memory use does not grow
/// with throughput.
class Samples {
 public:
  static constexpr size_t kCap = 1 << 16;
  void Add(double us, SplitMix64& rng);
  void Clear() {
    v_.clear();
    count_ = 0;
  }
  uint64_t count() const { return count_; }
  const std::vector<float>& values() const { return v_; }

 private:
  std::vector<float> v_;
  uint64_t count_ = 0;
};

/// Percentile summary over merged samples.
struct Quantiles {
  double p50 = 0, p99 = 0;
  uint64_t samples = 0;  // values the percentiles were taken over
  uint64_t ops = 0;      // operations of the class
  /// Samples strictly above each percentile's rank.
  uint64_t beyond_p50 = 0, beyond_p99 = 0;
};
Quantiles Summarize(std::vector<float> v, uint64_t ops);

/// Span names.
enum SpanName : uint16_t {
  kWireFwd = 0, kWireBwd, kWireGomql, kWireUpdate,
  kSessionFwd, kSessionBwd, kSessionGomql, kSessionUpdate,
  kLayerFwd, kLayerBwd, kLayerGomql, kLayerUpdate,
  kReaderGate, kWriterGate, kGmrFwd, kGmrBwd, kUpdateInvoke,
  kGomqlParse, kGomqlPlan, kGomqlExec, kFunclangEval,
  kNumSpanNames
};
extern const char* const kSpanNames[kNumSpanNames];

/// The per-class span of a layer: kWireFwd + cls and so on.
inline uint16_t SpanOf(SpanName first, OpClass cls) {
  return static_cast<uint16_t>(static_cast<int>(first) + static_cast<int>(cls));
}

/// In-memory spans of one thread: name, start, end, parent, request id.
struct Span {
  uint16_t name = 0;
  uint32_t parent = UINT32_MAX;  // index into the same log
  uint64_t request = 0;
  int64_t start_ns = 0, end_ns = 0;
};

/// An open span: its index in the log (UINT32_MAX when not stored), name
/// and start.
struct SpanRef {
  uint32_t idx = UINT32_MAX;
  uint16_t name = 0;
  int64_t start_ns = 0;
};

/// Keeps the first kCap spans of its thread for the trace file, and the
/// duration of every span, per name, for the per-layer percentiles.
class SpanLog {
 public:
  static constexpr size_t kCap = 1 << 16;
  SpanRef Begin(uint16_t name, uint32_t parent, uint64_t request) {
    SpanRef ref{UINT32_MAX, name, NowNs()};
    if (spans_.size() < kCap) {
      ref.idx = static_cast<uint32_t>(spans_.size());
      spans_.push_back(Span{name, parent, request, ref.start_ns, 0});
    }
    return ref;
  }
  void End(const SpanRef& ref) {
    int64_t end = NowNs();
    durations_[ref.name].Add(static_cast<double>(end - ref.start_ns) / 1e3,
                             rng_);
    if (ref.idx != UINT32_MAX) spans_[ref.idx].end_ns = end;
  }
  const std::vector<Span>& spans() const { return spans_; }
  const Samples& durations(uint16_t name) const { return durations_[name]; }

 private:
  std::vector<Span> spans_;
  Samples durations_[kNumSpanNames];
  SplitMix64 rng_{0x5eed};
};

/// One closed-loop client: its op stream, latency samples and counts.
struct Client {
  size_t id = 0;
  Mix mix;
  // Update keys of this client lie in its partition of the cuboids.
  size_t partitions = 1;  // number of updating clients
  size_t partition = 0;
  SplitMix64 rng{0};
  SplitMix64 sample_rng{0};
  Samples lat[kNumClasses];
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t next_request = 0;
  std::string first_error;
  std::vector<uint32_t> scratch;

  void ResetCounts() {
    for (auto& s : lat) s.Clear();
    attempted = failed = 0;
  }
};

/// Everything a client needs to issue and judge operations.
struct Context {
  Oracle* oracle = nullptr;
  const KeyDist* keys = nullptr;
  gom::FunctionId volume = gom::kInvalidFunctionId;
  gom::FunctionId op_scale = gom::kInvalidFunctionId;
};

/// Draws the client's next operation and opens its oracle window (for an
/// update: announces it).
void Prepare(const Context& ctx, Client& c, Pending* p);
/// Commits an update and judges the reply; a failed judgement is counted
/// and its first description kept.
bool Finish(const Context& ctx, Client& c, const Pending& p,
            const Reply& reply);

}  // namespace gombench

#endif  // GOMBENCH_GOMBENCH_H_
