// End-to-end benchmark of GOM-FM: served reads, served writes and embedded
// reads, measured from outside through public entry points only.
//
//   gombench --workload <serve_read|serve_write|embedded_read> --seed N
//            --seconds S --trace <0|1> [--commit SHA] [--trace-out FILE]
//            [--corrupt-oracle]
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics (the end-to-end metrics untraced, the per-layer
// metrics traced). README.md in this directory describes the workloads,
// the metrics and what each layer metric should move.

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gombench.h"
#include "gomql/parser.h"
#include "gomql/planner.h"
#include "server/server.h"
#include "wire_loop.h"
#include "workload/stack.h"

namespace gombench {
namespace {

using gom::Status;
using gom::Value;
using gom::workload::Session;
using gom::workload::SessionPool;

constexpr size_t kServedConnections = 4;
constexpr int kWindows = 20;
constexpr int kFastWindows = 5;  // the windows a run reports

struct WorkloadDef {
  const char* name;
  size_t cuboids;
  size_t buffer_pages;
  bool wal;  // enable_wal and enable_group_commit
  double zipf;  // 0 = uniform keys
  bool served;
  Mix reader_mix;
  Mix writer_mix;
  size_t writers;        // leading clients that run writer_mix
  Mix probe_mix;         // classes measured in probe slices (see RunPhase)
  bool cache_resident;   // the pool holds the base: zero misses expected
  bool pool_pressure;    // data pages must be at least 4x the pool
};

// Mixes in parts per million: fwd, bwd, gomql, update.
const WorkloadDef kWorkloads[] = {
    {"serve_read", 2000, 4096, false, 0.0, true,
     Mix{{850000, 100000, 50000, 0}}, Mix{}, 0, Mix{{0, 0, 0, 1000000}}, true,
     false},
    {"serve_write", 8000, 150, true, 1.0, true,
     Mix{{900000, 100000, 0, 0}}, Mix{{0, 0, 0, 1000000}}, 1,
     Mix{{0, 0, 1000000, 0}}, false, true},
    {"embedded_read", 2000, 4096, false, 0.0, false,
     Mix{{900000, 100000, 0, 0}}, Mix{}, 0, Mix{{0, 0, 500000, 500000}}, true,
     false},
};

// Seconds of probing per second of the clients' run, per probe class.
constexpr double kProbeShare = 0.25;
// Length of the clients' slice between two probe slices of a phase.
constexpr double kSliceS = 0.05;
// A set-up repeat that takes longer is killed and fails the run.
constexpr int64_t kSetupRepeatTimeoutNs = 60'000'000'000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string commit = "unknown";
  std::string trace_out;
  bool corrupt_oracle = false;
  bool setup_once = false;  // time one set-up, print it, exit
  std::string self;         // argv[0], to spawn set-up repeats
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (k == "--corrupt-oracle" || k == "--setup-once") {
      (k == "--setup-once" ? a->setup_once : a->corrupt_oracle) = true;
      continue;
    }
    if ((v = value()) == nullptr) return false;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a->trace = std::atoi(v);
    } else if (k == "--commit") {
      a->commit = v;
    } else if (k == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0 &&
         (a->trace == 0 || a->trace == 1);
}

size_t CpuCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// The system under test: the cuboid base with ⟨⟨volume⟩⟩ materialized
/// and, when served, a loopback server with the clients' connections.
struct Rig {
  Rig() = default;
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;
  ~Rig() {
    CloseAll(&conns);
    if (server) server->Stop();
  }

  gom::workload::Environment& env() { return stack->env; }

  std::unique_ptr<gom::workload::CompanyStack> stack;
  std::unique_ptr<gom::server::Server> server;
  std::vector<WireConn> conns;
  std::vector<Session*> sessions;
};

Status BuildRig(const WorkloadDef& w, uint64_t seed, size_t clients,
                size_t workers, Rig* rig) {
  gom::workload::StackOptions o;
  o.buffer_pages = w.buffer_pages;
  o.num_cuboids = w.cuboids;
  o.seed = seed;
  o.materialize_volume = true;
  o.notify = true;
  o.storage.enable_wal = w.wal;
  o.storage.enable_group_commit = w.wal;
  rig->stack = gom::workload::MakeCompanyStack(o);
  GOMFM_RETURN_IF_ERROR(rig->stack->setup);
  if (!w.served) {
    for (size_t i = 0; i < clients; ++i) {
      rig->sessions.push_back(rig->env().MakeSession());
    }
    return Status::Ok();
  }
  gom::server::ServerOptions so;
  so.num_workers = workers;
  rig->server = std::make_unique<gom::server::Server>(&rig->env(), so);
  GOMFM_RETURN_IF_ERROR(rig->server->Start());
  return ConnectAll(rig->server->port(), clients, &rig->conns);
}

Reply FromValue(const gom::Result<Value>& v) {
  Reply r;
  if (!v.ok()) {
    r.code = v.status().code();
  } else {
    r.rows = {{*v}};
  }
  return r;
}

Reply FromRows(gom::Result<RowSet> rows) {
  Reply r;
  if (!rows.ok()) {
    r.code = rows.status().code();
  } else {
    r.rows = std::move(*rows);
  }
  return r;
}

std::vector<Value> UpdateArgs(const Context& ctx, const Pending& p) {
  return {Value::Ref(ctx.oracle->oid(p.key)), Value::Float(p.factor),
          Value::Float(p.factor), Value::Float(p.factor)};
}

Reply CallSession(const Context& ctx, Session* s, const Pending& p) {
  switch (p.cls) {
    case kFwd:
      return FromValue(
          s->ForwardQuery(ctx.volume, {Value::Ref(ctx.oracle->oid(p.key))}));
    case kBwd:
      return FromRows(s->BackwardQuery(ctx.volume, p.lo, p.hi));
    case kGomql:
      return FromRows(s->RunGomql(p.text));
    default:
      return FromValue(s->RunOperation(ctx.op_scale, UpdateArgs(ctx, p)));
  }
}

/// The same operation taken apart at each layer's public entry point: the
/// gate, then the GMR read path, the interpreter or the GOMql parser and
/// planner under the held gate — what Session does, with a span per step.
Reply CallLayers(const Context& ctx, gom::workload::Environment& env,
                 Session* s, const Pending& p, SpanLog* log) {
  SessionPool* pool = env.session_pool.get();
  uint64_t id = p.request_id;
  SpanRef root = log->Begin(SpanOf(kLayerFwd, p.cls), UINT32_MAX, id);
  Reply r;
  if (p.cls == kFwd || p.cls == kBwd) {
    SpanRef g = log->Begin(kReaderGate, root.idx, id);
    SessionPool::ReaderLock gate(pool);
    log->End(g);
    if (p.cls == kFwd) {
      SpanRef m = log->Begin(kGmrFwd, root.idx, id);
      r = FromValue(env.mgr.ForwardLookup(
          &s->ctx(), ctx.volume, {Value::Ref(ctx.oracle->oid(p.key))}));
      log->End(m);
    } else {
      SpanRef m = log->Begin(kGmrBwd, root.idx, id);
      r = FromRows(env.mgr.BackwardRange(&s->ctx(), ctx.volume, p.lo, p.hi,
                                         true, true));
      log->End(m);
    }
  } else {
    SpanRef g = log->Begin(kWriterGate, root.idx, id);
    SessionPool::WriterLock gate(pool);
    log->End(g);
    if (p.cls == kUpdate) {
      SpanRef m = log->Begin(kUpdateInvoke, root.idx, id);
      r = FromValue(env.interp.Invoke(ctx.op_scale, UpdateArgs(ctx, p)));
      log->End(m);
    } else {
      SpanRef m = log->Begin(kGomqlParse, root.idx, id);
      gom::gomql::Parser parser(&env.schema, &env.registry);
      auto query = parser.Parse(p.text);
      log->End(m);
      if (!query.ok()) {
        r.code = query.status().code();
      } else {
        gom::gomql::Planner planner(&env.om, &env.interp, &env.mgr,
                                    &env.registry);
        m = log->Begin(kGomqlPlan, root.idx, id);
        auto plan = planner.PlanRetrieve(*query);
        log->End(m);
        if (!plan.ok()) {
          r.code = plan.status().code();
        } else {
          m = log->Begin(kGomqlExec, root.idx, id);
          r = FromRows(planner.Execute(*plan));
          log->End(m);
        }
      }
    }
  }
  log->End(root);
  return r;
}

enum class Mode { kWire, kSession, kLayers };

/// Draws client `c`'s next operation, runs it in process (session or
/// layer mode) and judges it.
void RunOne(Mode mode, const Context& ctx, Rig& rig, Session* s, Client& c,
            Pending& p, SpanLog* log) {
  Prepare(ctx, c, &p);
  int64_t t0 = NowNs();
  Reply r;
  if (mode == Mode::kLayers) {
    r = CallLayers(ctx, rig.env(), s, p, log);
  } else {
    SpanRef span;
    if (log != nullptr) {
      span = log->Begin(SpanOf(kSessionFwd, p.cls), UINT32_MAX, p.request_id);
    }
    r = CallSession(ctx, s, p);
    if (log != nullptr) log->End(span);
  }
  c.lat[p.cls].Add(static_cast<double>(NowNs() - t0) / 1e3, c.sample_rng);
  Finish(ctx, c, p, r);
}

/// Runs the clients in process on `nthreads` threads until `stop_ns`.
/// Thread t serves clients t, t + nthreads, ... in turn, each through its
/// own session — as the server's workers serve the connections — so a
/// replay of a served workload executes at the server's concurrency.
void RunThreads(Mode mode, const Context& ctx, Rig& rig,
                std::vector<Session*>& sessions, std::vector<Client>& clients,
                size_t nthreads, int64_t stop_ns, std::vector<SpanLog>* logs) {
  std::vector<std::thread> threads;
  threads.reserve(nthreads);
  for (size_t t = 0; t < nthreads; ++t) {
    threads.emplace_back([&, t] {
      SpanLog* log = logs != nullptr ? &(*logs)[t] : nullptr;
      Pending p;
      for (size_t i = t; NowNs() < stop_ns;
           i = i + nthreads < clients.size() ? i + nthreads : t) {
        RunOne(mode, ctx, rig, sessions[i], clients[i], p, log);
      }
    });
  }
  for (auto& t : threads) t.join();
}

/// Counters of every layer, read through their public stats.
struct Counters {
  gom::GmrStats::Counters gmr;
  gom::BufferPool::Counters pool;
  gom::SimDisk::Counters disk;
  uint64_t wal_appends = 0, wal_page_writes = 0;
  gom::GroupCommitter::Snapshot gc;
  uint64_t nodes = 0;
  uint64_t shed = 0;
  uint64_t peak_queued = 0;
};

Counters Snap(Rig& rig) {
  auto& env = rig.env();
  Counters c;
  c.gmr = env.mgr.AggregateStats();
  c.pool = env.pool.Snapshot();
  c.disk = env.disk.Snapshot();
  if (env.wal != nullptr) {
    c.wal_appends = env.wal->appends();
    c.wal_page_writes = env.wal->page_writes();
    if (env.wal->group_committer() != nullptr) {
      c.gc = env.wal->group_committer()->snapshot();
    }
  }
  c.nodes = env.interp.nodes_evaluated();
  if (rig.server != nullptr) {
    auto a = rig.server->stats().admission;
    c.shed = a.shed_queue_full + a.shed_conn_cap;
    c.peak_queued = a.peak_queued;
  }
  return c;
}

/// Results of one timed phase.
struct Phase {
  double elapsed_s = 0;   // of the clients' slices, without the probes'
  uint64_t main_ops = 0;  // the clients' operations
  uint64_t ops = 0;       // the clients' and the probes' operations
  Quantiles q[kNumClasses];
  std::vector<float> samples[kNumClasses];  // latency samples in us
  double ops_per_s() const {
    return elapsed_s > 0 ? main_ops / elapsed_s : 0;
  }
};

class Bench {
 public:
  Bench(const WorkloadDef& w, const Args& args, size_t nproc)
      : w_(w), args_(args), nproc_(nproc) {
    clients_n_ = w.served ? kServedConnections : nproc;
    workers_ = nproc > 2 ? nproc - 2 : 1;
  }

  int Run();
  int SetupOnce();

 private:
  Status Setup();
  Status RepeatSetup();
  void ResetClients(bool reseed);
  std::vector<Client*> AllClients() {
    std::vector<Client*> all;
    for (auto& c : clients_) all.push_back(&c);
    for (auto& c : probes_) all.push_back(&c);
    return all;
  }
  Phase RunPhase(Mode mode, double seconds, bool traced, bool reseed);
  Phase RunEval(double seconds);
  bool EndCheck(std::string* why);
  void Need(const char* what, const Quantiles& q, bool p99);
  std::vector<float> SelfUs(uint16_t name) const;
  Quantiles SpanQ(uint16_t name) const;
  void WriteSpans() const;
  std::string Stamp() const;

  const WorkloadDef& w_;
  const Args& args_;
  size_t nproc_;
  size_t clients_n_ = 0;
  size_t workers_ = 0;
  std::unique_ptr<Rig> rig_;
  std::vector<double> setup_s_;
  size_t data_pages_ = 0;
  std::unique_ptr<KeyDist> keys_;
  std::unique_ptr<Oracle> oracle_;
  Context ctx_;
  std::vector<Client> clients_;
  // Client 0 runs the probe mix in probe slices; the others run the
  // clients' mixes beside it, unmeasured.
  std::vector<Client> probes_;
  uint64_t attempted_ = 0, failed_ = 0;
  std::string first_error_;
  std::vector<std::string> violations_;
  // Traced phases' spans: (phase index, log).
  std::vector<std::pair<int, SpanLog>> logs_;
  int phase_index_ = 0;
  int64_t epoch_ns_ = NowNs();
};

Status Bench::Setup() {
  // Set-up is population + materialize (+ server start and connect).
  rig_ = std::make_unique<Rig>();
  int64_t t0 = NowNs();
  GOMFM_RETURN_IF_ERROR(
      BuildRig(w_, args_.seed, clients_n_, workers_, rig_.get()));
  setup_s_.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  auto& env = rig_->env();
  data_pages_ = env.disk.page_count() -
                (env.wal != nullptr ? env.wal->log_pages() : 0);

  // Oracle: plain interpreter evaluation of every cuboid's volume.
  std::vector<double> v0;
  v0.reserve(rig_->stack->cuboids.size());
  for (gom::Oid c : rig_->stack->cuboids) {
    auto v = env.interp.Invoke(rig_->stack->geo.volume, {Value::Ref(c)});
    if (!v.ok()) return v.status();
    v0.push_back(*v->AsDouble());
  }
  keys_ = std::make_unique<KeyDist>(v0.size(), w_.zipf, args_.seed);
  size_t partitions = 0;
  clients_.resize(clients_n_);
  for (size_t i = 0; i < clients_n_; ++i) {
    Client& c = clients_[i];
    c.id = i;
    c.mix = i < w_.writers ? w_.writer_mix : w_.reader_mix;
    if (c.mix.ppm[kUpdate] > 0) c.partition = partitions++;
  }
  probes_.resize(clients_n_);
  for (size_t i = 0; i < clients_n_; ++i) {
    Client& c = probes_[i];
    c.id = clients_n_ + i;
    c.mix = i == 0 ? w_.probe_mix : clients_[i].mix;
    if (c.mix.ppm[kUpdate] > 0) c.partition = partitions++;
  }
  for (Client* c : AllClients()) {
    c->partitions = std::max<size_t>(partitions, 1);
  }
  oracle_ = std::make_unique<Oracle>(rig_->stack->cuboids, std::move(v0),
                                     std::max<size_t>(partitions, 1));
  if (args_.corrupt_oracle) {
    // A key of the clients' seeded streams, so reads of it are certain.
    SplitMix64 probe(args_.seed);
    oracle_->Corrupt(keys_->Draw(probe));
  }
  ctx_.oracle = oracle_.get();
  ctx_.keys = keys_.get();
  ctx_.volume = rig_->stack->geo.volume;
  ctx_.op_scale = rig_->stack->geo.op_scale;
  return Status::Ok();
}

int Bench::SetupOnce() {
  // The rig is left standing: this process only times set-up, and
  // Server::Stop right after Start can hang (a worker that has not yet
  // blocked on the queue misses the quit notification, which is sent
  // without the queue mutex held).
  auto* rig = new Rig;
  int64_t t0 = NowNs();
  Status st = BuildRig(w_, args_.seed, clients_n_, workers_, rig);
  if (!st.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
    std::_Exit(1);
  }
  std::printf("%.9f\n", static_cast<double>(NowNs() - t0) / 1e9);
  std::fflush(stdout);
  std::_Exit(0);
}

Status Bench::RepeatSetup() {
  // One more set-up, timed in a fresh process like the first one: building
  // rigs in this process would churn the heap the measured rig runs on.
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) return Status::IoError("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  std::string seed = std::to_string(args_.seed);
  const char* argv[] = {args_.self.c_str(), "--workload", w_.name, "--seed",
                        seed.c_str(), "--setup-once", nullptr};
  pid_t pid = 0;
  int rc = posix_spawn(&pid, args_.self.c_str(), &actions, nullptr,
                       const_cast<char**>(argv), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  if (rc != 0) {
    ::close(fds[0]);
    return Status::IoError(std::string("spawn: ") + std::strerror(rc));
  }
  // Read the child's output until it exits; a child that outlives the
  // deadline is killed, so no process of the run is left behind.
  std::string out;
  char buf[64];
  const int64_t deadline = NowNs() + kSetupRepeatTimeoutNs;
  bool timed_out = false;
  while (true) {
    int64_t left_ms = (deadline - NowNs()) / 1000000;
    pollfd p{fds[0], POLLIN, 0};
    int r = left_ms > 0 ? ::poll(&p, 1, static_cast<int>(left_ms)) : 0;
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) {
      timed_out = r == 0;
      break;
    }
    ssize_t n = ::read(fds[0], buf, sizeof buf);
    if (n > 0) {
      out.append(buf, static_cast<size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  ::close(fds[0]);
  if (timed_out) ::kill(pid, SIGKILL);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (timed_out) return Status::Internal("set-up repeat timed out");
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || out.empty()) {
    return Status::Internal("set-up repeat failed");
  }
  setup_s_.push_back(std::strtod(out.c_str(), nullptr));
  return Status::Ok();
}

void Bench::ResetClients(bool reseed) {
  for (Client* cp : AllClients()) {
    Client& c = *cp;
    c.ResetCounts();
    if (!reseed) continue;
    c.rng = SplitMix64(args_.seed * 0x100000001b3ull + c.id + 1);
    c.sample_rng = SplitMix64(args_.seed ^ (0xabcdef12ull + c.id));
  }
}

Phase Bench::RunPhase(Mode mode, double seconds, bool traced, bool reseed) {
  ResetClients(reseed);
  std::vector<SpanLog> logs(traced ? clients_.size() : 0);
  std::vector<Session*>& sessions = rig_->sessions;
  while (mode != Mode::kWire && sessions.size() < clients_.size()) {
    sessions.push_back(rig_->env().MakeSession());
  }
  // Runs `clients` (one per connection or session) until `stop_ns`.
  auto run = [&](std::vector<Client>& clients, int64_t stop_ns) {
    if (mode != Mode::kWire) {
      RunThreads(mode, ctx_, *rig_, sessions, clients,
                 w_.served ? std::min(workers_, clients.size())
                           : clients.size(),
                 stop_ns, traced ? &logs : nullptr);
      return;
    }
    Status st = RunWire(ctx_, clients, rig_->conns, stop_ns, 0,
                        traced ? &logs[0] : nullptr);
    if (!st.ok()) {
      ++failed_;
      if (first_error_.empty()) first_error_ = "wire: " + st.ToString();
    }
  };

  // The phase alternates short slices of the clients with probe slices,
  // kProbeShare of the clients' time per probe class. In a probe slice,
  // client 0 runs the probe classes — the ones the workload is not about —
  // and the other clients keep running their mixes beside it, unmeasured:
  // the probes see the workload's load, and the measured clients never
  // queue behind a probe. Slicing finely lets the probes see the same host
  // as the clients; its speed flips between modes every second or so.
  int probe_classes = 0;
  for (uint32_t ppm : w_.probe_mix.ppm) probe_classes += ppm > 0 ? 1 : 0;
  const int slices =
      std::max(1, static_cast<int>(std::lround(seconds / kSliceS)));
  const auto client_ns = static_cast<int64_t>(seconds * 1e9 / slices);
  const auto probe_ns =
      static_cast<int64_t>(kProbeShare * probe_classes * client_ns);
  Phase ph;
  for (int i = 0; i < slices; ++i) {
    int64_t t0 = NowNs();
    run(clients_, t0 + client_ns);
    int64_t t1 = NowNs();
    ph.elapsed_s += static_cast<double>(t1 - t0) / 1e9;
    if (probe_ns > 0) run(probes_, t1 + probe_ns);
  }
  for (auto& c : clients_) ph.main_ops += c.attempted;

  std::vector<Client*> measured;
  for (auto& c : clients_) measured.push_back(&c);
  measured.push_back(&probes_[0]);
  for (int k = 0; k < kNumClasses; ++k) {
    std::vector<float> merged;
    uint64_t ops = 0;
    for (Client* c : measured) {
      const Samples& l = c->lat[k];
      merged.insert(merged.end(), l.values().begin(), l.values().end());
      ops += l.count();
    }
    ph.q[k] = Summarize(merged, ops);
    ph.samples[k] = std::move(merged);
  }
  std::vector<Client*> all = AllClients();
  for (Client* c : all) {
    ph.ops += c->attempted;
    attempted_ += c->attempted;
    failed_ += c->failed;
    if (first_error_.empty() && !c->first_error.empty()) {
      first_error_ = c->first_error;
    }
    c->first_error.clear();
  }
  for (auto& l : logs) logs_.emplace_back(phase_index_, std::move(l));
  ++phase_index_;
  return ph;
}

Phase Bench::RunEval(double seconds) {
  // Interpreter::Invoke of volume on cuboids drawn like the workload's
  // keys; nothing else runs, so every answer is the committed value.
  auto& env = rig_->env();
  SpanLog log;
  SplitMix64 rng(args_.seed ^ 0xe7a1ull);
  Phase ph;
  int64_t t0 = NowNs();
  int64_t stop = t0 + static_cast<int64_t>(seconds * 1e9);
  while (NowNs() < stop) {
    uint32_t k = keys_->Draw(rng);
    SpanRef span = log.Begin(kFunclangEval, UINT32_MAX, ph.ops);
    auto v = env.interp.Invoke(ctx_.volume, {Value::Ref(oracle_->oid(k))});
    log.End(span);
    ++ph.ops;
    if (!v.ok() || *v->AsDouble() != oracle_->Committed(k)) {
      ++failed_;
      if (first_error_.empty()) {
        first_error_ = "interpreter disagrees on cuboid " + std::to_string(k);
      }
    }
  }
  ph.elapsed_s = static_cast<double>(NowNs() - t0) / 1e9;
  attempted_ += ph.ops;
  logs_.emplace_back(phase_index_++, std::move(log));
  return ph;
}

bool Bench::EndCheck(std::string* why) {
  // Outside timing: every GMR row against plain interpreter evaluation and
  // the oracle (the recompute-from-scratch check).
  auto& env = rig_->env();
  auto gmr = env.mgr.Get(rig_->stack->volume_gmr);
  if (!gmr.ok()) {
    *why = gmr.status().ToString();
    return false;
  }
  std::unordered_map<uint64_t, double> rows;
  bool valid = true;
  (*gmr)->ForEachRow([&](gom::RowId, const gom::Gmr::Row& row) {
    if (row.args.size() != 1 || row.results.empty() || !row.valid[0] ||
        !row.results[0].is_numeric()) {
      valid = false;
      return false;
    }
    rows[row.args[0].as_ref().raw] = *row.results[0].AsDouble();
    return true;
  });
  if (!valid || rows.size() != oracle_->size()) {
    *why = "GMR extension is incomplete or holds invalid rows";
    return false;
  }
  for (uint32_t k = 0; k < oracle_->size(); ++k) {
    auto v = env.interp.Invoke(ctx_.volume, {Value::Ref(oracle_->oid(k))});
    if (!v.ok() || *v->AsDouble() != rows[oracle_->oid(k).raw] ||
        *v->AsDouble() != oracle_->Committed(k)) {
      *why = "GMR row of cuboid " + std::to_string(k) +
             " disagrees with interpreter evaluation or the oracle";
      return false;
    }
  }
  return true;
}

void Bench::Need(const char* what, const Quantiles& q, bool p99) {
  uint64_t beyond = p99 ? q.beyond_p99 : q.beyond_p50;
  if (q.samples == 0 || beyond < 10) {
    violations_.push_back(std::string(what) + (p99 ? " p99" : " p50") +
                          " has " + std::to_string(beyond) +
                          " samples beyond it (need 10)");
  }
}

std::vector<float> Bench::SelfUs(uint16_t name) const {
  // A span's self time is its duration minus its children's.
  std::vector<float> out;
  std::vector<int64_t> child;
  for (const auto& [phase, log] : logs_) {
    const auto& spans = log.spans();
    child.assign(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent != UINT32_MAX) child[s.parent] += s.end_ns - s.start_ns;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].name != name) continue;
      int64_t d = spans[i].end_ns - spans[i].start_ns - child[i];
      out.push_back(static_cast<float>(static_cast<double>(d) / 1e3));
    }
  }
  return out;
}

Quantiles Bench::SpanQ(uint16_t name) const {
  std::vector<float> all;
  uint64_t n = 0;
  for (const auto& [phase, log] : logs_) {
    const Samples& d = log.durations(name);
    all.insert(all.end(), d.values().begin(), d.values().end());
    n += d.count();
  }
  return Summarize(std::move(all), n);
}

void Bench::WriteSpans() const {
  if (args_.trace_out.empty()) return;
  std::FILE* f = std::fopen(args_.trace_out.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "phase,thread,index,name,parent,request,start_ns,end_ns\n");
  size_t thread = 0;
  for (const auto& [phase, log] : logs_) {
    const auto& spans = log.spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f, "%d,%zu,%zu,%s,%lld,%llu,%lld,%lld\n", phase, thread, i,
                   kSpanNames[s.name],
                   s.parent == UINT32_MAX ? -1LL
                                          : static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request),
                   static_cast<long long>(s.start_ns - epoch_ns_),
                   static_cast<long long>(s.end_ns - epoch_ns_));
    }
    ++thread;
  }
  std::fclose(f);
}

/// Minimal JSON object builder.
class Json {
 public:
  Json& Num(const std::string& k, double v) {
    if (!std::isfinite(v)) v = 0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return Raw(k, buf);
  }
  Json& Str(const std::string& k, const std::string& v) {
    return Raw(k, Quote(v));
  }
  static std::string Quote(const std::string& v) {
    std::string esc = "\"";
    for (char ch : v) {
      if (ch == '"' || ch == '\\') esc += '\\';
      if (static_cast<unsigned char>(ch) >= 0x20) esc += ch;
    }
    return esc + "\"";
  }
  Json& Raw(const std::string& k, const std::string& v) {
    body_ += (body_.empty() ? "" : ", ") + ("\"" + k + "\": ") + v;
    return *this;
  }
  Json& Metric(const std::string& k, double v, const char* unit) {
    return Raw(k, Json().Num("value", v).Str("unit", unit).str());
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string MixJson(const Mix& m) {
  Json j;
  for (int k = 0; k < kNumClasses; ++k) j.Num(kClassNames[k], m.ppm[k]);
  return j.str();
}

std::string Bench::Stamp() const {
  Json j;
  j.Str("workload", w_.name)
      .Num("seed", static_cast<double>(args_.seed))
      .Num("seconds", args_.seconds)
      .Num("trace", args_.trace)
      .Num("nproc", static_cast<double>(nproc_))
      .Str("compiler", GOMBENCH_COMPILER)
      .Str("build_type", GOMBENCH_BUILD_TYPE)
      .Str("commit", args_.commit)
      .Num("cuboids", static_cast<double>(w_.cuboids))
      .Num("buffer_pages", static_cast<double>(w_.buffer_pages))
      .Num("data_pages", static_cast<double>(data_pages_))
      .Raw("wal", w_.wal ? "true" : "false")
      .Raw("group_commit", w_.wal ? "true" : "false")
      .Num("zipf_s", w_.zipf)
      .Str("clients", w_.served ? "connections" : "threads")
      .Num("client_count", static_cast<double>(clients_n_))
      .Num("driver_threads", w_.served ? 1 : 0)
      .Num("reactor_threads", w_.served ? 1 : 0)
      .Num("server_workers", w_.served ? static_cast<double>(workers_) : 0)
      .Num("writer_clients", static_cast<double>(w_.writers))
      .Raw("reader_mix_ppm", MixJson(w_.reader_mix))
      .Raw("writer_mix_ppm", MixJson(w_.writer_mix))
      .Raw("probe_mix_ppm", MixJson(w_.probe_mix))
      .Num("probe_share_per_class", kProbeShare)
      .Num("client_slice_s", kSliceS)
      .Num("setup_repeats", static_cast<double>(setup_s_.size()))
      .Raw("setup_runs_s", [&] {
        std::string list;
        for (double t : setup_s_) {
          list += (list.empty() ? "" : ", ") + std::to_string(t);
        }
        return "[" + list + "]";
      }());
  return Json().Raw("stamp", j.str()).str();
}

int Bench::Run() {
  Status st = Setup();
  if (!st.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
    return 1;
  }
  // Shape of the workload.
  if (w_.served && 2 + workers_ > nproc_) {
    violations_.push_back("driver + reactor + workers exceed nproc");
  }
  if (w_.pool_pressure && data_pages_ < 4 * w_.buffer_pages) {
    violations_.push_back("data pages " + std::to_string(data_pages_) +
                          " are fewer than 4x the pool");
  }
  // Peak RSS of the set-up system, before any timed work: the log and the
  // latency samples grow with the work done, so later readings would
  // charge a faster program for more memory.
  const double rss_mb = PeakRssMb();
  const Mode primary = w_.served ? Mode::kWire : Mode::kSession;
  const double s = args_.seconds;
  // Warm-up: the start of the op stream, untimed.
  RunPhase(primary, std::min(1.0, 0.1 * s), false, true);
  Counters start = Snap(*rig_);

  Json metrics;
  Json samples;
  if (args_.trace == 0) {
    // The timed phase continues the stream in kWindows windows. The host's
    // CPU speed swings by several times over seconds and preempts vCPUs for
    // milliseconds, so the result is taken over the kFastWindows fastest
    // windows: throughput is their median and each latency percentile is
    // taken over their pooled samples. A slower program has slower fast
    // windows too.
    std::vector<Phase> win;
    for (int i = 0; i < kWindows; ++i) {
      win.push_back(RunPhase(primary, s / kWindows, false, false));
      // The repeated set-ups are spread over the run, so their median sees
      // the same machine as the windows do.
      if (i % 2 == 0) continue;
      Status repeat = RepeatSetup();
      if (!repeat.ok()) {
        violations_.push_back("repeated set-up: " + repeat.ToString());
      }
    }
    // The fastest windows by the clients' throughput; the probes of a
    // window ran interleaved with its clients, so they saw the same host.
    std::vector<const Phase*> fastest;
    for (const Phase& ph : win) fastest.push_back(&ph);
    std::sort(fastest.begin(), fastest.end(),
              [](const Phase* a, const Phase* b) {
                return a->ops_per_s() > b->ops_per_s();
              });
    fastest.resize(kFastWindows);
    std::vector<double> rates;
    for (const Phase* ph : fastest) rates.push_back(ph->ops_per_s());
    metrics.Metric("ops_per_s", Median(rates), "1/s");
    for (int k = 0; k < kNumClasses; ++k) {
      std::vector<float> pooled;
      uint64_t ops = 0;
      for (const Phase* ph : fastest) {
        pooled.insert(pooled.end(), ph->samples[k].begin(),
                      ph->samples[k].end());
        ops += ph->q[k].ops;
      }
      Quantiles q = Summarize(std::move(pooled), ops);
      std::string n = kClassNames[k];
      metrics.Metric(n + "_p50_us", q.p50, "us");
      metrics.Metric(n + "_p99_us", q.p99, "us");
      Need(kClassNames[k], q, true);
      samples.Raw(n, Json()
                         .Num("ops", static_cast<double>(q.ops))
                         .Num("samples", static_cast<double>(q.samples))
                         .Num("beyond_p99", static_cast<double>(q.beyond_p99))
                         .str());
    }
  } else {
    // Every traced phase replays the same seeded op stream. The layer
    // phase gets the most time: in process, a writer that never waits for
    // the network leaves readers few turns at the gate, and the gate p99s
    // still need their samples.
    Phase p0 = RunPhase(primary, 0.1 * s, false, true);
    Counters c0 = Snap(*rig_);
    Phase p1 = RunPhase(primary, 0.15 * s, true, true);
    Counters c1 = Snap(*rig_);
    if (w_.served) RunPhase(Mode::kSession, 0.2 * s, true, true);
    RunPhase(Mode::kLayers, 0.45 * s, true, true);
    Counters e0 = Snap(*rig_);
    Phase pe = RunEval(0.1 * s);
    Counters e1 = Snap(*rig_);

    auto per = [](uint64_t a, uint64_t b, uint64_t n) {
      return n == 0 ? 0.0 : static_cast<double>(b - a) / n;
    };
    auto ratio = [](uint64_t hit, uint64_t miss) {
      return hit + miss == 0 ? 0.0
                             : static_cast<double>(hit) / (hit + miss);
    };
    const uint64_t ops = p1.ops;
    const uint64_t updates = p1.q[kUpdate].ops;
    // Session-level latencies: their own phase when served, else the
    // traced primary phase (which is the session path).
    Quantiles sess[kNumClasses];
    for (int k = 0; k < kNumClasses; ++k) {
      sess[k] = SpanQ(SpanOf(kSessionFwd, static_cast<OpClass>(k)));
    }
    double server_fwd = 0, server_update = 0;
    if (w_.served) {
      server_fwd = SpanQ(kWireFwd).p50 - sess[kFwd].p50;
      server_update = SpanQ(kWireUpdate).p50 - sess[kUpdate].p50;
    }
    Quantiles rgate = SpanQ(kReaderGate), wgate = SpanQ(kWriterGate);
    Need("gate.reader", rgate, true);
    Need("gate.writer", wgate, true);
    for (int k = 0; k < kNumClasses; ++k) {
      Need(kSpanNames[SpanOf(kSessionFwd, static_cast<OpClass>(k))], sess[k],
           false);
    }
    std::vector<SpanName> p50_spans = {kGmrFwd,     kGmrBwd,    kGomqlParse,
                                       kGomqlPlan,  kGomqlExec, kFunclangEval};
    if (w_.served) {
      p50_spans.push_back(kWireFwd);
      p50_spans.push_back(kWireUpdate);
    }
    for (SpanName n : p50_spans) Need(kSpanNames[n], SpanQ(n), false);

    metrics.Metric("server.fwd_self_p50_us", server_fwd, "us")
        .Metric("server.update_self_p50_us", server_update, "us")
        .Metric("server.shed", static_cast<double>(c1.shed - c0.shed), "count")
        .Metric("server.peak_queued", static_cast<double>(c1.peak_queued),
                "count")
        .Metric("workload.reader_gate_p50_us", rgate.p50, "us")
        .Metric("workload.reader_gate_p99_us", rgate.p99, "us")
        .Metric("workload.writer_gate_p50_us", wgate.p50, "us")
        .Metric("workload.writer_gate_p99_us", wgate.p99, "us");
    for (int k = 0; k < kNumClasses; ++k) {
      metrics.Metric(std::string("workload.session_") + kClassNames[k] +
                         "_p50_us",
                     sess[k].p50, "us");
    }
    const auto& g0 = c0.gmr;
    const auto& g1 = c1.gmr;
    uint64_t lookups = (g1.forward_hits - g0.forward_hits) +
                       (g1.forward_invalid - g0.forward_invalid) +
                       (g1.forward_misses - g0.forward_misses);
    metrics.Metric("gmr.fwd_p50_us", SpanQ(kGmrFwd).p50, "us")
        .Metric("gmr.bwd_p50_us", SpanQ(kGmrBwd).p50, "us")
        .Metric("gmr.hit_ratio",
                lookups == 0 ? 0.0
                             : static_cast<double>(g1.forward_hits -
                                                   g0.forward_hits) /
                                   lookups,
                "ratio")
        .Metric("gmr.invalidations_per_update",
                per(g0.invalidations, g1.invalidations, updates), "count/op")
        .Metric("gmr.remats_per_update",
                per(g0.rematerializations, g1.rematerializations, updates),
                "count/op")
        .Metric("gmr.delta_applies_per_update",
                per(g0.delta_applies, g1.delta_applies, updates), "count/op")
        .Metric("funclang.eval_p50_us", SpanQ(kFunclangEval).p50, "us")
        .Metric("funclang.nodes_per_eval", per(e0.nodes, e1.nodes, pe.ops),
                "count/op")
        .Metric("storage.pool_hit_ratio",
                ratio(c1.pool.hits - c0.pool.hits,
                      c1.pool.misses - c0.pool.misses),
                "ratio")
        .Metric("storage.pool_misses_per_op",
                per(c0.pool.misses, c1.pool.misses, ops), "count/op")
        .Metric("storage.pool_evictions_per_op",
                per(c0.pool.evictions, c1.pool.evictions, ops), "count/op")
        .Metric("storage.disk_reads_per_op",
                per(c0.disk.reads, c1.disk.reads, ops), "count/op")
        .Metric("storage.disk_writes_per_op",
                per(c0.disk.writes, c1.disk.writes, ops), "count/op")
        .Metric("storage.wal_appends_per_update",
                per(c0.wal_appends, c1.wal_appends, updates), "count/op")
        .Metric("storage.wal_page_writes_per_update",
                per(c0.wal_page_writes, c1.wal_page_writes, updates),
                "count/op")
        .Metric("storage.wal_fsyncs_per_update",
                per(c0.gc.fsyncs, c1.gc.fsyncs, updates), "count/op");
    uint64_t fsyncs = c1.gc.fsyncs - c0.gc.fsyncs;
    uint64_t grouped = (c1.gc.commits - c0.gc.commits) -
                       (c1.gc.already_durable - c0.gc.already_durable);
    metrics
        .Metric("storage.gc_mean_group",
                fsyncs == 0 ? 0.0 : static_cast<double>(grouped) / fsyncs,
                "count")
        .Metric("gomql.parse_p50_us", SpanQ(kGomqlParse).p50, "us")
        .Metric("gomql.plan_p50_us", SpanQ(kGomqlPlan).p50, "us")
        .Metric("gomql.exec_p50_us", SpanQ(kGomqlExec).p50, "us")
        .Metric("trace.overhead_ops_pct",
                p0.ops_per_s() > 0
                    ? 100.0 * (p0.ops_per_s() - p1.ops_per_s()) /
                          p0.ops_per_s()
                    : 0.0,
                "%")
        .Metric("trace.overhead_fwd_p50_us", p1.q[kFwd].p50 - p0.q[kFwd].p50,
                "us");
    // Span summary: duration and self time (span minus its children).
    Json spans;
    for (uint16_t n = 0; n < kNumSpanNames; ++n) {
      Quantiles d = SpanQ(n);
      if (d.samples == 0) continue;
      Quantiles self = Summarize(SelfUs(n), 0);
      spans.Raw(kSpanNames[n], Json()
                                   .Num("count", static_cast<double>(d.ops))
                                   .Num("p50_us", d.p50)
                                   .Num("p99_us", d.p99)
                                   .Num("self_p50_us", self.p50)
                                   .str());
    }
    uint64_t stored = 0;
    for (const auto& [phase, log] : logs_) stored += log.spans().size();
    // Self time needs the parent links, so it is taken over the stored
    // spans (the first SpanLog::kCap of each thread's phase).
    std::printf("%s\n", Json()
                            .Raw("spans", spans.str())
                            .Num("spans_stored", static_cast<double>(stored))
                            .str()
                            .c_str());
  }

  Counters end = Snap(*rig_);
  if (w_.cache_resident && end.pool.misses != start.pool.misses) {
    violations_.push_back(
        "pool misses in the timed phase: " +
        std::to_string(end.pool.misses - start.pool.misses));
  }
  std::string why;
  bool end_ok = EndCheck(&why);
  if (!end_ok) violations_.push_back("end-of-run check: " + why);
  WriteSpans();

  if (args_.trace == 0) {
    metrics.Metric("setup_s", Median(setup_s_), "s");
    metrics.Metric("rss_mb", rss_mb, "MB");
  }
  std::printf("%s\n", Stamp().c_str());
  if (args_.trace == 0) {
    std::printf("%s\n", Json().Raw("samples", samples.str()).str().c_str());
  }
  if (!first_error_.empty()) {
    std::fprintf(stderr, "first failure: %s\n", first_error_.c_str());
  }
  std::string list;
  for (const auto& v : violations_) {
    std::fprintf(stderr, "check failed: %s\n", v.c_str());
    list += (list.empty() ? "" : ", ") + Json::Quote(v);
  }
  std::printf("%s\n", Json().Raw("violations", "[" + list + "]").str().c_str());
  bool correct = failed_ == 0 && violations_.empty();
  std::printf("%s\n", Json()
                          .Raw("correct", correct ? "true" : "false")
                          .Num("attempted", static_cast<double>(attempted_))
                          .Num("failed", static_cast<double>(failed_))
                          .Raw("metrics", metrics.str())
                          .str()
                          .c_str());
  return 0;
}

}  // namespace
}  // namespace gombench

int main(int argc, char** argv) {
  using namespace gombench;
  Args args;
  args.self = argv[0];
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: gombench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--commit SHA] [--trace-out FILE] "
                 "[--corrupt-oracle]\n");
    return 2;
  }
  for (const WorkloadDef& w : kWorkloads) {
    if (args.workload == w.name) {
      Bench bench(w, args, CpuCount());
      return args.setup_once ? bench.SetupOnce() : bench.Run();
    }
  }
  std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
  return 2;
}
