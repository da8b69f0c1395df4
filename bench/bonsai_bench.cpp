// bonsai_bench: one benchmark run of one workload, in a fresh process.
//
// Untimed mode (the default) drives the real programs and times each call
// from outside: Simulation::step for in-process ranks, ClusterSimulation::step
// for spawned socket workers, and the JobServer through the serve/client.hpp
// calls. It reads no TimeBreakdown and no --bench report. It prints the raw
// samples (setup times, step or job latencies) and the correctness gates as
// one JSON object; bench/run.py turns samples into metrics.
//
// Traced mode (--trace FILE) replays the workload's configuration stage by
// stage, every rank of a stage at once, and records one span per call into
// each layer entry point. It then runs the loopback-socket, checkpoint and
// serve probes, writes all spans as Chrome trace JSON to FILE, and prints the
// per-layer values derived from the spans as JSON.
//
// Usage: bonsai_bench --workload NAME --seed S --sim PATH --tmp DIR
//                     [--seconds T] [--smoke] [--trace FILE]
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <iomanip>
#include <iostream>
#include <latch>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "domain/cluster.hpp"
#include "domain/rank.hpp"
#include "domain/simulation.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/snapshot.hpp"
#include "tree/direct.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/ic.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"

namespace {

using namespace bonsai;
namespace wire = domain::wire;

// ---- Workloads ---------------------------------------------------------------

enum class Kind { kInProc, kCluster, kJobs };

struct Workload {
  std::string name;
  Kind kind = Kind::kInProc;
  std::size_t n = 0;
  int ranks = 1;
  std::size_t threads = 1;  // device threads per rank
  double drift = 0.0;       // bulk velocity added to the IC, as main.cpp's --drift
  bool let_cache = true;
  int setup_reps = 5;       // setups per run; run.py reports their median
  int min_steps = 1;        // timed steps (jobs_mixed: rounds) per run, at least
  int clients = 4;          // jobs_mixed: closed-loop client threads
  int replay_steps = 6;     // traced mode: lockstep steps under spans
  int force_ics = 1;        // initial conditions pooled by the force check
};

constexpr double kTheta = 0.4;
constexpr double kDt = 1e-3;
constexpr double kEps = 1e-2;
// |dE/E0| budget of tests/test_energy.cpp, and main.cpp's --validate
// direct-summation bar for theta <= 0.5.
constexpr double kEnergyBudget = 0.01;
constexpr double kForceErrBound = 2e-4;
// The force check sums up to 16384 targets per initial condition directly.
// The median error moves 5-10% from one Plummer realization to the next, so
// it pools max(2, 65536 / n) of them.
constexpr std::size_t kForceErrTargets = 65536;
constexpr std::size_t kForceErrPerIc = 16384;

Workload lookup(const std::string& name, bool smoke) {
  Workload w;
  w.name = name;
  if (name == "plummer64k_r4") {
    w.n = 65536;
    w.ranks = 4;
    w.min_steps = 14;
  } else if (name == "plummer64k_r1") {
    w.n = 65536;
    w.threads = 4;
    w.min_steps = 14;
  } else if (name == "drift8k_mesh") {
    w.kind = Kind::kCluster;
    w.n = 8192;
    w.ranks = 4;
    w.drift = 0.5;
    w.setup_reps = 9;
    w.min_steps = 60;
  } else if (name == "jobs_mixed") {
    // The server's job configuration: lockstep, one thread per rank, no LET
    // cache (serve/server.cpp run_job).
    w.kind = Kind::kJobs;
    w.n = 4096;
    w.ranks = 4;
    w.let_cache = false;
    w.setup_reps = 21;
    w.min_steps = 4;  // every client submits at least 4 jobs
  } else {
    throw CliError("--workload: unknown workload '" + name + "'");
  }
  w.force_ics = static_cast<int>(std::max<std::size_t>(2, kForceErrTargets / w.n));
  if (smoke) {
    w.n = 2048;
    w.setup_reps = 1;
    w.min_steps = w.kind == Kind::kJobs ? 1 : 2;
    w.clients = 2;
    w.replay_steps = 2;
    w.force_ics = 1;
  }
  return w;
}

// Seed of the k-th initial condition of a run; k = 0 is the timed one.
std::uint64_t ic_seed(std::uint64_t seed, int k) {
  return seed + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(k);
}

domain::SimConfig sim_config(const Workload& w) {
  domain::SimConfig cfg;
  cfg.nranks = w.ranks;
  cfg.theta = kTheta;
  cfg.eps = kEps;
  cfg.dt = kDt;
  cfg.threads_per_rank = w.threads;
  cfg.kernel = KernelBackend::kSimd;
  cfg.let_cache = w.let_cache;
  cfg.balance = domain::BalanceMode::kCount;
  cfg.async = w.kind != Kind::kJobs;
  return cfg;
}

ParticleSet make_ic(std::size_t n, std::uint64_t seed, double drift) {
  ParticleSet ic = make_plummer(n, seed);
  for (std::size_t i = 0; i < ic.size(); ++i) {
    ic.vx[i] += drift;
    ic.vy[i] += 0.5 * drift;
    ic.vz[i] += 0.25 * drift;
  }
  return ic;
}

// Kinetic energy of the centre-of-mass motion, |P|^2 / 2M. Subtracting it
// keeps the drift gate meaningful for a bulk-moving cloud, whose total
// energy is close to zero.
double bulk_kinetic(const ParticleSet& p) {
  Vec3d mom{0.0, 0.0, 0.0};
  for (std::size_t i = 0; i < p.size(); ++i) mom = mom + p.vel(i) * p.mass[i];
  const double mass = p.total_mass();
  return mass > 0.0 ? 0.5 * norm2(mom) / mass : 0.0;
}

double rss_peak_mib() {
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) / 1024.0;
}

// ---- Correctness gates -------------------------------------------------------

struct Gates {
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> failures;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  }
};

struct ForceError {
  double p50 = 0.0, p95 = 0.0;
  std::size_t samples = 0;
};

// Relative acceleration errors of `parts` (forces from the tree code) against
// direct summation on a seeded subset of distinct particles, appended to
// `err`. Summed on four threads, each writing only its own targets.
void append_force_errors(const ParticleSet& parts, std::uint64_t seed, std::vector<double>& err) {
  const std::size_t n = parts.size();
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  Xoshiro256 rng(seed ^ 0xf04ce5eedULL);
  const std::size_t count = std::min(n, kForceErrPerIc);
  for (std::size_t i = 0; i < count; ++i)
    std::swap(order[i], order[i + rng() % (n - i)]);
  order.resize(count);

  ParticleSet direct = parts;
  constexpr std::size_t kThreads = 4;
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    const std::size_t begin = count * t / kThreads, end = count * (t + 1) / kThreads;
    workers.emplace_back([&direct, &order, begin, end] {
      direct_forces_subset(direct, kEps,
                           std::span<const std::uint32_t>(order).subspan(begin, end - begin));
    });
  }
  for (std::thread& t : workers) t.join();

  for (const std::uint32_t i : order)
    err.push_back(norm(parts.acc(i) - direct.acc(i)) / std::max(norm(direct.acc(i)), 1e-300));
}

// Pools the errors of w.force_ics initial conditions; `forces(k)` returns
// the tree-code forces of the k-th one.
ForceError force_error(const Workload& w, std::uint64_t seed,
                       const std::function<ParticleSet(int)>& forces, Gates& gates) {
  std::vector<double> err;
  for (int k = 0; k < w.force_ics; ++k) append_force_errors(forces(k), ic_seed(seed, k), err);
  const ForceError fe{percentile(err, 0.5), percentile(err, 0.95), err.size()};
  gates.check(std::isfinite(fe.p50) && fe.p50 < kForceErrBound,
              "force_err_p50 " + std::to_string(fe.p50) + " not under the direct-sum bar " +
                  std::to_string(kForceErrBound));
  return fe;
}

// ---- Span recorder (traced mode) ---------------------------------------------

// Spans kept in memory and written out once at exit. Every span names the
// span that caused it (parent id), so self time — duration minus the part
// its children cover — is exact even when a stage's children run on several
// lane threads at once.
class Recorder {
 public:
  struct Span {
    const char* name;   // the entry point called
    const char* layer;  // the layer it belongs to; per-layer metrics key on it
    int rank;           // -1: not rank-local
    int step;           // replay step, -1 outside the replay
    int parent;         // -1: root
    std::int64_t peer;  // LET peer rank, -1 when none
    std::int64_t begin_ns, end_ns;
  };

  std::atomic<bool> enabled{false};

  int open(const char* name, const char* layer, int rank, int step, int parent,
           std::int64_t peer) {
    if (!enabled) return -1;
    std::lock_guard lock(mu_);
    spans_.push_back({name, layer, rank, step, parent, peer, now_ns(), 0});
    return static_cast<int>(spans_.size()) - 1;
  }

  void close(int id) {
    if (id < 0) return;
    const std::int64_t t = now_ns();
    std::lock_guard lock(mu_);
    spans_[static_cast<std::size_t>(id)].end_ns = t;
  }

  std::vector<Span> spans() const {
    std::lock_guard lock(mu_);
    return spans_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

Recorder g_rec;

class ScopedSpan {
 public:
  ScopedSpan(const char* name, const char* layer, int rank = -1, int step = -1,
             int parent = -1, std::int64_t peer = -1)
      : id_(g_rec.open(name, layer, rank, step, parent, peer)) {}
  ~ScopedSpan() { g_rec.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  int id_;
};

// Self time of every span: its duration minus the union of its children's
// intervals.
std::vector<double> self_seconds(const std::vector<Recorder::Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(spans.size());
  for (const Recorder::Span& s : spans)
    if (s.parent >= 0) kids[static_cast<std::size_t>(s.parent)].emplace_back(s.begin_ns, s.end_ns);
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, lo = 0, hi = -1;
    for (const auto& [b, e] : iv) {
      if (b > hi) {
        covered += std::max<std::int64_t>(0, hi - lo);
        lo = b;
        hi = e;
      } else {
        hi = std::max(hi, e);
      }
    }
    covered += std::max<std::int64_t>(0, hi - lo);
    self[i] = static_cast<double>(spans[i].end_ns - spans[i].begin_ns - covered) * 1e-9;
  }
  return self;
}

void write_chrome_trace(const std::string& path, const std::vector<Recorder::Span>& spans,
                        const std::vector<double>& self) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  const std::int64_t t0 = spans.empty() ? 0 : spans.front().begin_ns;
  out << std::setprecision(17) << "{\"traceEvents\":[\n"
      << R"({"name":"process_name","ph":"M","pid":1,"args":{"name":"bonsai_bench"}})";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Recorder::Span& s = spans[i];
    out << ",\n{\"name\":\"" << s.name << "\",\"cat\":\"" << s.layer
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.rank + 1
        << ",\"ts\":" << static_cast<double>(s.begin_ns - t0) * 1e-3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.begin_ns) * 1e-3
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << ",\"step\":" << s.step
        << ",\"peer\":" << s.peer << ",\"self_us\":" << self[i] * 1e6 << "}}";
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
  if (!out) throw std::runtime_error("short write to trace file " + path);
}

// ---- Lockstep replay (traced mode) -------------------------------------------

// A Transport that keeps a copy of every frame posted through it, so the
// socket probe can replay the step's actual frames over a real socket.
class CapturingTransport final : public domain::Transport {
 public:
  explicit CapturingTransport(int nranks) : inner_(nranks) {}

  void post(int src, int dst, std::vector<std::uint8_t> frame) override {
    {
      std::lock_guard lock(mu_);
      frames_.push_back(frame);
    }
    inner_.post(src, dst, std::move(frame));
  }
  std::optional<std::vector<std::uint8_t>> recv(int dst) override { return inner_.recv(dst); }
  void close(int dst) override { inner_.close(dst); }

  std::vector<std::vector<std::uint8_t>> take() {
    std::lock_guard lock(mu_);
    return std::move(frames_);
  }

 private:
  domain::InProcTransport inner_;
  std::mutex mu_;
  std::vector<std::vector<std::uint8_t>> frames_;
};

// Counts one replay step produced, summed over ranks.
struct StepCounts {
  std::uint64_t migrated = 0;
  std::uint64_t let_cells = 0, let_particles = 0;
  std::uint64_t let_frames = 0, let_bytes = 0, delta_frames = 0, bytes_saved = 0;
  InteractionStats stats;
  std::size_t particles = 0;
};

// The workload's step replayed one stage at a time, all ranks of a stage at
// once on one lane per rank (one after another for a lockstep
// configuration), with a span around every call into a layer:
// update_domain and exchange on the main thread; per rank Device::sort_particles,
// build_tree, compute_properties and make_groups, build_let and
// LetExchange::post per peer, LetExchange::recv per arrival, and
// Device::compute_forces for the local tree and each imported LET. The loops
// over peers sit inside one span per rank and layer, so a layer the
// configuration bypasses still reports the time of its (empty) loop.
// Kick-drift runs outside every layer span.
class Replay {
 public:
  explicit Replay(const domain::SimConfig& cfg)
      : cfg_(cfg), lanes_(static_cast<std::size_t>(cfg.nranks)) {
    for (int r = 0; r < cfg_.nranks; ++r)
      ranks_.push_back(std::make_unique<RankState>(r, cfg_.threads_per_rank));
    let_state_.init(cfg_.nranks, cfg_.let_cache, cfg_.let_churn);
  }

  void init(ParticleSet ic) {
    ranks_[0]->rank.parts() = std::move(ic);
    redistribute(-1, -1);
  }

  StepCounts step(int index) {
    ScopedSpan root("replay.step", "replay", -1, index);
    StepCounts c;
    transport_ = std::make_unique<CapturingTransport>(cfg_.nranks);
    c.migrated = redistribute(index, root.id());

    const std::size_t n = ranks_.size();
    on_lanes([&](std::size_t r) {
      RankState& rs = *ranks_[r];
      ParticleSet& parts = rs.rank.parts();
      Device& device = rs.rank.device();
      const int rank = static_cast<int>(r);
      {
        ScopedSpan s("Device::sort_particles", "sfc.sort", rank, index, root.id());
        device.sort_particles(parts, space_);
      }
      {
        ScopedSpan s("Device::build_tree", "tree.build", rank, index, root.id());
        device.build_tree(parts, rs.tree, cfg_.nleaf);
      }
      {
        ScopedSpan s("Device::compute_properties", "tree.properties", rank, index, root.id());
        device.compute_properties(parts, rs.tree, cfg_.theta);
      }
      {
        ScopedSpan s("make_groups", "tree.properties", rank, index, root.id());
        rs.groups = make_groups(parts, cfg_.ncrit);
      }
    });

    std::vector<std::uint8_t> active(n);
    std::vector<AABB> boxes(n);
    for (std::size_t r = 0; r < n; ++r) {
      active[r] = !ranks_[r]->rank.parts().empty();
      if (active[r]) boxes[r] = ranks_[r]->tree.root().box;
    }
    domain::LetExchange net(*transport_, active, &let_state_);
    std::vector<StepCounts> per(n);

    // LET export then post, round-robin from rank r+1 as run_rank_step does.
    on_lanes([&](std::size_t r) {
      const int rank = static_cast<int>(r);
      std::vector<std::pair<std::size_t, domain::LetTree>> lets;
      {
        ScopedSpan phase("let export", "domain.let_export", rank, index, root.id());
        for (std::size_t k = 1; active[r] && k < n; ++k) {
          const std::size_t dst = (r + k) % n;
          if (!active[dst]) continue;
          ScopedSpan s("build_let", "domain.let_export", rank, index, phase.id(),
                       static_cast<std::int64_t>(dst));
          const RankState& rs = *ranks_[r];
          lets.emplace_back(dst, domain::build_let(rs.tree.view(rs.rank.parts()), boxes[dst]));
        }
      }
      ScopedSpan phase("let post", "domain.wire_encode", rank, index, root.id());
      for (const auto& [dst, let] : lets) {
        ScopedSpan s("LetExchange::post", "domain.wire_encode", rank, index, phase.id(),
                     static_cast<std::int64_t>(dst));
        per[r].let_cells += let.num_cells();
        per[r].let_particles += let.num_particles();
        per[r].let_bytes += net.post(rank, static_cast<int>(dst), let, 0.0);
        per[r].let_frames += 1;
      }
    });

    // Receive everything (all posts are done), then local gravity and one
    // remote walk per imported LET in source order.
    on_lanes([&](std::size_t r) {
      RankState& rs = *ranks_[r];
      ParticleSet& parts = rs.rank.parts();
      Device& device = rs.rank.device();
      const int rank = static_cast<int>(r);
      std::vector<std::optional<wire::LetMessage>> imported(n);
      {
        ScopedSpan phase("let recv", "domain.wire_decode", rank, index, root.id());
        while (true) {
          ScopedSpan s("LetExchange::recv", "domain.wire_decode", rank, index, phase.id());
          std::optional<wire::LetMessage> msg = net.recv(rank);
          if (!msg) break;
          const auto src = static_cast<std::size_t>(msg->src);
          BNS_CHECK(src < n && !imported[src], "LET from an invalid or duplicate source rank");
          imported[src] = std::move(msg);
        }
      }
      parts.zero_forces();
      const TraversalConfig trav = cfg_.traversal();
      if (!parts.empty()) {
        ScopedSpan s("Device::compute_forces", "tree.gravity_local", rank, index, root.id());
        per[r].stats += device.compute_forces(rs.tree.view(parts), parts, rs.groups, trav,
                                              /*self=*/true);
      }
      ScopedSpan phase("remote walks", "tree.gravity_remote", rank, index, root.id());
      for (std::size_t k = 1; k < n; ++k) {
        const std::size_t src = (r + k) % n;
        if (!imported[src] || parts.empty() || imported[src]->let.empty()) continue;
        ScopedSpan s("Device::compute_forces", "tree.gravity_remote", rank, index, phase.id(),
                     static_cast<std::int64_t>(src));
        per[r].stats += device.compute_forces(imported[src]->let.view(), parts, rs.groups, trav,
                                              /*self=*/false);
      }
    });

    on_lanes([&](std::size_t r) {
      TimeBreakdown unused;
      ranks_[r]->rank.integrate(cfg_.dt, unused);
    });

    for (std::size_t r = 0; r < n; ++r) {
      c.let_cells += per[r].let_cells;
      c.let_particles += per[r].let_particles;
      c.let_frames += per[r].let_frames;
      c.let_bytes += per[r].let_bytes;
      c.stats += per[r].stats;
      const wire::LetDeltaStats& ds = net.delta_stats(static_cast<int>(r));
      c.delta_frames += ds.delta_frames;
      c.bytes_saved += ds.bytes_saved;
      c.particles += ranks_[r]->rank.parts().size();
    }
    return c;
  }

  std::vector<ParticleSet> sets() const {
    std::vector<ParticleSet> out;
    for (const auto& rs : ranks_) out.push_back(rs->rank.parts());
    return out;
  }

  // Every frame the last step posted: migration batches and LETs.
  std::vector<std::vector<std::uint8_t>> take_frames() { return transport_->take(); }

 private:
  // The rank's device, particles and integrator are domain::Rank's. Its
  // tree and groups live here because Rank::build runs sort, build and
  // properties as one call, and the replay spans each of them.
  struct RankState {
    RankState(int id, std::size_t threads) : rank(id, threads) {}
    domain::Rank rank;
    Octree tree;
    std::vector<TargetGroup> groups;
  };

  // update_domain + exchange over all ranks; returns the migrated count.
  std::uint64_t redistribute(int index, int parent) {
    if (!transport_) transport_ = std::make_unique<CapturingTransport>(cfg_.nranks);
    std::vector<ParticleSet> sets(ranks_.size());
    std::vector<const ParticleSet*> ptrs;
    for (std::size_t r = 0; r < ranks_.size(); ++r) {
      sets[r] = std::move(ranks_[r]->rank.parts());
      ptrs.push_back(&sets[r]);
    }
    domain::DomainUpdate du;
    {
      ScopedSpan s("update_domain", "domain.update", -1, index, parent);
      du = domain::update_domain(ptrs, cfg_.nranks, cfg_.curve, cfg_.samples_per_rank,
                                 cfg_.snap_level, {});
    }
    domain::ExchangeStats ex;
    {
      ScopedSpan s("exchange", "domain.exchange", -1, index, parent);
      ex = domain::exchange(sets, du.space, du.decomp, *transport_);
    }
    for (std::size_t r = 0; r < ranks_.size(); ++r) ranks_[r]->rank.parts() = std::move(sets[r]);
    space_ = du.space;
    return ex.migrated;
  }

  // Run fn(r) for every rank on its own lane and wait for all of them. A
  // lockstep configuration (a server job's) runs the ranks one after another
  // on this thread instead, as Simulation::step_lockstep does.
  void on_lanes(const std::function<void(std::size_t)>& fn) {
    if (!cfg_.async) {
      for (std::size_t r = 0; r < ranks_.size(); ++r) fn(r);
      return;
    }
    std::vector<std::future<void>> done;
    for (std::size_t r = 0; r < ranks_.size(); ++r)
      done.push_back(lanes_.run(r, [&fn, r] { fn(r); }));
    for (auto& f : done) f.wait();
    for (auto& f : done) f.get();
  }

  domain::SimConfig cfg_;
  std::vector<std::unique_ptr<RankState>> ranks_;
  domain::Executor lanes_;
  std::unique_ptr<CapturingTransport> transport_;
  domain::LetChannelState let_state_;
  sfc::KeySpace space_;
};

// ---- JSON output ---------------------------------------------------------------

// JSON has no NaN or infinity; a non-finite number (which a correctness gate
// has already failed) prints as -1.
class JsonOut {
 public:
  JsonOut() { os_ << std::setprecision(17) << '{'; }
  JsonOut& num(const std::string& key, double v) {
    sep(key);
    os_ << (std::isfinite(v) ? v : -1.0);
    return *this;
  }
  JsonOut& str(const std::string& key, const std::string& v) {
    sep(key);
    quote(v);
    return *this;
  }
  JsonOut& nums(const std::string& key, const std::vector<double>& v) {
    sep(key);
    os_ << '[';
    for (std::size_t i = 0; i < v.size(); ++i) os_ << (i ? ", " : "") << v[i];
    os_ << ']';
    return *this;
  }
  JsonOut& strs(const std::string& key, const std::vector<std::string>& v) {
    sep(key);
    os_ << '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
      os_ << (i ? ", " : "");
      quote(v[i]);
    }
    os_ << ']';
    return *this;
  }
  JsonOut& object(const std::string& key, const std::map<std::string, double>& m) {
    sep(key);
    os_ << '{';
    bool first = true;
    for (const auto& [k, v] : m) {
      os_ << (first ? "" : ", ");
      quote(k);
      os_ << ": " << (std::isfinite(v) ? v : -1.0);
      first = false;
    }
    os_ << '}';
    return *this;
  }
  JsonOut& gates(const Gates& g) {
    return num("attempted", g.attempted).num("failed", g.failed).strs("failures", g.failures);
  }
  std::string done() { return os_.str() + "}"; }

 private:
  void sep(const std::string& key) {
    os_ << (first_ ? "" : ", ");
    first_ = false;
    quote(key);
    os_ << ": ";
  }
  void quote(const std::string& s) {
    os_ << '"';
    for (const char ch : s) {
      if (ch == '"' || ch == '\\') os_ << '\\';
      os_ << (ch == '\n' ? ' ' : ch);
    }
    os_ << '"';
  }
  std::ostringstream os_;
  bool first_ = true;
};

// ---- Untimed runs: step workloads --------------------------------------------

struct Options {
  Workload w;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string sim_path;  // bonsai_sim, spawned as socket workers
  std::string tmp_dir;   // job spools and checkpoint probes
  std::string trace_path;
};

// Builds the workload's simulation for a SimConfig: the socket
// ClusterSimulation (SPMD cluster mode, mesh topology, spawned bonsai_sim
// workers) for drift8k_mesh, else the in-process Simulation (for jobs_mixed,
// the lockstep one a server job runs).
using StepSim = std::variant<std::unique_ptr<domain::Simulation>,
                                std::unique_ptr<domain::ClusterSimulation>>;

StepSim make_sim(const Options& opt, const domain::SimConfig& cfg) {
  if (opt.w.kind != Kind::kCluster) return std::make_unique<domain::Simulation>(cfg);
  domain::ClusterConfig ccfg;
  ccfg.sim = cfg;
  ccfg.mode = domain::ClusterMode::kSpmd;
  ccfg.topology = domain::SocketTopology::kMesh;
  ccfg.spawn_workers = true;
  ccfg.program = opt.sim_path;
  ccfg.worker_threads = cfg.threads_per_rank;
  return std::make_unique<domain::ClusterSimulation>(ccfg);
}

// Cold start of one simulation: construction (and for the cluster, worker spawn
// and the mesh handshake) through the end of the first step. Returns the
// seconds it took.
double setup_sim(StepSim& drv, const Options& opt, const domain::SimConfig& cfg,
                    const ParticleSet& ic) {
  drv = {};
  const WallTimer t;
  drv = make_sim(opt, cfg);
  std::visit([&](auto& sim) {
    sim->init(ic);
    sim->step();
  }, drv);
  return t.elapsed();
}

ParticleSet forces_only(const Options& opt, domain::SimConfig cfg, const ParticleSet& ic) {
  cfg.dt = 0.0;
  StepSim drv;
  setup_sim(drv, opt, cfg, ic);
  return std::visit([](auto& sim) { return sim->gather(); }, drv);
}

std::string run_step_workload(const Options& opt) {
  const Workload& w = opt.w;
  const domain::SimConfig cfg = sim_config(w);
  const ParticleSet ic = make_ic(w.n, opt.seed, w.drift);
  const double k_bulk = bulk_kinetic(ic);
  Gates gates;

  std::vector<double> setup_s, step_s;
  StepSim drv;
  for (int rep = 0; rep < w.setup_reps; ++rep) setup_s.push_back(setup_sim(drv, opt, cfg, ic));
  const auto energy = [&] {
    return std::visit([&](auto& sim) { return sim->kinetic_energy() + sim->potential_energy(); },
                      drv) - k_bulk;
  };
  const double e0 = energy();
  double drift = 0.0;

  const WallTimer window;
  while (static_cast<int>(step_s.size()) < w.min_steps || window.elapsed() < opt.seconds) {
    bool ok = true;
    const WallTimer t;
    try {
      std::visit([](auto& sim) { sim->step(); }, drv);
    } catch (const std::exception& e) {
      ok = false;
      gates.check(false, std::string("step failed: ") + e.what());
    }
    if (!ok) break;
    step_s.push_back(t.elapsed());
    gates.check(true, "step");
    drift = std::max(drift, std::abs(energy() - e0) / std::abs(e0));
  }
  const std::size_t particles = std::visit([](auto& sim) { return sim->num_particles(); }, drv);
  drv = {};

  gates.check(std::isfinite(drift) && drift <= kEnergyBudget,
              "|dE/E0| " + std::to_string(drift) + " over the energy budget " +
                  std::to_string(kEnergyBudget));
  gates.check(particles == w.n, "particle count changed: " + std::to_string(particles));
  const ForceError fe = force_error(w, opt.seed, [&](int k) {
    return forces_only(opt, cfg, k == 0 ? ic : make_ic(w.n, ic_seed(opt.seed, k), w.drift));
  }, gates);

  JsonOut out;
  out.str("mode", "run").str("workload", w.name).num("seed", static_cast<double>(opt.seed))
      .num("n", static_cast<double>(w.n)).num("ranks", w.ranks)
      .nums("setup_s", setup_s).nums("step_s", step_s)
      .num("force_err_p50", fe.p50).num("force_err_p95", fe.p95)
      .num("force_err_samples", static_cast<double>(fe.samples))
      .num("energy_drift", drift).num("rss_peak_mib", rss_peak_mib()).gates(gates);
  return out.done();
}

// ---- Untimed runs: jobs_mixed ------------------------------------------------

struct JobSample {
  double seconds = 0.0;  // submit to result
  double submit_s = 0.0;
  int steps = 0;
  std::size_t n = 0;
};

serve::ServerConfig server_config(const std::string& spool) {
  serve::ServerConfig scfg;
  scfg.port = 0;
  scfg.limits.pool_slots = 4;
  scfg.spool_dir = spool;
  return scfg;
}

std::uint64_t job_seed(std::uint64_t seed, int round, int client) {
  return seed * 1000003ULL + static_cast<std::uint64_t>(round * 101 + client);
}

// One round of the closed loop: every client submits one job and waits for
// its result; the next round starts when all have answered. Clients 1.. send
// priority-0 jobs of 8 steps. Client 0 sends a priority-1 job of 4 steps once
// their submits are answered, so its arrival preempts the running job (one
// 4-rank job fills the 4-slot pool).
std::vector<JobSample> run_round(const Workload& w, std::uint16_t port, std::uint64_t seed,
                                 int round, Gates& gates) {
  std::vector<ParticleSet> ics;
  for (int c = 0; c < w.clients; ++c) ics.push_back(make_plummer(w.n, job_seed(seed, round, c)));

  std::latch others_submitted(w.clients - 1);
  std::mutex mu;
  std::vector<JobSample> samples;
  std::vector<std::thread> clients;
  for (int c = 0; c < w.clients; ++c) {
    clients.emplace_back([&, c] {
      const bool urgent = c == 0;
      wire::JobSpec spec;
      spec.name = "bench-c" + std::to_string(c);
      spec.steps = urgent ? 4 : 8;
      spec.ranks = w.ranks;
      spec.priority = urgent ? 1 : 0;
      spec.theta = kTheta;
      spec.eps = kEps;
      spec.dt = kDt;
      spec.parts = std::move(ics[static_cast<std::size_t>(c)]);
      std::string failure;
      JobSample js;
      js.steps = spec.steps;
      js.n = w.n;
      if (urgent) others_submitted.wait();
      try {
        const WallTimer t;
        wire::JobStatusMsg st;
        std::exception_ptr submit_error;
        {
          ScopedSpan s("submit_job", "serve.submit", c);
          try {
            st = serve::submit_job("127.0.0.1", port, spec);
          } catch (...) {
            submit_error = std::current_exception();
          }
        }
        if (!urgent) others_submitted.count_down();
        if (submit_error) std::rethrow_exception(submit_error);
        js.submit_s = t.elapsed();
        if (st.state == wire::JobState::kRejected) {
          failure = "job rejected: " + st.reason;
        } else {
          wire::JobResultMsg res;
          {
            ScopedSpan s("wait_job", "serve.wait", c);
            res = serve::wait_job("127.0.0.1", port, st.job_id);
          }
          js.seconds = t.elapsed();
          if (res.state != wire::JobState::kCompleted)
            failure = std::string("job ") + wire::job_state_name(res.state) + ": " + res.reason;
          else if (!std::isfinite(res.kinetic + res.potential) || res.parts.size() != w.n)
            failure = "job finished with non-finite energy or lost particles";
        }
      } catch (const std::exception& e) {
        failure = std::string("job failed: ") + e.what();
      }
      std::lock_guard lock(mu);
      gates.check(failure.empty(), failure);
      if (failure.empty()) samples.push_back(js);
    });
  }
  for (std::thread& t : clients) t.join();
  return samples;
}

// Forces at the IC through the server: one forces-only (dt=0) job.
ParticleSet forces_only_job(std::uint16_t port, const Workload& w, std::uint64_t seed) {
  wire::JobSpec spec;
  spec.name = "bench-forces";
  spec.steps = 1;
  spec.ranks = w.ranks;
  spec.theta = kTheta;
  spec.eps = kEps;
  spec.dt = 0.0;
  spec.parts = make_plummer(w.n, seed);
  const wire::JobStatusMsg st = serve::submit_job("127.0.0.1", port, spec);
  if (st.state == wire::JobState::kRejected)
    throw std::runtime_error("forces-only job rejected: " + st.reason);
  wire::JobResultMsg res = serve::wait_job("127.0.0.1", port, st.job_id);
  if (res.state != wire::JobState::kCompleted)
    throw std::runtime_error("forces-only job did not complete: " + res.reason);
  return std::move(res.parts);
}

// Server construction through its first answered status request.
double setup_server(std::unique_ptr<serve::JobServer>& server, const std::string& spool) {
  server.reset();
  const WallTimer t;
  server = std::make_unique<serve::JobServer>(server_config(spool));
  serve::job_status("127.0.0.1", server->port(), 0);
  return t.elapsed();
}

std::string run_jobs_workload(const Options& opt) {
  const Workload& w = opt.w;
  const std::string spool = opt.tmp_dir + "/spool-" + std::to_string(::getpid());
  Gates gates;
  std::vector<double> setup_s;
  std::unique_ptr<serve::JobServer> server;
  for (int rep = 0; rep < w.setup_reps; ++rep) setup_s.push_back(setup_server(server, spool));

  // Per job: submit-to-result seconds. Per round: wall seconds and
  // particle-steps completed.
  std::vector<double> job_s, round_s, round_work;
  int round = 0;
  const WallTimer window;
  do {
    const WallTimer t;
    const std::vector<JobSample> samples = run_round(w, server->port(), opt.seed, round++, gates);
    round_s.push_back(t.elapsed());
    double work = 0.0;
    for (const JobSample& js : samples) {
      job_s.push_back(js.seconds);
      work += static_cast<double>(js.n) * js.steps;
    }
    round_work.push_back(work);
  } while (round < w.min_steps || window.elapsed() < opt.seconds);

  const ForceError fe = force_error(w, opt.seed, [&](int k) {
    return forces_only_job(server->port(), w, ic_seed(opt.seed, k));
  }, gates);
  server.reset();
  std::filesystem::remove_all(spool);

  JsonOut out;
  out.str("mode", "run").str("workload", w.name).num("seed", static_cast<double>(opt.seed))
      .num("n", static_cast<double>(w.n)).num("ranks", w.ranks)
      .nums("setup_s", setup_s).nums("job_s", job_s)
      .nums("round_s", round_s).nums("round_work", round_work)
      .num("force_err_p50", fe.p50).num("force_err_p95", fe.p95)
      .num("force_err_samples", static_cast<double>(fe.samples))
      .num("rss_peak_mib", rss_peak_mib()).gates(gates);
  return out.done();
}

// ---- Traced runs ---------------------------------------------------------------

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

// Loopback SocketTransport (a coordinator and one star worker in this
// process): post each frame worker -> coordinator and receive it, one at a
// time. Returns per-frame seconds; checks every frame arrives intact.
std::vector<double> socket_probe(const std::vector<std::vector<std::uint8_t>>& frames,
                                 Gates& gates) {
  auto coord = domain::SocketTransport::listen(0, 1);
  std::unique_ptr<domain::SocketTransport> worker;
  std::exception_ptr dial_error;
  std::thread dial([&] {
    try {
      worker = domain::SocketTransport::connect("127.0.0.1", coord->port(), 0);
    } catch (...) {
      dial_error = std::current_exception();
    }
  });
  try {
    coord->accept_workers(/*timeout_ms=*/30000);
  } catch (...) {
    dial.join();
    throw;
  }
  dial.join();
  if (dial_error) std::rethrow_exception(dial_error);
  std::vector<double> secs;
  bool intact = true;
  for (const auto& frame : frames) {
    const WallTimer t;
    std::optional<std::vector<std::uint8_t>> got;
    {
      ScopedSpan s("SocketTransport::post+recv", "domain.socket");
      worker->post(0, domain::kCoordinatorRank, frame);
      got = coord->recv(domain::kCoordinatorRank);
    }
    secs.push_back(t.elapsed());
    intact = intact && got && *got == frame;
  }
  gates.check(intact, "socket probe: a frame did not arrive intact");
  worker.reset();
  coord.reset();
  return secs;
}

struct SnapshotProbe {
  double write_s = 0.0, read_s = 0.0, bytes = 0.0;
};

// Write and read back a checkpoint of the replay's final per-rank state, as
// a preempted job's spool file; medians of three round trips.
SnapshotProbe snapshot_probe(const std::vector<ParticleSet>& sets, const std::string& path,
                             Gates& gates) {
  wire::SnapshotMsg snap;
  snap.next_step = 1;
  snap.sets = sets;
  std::size_t total = 0;
  for (const ParticleSet& s : sets) total += s.size();
  std::vector<double> write_s, read_s;
  bool ok = true;
  for (int rep = 0; rep < 3; ++rep) {
    WallTimer t;
    {
      ScopedSpan s("write_snapshot_file", "serve.snapshot_write");
      serve::write_snapshot_file(path, snap);
    }
    write_s.push_back(t.elapsed());
    t.reset();
    wire::SnapshotMsg back;
    {
      ScopedSpan s("read_snapshot_file", "serve.snapshot_read");
      back = serve::read_snapshot_file(path);
    }
    read_s.push_back(t.elapsed());
    std::size_t got = 0;
    for (const ParticleSet& s : back.sets) got += s.size();
    ok = ok && got == total && back.sets.size() == sets.size();
  }
  gates.check(ok, "snapshot probe: read-back lost particles");
  SnapshotProbe p{median(write_s), median(read_s),
                  static_cast<double>(std::filesystem::file_size(path))};
  std::filesystem::remove(path);
  return p;
}

// Layer names the replay records, in report order.
const char* const kStepLayers[] = {
    "sfc.sort",           "tree.build",          "tree.properties",
    "tree.gravity_local", "tree.gravity_remote", "domain.update",
    "domain.exchange",    "domain.let_export",   "domain.wire_encode",
    "domain.wire_decode",
};

// Per-layer values from the replay spans: per step, each layer's self time
// summed per rank and maxed over ranks, then the median over steps.
void replay_layers(const std::vector<Recorder::Span>& spans, const std::vector<double>& self,
                   const std::vector<StepCounts>& counts, std::size_t threads,
                   std::map<std::string, double>& out) {
  const int steps = static_cast<int>(counts.size());
  std::map<std::string, std::vector<double>> per_step;
  std::vector<double> step_s, covered, imbalance;
  double flops = 0.0, grav_thread_s = 0.0;
  for (int s = 0; s < steps; ++s) {
    std::map<std::string, std::map<int, double>> by_rank;  // layer -> rank -> seconds
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].step != s) continue;
      if (std::string(spans[i].layer) == "replay") {
        const double dur = static_cast<double>(spans[i].end_ns - spans[i].begin_ns) * 1e-9;
        step_s.push_back(dur);
        covered.push_back(1.0 - self[i] / dur);
      } else {
        by_rank[spans[i].layer][spans[i].rank] += self[i];
      }
    }
    for (const char* layer : kStepLayers) {
      double mx = 0.0;
      for (const auto& [rank, secs] : by_rank[layer]) mx = std::max(mx, secs);
      per_step[layer].push_back(mx);
    }
    std::map<int, double> grav = by_rank["tree.gravity_local"];
    for (const auto& [rank, secs] : by_rank["tree.gravity_remote"]) grav[rank] += secs;
    double mx = 0.0, sum = 0.0;
    for (const auto& [rank, secs] : grav) {
      mx = std::max(mx, secs);
      sum += secs;
    }
    imbalance.push_back(sum > 0.0 ? mx * static_cast<double>(grav.size()) / sum : 1.0);
    flops += static_cast<double>(counts[static_cast<std::size_t>(s)].stats.useful_flops());
    grav_thread_s += sum * static_cast<double>(threads);
  }
  for (const char* layer : kStepLayers) out[std::string(layer) + "_s"] = median(per_step[layer]);

  std::vector<double> cells, parts, bytes, frames, migrated;
  double let_frames = 0.0, delta_frames = 0.0, let_bytes = 0.0, saved = 0.0;
  InteractionStats stats;
  std::size_t particle_steps = 0;
  for (const StepCounts& c : counts) {
    cells.push_back(static_cast<double>(c.let_cells));
    parts.push_back(static_cast<double>(c.let_particles));
    bytes.push_back(static_cast<double>(c.let_bytes));
    frames.push_back(static_cast<double>(c.let_frames));
    migrated.push_back(static_cast<double>(c.migrated));
    let_frames += static_cast<double>(c.let_frames);
    delta_frames += static_cast<double>(c.delta_frames);
    let_bytes += static_cast<double>(c.let_bytes);
    saved += static_cast<double>(c.bytes_saved);
    stats += c.stats;
    particle_steps += c.particles;
  }
  out["domain.let_cells_per_step"] = median(cells);
  out["domain.let_particles_per_step"] = median(parts);
  out["domain.let_bytes_per_step"] = median(bytes);
  out["domain.let_frames_per_step"] = median(frames);
  out["domain.let_delta_frame_ratio"] = let_frames > 0.0 ? delta_frames / let_frames : 0.0;
  out["domain.let_bytes_vs_full"] = let_bytes > 0.0 ? let_bytes / (let_bytes + saved) : 1.0;
  out["domain.migrated_per_step"] = median(migrated);
  out["device.rank_imbalance"] = median(imbalance);
  out["tree.useful_gflops_thread"] = grav_thread_s > 0.0 ? flops / grav_thread_s * 1e-9 : 0.0;
  out["tree.p2p_per_particle"] = stats.p2p_per_particle(particle_steps);
  out["tree.p2c_per_particle"] = stats.p2c_per_particle(particle_steps);
  out["tree.fill_ratio"] = stats.fill_ratio();
  out["trace.replay_step_s_p50"] = median(step_s);
  out["trace.covered_frac"] = median(covered);
}

// Serve probe for workloads that do not use the server: submit this
// workload's initial condition as a zero-step job (admission, scheduling,
// job setup and the result transfer, no physics) three times.
std::vector<double> serve_probe(const Workload& w, const ParticleSet& ic,
                                const std::string& spool, metrics::Snapshot& scraped,
                                Gates& gates) {
  serve::JobServer server(server_config(spool));
  std::vector<double> submit_s;
  for (int rep = 0; rep < 3; ++rep) {
    wire::JobSpec spec;
    spec.name = "bench-probe";
    spec.steps = 0;
    spec.ranks = w.ranks;
    spec.parts = ic;
    const WallTimer t;
    wire::JobStatusMsg st;
    {
      ScopedSpan s("submit_job", "serve.submit");
      st = serve::submit_job("127.0.0.1", server.port(), spec);
    }
    submit_s.push_back(t.elapsed());
    wire::JobResultMsg res;
    {
      ScopedSpan s("wait_job", "serve.wait");
      res = serve::wait_job("127.0.0.1", server.port(), st.job_id);
    }
    gates.check(res.state == wire::JobState::kCompleted && res.parts.size() == ic.size(),
                "serve probe job did not complete");
  }
  scraped = serve::fetch_metrics("127.0.0.1", server.port());
  return submit_s;
}

std::string run_traced(const Options& opt) {
  const Workload& w = opt.w;
  const domain::SimConfig cfg = sim_config(w);
  const ParticleSet ic = make_ic(w.n, opt.seed, w.drift);
  Gates gates;
  std::map<std::string, double> layers;
  std::vector<double> e2e_step_s;
  const std::string spool = opt.tmp_dir + "/spool-" + std::to_string(::getpid());

  // jobs_mixed: one round with the recorder on only around the serve calls
  // (spans outside the replay).
  std::vector<double> submit_s;
  metrics::Snapshot scraped;
  if (w.kind == Kind::kJobs) {
    g_rec.enabled = true;
    std::unique_ptr<serve::JobServer> server;
    setup_server(server, spool);
    for (const JobSample& js : run_round(w, server->port(), opt.seed, 0, gates))
      submit_s.push_back(js.submit_s);
    scraped = serve::fetch_metrics("127.0.0.1", server->port());
    server.reset();
    g_rec.enabled = false;
  }

  // End-to-end reference for trace.replay_ratio: 3 untraced steps of the
  // simulation the workload runs. For jobs_mixed that is the lockstep
  // Simulation of one server job, without the queueing behind other jobs.
  {
    StepSim drv;
    setup_sim(drv, opt, cfg, ic);
    for (int s = 0; s < 3; ++s) {
      const WallTimer t;
      std::visit([](auto& sim) { sim->step(); }, drv);
      e2e_step_s.push_back(t.elapsed());
    }
  }

  Replay replay(cfg);
  replay.init(ic);
  replay.step(-1);  // cold step (first-contact LETs, first allocations), untraced
  g_rec.enabled = true;
  std::vector<StepCounts> counts;
  for (int s = 0; s < w.replay_steps; ++s) {
    counts.push_back(replay.step(s));
    gates.check(counts.back().particles == w.n, "replay lost particles");
  }

  std::vector<std::vector<std::uint8_t>> frames = replay.take_frames();
  wire::SnapshotMsg final_state;
  final_state.sets = replay.sets();
  frames.push_back(wire::encode_snapshot(final_state));
  const std::vector<double> socket_s = socket_probe(frames, gates);
  double frame_bytes = 0.0;
  for (const auto& f : frames) frame_bytes += static_cast<double>(f.size());
  const SnapshotProbe snap = snapshot_probe(final_state.sets, spool + ".ckpt", gates);
  if (w.kind != Kind::kJobs) submit_s = serve_probe(w, ic, spool, scraped, gates);
  g_rec.enabled = false;
  std::filesystem::remove_all(spool);

  const std::vector<Recorder::Span> spans = g_rec.spans();
  const std::vector<double> self = self_seconds(spans);
  replay_layers(spans, self, counts, cfg.threads_per_rank, layers);
  layers["domain.socket_frame_s_p50"] = median(socket_s);
  layers["domain.socket_mib_s"] =
      frame_bytes / std::accumulate(socket_s.begin(), socket_s.end(), 0.0) / (1024.0 * 1024.0);
  layers["serve.snapshot_write_s"] = snap.write_s;
  layers["serve.snapshot_read_s"] = snap.read_s;
  layers["serve.snapshot_bytes"] = snap.bytes;
  layers["serve.submit_s_p50"] = median(submit_s);
  const auto counter = [&](const char* name) {
    const auto it = scraped.counters.find(name);
    return it == scraped.counters.end() ? 0.0 : it->second;
  };
  layers["serve.preempted"] = counter("server.jobs.preempted");
  layers["serve.resumed"] = counter("server.jobs.resumed");

  double min_self = 0.0;
  for (const double s : self) min_self = std::min(min_self, s);
  gates.check(min_self >= 0.0, "a span has negative self time");
  write_chrome_trace(opt.trace_path, spans, self);

  JsonOut out;
  out.str("mode", "trace").str("workload", w.name).num("seed", static_cast<double>(opt.seed))
      .nums("e2e_step_s", e2e_step_s).num("replay_steps", w.replay_steps)
      .num("spans", static_cast<double>(spans.size()))
      .object("layers", layers).gates(gates);
  return out.done();
}

}  // namespace

int main(int argc, char** argv) {
  CommandLine cli;
  cli.add_option("workload", "NAME",
                 "plummer64k_r4 | plummer64k_r1 | drift8k_mesh | jobs_mixed");
  cli.add_option("seed", "S", "seed of every generated input (default 1)");
  cli.add_option("seconds", "T", "length of the timed window (default 10)");
  cli.add_option("sim", "PATH", "bonsai_sim binary, spawned as socket workers");
  cli.add_option("tmp", "DIR", "working directory for job spools and checkpoints");
  cli.add_option("trace", "FILE", "traced replay; write the Chrome trace to FILE");
  cli.add_switch("smoke", "toy sizes: n=2048, 2 steps, 2 jobs");
  try {
    cli.parse(argc, argv);
    Options opt;
    opt.w = lookup(cli.get("workload", ""), cli.get_bool("smoke", false));
    opt.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
    opt.seconds = cli.get_double("seconds", 10.0);
    opt.sim_path = cli.get("sim", "");
    opt.tmp_dir = cli.get("tmp", ".");
    opt.trace_path = cli.get("trace", "");
    std::filesystem::create_directories(opt.tmp_dir);
    std::string json;
    if (!opt.trace_path.empty())
      json = run_traced(opt);
    else if (opt.w.kind == Kind::kJobs)
      json = run_jobs_workload(opt);
    else
      json = run_step_workload(opt);
    std::cout << json << std::endl;
    return 0;
  } catch (const CliError& e) {
    std::cerr << "bonsai_bench: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "bonsai_bench: fatal: " << e.what() << "\n";
    return 2;
  }
}
