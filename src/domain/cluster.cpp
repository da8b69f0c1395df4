#include "domain/cluster.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <deque>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "domain/channel.hpp"
#include "domain/wire.hpp"
#include "util/check.hpp"
#include "util/trace.hpp"

namespace bonsai::domain {

namespace {

// Demultiplexes a worker's single socket inbox by frame class. Control
// frames from the coordinator, LETs, SPMD domain frames and migration
// batches all race on the one connection (peers advance at their own pace
// inside a step, and a fast peer's next-step frames can arrive before this
// worker's own StepBegin), so each protocol phase pulls from its own queue
// and frames it is not yet ready for wait in theirs — the generalization of
// PR 3's LET stash. Single-consumer: only the worker's driver thread calls
// recv(). Once the underlying endpoint closes, queued frames stay
// receivable, then recv() returns nullopt (fail fast, never hang).
class FrameDemux {
 public:
  enum class Class : std::size_t {
    kControl = 0,  // StepBegin / Shutdown / Config
    kLet,
    kBoundaries,
    kKeySamples,
    kMigration,
  };
  static constexpr std::size_t kNumClasses = 5;

  FrameDemux(Transport& inner, int rank) : inner_(inner), rank_(rank) {}

  std::optional<std::vector<std::uint8_t>> recv(Class cls) {
    auto& queue = queues_[static_cast<std::size_t>(cls)];
    while (queue.empty()) {
      if (closed_) return std::nullopt;
      std::optional<std::vector<std::uint8_t>> frame = inner_.recv(rank_);
      if (!frame) {
        closed_ = true;
        return std::nullopt;
      }
      const Class got = classify(wire::frame_type(*frame));
      queues_[static_cast<std::size_t>(got)].push_back(std::move(*frame));
    }
    std::vector<std::uint8_t> out = std::move(queue.front());
    queue.pop_front();
    return out;
  }

 private:
  static Class classify(wire::FrameType type) {
    switch (type) {
      case wire::FrameType::kLet: return Class::kLet;
      case wire::FrameType::kLetDelta: return Class::kLet;
      case wire::FrameType::kBoundaries: return Class::kBoundaries;
      case wire::FrameType::kKeySamples: return Class::kKeySamples;
      case wire::FrameType::kMigration: return Class::kMigration;
      default: return Class::kControl;
    }
  }

  Transport& inner_;
  int rank_;
  std::array<std::deque<std::vector<std::uint8_t>>, kNumClasses> queues_;
  bool closed_ = false;
};

// Transport view handing one demux class to a protocol written against the
// plain Transport interface (LetExchange, MigrationExchange): post() goes
// out through the recorded socket, recv() pulls only this class's frames.
class DemuxTransport final : public Transport {
 public:
  DemuxTransport(FrameDemux& demux, Transport& out, FrameDemux::Class cls)
      : demux_(demux), out_(out), cls_(cls) {}

  void post(int src, int dst, std::vector<std::uint8_t> frame) override {
    out_.post(src, dst, std::move(frame));
  }

  std::optional<std::vector<std::uint8_t>> recv(int dst) override {
    (void)dst;
    return demux_.recv(cls_);
  }

  void close(int dst) override { out_.close(dst); }
  std::string close_reason() const override { return out_.close_reason(); }

 private:
  FrameDemux& demux_;
  Transport& out_;
  FrameDemux::Class cls_;
};

std::vector<const ParticleSet*> set_pointers(const std::vector<ParticleSet>& sets) {
  std::vector<const ParticleSet*> out;
  out.reserve(sets.size());
  for (const ParticleSet& s : sets) out.push_back(&s);
  return out;
}

void fill_energy(const ParticleSet& parts, wire::StepResult& sr) {
  const ParticleSet* sets[] = {&parts};
  sr.kinetic = total_kinetic_energy(sets);
  sr.potential = total_potential_energy(sets);
}

}  // namespace

ClusterSimulation::ClusterSimulation(const ClusterConfig& cfg) : cfg_(cfg) {
  BNS_CHECK(cfg_.sim.nranks >= 1);
  BNS_CHECK(cfg_.sim.nranks <= 255, "LET forests fan out to at most 255 ranks");
  if (cfg_.topology != SocketTopology::kMesh)
    throw std::invalid_argument(
        "ClusterSimulation: socket clusters run on the mesh topology only (a star "
        "has no worker-to-worker path)");
  sets_.resize(static_cast<std::size_t>(cfg_.sim.nranks));
  decomp_ = Decomposition::uniform(cfg_.sim.nranks);

  // Tracing is decided before any worker exists; workers inherit the flag
  // from the Config frame and enable their own process's tracer on receipt.
  if (cfg_.sim.trace) trace::Tracer::instance().set_enabled(true);

  net_ = SocketTransport::listen(cfg_.port, cfg_.sim.nranks, SocketTopology::kMesh);
  if (cfg_.on_listen) cfg_.on_listen(net_->port());
  if (cfg_.spawn_workers) {
    spawn_workers();
    // Spawned workers connect within milliseconds; a generous deadline plus
    // child-liveness polling turns an exec failure into an error, not a hang.
    net_->accept_workers(/*timeout_ms=*/120000, [this] {
      for (long& pid : children_) {
        if (pid < 0) continue;
        int status = 0;
        if (::waitpid(static_cast<pid_t>(pid), &status, WNOHANG) ==
            static_cast<pid_t>(pid)) {
          pid = -1;  // reaped here; the destructor must not wait on it again
          return false;
        }
      }
      return true;
    });
  } else if (cfg_.on_listen) {
    // Workers launched by the on_listen hook (in-process test threads) are
    // already racing toward connect(); bound the wait so a broken hook fails
    // the test instead of hanging it.
    net_->accept_workers(/*timeout_ms=*/120000);
  } else {
    // Externally launched workers arrive on the operator's schedule.
    net_->accept_workers();
  }
  for (int r = 0; r < cfg_.sim.nranks; ++r)
    net_->post(kCoordinatorRank, r, wire::encode_config(cfg_.sim));
}

void ClusterSimulation::spawn_workers() {
  BNS_CHECK(!cfg_.program.empty(), "worker spawning needs the binary path");
  // Workers on this host partition it like in-process rank pipelines do.
  SimConfig tcfg = cfg_.sim;
  tcfg.threads_per_rank = cfg_.worker_threads;
  tcfg.async = true;
  const std::size_t threads = threads_for(tcfg, std::thread::hardware_concurrency());

  for (int r = 0; r < cfg_.sim.nranks; ++r) {
    const std::string rank_str = std::to_string(r);
    const std::string coord = "127.0.0.1:" + std::to_string(net_->port());
    const std::string threads_str = std::to_string(threads);
    // Spawned workers pick their own ephemeral listen ports; the
    // coordinator's directory tells the peers where to dial.
    const std::vector<const char*> argv = {cfg_.program.c_str(), "--transport", "socket",
                                           "--rank-id",          rank_str.c_str(),
                                           "--coordinator",      coord.c_str(),
                                           "--threads",          threads_str.c_str(),
                                           "--listen-port",      "0",
                                           nullptr};
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("ClusterSimulation: fork failed");
    if (pid == 0) {
      ::execv(cfg_.program.c_str(), const_cast<char* const*>(argv.data()));
      _exit(127);  // exec failed; the coordinator sees the hangup
    }
    children_.push_back(pid);
  }
}

void ClusterSimulation::broadcast_shutdown() noexcept {
  // Strictly best-effort, one peer at a time: the broadcast races worker
  // teardown by construction (a worker that failed mid-step, or whose link
  // already died, is normal here), and a dead or never-connected worker must
  // not strand the ranks after it — they are still blocked in recv() waiting
  // for this very frame.
  for (int r = 0; r < cfg_.sim.nranks; ++r)
    net_->post_best_effort(kCoordinatorRank, r, wire::encode_shutdown());
}

ClusterSimulation::~ClusterSimulation() {
  broadcast_shutdown();
  net_.reset();  // closes sockets, joins reader threads
  for (const long pid : children_) {
    if (pid < 0) continue;  // already reaped by the liveness check
    int status = 0;
    ::waitpid(static_cast<pid_t>(pid), &status, 0);
  }
}

void ClusterSimulation::init(ParticleSet global) {
  sets_.assign(sets_.size(), ParticleSet{});
  sets_[0] = std::move(global);
  next_step_ = 0;
  spmd_stepped_ = false;
  spmd_particles_ = 0;
  spmd_kinetic_ = spmd_potential_ = 0.0;
  // The in-process driver's own split, run coordinator-locally (it owns every
  // set here, so the migration frames never need the sockets): both drivers
  // start from bitwise-identical slices. The slices stay here until the first
  // StepBegin ships them out; afterwards the workers own them.
  InProcTransport local(cfg_.sim.nranks);
  StepReport scratch;
  TimeBreakdown driver;
  decomp_ = redistribute_sets(sets_, cfg_.sim, {}, {}, local, scratch, driver).decomp;
  bootstrap_pending_ = true;
}

wire::StepResult ClusterSimulation::recv_step_result(TrafficRecordingTransport& rec,
                                                     StepReport& report,
                                                     std::vector<std::uint8_t>& seen,
                                                     std::span<const std::int64_t> post_ns,
                                                     std::vector<trace::Span>& spans) {
  std::optional<std::vector<std::uint8_t>> frame;
  for (;;) {
    {
      trace::ScopedSpan wait("cluster.recv.result", kCoordinatorRank);
      frame = net_->recv(kCoordinatorRank);
    }
    BNS_CHECK(frame.has_value(), "a worker disconnected before its step result (" +
                                            net_->close_reason() + ")");
    if (wire::frame_type(*frame) != wire::FrameType::kTrace) break;
    // A worker's observability sidecar, sent just ahead of its StepResult:
    // estimate the worker's clock offset from the StepBegin/Trace round-trip
    // and merge its spans onto the coordinator's clock.
    const std::int64_t arrive_ns = now_ns();
    wire::TraceFrame tf = wire::decode_trace(*frame);
    BNS_CHECK(tf.src >= 0 && tf.src < static_cast<int>(post_ns.size()),
                     "trace frame from an impossible rank");
    trace::ClockSync sync;
    sync.coord_post_ns = post_ns[static_cast<std::size_t>(tf.src)];
    sync.coord_arrive_ns = arrive_ns;
    sync.worker_recv_ns = tf.recv_ns;
    sync.worker_send_ns = tf.send_ns;
    trace::shift_spans(tf.spans, trace::estimate_clock_offset(sync));
    spans.insert(spans.end(), std::make_move_iterator(tf.spans.begin()),
                 std::make_move_iterator(tf.spans.end()));
  }
  WallTimer timer;
  wire::StepResult sr = wire::decode_step_result(*frame);
  report.part_wire.decode_seconds += timer.elapsed();
  report.part_wire.frames += 1;
  report.part_wire.bytes += frame->size();
  BNS_CHECK(sr.rank >= 0 && sr.rank < static_cast<int>(seen.size()) &&
                       !seen[static_cast<std::size_t>(sr.rank)],
                   "duplicate or out-of-range step result");
  seen[static_cast<std::size_t>(sr.rank)] = 1;
  rec.record(sr.rank, kCoordinatorRank,
             static_cast<std::uint16_t>(wire::FrameType::kStepResult), frame->size());
  report.let_cells += sr.let_cells;
  report.let_particles += sr.let_particles;
  report.local_stats += sr.local_stats;
  report.remote_stats += sr.remote_stats;
  report.let_wire += sr.let_wire;
  report.part_wire += sr.part_wire;
  report.dom_wire += sr.dom_wire;
  report.let_delta += sr.let_delta;
  report.let_sizes.insert(report.let_sizes.end(), sr.let_sizes.begin(),
                          sr.let_sizes.end());
  wire::merge_traffic(report.traffic, sr.traffic);
  return sr;
}

StepReport ClusterSimulation::step() {
  StepReport report;
  report.step = next_step_++;
  report.async = false;
  report.kernel = cfg_.sim.kernel;
  WallTimer wall;

  const std::size_t nranks = sets_.size();
  TrafficRecordingTransport rec(*net_);

  // A bare step trigger — plus, on the first step, the bootstrap slices the
  // init() redistribute computed. From then on the coordinator holds no
  // particle state: the workers sample, decompose and migrate among
  // themselves and report only aggregates.
  const bool bootstrap = bootstrap_pending_;
  bootstrap_pending_ = false;
  std::vector<std::int64_t> post_ns(nranks, 0);
  for (std::size_t r = 0; r < nranks; ++r) {
    wire::StepBegin sb;
    sb.step = report.step;
    sb.mode = bootstrap ? wire::StepMode::kSpmdBootstrap : wire::StepMode::kSpmdStep;
    if (bootstrap) sb.parts = std::move(sets_[r]);
    trace::ScopedSpan span("cluster.post.step_begin", kCoordinatorRank, 0, report.step);
    span.set_peer(static_cast<std::int64_t>(r));
    WallTimer timer;
    std::vector<std::uint8_t> frame = wire::encode_step_begin(sb);
    report.part_wire.encode_seconds += timer.elapsed();
    report.part_wire.frames += 1;
    report.part_wire.bytes += frame.size();
    span.set_bytes(static_cast<std::int64_t>(frame.size()));
    post_ns[r] = now_ns();
    rec.post(kCoordinatorRank, static_cast<int>(r), std::move(frame));
  }

  std::vector<TimeBreakdown> rank_times(nranks);
  std::vector<std::uint8_t> seen(nranks, 0);
  std::vector<trace::Span> worker_spans;
  std::vector<sfc::Key> agreed_bounds;
  std::size_t total = 0;
  std::uint64_t migrated = 0;
  double kinetic = 0.0, potential = 0.0;
  for (std::size_t i = 0; i < nranks; ++i) {
    wire::StepResult sr = recv_step_result(rec, report, seen, post_ns, worker_spans);
    rank_times[static_cast<std::size_t>(sr.rank)] = std::move(sr.times);
    total += sr.local_count;
    migrated += sr.migrated;
    kinetic += sr.kinetic;
    potential += sr.potential;
    // Decentralized decomposition cross-check: every worker must have cut
    // the identical partition, or the LET/migration protocols are exchanging
    // against different domains — fail fast, never average.
    BNS_CHECK(!sr.boundaries.empty(), "SPMD step result without boundaries");
    if (agreed_bounds.empty()) {
      agreed_bounds = std::move(sr.boundaries);
    } else {
      BNS_CHECK(agreed_bounds == sr.boundaries,
                       "workers computed diverging decompositions");
    }
  }
  report.num_particles = total;
  report.migrated = migrated;
  decomp_ = Decomposition::from_boundaries(std::move(agreed_bounds));
  spmd_particles_ = total;
  spmd_kinetic_ = kinetic;
  spmd_potential_ = potential;
  spmd_stepped_ = true;

  wire::merge_traffic(report.traffic, rec.take());
  TimeBreakdown driver_times;
  fold_stage_times(report, driver_times, rank_times);
  report.elapsed = wall.elapsed();
  if (trace::Tracer::instance().enabled()) {
    report.spans = trace::Tracer::instance().drain_thread();
    report.spans.insert(report.spans.end(),
                        std::make_move_iterator(worker_spans.begin()),
                        std::make_move_iterator(worker_spans.end()));
  }
  report.metrics = build_step_metrics(report);
  return report;
}

ParticleSet ClusterSimulation::gather() const {
  if (spmd_stepped_) {
    // Collect round-trip: each worker replies with its resident particles
    // (forces included); worth O(N) only because gather is rare (validation,
    // snapshots) rather than per-step protocol.
    const std::size_t nranks = sets_.size();
    wire::StepBegin sb;
    sb.step = next_step_;
    sb.mode = wire::StepMode::kCollect;
    const std::vector<std::uint8_t> frame = wire::encode_step_begin(sb);
    for (std::size_t r = 0; r < nranks; ++r)
      net_->post(kCoordinatorRank, static_cast<int>(r), frame);
    std::vector<ParticleSet> collected(nranks);
    std::vector<std::uint8_t> seen(nranks, 0);
    for (std::size_t i = 0; i < nranks; ++i) {
      std::optional<std::vector<std::uint8_t>> reply = net_->recv(kCoordinatorRank);
      BNS_CHECK(reply.has_value(), "a worker disconnected during gather (" +
                                              net_->close_reason() + ")");
      wire::ParticleBatch batch = wire::decode_particles(*reply);
      BNS_CHECK(batch.src >= 0 && batch.src < static_cast<int>(nranks) &&
                           !seen[static_cast<std::size_t>(batch.src)],
                       "duplicate or out-of-range gather reply");
      BNS_CHECK(batch.with_forces, "gather replies must carry forces");
      seen[static_cast<std::size_t>(batch.src)] = 1;
      collected[static_cast<std::size_t>(batch.src)] = std::move(batch.parts);
    }
    return gather_sorted(set_pointers(collected));
  }
  return gather_sorted(set_pointers(sets_));
}

std::size_t ClusterSimulation::num_particles() const {
  if (spmd_stepped_) return spmd_particles_;
  std::size_t n = 0;
  for (const ParticleSet& p : sets_) n += p.size();
  return n;
}

double ClusterSimulation::kinetic_energy() const {
  if (spmd_stepped_) return spmd_kinetic_;
  return total_kinetic_energy(set_pointers(sets_));
}

double ClusterSimulation::potential_energy() const {
  if (spmd_stepped_) return spmd_potential_;
  return total_potential_energy(set_pointers(sets_));
}

namespace {

// Per-worker state the SPMD protocol carries across steps (the feedback for
// cost balancing; everything else lives in the resident ParticleSet).
struct SpmdState {
  double prev_gravity_seconds = 0.0;
  std::size_t prev_size = 0;
};

// Broadcast one encoded frame to every peer, accounting encode time once and
// frames/bytes per post (each peer receives its own copy of the bytes).
template <typename EncodeFn>
void broadcast(Transport& out, int self, int nranks, wire::WireStats& ws,
               EncodeFn&& encode) {
  WallTimer timer;
  const std::vector<std::uint8_t> frame = encode();
  ws.encode_seconds += timer.elapsed();
  for (int dst = 0; dst < nranks; ++dst) {
    if (dst == self) continue;
    ws.frames += 1;
    ws.bytes += frame.size();
    out.post(self, dst, frame);
  }
}

// The decentralized per-step domain update + migration + LET/gravity body of
// one SPMD worker. Fills sr's statistics (times excepted: the caller owns
// the breakdown) and leaves the stepped particles resident in `rank`.
void run_spmd_step(Rank& rank, const SimConfig& cfg, int step, FrameDemux& demux,
                   Transport& out, SpmdState& st, LetChannelState& let_state,
                   TimeBreakdown& times, wire::StepResult& sr) {
  const int nranks = cfg.nranks;
  const int self = rank.id();
  ParticleSet& parts = rank.parts();
  wire::WireStats dom_ws;

  // Compose a disconnect error with the transport's recorded cause, so "a
  // peer vanished" distinguishes an orderly peer close from a socket errno.
  const auto vanished = [&out](const char* during) {
    const std::string why = out.close_reason();
    return std::runtime_error(std::string("worker: a peer vanished during ") + during +
                              (why.empty() ? "" : " (" + why + ")"));
  };

  // Phase spans cannot be RAII here (scopes span declarations the tail
  // needs), so they are emitted manually at each phase boundary.
  auto emit_phase = [&](const char* name, std::int64_t begin_ns) {
    if (!trace::Tracer::instance().enabled()) return;
    trace::RawSpan span;
    span.name = name;
    span.begin_ns = begin_ns;
    span.end_ns = now_ns();
    span.rank = self;
    span.lane = self;
    span.step = step;
    trace::Tracer::instance().emit(span);
  };

  // --- Phase 1: pre-migration allgather of bounds/population/cost weight ---
  // After it, every rank holds the identical inputs the centralized
  // update_domain() consumes, so the KeySpace, stride and weight vector are
  // bitwise-identical on all ranks.
  const std::int64_t phase_domain_ns = now_ns();
  WallTimer domain_timer;
  wire::Boundaries pre;
  pre.src = self;
  pre.step = step;
  pre.count = parts.size();
  if (!parts.empty()) pre.box = parts.bounds();
  if (cfg.balance == BalanceMode::kCost && step > 0 && st.prev_size > 0)
    pre.weight = st.prev_gravity_seconds / static_cast<double>(st.prev_size);
  broadcast(out, self, nranks, dom_ws, [&] { return wire::encode_boundaries(pre); });

  std::vector<std::uint64_t> counts(static_cast<std::size_t>(nranks), 0);
  std::vector<double> weights(static_cast<std::size_t>(nranks), 0.0);
  std::vector<std::uint8_t> seen(static_cast<std::size_t>(nranks), 0);
  AABB bounds;
  counts[static_cast<std::size_t>(self)] = pre.count;
  weights[static_cast<std::size_t>(self)] = pre.weight;
  seen[static_cast<std::size_t>(self)] = 1;
  if (pre.count > 0) bounds.expand(pre.box);
  for (int k = 0; k + 1 < nranks; ++k) {
    std::optional<std::vector<std::uint8_t>> frame =
        demux.recv(FrameDemux::Class::kBoundaries);
    if (!frame) throw vanished("the domain allgather");
    WallTimer timer;
    const wire::Boundaries b = wire::decode_boundaries(*frame);
    dom_ws.decode_seconds += timer.elapsed();
    BNS_CHECK(b.src >= 0 && b.src < nranks && !seen[static_cast<std::size_t>(b.src)],
                     "boundaries from an impossible or duplicate rank");
    BNS_CHECK(b.step == step && !b.post_migration,
                     "boundaries from the wrong step or phase");
    seen[static_cast<std::size_t>(b.src)] = 1;
    counts[static_cast<std::size_t>(b.src)] = b.count;
    weights[static_cast<std::size_t>(b.src)] = b.weight;
    if (b.count > 0) bounds.expand(b.box);
  }
  bounds = domain_bounds_or_default(bounds);
  const sfc::KeySpace space(bounds, cfg.curve);
  std::size_t total = 0;
  for (const std::uint64_t c : counts) total += static_cast<std::size_t>(c);
  const std::size_t stride = sample_stride(total, nranks, cfg.samples_per_rank);
  const bool use_weights = cfg.balance == BalanceMode::kCost && step > 0;
  if (use_weights) apply_cost_floor(weights);

  // --- Phase 2: sampled-key allgather -> identical Decomposition ------------
  wire::KeySamples mine;
  mine.src = self;
  mine.step = step;
  mine.keys = sample_keys(parts, space, stride);
  broadcast(out, self, nranks, dom_ws, [&] { return wire::encode_key_samples(mine); });

  std::vector<std::vector<sfc::Key>> samples(static_cast<std::size_t>(nranks));
  samples[static_cast<std::size_t>(self)] = std::move(mine.keys);
  seen.assign(static_cast<std::size_t>(nranks), 0);
  seen[static_cast<std::size_t>(self)] = 1;
  for (int k = 0; k + 1 < nranks; ++k) {
    std::optional<std::vector<std::uint8_t>> frame =
        demux.recv(FrameDemux::Class::kKeySamples);
    if (!frame) throw vanished("the sample allgather");
    WallTimer timer;
    wire::KeySamples ks = wire::decode_key_samples(*frame);
    dom_ws.decode_seconds += timer.elapsed();
    BNS_CHECK(
        ks.src >= 0 && ks.src < nranks && !seen[static_cast<std::size_t>(ks.src)],
        "key samples from an impossible or duplicate rank");
    BNS_CHECK(ks.step == step, "key samples from the wrong step");
    seen[static_cast<std::size_t>(ks.src)] = 1;
    samples[static_cast<std::size_t>(ks.src)] = std::move(ks.keys);
  }
  // Pool in rank order — the exact concatenation update_domain() builds — so
  // every rank cuts the identical boundaries.
  std::vector<Decomposition::WeightedKey> pooled;
  for (std::size_t r = 0; r < samples.size(); ++r) {
    const double w = use_weights ? weights[r] : 1.0;
    for (const sfc::Key key : samples[r]) pooled.push_back({key, w});
  }
  const Decomposition decomp =
      Decomposition::from_weighted_samples(std::move(pooled), nranks, cfg.snap_level);
  sr.boundaries.assign(decomp.boundaries().begin(), decomp.boundaries().end());
  const double dom_wire_pre = dom_ws.encode_seconds + dom_ws.decode_seconds;
  times.add("Domain update", std::max(0.0, domain_timer.elapsed() - dom_wire_pre));
  emit_phase("domain.update", phase_domain_ns);

  // --- Phase 3: peer-to-peer migration (the alltoallv, boundary crossers
  // only), then phase 4: post-migration allgather of the active set and the
  // tight domain boxes peers build LETs against. Phase 3's recv loop is the
  // migration barrier: no rank proceeds before owning its full new slice.
  const std::int64_t phase_migrate_ns = now_ns();
  WallTimer exchange_timer;
  DemuxTransport mig_net(demux, out, FrameDemux::Class::kMigration);
  MigrationExchange mex(mig_net, nranks);
  const ExchangeStats ex = exchange_resident(parts, self, space, decomp, mex, step);
  sr.migrated = ex.migrated;
  wire::WireStats part_ws = mex.encode_stats(self);
  part_ws.decode_seconds = mex.decode_stats(self).decode_seconds;

  wire::Boundaries post;
  post.src = self;
  post.step = step;
  post.post_migration = true;
  post.count = parts.size();
  if (!parts.empty()) post.box = parts.bounds();
  broadcast(out, self, nranks, dom_ws, [&] { return wire::encode_boundaries(post); });

  std::vector<std::uint8_t> active(static_cast<std::size_t>(nranks), 0);
  std::vector<AABB> boxes(static_cast<std::size_t>(nranks));
  active[static_cast<std::size_t>(self)] = post.count > 0;
  if (post.count > 0) boxes[static_cast<std::size_t>(self)] = post.box;
  seen.assign(static_cast<std::size_t>(nranks), 0);
  seen[static_cast<std::size_t>(self)] = 1;
  for (int k = 0; k + 1 < nranks; ++k) {
    std::optional<std::vector<std::uint8_t>> frame =
        demux.recv(FrameDemux::Class::kBoundaries);
    if (!frame) throw vanished("the box allgather");
    WallTimer timer;
    const wire::Boundaries b = wire::decode_boundaries(*frame);
    dom_ws.decode_seconds += timer.elapsed();
    BNS_CHECK(b.src >= 0 && b.src < nranks && !seen[static_cast<std::size_t>(b.src)],
                     "post boxes from an impossible or duplicate rank");
    BNS_CHECK(b.step == step && b.post_migration,
                     "post boxes from the wrong step or phase");
    seen[static_cast<std::size_t>(b.src)] = 1;
    active[static_cast<std::size_t>(b.src)] = b.count > 0;
    if (b.count > 0) boxes[static_cast<std::size_t>(b.src)] = b.box;
  }
  const double exchange_wire = (dom_ws.encode_seconds + dom_ws.decode_seconds -
                                dom_wire_pre) +
                               part_ws.encode_seconds + part_ws.decode_seconds;
  times.add("Exchange particles", std::max(0.0, exchange_timer.elapsed() - exchange_wire));
  times.add("Wire encode", dom_ws.encode_seconds + part_ws.encode_seconds);
  times.add("Wire decode", dom_ws.decode_seconds + part_ws.decode_seconds);
  emit_phase("decomposition.migrate", phase_migrate_ns);
  sr.dom_wire = dom_ws;
  sr.part_wire = part_ws;

  // --- Build + LET exchange + gravity + integration: the exact same step
  // body as the in-process lanes.
  rank.build(space, cfg, times);
  DemuxTransport let_net_view(demux, out, FrameDemux::Class::kLet);
  LetExchange let_net(let_net_view, active, &let_state);
  std::size_t next_peer = 1;
  RankStepStats out_stats =
      run_rank_step(rank, cfg, let_net, active, boxes, times, /*lane=*/nullptr, next_peer);
  sr.let_cells = out_stats.let_cells;
  sr.let_particles = out_stats.let_particles;
  sr.local_stats = out_stats.local_stats;
  sr.remote_stats = out_stats.remote_stats;
  sr.let_sizes = std::move(out_stats.let_sizes);
  sr.let_wire = let_net.encode_stats(self);
  sr.let_wire.decode_seconds = let_net.decode_stats(self).decode_seconds;
  sr.let_delta = let_net.delta_stats(self);

  st.prev_gravity_seconds =
      times.get("Gravity local") + times.get("Gravity remote");
  st.prev_size = parts.size();
}

}  // namespace

int run_worker(const std::string& host, std::uint16_t port, int rank_id,
               std::size_t threads, std::uint16_t listen_port) {
  std::unique_ptr<SocketTransport> net =
      SocketTransport::connect_mesh(host, port, rank_id, listen_port);
  // The directory is in hand; stand up the pair links before touching the
  // control stream, so peers' step frames have somewhere to arrive.
  net->mesh_with_peers();
  TrafficRecordingTransport out(*net);
  FrameDemux demux(out, rank_id);

  const auto coordinator_down = [&net](const char* what) {
    const std::string why = net->close_reason();
    return std::runtime_error(std::string("worker: ") + what +
                              (why.empty() ? "" : " (" + why + ")"));
  };

  std::optional<std::vector<std::uint8_t>> frame = demux.recv(FrameDemux::Class::kControl);
  if (!frame) throw coordinator_down("coordinator closed before config");
  SimConfig cfg = wire::decode_config(*frame);
  BNS_CHECK(rank_id >= 0 && rank_id < cfg.nranks,
                   "worker rank id outside the configured rank count");
  cfg.threads_per_rank = threads;
  cfg.async = true;
  if (cfg.trace) trace::Tracer::instance().set_enabled(true);
  Rank rank(rank_id, threads_for(cfg, std::thread::hardware_concurrency()));
  SpmdState st;
  // Incremental-LET caches live here, beside the resident Rank: they persist
  // across steps and die with the worker (a reconnect starts from version 0,
  // so the first frames after it are full — the protocol is self-healing).
  LetChannelState let_state;
  let_state.init(cfg.nranks, cfg.let_cache, cfg.let_churn);

  // The previous step's StepResult encode time: it cannot ride in the frame
  // it measures (the timings are part of the payload), so it is reported one
  // step late — per-step rows shift slightly, trajectory totals stay honest.
  double pending_result_encode_s = 0.0;

  for (;;) {
    frame = demux.recv(FrameDemux::Class::kControl);
    if (!frame) throw coordinator_down("coordinator disconnected");
    const wire::FrameType type = wire::frame_type(*frame);
    if (type == wire::FrameType::kShutdown) return 0;
    if (type != wire::FrameType::kStepBegin)
      throw std::runtime_error("worker: unexpected frame type from coordinator");

    WallTimer decode_timer;
    wire::StepBegin sb = wire::decode_step_begin(*frame);
    const double sb_decode_s = decode_timer.elapsed();
    // Worker-local clock sample for the coordinator's offset estimate: as
    // close as possible to the moment the StepBegin was in hand.
    const std::int64_t recv_ns = now_ns();

    if (sb.mode == wire::StepMode::kCollect) {
      // Snapshot request: ship the resident particles (forces included)
      // without stepping. SPMD gather() and future checkpointing use this.
      // Bypass the traffic recorder: the reply belongs to no step, and must
      // not surface as Particles-class bytes in the next step's matrix.
      net->post(rank_id, kCoordinatorRank,
                wire::encode_particles(rank_id, rank.parts(), /*with_forces=*/true));
      continue;
    }

    TimeBreakdown times;
    times.add("Wire decode", sb_decode_s);
    times.add("Wire encode", pending_result_encode_s);
    pending_result_encode_s = 0.0;

    // Resident state, distributed domain update, peer migration; the
    // particles never leave this worker.
    wire::StepResult sr;
    sr.rank = rank_id;
    if (sb.mode == wire::StepMode::kSpmdBootstrap) rank.parts() = std::move(sb.parts);
    run_spmd_step(rank, cfg, sb.step, demux, out, st, let_state, times, sr);
    fill_energy(rank.parts(), sr);
    sr.local_count = rank.parts().size();
    sr.times = times;
    sr.traffic = out.take();
    if (cfg.trace) {
      // The step's spans ship just ahead of the StepResult. The overall step
      // span is emitted manually (its natural scope would outlive the drain),
      // then the whole buffer is drained — only this thread's: concurrent
      // in-process workers must not steal each other's spans. The worker's
      // own metric deltas ride along for the wire tests and per-rank tooling;
      // the coordinator's bench metrics are rebuilt from the aggregated
      // report, not from these.
      trace::RawSpan step_span;
      step_span.name = "worker.step";
      step_span.begin_ns = recv_ns;
      step_span.end_ns = now_ns();
      step_span.rank = rank_id;
      step_span.lane = rank_id;
      step_span.step = sb.step;
      trace::Tracer::instance().emit(step_span);
      wire::TraceFrame tf;
      tf.src = rank_id;
      tf.step = sb.step;
      tf.recv_ns = recv_ns;
      tf.spans = trace::Tracer::instance().drain_thread();
      StepReport wr;
      wr.step = sb.step;
      wr.num_particles = sr.local_count;
      wr.migrated = sr.migrated;
      wr.let_cells = sr.let_cells;
      wr.let_particles = sr.let_particles;
      wr.local_stats = sr.local_stats;
      wr.remote_stats = sr.remote_stats;
      wr.let_wire = sr.let_wire;
      wr.part_wire = sr.part_wire;
      wr.dom_wire = sr.dom_wire;
      wr.let_delta = sr.let_delta;
      wr.let_sizes = sr.let_sizes;
      wr.traffic = sr.traffic;
      tf.metrics = build_step_metrics(wr);
      tf.send_ns = now_ns();
      // Like the collect reply, the sidecar bypasses the traffic recorder:
      // observability must not perturb the step's own traffic matrix.
      net->post(rank_id, kCoordinatorRank, wire::encode_trace(tf));
    }
    WallTimer encode_timer;
    std::vector<std::uint8_t> result = wire::encode_step_result(sr);
    pending_result_encode_s = encode_timer.elapsed();
    net->post(rank_id, kCoordinatorRank, std::move(result));
  }
}

}  // namespace bonsai::domain
