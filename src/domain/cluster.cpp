#include "domain/cluster.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <stdexcept>
#include <thread>

#include "domain/channel.hpp"
#include "domain/wire.hpp"
#include "util/check.hpp"
#include "util/trace.hpp"

namespace bonsai::domain {

namespace {

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
  BNS_CHECK(cfg_.sim.nranks <= 255,
            "at most 255 ranks: the wire Config, PeerDirectory and Snapshot "
            "decoders reject larger rank counts");
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
  // The whole initial set rides to rank 0 with the first StepBegin; the
  // workers scatter it with the rank program's redistribute phase, exactly as
  // the in-process lanes do, so both drivers start from bitwise-identical
  // slices.
  sets_.assign(sets_.size(), ParticleSet{});
  sets_[0] = std::move(global);
  next_step_ = 0;
  spmd_stepped_ = false;
  spmd_particles_ = 0;
  spmd_kinetic_ = spmd_potential_ = 0.0;
  bootstrap_pending_ = true;
}

wire::StepResult ClusterSimulation::recv_step_result(TrafficRecordingTransport& rec,
                                                     StepReport& report,
                                                     std::vector<std::uint8_t>& seen,
                                                     std::span<const std::int64_t> post_ns,
                                                     std::vector<trace::Span>& spans,
                                                     std::span<TimeBreakdown> rank_times,
                                                     std::vector<sfc::Key>& agreed_bounds) {
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
  fold_step_result(report, sr, rank_times, agreed_bounds);
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

  // A bare step trigger — plus, on the first step, the initial set for rank
  // 0 to scatter. From then on the coordinator holds no particle state: the
  // workers sample, decompose and migrate among themselves and report only
  // aggregates.
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
  double kinetic = 0.0, potential = 0.0;
  for (std::size_t i = 0; i < nranks; ++i) {
    const wire::StepResult sr =
        recv_step_result(rec, report, seen, post_ns, worker_spans, rank_times, agreed_bounds);
    kinetic += sr.kinetic;
    potential += sr.potential;
  }
  decomp_ = Decomposition::from_boundaries(std::move(agreed_bounds));
  spmd_particles_ = report.num_particles;
  spmd_kinetic_ = kinetic;
  spmd_potential_ = potential;
  spmd_stepped_ = true;

  wire::merge_traffic(report.traffic, rec.take());
  fold_stage_times(report, rank_times);
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

    if (sb.mode == wire::StepMode::kSpmdBootstrap) {
      // The initial set (all on rank 0) is scattered by the redistribute
      // phase first, as the in-process init() does; like there, it is not
      // step traffic, and the cost feedback starts afresh.
      rank.parts() = std::move(sb.parts);
      st = SpmdState{};
      wire::StepResult scratch;
      run_spmd_redistribute(rank, cfg, sb.step, demux, out, st, scratch);
      out.take();
    }

    // Resident state, distributed domain update, peer migration; the
    // particles never leave this worker.
    wire::StepResult sr;
    sr.times.add("Wire decode", sb_decode_s);
    sr.times.add("Wire encode", pending_result_encode_s);
    pending_result_encode_s = 0.0;
    run_spmd_step(rank, cfg, sb.step, demux, out, st, let_state, sr);
    fill_energy(rank.parts(), sr);
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
