#include "domain/cluster.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
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
  std::ranges::fill(global.work, 0.0);
  sets_[0] = std::move(global);
  next_step_ = 0;
  spmd_stepped_ = false;
  spmd_particles_ = 0;
  spmd_kinetic_ = spmd_potential_ = 0.0;
  bootstrap_pending_ = true;
}

StepReport ClusterSimulation::step() {
  StepReport report;
  report.step = next_step_++;
  report.kernel = cfg_.sim.kernel;
  WallTimer wall;
  trace::BindLog log(report.spans);

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
    std::vector<std::uint8_t> frame = wire::encode_step_begin(sb);
    span.set_bytes(static_cast<std::int64_t>(frame.size()));
    post_ns[r] = now_ns();
    rec.post(kCoordinatorRank, static_cast<int>(r), std::move(frame));
  }

  // Take every result off the wire first, stamping its arrival, so the
  // clock-offset estimates do not absorb the folding of earlier results.
  std::vector<std::pair<std::vector<std::uint8_t>, std::int64_t>> arrived;
  for (std::size_t i = 0; i < nranks; ++i) {
    std::optional<std::vector<std::uint8_t>> frame;
    {
      trace::ScopedSpan wait("cluster.recv.result", kCoordinatorRank);
      frame = net_->recv(kCoordinatorRank);
    }
    BNS_CHECK(frame.has_value(), "a worker disconnected before its step result (" +
                                     net_->close_reason() + ")");
    arrived.emplace_back(std::move(*frame), now_ns());
  }

  StepFold fold(nranks);
  std::vector<std::uint8_t> seen(nranks, 0);
  double kinetic = 0.0, potential = 0.0;
  for (const auto& [frame, arrive_ns] : arrived) {
    wire::StepResult sr = wire::decode_step_result(frame);
    BNS_CHECK(sr.rank >= 0 && sr.rank < static_cast<int>(nranks) &&
                  !seen[static_cast<std::size_t>(sr.rank)],
              "duplicate or out-of-range step result");
    seen[static_cast<std::size_t>(sr.rank)] = 1;
    rec.record(sr.rank, kCoordinatorRank,
               static_cast<std::uint16_t>(wire::FrameType::kStepResult), frame.size());
    // The worker's spans onto the coordinator's clock.
    const trace::ClockSync sync{post_ns[static_cast<std::size_t>(sr.rank)], arrive_ns,
                                sr.recv_ns, sr.send_ns};
    trace::shift_spans(sr.spans, trace::estimate_clock_offset(sync));
    kinetic += sr.kinetic;
    potential += sr.potential;
    fold_step_result(report, sr, fold);
  }
  wire::merge_traffic(report.traffic, rec.take());
  decomp_ = finish_step(report, fold);
  spmd_particles_ = report.num_particles;
  spmd_kinetic_ = kinetic;
  spmd_potential_ = potential;
  spmd_stepped_ = true;
  report.elapsed = wall.elapsed();
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
  Rank rank(rank_id, threads_for(cfg, std::thread::hardware_concurrency()));

  // The previous step's StepResult encode span: it cannot ride in the frame
  // it measures, so it is booked one step late — per-step rows shift
  // slightly, trajectory totals stay honest.
  std::vector<trace::Span> result_encode;

  for (;;) {
    frame = demux.recv(FrameDemux::Class::kControl);
    if (!frame) throw coordinator_down("coordinator disconnected");
    const wire::FrameType type = wire::frame_type(*frame);
    if (type == wire::FrameType::kShutdown) return 0;
    if (type != wire::FrameType::kStepBegin)
      throw std::runtime_error("worker: unexpected frame type from coordinator");

    wire::StepResult sr;
    wire::StepBegin sb;
    {
      trace::BindLog log(sr.spans);
      trace::ScopedSpan span("wire.decode.step_begin", rank_id, rank_id);
      span.set_bytes(static_cast<std::int64_t>(frame->size()));
      sb = wire::decode_step_begin(*frame);
    }
    // Worker-local clock sample for the coordinator's offset estimate: as
    // close as possible to the moment the StepBegin was in hand.
    sr.recv_ns = now_ns();

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
      // step traffic, and it cuts with unit weights (the batch is force-free).
      rank.parts() = std::move(sb.parts);
      wire::StepResult scratch;
      run_spmd_redistribute(rank, cfg, sb.step, demux, out, scratch);
      out.take();
    }

    // Resident state, distributed domain update, peer migration; the
    // particles never leave this worker.
    sr.spans.insert(sr.spans.end(), result_encode.begin(), result_encode.end());
    result_encode.clear();
    run_spmd_step(rank, cfg, sb.step, demux, out, sr);
    fill_energy(rank.parts(), sr);
    sr.traffic = out.take();
    sr.send_ns = now_ns();
    std::vector<std::uint8_t> result;
    {
      trace::BindLog log(result_encode);
      trace::ScopedSpan span("wire.encode.step_result", rank_id, rank_id);
      result = wire::encode_step_result(sr);
      span.set_bytes(static_cast<std::int64_t>(result.size()));
    }
    net->post(rank_id, kCoordinatorRank, std::move(result));
  }
}

}  // namespace bonsai::domain
