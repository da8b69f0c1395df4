#include "serve/server.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <utility>

#include "domain/decomposition.hpp"
#include "domain/rank.hpp"
#include "domain/simulation.hpp"
#include "serve/snapshot.hpp"
#include "util/check.hpp"
#include "util/ic.hpp"

namespace bonsai::serve {

namespace wire = domain::wire;

namespace {

bool terminal(wire::JobState s) {
  return s == wire::JobState::kCompleted || s == wire::JobState::kCancelled ||
         s == wire::JobState::kFailed || s == wire::JobState::kRejected;
}

bool resident(wire::JobState s) {
  return s == wire::JobState::kQueued || s == wire::JobState::kRunning ||
         s == wire::JobState::kSuspended;
}

}  // namespace

void check_pool_slots(int pool_slots, int free_slots, std::span<const int> running_ranks) {
  BNS_CHECK(pool_slots >= 1, "pool has no slots");
  BNS_CHECK(free_slots >= 0 && free_slots <= pool_slots,
            "free slot count ", free_slots, " outside [0, ", pool_slots, "]");
  int held = 0;
  for (const int r : running_ranks) {
    BNS_CHECK(r >= 1, "running job holds no slots");
    held += r;
  }
  BNS_CHECK(held == pool_slots - free_slots, "pool ledger out of balance: running jobs hold ",
            held, " slots but ", pool_slots - free_slots, " are handed out");
}

std::string with_job_label(std::string name, int job_id) {
  const std::string label = "job=" + std::to_string(job_id);
  if (!name.empty() && name.back() == '}') {
    name.pop_back();
    name += "," + label + "}";
  } else {
    name += "{" + label + "}";
  }
  return name;
}

metrics::Snapshot label_job_metrics(const metrics::Snapshot& m, int job_id) {
  metrics::Snapshot out;
  for (const auto& [name, v] : m.counters)
    if (name.rfind("transport.post.", 0) != 0) out.counters[with_job_label(name, job_id)] = v;
  for (const auto& [name, v] : m.gauges) out.gauges[with_job_label(name, job_id)] = v;
  for (const auto& [name, h] : m.histograms) out.histograms[with_job_label(name, job_id)] = h;
  return out;
}

struct JobServer::Job {
  int id = 0;
  wire::JobSpec spec;
  std::uint64_t n_particles = 0;
  wire::JobState state = wire::JobState::kQueued;
  std::string reason;
  int steps_done = 0;
  int ranks = 0;  // fixed at first schedule; a resume must reuse it (the
                  // per-rank checkpoint split only replays at this count)
  bool cancel_requested = false;
  bool suspend_requested = false;
  bool snapshot_requested = false;
  wire::SnapshotMsg live_snapshot;  // filled at a step boundary on request
  std::string spool_path;
  bool has_checkpoint = false;
  double kinetic = 0.0, potential = 0.0;
  std::vector<domain::StepReport> reports;  // kept only for the bench file
};

void JobServer::check_pool_locked() const {
  std::vector<int> running;
  for (const auto& [id, job] : jobs_)
    if (job->state == wire::JobState::kRunning) running.push_back(job->ranks);
  check_pool_slots(pool_slots_, free_slots_, running);
}

JobServer::JobServer(const ServerConfig& cfg) : cfg_(cfg), listener_(cfg.port) {
  pool_slots_ = cfg_.limits.pool_slots > 0
                    ? cfg_.limits.pool_slots
                    : std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  free_slots_ = pool_slots_;
  std::error_code ec;
  std::filesystem::create_directories(cfg_.spool_dir, ec);
  if (!cfg_.bench_dir.empty()) std::filesystem::create_directories(cfg_.bench_dir, ec);
  accept_thread_ = std::thread(&JobServer::accept_loop, this);
}

JobServer::~JobServer() { shutdown(); }

void JobServer::wait_for_shutdown() {
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [&] { return shutdown_requested_ || shutting_down_; });
}

void JobServer::shutdown() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (shutting_down_) return;  // idempotent: dtor after an explicit call
    shutting_down_ = true;
    for (auto& [id, job] : jobs_) {
      if (job->state == wire::JobState::kQueued || job->state == wire::JobState::kSuspended) {
        job->state = wire::JobState::kCancelled;
        job->reason = "server shutdown";
      } else if (job->state == wire::JobState::kRunning) {
        job->cancel_requested = true;  // the runner cancels at its boundary
      }
    }
    cv_.notify_all();
  }
  listener_.close();
  if (accept_thread_.joinable()) accept_thread_.join();
  std::list<Worker> runners;
  {
    std::lock_guard<std::mutex> lk(mu_);
    runners.swap(runners_);  // no runner starts once shutting_down_ is set
  }
  for (Worker& w : runners)
    if (w.thread.joinable()) w.thread.join();
  {
    std::lock_guard<std::mutex> g(conn_mu_);
    for (FrameSocket* s : conns_) s->shutdown_rw();
  }
  for (Worker& w : handlers_)
    if (w.thread.joinable()) w.thread.join();
  handlers_.clear();
}

void JobServer::reap_exited(std::list<Worker>& workers) {
  for (auto it = workers.begin(); it != workers.end();) {
    if (it->exited) {
      it->thread.join();
      it = workers.erase(it);
    } else {
      ++it;
    }
  }
}

void JobServer::accept_loop() {
  while (std::optional<FrameSocket> sock = listener_.accept()) {
    std::lock_guard<std::mutex> g(conn_mu_);
    reap_exited(handlers_);
    Worker& w = handlers_.emplace_back();
    w.thread = std::thread(&JobServer::handle_client, this, std::move(*sock), std::ref(w));
  }
}

void JobServer::handle_client(FrameSocket sock, Worker& self) {
  {
    std::lock_guard<std::mutex> g(conn_mu_);
    conns_.push_back(&sock);
  }
  while (true) {
    std::optional<std::vector<std::uint8_t>> frame;
    try {
      frame = sock.recv_or_eof();
    } catch (const NetError&) {
      break;
    }
    if (!frame) break;
    std::vector<std::uint8_t> reply;
    try {
      switch (wire::frame_type(*frame)) {
        case wire::FrameType::kJobSubmit: {
          wire::JobSpec spec;
          try {
            spec = wire::decode_job_submit(*frame);
          } catch (const wire::WireError&) {
            // Malformed or out-of-range specs are rejected submissions too.
            registry_.add_counter("server.jobs.rejected", 1);
            throw;
          }
          reply = wire::encode_job_status(handle_submit(std::move(spec)));
          break;
        }
        case wire::FrameType::kJobStatus: {
          const wire::JobStatusMsg req = wire::decode_job_status(*frame);
          if (req.wait) {
            reply = wire::encode_job_result(wait_result(req.job_id));
          } else {
            std::lock_guard<std::mutex> lk(mu_);
            auto it = jobs_.find(req.job_id);
            wire::JobStatusMsg st;
            if (it != jobs_.end()) {
              st = describe_locked(*it->second);
            } else {
              st.job_id = req.job_id;
              st.state = wire::JobState::kRejected;
              st.reason = "unknown job id";
            }
            reply = wire::encode_job_status(st);
          }
          break;
        }
        case wire::FrameType::kJobCancel:
          reply = wire::encode_job_status(handle_cancel(wire::decode_job_cancel(*frame)));
          break;
        case wire::FrameType::kSnapshot:
          reply = wire::encode_snapshot(handle_snapshot(wire::decode_snapshot(*frame).job_id));
          break;
        case wire::FrameType::kMetricsQuery:
          reply = wire::encode_metrics_report(scrape_metrics());
          break;
        case wire::FrameType::kShutdown: {
          std::lock_guard<std::mutex> lk(mu_);
          shutdown_requested_ = true;
          cv_.notify_all();
          continue;  // no reply; the client just closes
        }
        default: {
          wire::JobStatusMsg err;
          err.state = wire::JobState::kRejected;
          err.reason = std::string("unexpected frame type ") +
                       wire::frame_type_name(wire::frame_type(*frame));
          reply = wire::encode_job_status(err);
          break;
        }
      }
    } catch (const std::exception& e) {
      wire::JobStatusMsg err;
      err.state = wire::JobState::kRejected;
      err.reason = std::string("bad request: ") + e.what();
      reply = wire::encode_job_status(err);
    }
    try {
      sock.send(reply);
    } catch (const NetError&) {
      break;
    }
  }
  std::lock_guard<std::mutex> g(conn_mu_);
  conns_.erase(std::remove(conns_.begin(), conns_.end(), &sock), conns_.end());
  self.exited = true;
}

wire::JobStatusMsg JobServer::handle_submit(wire::JobSpec spec) {
  std::lock_guard<std::mutex> lk(mu_);
  const std::uint64_t n = spec.parts.size() > 0 ? spec.parts.size() : spec.n;

  wire::JobStatusMsg rejected;
  rejected.state = wire::JobState::kRejected;
  rejected.n = n;
  if (shutting_down_) {
    rejected.reason = "server shutting down";
  } else if (n == 0) {
    rejected.reason = "empty job: n=0 and no initial particles";
  } else {
    int resident_jobs = 0;
    std::uint64_t resident_particles = 0;
    for (const auto& [id, job] : jobs_) {
      if (!resident(job->state)) continue;
      ++resident_jobs;
      resident_particles += job->n_particles;
    }
    if (resident_jobs >= cfg_.limits.max_concurrent_jobs) {
      rejected.reason = "job queue full: max_concurrent_jobs=" +
                        std::to_string(cfg_.limits.max_concurrent_jobs);
    } else if (resident_particles + n > cfg_.limits.max_resident_particles) {
      rejected.reason = "resident particles " + std::to_string(resident_particles) + "+" +
                        std::to_string(n) + " would exceed max_resident_particles=" +
                        std::to_string(cfg_.limits.max_resident_particles);
    }
  }
  if (!rejected.reason.empty()) {
    registry_.add_counter("server.jobs.rejected", 1);
    return rejected;
  }

  auto job = std::make_unique<Job>();
  job->id = next_job_id_++;
  job->spec = std::move(spec);
  job->n_particles = n;
  job->spool_path = cfg_.spool_dir + "/job-" + std::to_string(job->id) + ".ckpt";
  Job& ref = *job;
  jobs_.emplace(ref.id, std::move(job));
  registry_.add_counter("server.jobs.submitted", 1);
  schedule_locked();
  return describe_locked(ref);
}

wire::JobStatusMsg JobServer::handle_cancel(std::int32_t job_id) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) {
    wire::JobStatusMsg st;
    st.job_id = job_id;
    st.state = wire::JobState::kRejected;
    st.reason = "unknown job id";
    return st;
  }
  Job& job = *it->second;
  if (job.state == wire::JobState::kQueued || job.state == wire::JobState::kSuspended) {
    // Holds no slots in either state — cancel immediately.
    finish_locked(job, wire::JobState::kCancelled, "cancelled by client");
  } else if (job.state == wire::JobState::kRunning) {
    job.cancel_requested = true;  // honored at the next step boundary
  }
  return describe_locked(job);
}

wire::JobResultMsg JobServer::wait_result(std::int32_t job_id) {
  std::unique_lock<std::mutex> lk(mu_);
  wire::JobResultMsg res;
  res.job_id = job_id;
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) {
    res.state = wire::JobState::kRejected;
    res.reason = "unknown job id";
    return res;
  }
  Job& job = *it->second;
  cv_.wait(lk, [&] { return terminal(job.state); });
  res.state = job.state;
  res.steps_done = job.steps_done;
  res.kinetic = job.kinetic;
  res.potential = job.potential;
  res.reason = job.reason;
  if (res.state == wire::JobState::kCompleted) {
    const std::string path = job.spool_path;
    lk.unlock();
    res.parts = std::move(read_snapshot_file(path).sets.at(0));
  }
  return res;
}

wire::SnapshotMsg JobServer::handle_snapshot(std::int32_t job_id) {
  std::unique_lock<std::mutex> lk(mu_);
  wire::SnapshotMsg out;
  out.job_id = job_id;
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return out;
  Job& job = *it->second;
  if (job.state == wire::JobState::kRunning) {
    // Ask the runner to capture at its next step boundary; a state change
    // (suspend/cancel/complete) also wakes us, and we fall through to the
    // handling for the new state.
    job.snapshot_requested = true;
    cv_.wait(lk, [&] { return !job.snapshot_requested || job.state != wire::JobState::kRunning; });
    if (!job.snapshot_requested && job.live_snapshot.job_id == job.id) return job.live_snapshot;
  }
  // A suspended job's spool file is its checkpoint; a completed job's is its
  // result as one set.
  if ((job.state == wire::JobState::kSuspended && job.has_checkpoint) ||
      job.state == wire::JobState::kCompleted) {
    const std::string path = job.spool_path;
    lk.unlock();
    return read_snapshot_file(path);
  }
  out.next_step = job.steps_done;
  return out;
}

metrics::Snapshot JobServer::scrape_metrics() {
  std::lock_guard<std::mutex> lk(mu_);
  metrics::Snapshot out = registry_.snapshot();
  metrics::merge(out, job_metrics_);
  int resident_jobs = 0;
  for (const auto& [id, job] : jobs_)
    if (resident(job->state)) ++resident_jobs;
  out.gauges["server.pool.slots_total"] = pool_slots_;
  out.gauges["server.pool.slots_free"] = free_slots_;
  out.gauges["server.jobs.resident"] = resident_jobs;
  return out;
}

wire::JobStatusMsg JobServer::describe_locked(const Job& job) const {
  wire::JobStatusMsg st;
  st.job_id = job.id;
  st.state = job.state;
  st.steps_done = job.steps_done;
  st.steps_total = job.spec.steps;
  st.ranks = job.ranks;
  st.priority = job.spec.priority;
  st.n = job.n_particles;
  st.reason = job.reason;
  return st;
}

int JobServer::size_ranks_locked(const Job& job) const {
  const int cap = std::min(pool_slots_, 255);  // ranks are byte-addressed
  if (job.spec.ranks > 0) return std::clamp(job.spec.ranks, 1, cap);
  // Cost-balance reuse (the machinery that cuts the Hilbert curve by rank
  // cost): every resident job weighs in with its particle count, the floor
  // keeps small jobs from collapsing to zero, and this job's slot count is
  // its share of the floored weight.
  std::vector<double> weights;
  std::size_t mine = 0;
  for (const auto& [id, other] : jobs_) {
    if (!resident(other->state)) continue;
    if (other->id == job.id) mine = weights.size();
    weights.push_back(static_cast<double>(other->n_particles));
  }
  domain::apply_cost_floor(weights);
  double total = 0.0;
  for (double w : weights) total += w;
  const double share = total > 0.0 ? weights[mine] / total : 1.0;
  const int slots = static_cast<int>(std::lround(share * pool_slots_));
  return std::clamp(slots, 1, cap);
}

void JobServer::schedule_locked() {
  reap_exited(runners_);
  if (shutting_down_) return;
  while (true) {
    // Best startable job: highest priority, FIFO within a priority.
    Job* best = nullptr;
    for (auto& [id, job] : jobs_) {
      if (job->state != wire::JobState::kQueued && job->state != wire::JobState::kSuspended)
        continue;
      if (!best || job->spec.priority > best->spec.priority) best = job.get();
    }
    if (!best) {
      if constexpr (kDcheckEnabled) check_pool_locked();
      return;
    }
    if (best->ranks == 0) best->ranks = size_ranks_locked(*best);
    if (best->ranks <= free_slots_) {
      free_slots_ -= best->ranks;
      best->state = wire::JobState::kRunning;
      Worker& w = runners_.emplace_back();
      w.thread = std::thread(&JobServer::run_job, this, std::ref(*best), std::ref(w));
      continue;
    }
    // Not enough slots: preempt the lowest-priority running job, but only
    // for a strictly higher-priority waiter. The victim checkpoints at its
    // next step boundary and its freed slots re-run this scheduler.
    Job* victim = nullptr;
    for (auto& [id, job] : jobs_) {
      if (job->state != wire::JobState::kRunning) continue;
      if (job->suspend_requested || job->cancel_requested) continue;
      if (!victim || job->spec.priority < victim->spec.priority) victim = job.get();
    }
    if (victim && victim->spec.priority < best->spec.priority) victim->suspend_requested = true;
    if constexpr (kDcheckEnabled) check_pool_locked();
    return;
  }
}

void JobServer::finish_locked(Job& job, wire::JobState state, const std::string& reason) {
  job.state = state;
  if (!reason.empty()) job.reason = reason;
  switch (state) {
    case wire::JobState::kCompleted: registry_.add_counter("server.jobs.completed", 1); break;
    case wire::JobState::kCancelled: registry_.add_counter("server.jobs.cancelled", 1); break;
    case wire::JobState::kFailed: registry_.add_counter("server.jobs.failed", 1); break;
    default: break;
  }
  cv_.notify_all();
  schedule_locked();
}

void JobServer::run_job(Job& job, Worker& self) {
  run_job_steps(job);  // the job's Simulation is destroyed in here
  std::lock_guard<std::mutex> lk(mu_);
  self.exited = true;
}

void JobServer::run_job_steps(Job& job) {
  bool slots_held = true;
  try {
    domain::SimConfig cfg;
    cfg.nranks = job.ranks;
    cfg.theta = job.spec.theta;
    cfg.eps = job.spec.eps;
    cfg.dt = job.spec.dt;
    cfg.kernel = job.spec.kernel;
    // One thread per rank and count balancing make a job deterministic: a
    // job preempted to disk and restored into a fresh Simulation with this
    // same config continues bit-for-bit. Remote walks already run in fixed
    // source order; one thread per rank keeps the InteractionQueue flush
    // points fixed; cost cuts use wall-time weights, which cannot be
    // replayed.
    cfg.threads_per_rank = 1;
    cfg.balance = domain::BalanceMode::kCount;
    domain::Simulation sim(cfg);

    bool resumed;
    {
      std::lock_guard<std::mutex> lk(mu_);
      resumed = job.has_checkpoint;
    }
    if (resumed) {
      wire::SnapshotMsg ckpt = read_snapshot_file(job.spool_path);
      sim.restore(std::move(ckpt.sets), ckpt.next_step);
      std::lock_guard<std::mutex> lk(mu_);
      registry_.add_counter("server.jobs.resumed", 1);
    } else {
      ParticleSet ic = job.spec.parts.size() > 0
                           ? std::move(job.spec.parts)
                           : make_plummer(job.spec.n, job.spec.seed);
      sim.init(std::move(ic));
    }

    for (int s = sim.next_step(); s < job.spec.steps; ++s) {
      bool suspend = false;
      {
        std::lock_guard<std::mutex> lk(mu_);
        if (job.cancel_requested || shutting_down_) {
          free_slots_ += job.ranks;
          slots_held = false;
          finish_locked(job, wire::JobState::kCancelled, "cancelled by client");
          return;
        }
        suspend = job.suspend_requested;
      }
      if (suspend) {
        wire::SnapshotMsg ckpt;
        ckpt.job_id = job.id;
        ckpt.next_step = s;
        ckpt.sets = sim.checkpoint_sets();
        write_snapshot_file(job.spool_path, ckpt);
        std::lock_guard<std::mutex> lk(mu_);
        job.suspend_requested = false;
        job.has_checkpoint = true;
        job.state = wire::JobState::kSuspended;
        free_slots_ += job.ranks;
        slots_held = false;
        registry_.add_counter("server.jobs.preempted", 1);
        cv_.notify_all();
        schedule_locked();
        return;
      }
      domain::StepReport rep = sim.step();
      {
        std::lock_guard<std::mutex> lk(mu_);
        job.steps_done = s + 1;
        metrics::merge(job_metrics_, label_job_metrics(rep.metrics, job.id));
        registry_.set_gauge(with_job_label("job.num_particles", job.id),
                            static_cast<double>(rep.num_particles));
        registry_.set_gauge(with_job_label("job.steps_done", job.id), job.steps_done);
        if (job.snapshot_requested) {
          job.live_snapshot.job_id = job.id;
          job.live_snapshot.next_step = s + 1;
          job.live_snapshot.sets = sim.checkpoint_sets();
          job.snapshot_requested = false;
        }
        // Only the per-job bench file reads the reports; without one a
        // finished job would hold them until shutdown. The file carries no
        // spans, so a kept report drops them.
        if (!cfg_.bench_dir.empty()) {
          rep.spans = {};
          job.reports.push_back(std::move(rep));
        }
        cv_.notify_all();
      }
    }

    // The final state goes to the spool file (replacing any checkpoint) as a
    // one-set snapshot, not into memory: a finished job stays queryable for
    // the server's lifetime, and resident results would grow without bound.
    wire::SnapshotMsg result;
    result.job_id = job.id;
    result.next_step = job.steps_done;  // written only by this thread
    result.sets.push_back(sim.gather());
    write_snapshot_file(job.spool_path, result);
    const double ke = sim.kinetic_energy();
    const double pe = sim.potential_energy();
    if (!cfg_.bench_dir.empty()) write_job_bench(job);
    std::lock_guard<std::mutex> lk(mu_);
    job.kinetic = ke;
    job.potential = pe;
    free_slots_ += job.ranks;
    slots_held = false;
    finish_locked(job, wire::JobState::kCompleted, "");
  } catch (const std::exception& e) {
    std::lock_guard<std::mutex> lk(mu_);
    if (slots_held) free_slots_ += job.ranks;
    finish_locked(job, wire::JobState::kFailed, e.what());
  }
}

void JobServer::write_job_bench(const Job& job) {
  domain::RunInfo info;
  info.ranks = job.ranks;
  info.num_particles = static_cast<std::size_t>(job.n_particles);
  info.theta = job.spec.theta;
  info.transport = "serve";
  info.topology = "none";
  info.cluster = "serve";
  info.balance = "count";
  info.kernel = kernel_backend_name(job.spec.kernel);
  const std::string path = cfg_.bench_dir + "/job-" + std::to_string(job.id) + ".json";
  std::ofstream out(path);
  if (!out) {
    std::cerr << "serve: cannot write bench file " << path << "\n";
    return;
  }
  domain::write_step_report_json(info, job.reports, out);
}

}  // namespace bonsai::serve
