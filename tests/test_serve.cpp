// Job-server subsystem: snapshot files round-trip bit-for-bit, admission
// control rejects with the limit's name, the rank-pool scheduler runs jobs
// concurrently and preempts by priority, a preempted-and-resumed job ends
// bit-for-bit identical to an uninterrupted run, and per-job metrics/bench
// outputs never mix jobs.
#include <gtest/gtest.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <chrono>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "domain/simulation.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/snapshot.hpp"
#include "util/ic.hpp"

namespace bonsai {
namespace {

namespace wire = domain::wire;
using serve::JobServer;
using serve::ServerConfig;

constexpr const char* kHost = "127.0.0.1";

// The deterministic job config the server runs: the async pipeline with one
// thread per rank (the bit-for-bit resume contract).
domain::SimConfig job_sim_config(int ranks, const wire::JobSpec& spec) {
  domain::SimConfig cfg;
  cfg.nranks = ranks;
  cfg.theta = spec.theta;
  cfg.eps = spec.eps;
  cfg.dt = spec.dt;
  cfg.kernel = spec.kernel;
  cfg.threads_per_rank = 1;
  return cfg;
}

ServerConfig test_server_config(const std::string& tag) {
  ServerConfig cfg;
  cfg.port = 0;
  cfg.spool_dir = testing::TempDir() + "bonsai-serve-" + tag;
  return cfg;
}

wire::JobSpec small_job(std::uint64_t n, std::int32_t steps) {
  wire::JobSpec spec;
  spec.n = n;
  spec.seed = 42;
  spec.steps = steps;
  spec.theta = 0.5;
  spec.dt = 1e-3;
  return spec;
}

// Poll a job until `pred` holds or the deadline passes; returns last status.
template <typename Pred>
wire::JobStatusMsg poll_until(std::uint16_t port, std::int32_t id, Pred pred,
                              int timeout_ms = 30000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  wire::JobStatusMsg st;
  while (std::chrono::steady_clock::now() < deadline) {
    st = serve::job_status(kHost, port, id);
    if (pred(st)) return st;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return st;
}

void expect_same_particles(const ParticleSet& a, const ParticleSet& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.x, b.x);  // bit-for-bit doubles throughout
  EXPECT_EQ(a.y, b.y);
  EXPECT_EQ(a.z, b.z);
  EXPECT_EQ(a.vx, b.vx);
  EXPECT_EQ(a.vy, b.vy);
  EXPECT_EQ(a.vz, b.vz);
  EXPECT_EQ(a.ax, b.ax);
  EXPECT_EQ(a.ay, b.ay);
  EXPECT_EQ(a.az, b.az);
  EXPECT_EQ(a.pot, b.pot);
  EXPECT_EQ(a.work, b.work);
}

// One numeric field ("VmSize:", "Threads:") of /proc/self/status; -1 when
// absent or without procfs.
long proc_status_field(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind(key, 0) == 0) return std::stol(line.substr(key.size()));
  return -1;
}

// VmSize of this process in KiB.
long vm_size_kib() { return proc_status_field("VmSize:"); }

TEST(Snapshot, FileRoundTripsCheckpointBitForBit) {
  domain::SimConfig cfg;
  cfg.nranks = 3;
  cfg.threads_per_rank = 1;
  cfg.dt = 1e-3;
  domain::Simulation sim(cfg);
  sim.init(make_plummer(1024, 5));
  sim.step();
  sim.step();

  wire::SnapshotMsg snap;
  snap.job_id = 7;
  snap.next_step = sim.next_step();
  snap.sets = sim.checkpoint_sets();

  const std::string path = testing::TempDir() + "bonsai-ckpt-roundtrip.snap";
  serve::write_snapshot_file(path, snap);
  const wire::SnapshotMsg back = serve::read_snapshot_file(path);
  EXPECT_EQ(back.job_id, 7);
  EXPECT_EQ(back.next_step, 2);
  ASSERT_EQ(back.sets.size(), 3u);
  for (std::size_t r = 0; r < 3; ++r) {
    expect_same_particles(back.sets[r], snap.sets[r]);
    EXPECT_EQ(back.sets[r].key, snap.sets[r].key);
  }

  // Restoring the file into a fresh Simulation continues bit-for-bit with
  // the original (same config, async/1-thread).
  domain::Simulation restored(cfg);
  restored.restore(back.sets, back.next_step);
  sim.step();
  restored.step();
  expect_same_particles(restored.gather(), sim.gather());

  EXPECT_THROW(serve::read_snapshot_file(path + ".missing"), std::runtime_error);
}

TEST(Snapshot, FlattenConcatenatesRankSetsInOrder) {
  wire::SnapshotMsg snap;
  snap.sets.resize(2);
  snap.sets[0] = make_plummer(10, 1);
  snap.sets[1] = make_plummer(6, 2);
  snap.sets[1].ax[0] = 3.5;
  snap.sets[1].key[0] = 77;
  const ParticleSet flat = serve::flatten_snapshot(snap);
  ASSERT_EQ(flat.size(), 16u);
  EXPECT_EQ(flat.x[0], snap.sets[0].x[0]);
  EXPECT_EQ(flat.x[10], snap.sets[1].x[0]);
  EXPECT_EQ(flat.ax[10], 3.5);  // forces and keys survive the flatten
  EXPECT_EQ(flat.key[10], 77u);
}

TEST(Serve, WithJobLabelExtendsExistingLabelSets) {
  EXPECT_EQ(serve::with_job_label("step.elapsed_s", 3), "step.elapsed_s{job=3}");
  EXPECT_EQ(serve::with_job_label("wire.let.bytes{rank=2}", 14),
            "wire.let.bytes{rank=2,job=14}");
}

TEST(Serve, JobMetricsKeepWireAggregatesNotTrafficCells) {
  metrics::Snapshot step;
  step.counters["wire.dom.bytes"] = 96.0;
  step.counters["transport.post.bytes{src=0,dst=1,type=Boundaries}"] = 48.0;
  step.gauges["step.elapsed_s"] = 0.5;
  const metrics::Snapshot job = serve::label_job_metrics(step, 7);
  EXPECT_EQ(job.counters.size(), 1u);
  EXPECT_EQ(job.counters.at("wire.dom.bytes{job=7}"), 96.0);
  EXPECT_EQ(job.gauges.at("step.elapsed_s{job=7}"), 0.5);
}

TEST(Serve, ServerRunsTwoJobsConcurrently) {
  ServerConfig cfg = test_server_config("concurrent");
  cfg.limits.pool_slots = 2;
  JobServer server(cfg);

  // Explicit one-slot jobs: a lone auto-sized job would take the whole pool
  // (its share of resident particles is 1.0 at submit time).
  wire::JobSpec spec = small_job(2048, 8);
  spec.ranks = 1;
  const auto j1 = serve::submit_job(kHost, server.port(), spec);
  const auto j2 = serve::submit_job(kHost, server.port(), spec);
  ASSERT_NE(j1.state, wire::JobState::kRejected) << j1.reason;
  ASSERT_NE(j2.state, wire::JobState::kRejected) << j2.reason;
  ASSERT_NE(j1.job_id, j2.job_id);

  // Both must hold a slot at once: poll until both report kRunning in the
  // same sweep.
  bool both_running = false;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!both_running && std::chrono::steady_clock::now() < deadline) {
    const auto s1 = serve::job_status(kHost, server.port(), j1.job_id);
    const auto s2 = serve::job_status(kHost, server.port(), j2.job_id);
    if (s1.state == wire::JobState::kCompleted || s2.state == wire::JobState::kCompleted)
      break;  // too fast to observe overlap — the wait asserts below still run
    both_running = s1.state == wire::JobState::kRunning &&
                   s2.state == wire::JobState::kRunning;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(both_running) << "jobs never overlapped on the pool";

  const auto r1 = serve::wait_job(kHost, server.port(), j1.job_id);
  const auto r2 = serve::wait_job(kHost, server.port(), j2.job_id);
  EXPECT_EQ(r1.state, wire::JobState::kCompleted);
  EXPECT_EQ(r2.state, wire::JobState::kCompleted);
  EXPECT_EQ(r1.steps_done, 8);
  EXPECT_EQ(r1.parts.size(), 2048u);
  EXPECT_EQ(r2.parts.size(), 2048u);
  EXPECT_LT(r1.potential, 0.0);
}

TEST(Serve, AdmissionRejectsNamingTheViolatedLimit) {
  {
    ServerConfig cfg = test_server_config("admit-jobs");
    cfg.limits.pool_slots = 1;
    cfg.limits.max_concurrent_jobs = 1;
    JobServer server(cfg);
    const auto ok = serve::submit_job(kHost, server.port(), small_job(2048, 50));
    ASSERT_NE(ok.state, wire::JobState::kRejected) << ok.reason;
    const auto rej = serve::submit_job(kHost, server.port(), small_job(2048, 1));
    EXPECT_EQ(rej.state, wire::JobState::kRejected);
    EXPECT_NE(rej.reason.find("max_concurrent_jobs=1"), std::string::npos) << rej.reason;
    serve::cancel_job(kHost, server.port(), ok.job_id);
    serve::wait_job(kHost, server.port(), ok.job_id);
  }
  {
    ServerConfig cfg = test_server_config("admit-parts");
    cfg.limits.pool_slots = 1;
    cfg.limits.max_resident_particles = 1000;
    JobServer server(cfg);
    const auto rej = serve::submit_job(kHost, server.port(), small_job(2000, 1));
    EXPECT_EQ(rej.state, wire::JobState::kRejected);
    EXPECT_NE(rej.reason.find("max_resident_particles=1000"), std::string::npos)
        << rej.reason;
    // A fitting job is still admitted afterwards.
    const auto ok = serve::submit_job(kHost, server.port(), small_job(512, 1));
    EXPECT_NE(ok.state, wire::JobState::kRejected) << ok.reason;
    EXPECT_EQ(serve::wait_job(kHost, server.port(), ok.job_id).state,
              wire::JobState::kCompleted);
  }
}

TEST(Serve, OutOfRangePhysicsIsRejectedAtSubmit) {
  // theta 0 used to be admitted, hold its slots and fail in the walk's
  // check; eps -1 ran with the wrong softening, and a NaN or infinite dt
  // "completed" with non-finite energies. All are rejected where the spec is
  // decoded, naming the field, and count as rejected submissions.
  ServerConfig cfg = test_server_config("admit-physics");
  cfg.limits.pool_slots = 1;
  JobServer server(cfg);
  wire::JobSpec theta0 = small_job(512, 1);
  theta0.theta = 0.0;
  const auto r1 = serve::submit_job(kHost, server.port(), theta0);
  EXPECT_EQ(r1.state, wire::JobState::kRejected);
  EXPECT_NE(r1.reason.find("theta"), std::string::npos) << r1.reason;
  wire::JobSpec eps_neg = small_job(512, 1);
  eps_neg.eps = -1.0;
  const auto r2 = serve::submit_job(kHost, server.port(), eps_neg);
  EXPECT_EQ(r2.state, wire::JobState::kRejected);
  EXPECT_NE(r2.reason.find("eps"), std::string::npos) << r2.reason;
  for (const double dt : {std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::infinity()}) {
    wire::JobSpec bad_dt = small_job(512, 1);
    bad_dt.dt = dt;
    const auto r = serve::submit_job(kHost, server.port(), bad_dt);
    EXPECT_EQ(r.state, wire::JobState::kRejected);
    EXPECT_NE(r.reason.find("dt"), std::string::npos) << r.reason;
  }
  EXPECT_EQ(serve::fetch_metrics(kHost, server.port()).counters.at("server.jobs.rejected"),
            4.0);
  // Neither holds the one slot: a valid job runs to completion.
  const auto ok = serve::submit_job(kHost, server.port(), small_job(512, 1));
  ASSERT_NE(ok.state, wire::JobState::kRejected) << ok.reason;
  EXPECT_EQ(serve::wait_job(kHost, server.port(), ok.job_id).state,
            wire::JobState::kCompleted);
}

TEST(Serve, CancelQueuedAndRunningJobs) {
  ServerConfig cfg = test_server_config("cancel");
  cfg.limits.pool_slots = 1;
  JobServer server(cfg);

  const auto running = serve::submit_job(kHost, server.port(), small_job(4096, 100));
  const auto queued = serve::submit_job(kHost, server.port(), small_job(4096, 100));
  ASSERT_NE(running.state, wire::JobState::kRejected) << running.reason;
  ASSERT_EQ(queued.state, wire::JobState::kQueued);  // pool of 1 is taken
  poll_until(server.port(), running.job_id,
             [](const wire::JobStatusMsg& s) { return s.state == wire::JobState::kRunning; });

  // The queued job holds no slots: cancellation is immediate.
  const auto c2 = serve::cancel_job(kHost, server.port(), queued.job_id);
  EXPECT_EQ(c2.state, wire::JobState::kCancelled);

  // The running job cancels at its next step boundary.
  serve::cancel_job(kHost, server.port(), running.job_id);
  const auto r1 = serve::wait_job(kHost, server.port(), running.job_id);
  EXPECT_EQ(r1.state, wire::JobState::kCancelled);
  EXPECT_LT(r1.steps_done, 100);

  const auto metrics = serve::fetch_metrics(kHost, server.port());
  EXPECT_EQ(metrics.counters.at("server.jobs.cancelled"), 2.0);

  // Cancelling an unknown id is a clean rejection, not a hang.
  EXPECT_EQ(serve::cancel_job(kHost, server.port(), 999).state,
            wire::JobState::kRejected);
}

TEST(Serve, PreemptedJobResumesBitForBitWithUninterruptedRun) {
  ServerConfig cfg = test_server_config("preempt");
  cfg.limits.pool_slots = 2;
  JobServer server(cfg);

  // Low-priority job holding the whole pool.
  wire::JobSpec low = small_job(3000, 8);
  low.ranks = 2;
  low.priority = 0;
  const auto j1 = serve::submit_job(kHost, server.port(), low);
  ASSERT_NE(j1.state, wire::JobState::kRejected) << j1.reason;
  poll_until(server.port(), j1.job_id, [](const wire::JobStatusMsg& s) {
    return s.state == wire::JobState::kRunning && s.steps_done >= 1;
  });

  // A higher-priority job that cannot fit forces a checkpoint-suspend.
  wire::JobSpec high = small_job(2048, 2);
  high.ranks = 2;
  high.priority = 5;
  const auto j2 = serve::submit_job(kHost, server.port(), high);
  ASSERT_EQ(j2.state, wire::JobState::kQueued);  // pool is full until the preempt

  const auto r2 = serve::wait_job(kHost, server.port(), j2.job_id);
  EXPECT_EQ(r2.state, wire::JobState::kCompleted);
  const auto r1 = serve::wait_job(kHost, server.port(), j1.job_id);
  ASSERT_EQ(r1.state, wire::JobState::kCompleted);
  EXPECT_EQ(r1.steps_done, 8);

  const auto metrics = serve::fetch_metrics(kHost, server.port());
  ASSERT_TRUE(metrics.counters.count("server.jobs.preempted"))
      << "high-priority job never forced a suspend";
  EXPECT_GE(metrics.counters.at("server.jobs.preempted"), 1.0);
  EXPECT_GE(metrics.counters.at("server.jobs.resumed"), 1.0);

  // Reference: the same job uninterrupted, in-process, same deterministic
  // config. The preempt/resume cycle must not change a single bit.
  domain::Simulation ref(job_sim_config(2, low));
  ref.init(make_plummer(low.n, low.seed));
  for (int s = 0; s < low.steps; ++s) ref.step();
  expect_same_particles(r1.parts, ref.gather());
}

// True when some metric of `m` labeled with job `id` is one of its step
// metrics (step.*, wire.*, stage.*, ...): anything but the job.* gauges.
bool has_step_metrics(const metrics::Snapshot& m, std::int32_t id) {
  // with_job_label appends the job label last.
  const std::string label = "job=" + std::to_string(id) + "}";
  const auto names_job = [&](const std::string& name) {
    return name.rfind("job.", 0) != 0 && name.ends_with(label);
  };
  for (const auto& [name, v] : m.counters)
    if (names_job(name)) return true;
  for (const auto& [name, v] : m.gauges)
    if (names_job(name)) return true;
  for (const auto& [name, h] : m.histograms)
    if (names_job(name)) return true;
  return false;
}

TEST(Serve, SnapshotOfRunningJobAndMetricsIsolation) {
  ServerConfig cfg = test_server_config("isolate");
  cfg.limits.pool_slots = 2;
  cfg.bench_dir = testing::TempDir() + "bonsai-serve-isolate-bench";
  JobServer server(cfg);

  // Two live jobs: each one's step metrics carry its own label and its own
  // particle count. They run until cancelled, so the scrape sees both live.
  {
    wire::JobSpec a = small_job(1024, 1000000);
    wire::JobSpec b = small_job(2048, 1000000);
    a.ranks = 1;
    b.ranks = 1;
    const std::int32_t ids[] = {serve::submit_job(kHost, server.port(), a).job_id,
                                serve::submit_job(kHost, server.port(), b).job_id};
    for (const std::int32_t id : ids)
      ASSERT_GE(poll_until(server.port(), id, [](const wire::JobStatusMsg& s) {
                  return s.steps_done >= 1;
                }).steps_done, 1);
    const auto live = serve::fetch_metrics(kHost, server.port());
    EXPECT_EQ(live.gauges.at(serve::with_job_label("step.num_particles", ids[0])), 1024.0);
    EXPECT_EQ(live.gauges.at(serve::with_job_label("step.num_particles", ids[1])), 2048.0);
    EXPECT_TRUE(live.counters.count(serve::with_job_label("wire.let.bytes", ids[0])));
    EXPECT_TRUE(live.counters.count(serve::with_job_label("wire.let.bytes", ids[1])));
    const std::string la = "job=" + std::to_string(ids[0]);
    const std::string lb = "job=" + std::to_string(ids[1]);
    for (const auto& [name, v] : live.counters) {
      if (name.rfind("server.", 0) == 0) continue;  // server-level counters
      EXPECT_TRUE(name.find(la) != std::string::npos || name.find(lb) != std::string::npos)
          << "unlabeled job metric leaked: " << name;
    }
    for (const std::int32_t id : ids) serve::cancel_job(kHost, server.port(), id);
    for (const std::int32_t id : ids)
      EXPECT_EQ(serve::wait_job(kHost, server.port(), id).state, wire::JobState::kCancelled);
    // A finished job drops its step metrics.
    const auto after = serve::fetch_metrics(kHost, server.port());
    for (const std::int32_t id : ids)
      EXPECT_FALSE(has_step_metrics(after, id)) << "cancelled job " << id;
  }

  wire::JobSpec a = small_job(1024, 4);
  wire::JobSpec b = small_job(2048, 4);
  a.ranks = 1;
  b.ranks = 1;
  const auto ja = serve::submit_job(kHost, server.port(), a);
  const auto jb = serve::submit_job(kHost, server.port(), b);

  const auto ra = serve::wait_job(kHost, server.port(), ja.job_id);
  const auto rb = serve::wait_job(kHost, server.port(), jb.job_id);
  ASSERT_EQ(ra.state, wire::JobState::kCompleted);
  ASSERT_EQ(rb.state, wire::JobState::kCompleted);

  // A completed job's snapshot is its result as one set, and the result is
  // served from the spool identically on every request.
  const wire::SnapshotMsg snap = serve::fetch_snapshot(kHost, server.port(), ja.job_id);
  ASSERT_EQ(snap.sets.size(), 1u);
  EXPECT_EQ(snap.next_step, 4);
  expect_same_particles(snap.sets[0], ra.parts);
  expect_same_particles(serve::wait_job(kHost, server.port(), ja.job_id).parts, ra.parts);

  // A completed job keeps only its job.* gauges in the registry, each with
  // its own n; its step metrics are gone.
  const auto metrics = serve::fetch_metrics(kHost, server.port());
  const std::string ga = serve::with_job_label("job.num_particles", ja.job_id);
  const std::string gb = serve::with_job_label("job.num_particles", jb.job_id);
  ASSERT_TRUE(metrics.gauges.count(ga));
  ASSERT_TRUE(metrics.gauges.count(gb));
  EXPECT_EQ(metrics.gauges.at(ga), 1024.0);
  EXPECT_EQ(metrics.gauges.at(gb), 2048.0);
  EXPECT_EQ(metrics.gauges.at(serve::with_job_label("job.steps_done", ja.job_id)), 4.0);
  EXPECT_FALSE(has_step_metrics(metrics, ja.job_id));
  EXPECT_FALSE(has_step_metrics(metrics, jb.job_id));

  // Bench isolation: each job's JSON names its own config, 4 steps each,
  // every step its metrics block (schema 6).
  const std::vector<std::pair<int, int>> expect = {{ja.job_id, 1024}, {jb.job_id, 2048}};
  for (const auto& [id, n] : expect) {
    std::ifstream in(cfg.bench_dir + "/job-" + std::to_string(id) + ".json");
    ASSERT_TRUE(in.good()) << "missing bench for job " << id;
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string body = ss.str();
    const std::string config = body.substr(0, body.find("\"steps\""));
    EXPECT_NE(config.find("\"schema\": 6"), std::string::npos) << config;
    EXPECT_EQ(config.find("\"balance\""), std::string::npos) << config;
    EXPECT_EQ(config.find("\"let_cache\""), std::string::npos) << config;
    EXPECT_NE(config.find("\"num_particles\": " + std::to_string(n)), std::string::npos);
    EXPECT_NE(config.find("\"transport\": \"serve\""), std::string::npos);
    EXPECT_EQ(config.find("\"cluster\""), std::string::npos) << config;
    for (int step = 0; step < 4; ++step)
      EXPECT_NE(body.find("{\"step\": " + std::to_string(step) + ", \"metrics\": "),
                std::string::npos);
    EXPECT_NE(body.find("\"schedule.overlap_efficiency\""), std::string::npos);
    const auto count = [&](const std::string& needle) {
      std::size_t k = 0;
      for (auto at = body.find(needle); at != std::string::npos; at = body.find(needle, at + 1))
        ++k;
      return k;
    };
    EXPECT_EQ(count("\"step.num_particles\":" + std::to_string(n)), 4u);
    EXPECT_EQ(count("\"step.num_particles\":" + std::to_string(n == 1024 ? 2048 : 1024)), 0u)
        << "cross-job data in bench for job " << id;
  }
}

// Finished client handlers and job runners are joined while the server runs,
// not parked until shutdown: an unjoined exited thread keeps its whole stack
// mapping, so every request and every job used to grow the address space by
// a thread stack (about 8 MiB each).
TEST(Serve, FinishedThreadsAreJoinedWhileServing) {
  if (vm_size_kib() < 0) GTEST_SKIP() << "no /proc/self/status";
#if defined(__GLIBC__)
  // glibc maps a new 64 MiB malloc arena whenever threads contend for the
  // allocator, so on a loaded host VmSize grew by up to 320 MiB with the
  // live thread count falling (7 -> 3): no leak. One arena leaves VmSize
  // measuring what this test is about, thread stacks.
  mallopt(M_ARENA_MAX, 1);
#endif
  JobServer server(test_server_config("reap"));
  const std::uint16_t port = server.port();
  // Each round: one tiny job waited to completion, then `polls` status
  // requests on fresh connections.
  auto run_rounds = [&](int rounds, int polls) {
    for (int r = 0; r < rounds; ++r) {
      const wire::JobStatusMsg st = serve::submit_job(kHost, port, small_job(256, 1));
      ASSERT_NE(st.state, wire::JobState::kRejected) << st.reason;
      ASSERT_EQ(serve::wait_job(kHost, port, st.job_id).state, wire::JobState::kCompleted);
      for (int p = 0; p < polls; ++p)
        ASSERT_EQ(serve::job_status(kHost, port, st.job_id).state,
                  wire::JobState::kCompleted);
    }
  };
  run_rounds(2, 10);  // warm up allocator arenas and the thread-stack cache
  const long before_kib = vm_size_kib();
  const long threads_before = proc_status_field("Threads:");
  run_rounds(20, 20);  // 20 jobs, 400 status requests
  const long growth_mib = (vm_size_kib() - before_kib) / 1024;
  const long threads_after = proc_status_field("Threads:");
  // The live thread count tells a leak (threads pile up) from allocator
  // arenas a loaded host may add (VmSize grows, threads do not).
  EXPECT_LT(growth_mib, 256) << "VmSize grew by " << growth_mib << " MiB; threads "
                             << threads_before << " -> " << threads_after;
}

}  // namespace
}  // namespace bonsai
