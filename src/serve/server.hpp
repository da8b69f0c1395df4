// Resident job server: the coordinator promoted to a multi-tenant service
// (`bonsai_sim --serve`). Clients speak the wire v6 job protocol over plain
// framed TCP (domain/net.hpp): submit a job spec, poll or block on status,
// cancel, fetch snapshots, scrape metrics.
//
// Structure:
//  * Admission control — a submit is rejected (with a reason naming the
//    limit) when the resident job count would exceed max_concurrent_jobs or
//    the resident particle total would exceed max_resident_particles.
//  * Rank-pool scheduler — the server owns `pool_slots` rank slots; each job
//    runs an in-process Simulation on its assigned slice (1 thread per
//    rank). Explicit `ranks` requests are honored (clamped to the pool);
//    auto-sized jobs reuse the cost-balance machinery: every resident job
//    weighs in with its particle count, apply_cost_floor() keeps small jobs
//    from collapsing to zero, and the job's share of the pool is its share
//    of the floored weight. Queued work starts in (priority desc, FIFO)
//    order as slots free up.
//  * Preemption — when the best waiting job cannot fit and a strictly
//    lower-priority job is running, the victim is asked to suspend: at its
//    next step boundary it checkpoints to a spool file (the wire Snapshot
//    frame on disk) and releases its slots. Jobs run one thread per rank and
//    the checkpoint carries the walk work the next cut weighs, so a resumed
//    job continues bit-for-bit — which is
//    what lets the queue oversubscribe the pool safely. A completed job's
//    result lives in the same spool file (a one-set Snapshot), not in
//    memory, so finished jobs do not accumulate resident particles.
//  * Per-job isolation — while a job is resident, its step metrics appear in
//    every scrape under a {job=N} label; a finished job keeps only its
//    job.* gauges there. Each completed job can write its own --bench-shaped
//    JSON (bench_dir/job-N.json). Nothing of one job appears under another's
//    label.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "domain/metrics.hpp"
#include "domain/net.hpp"
#include "domain/wire.hpp"

namespace bonsai::serve {

// Pool-slot accounting invariant: 0 <= free <= total, and the running jobs'
// rank counts sum to exactly the slots handed out (total - free). The
// scheduler re-proves this under mu_ after every transition in Debug and
// sanitizer builds; exposed as a free function so tests can probe it
// directly. Throws CheckError on violation.
void check_pool_slots(int pool_slots, int free_slots, std::span<const int> running_ranks);

// Admission and pool limits. Rejection messages name the violated limit.
struct ServerLimits {
  int max_concurrent_jobs = 8;  // resident jobs: queued + running + suspended
  std::uint64_t max_resident_particles = std::uint64_t{1} << 22;
  int pool_slots = 0;  // total rank slots; 0 = hardware_concurrency
};

struct ServerConfig {
  std::uint16_t port = 0;  // 0: ephemeral, read back via port()
  ServerLimits limits;
  std::string spool_dir = ".";  // preemption checkpoints: job-<id>.ckpt
  std::string bench_dir;        // per-job bench JSON: job-<id>.json ("" = off)
};

// Rewrite a metric name to carry a {job=N} label (appended to an existing
// label set, or opening a new one) — the per-job isolation scheme of the
// server registry.
std::string with_job_label(std::string name, int job_id);

// Label every metric in `m` with {job=N}, except the per-(src, dst, frame
// type) traffic cells (transport.post.*): the server keeps a running job's
// metrics, and the cells, O(ranks^2 x frame types) per job, would dominate
// them. The wire.* counters keep each job's volume per frame class; the
// job's --serve-bench JSON keeps the full matrix.
metrics::Snapshot label_job_metrics(const metrics::Snapshot& m, int job_id);

// The resident server. Construction binds the listener and starts serving;
// destruction (or shutdown()) stops accepting, cancels unfinished jobs and
// joins every thread. wait_for_shutdown() parks the --serve main thread
// until a client sends a Shutdown frame.
class JobServer {
 public:
  explicit JobServer(const ServerConfig& cfg);
  ~JobServer();
  JobServer(const JobServer&) = delete;
  JobServer& operator=(const JobServer&) = delete;

  std::uint16_t port() const { return listener_.port(); }
  int pool_slots() const { return pool_slots_; }

  void wait_for_shutdown();
  void shutdown();

 private:
  struct Job;

  // A server thread and its exit mark. The thread sets `exited` (under the
  // mutex guarding its list) as its very last action, after everything it
  // owned is torn down, so joining it afterwards never waits on teardown
  // and never blocks on a lock the joiner holds.
  struct Worker {
    Worker() = default;
    Worker(const Worker&) = delete;  // the thread holds this Worker's address
    Worker& operator=(const Worker&) = delete;
    std::thread thread;
    bool exited = false;
  };
  // Join and drop every exited worker in `workers`; the caller holds the
  // list's mutex.
  static void reap_exited(std::list<Worker>& workers);

  void accept_loop();
  void handle_client(domain::FrameSocket sock, Worker& self);
  domain::wire::JobStatusMsg handle_submit(domain::wire::JobSpec spec);
  domain::wire::JobStatusMsg handle_cancel(std::int32_t job_id);
  domain::wire::JobResultMsg wait_result(std::int32_t job_id);
  domain::wire::SnapshotMsg handle_snapshot(std::int32_t job_id);
  metrics::Snapshot scrape_metrics();

  // Scheduler core; callers hold mu_.
  void schedule_locked();
  void check_pool_locked() const;
  int size_ranks_locked(const Job& job) const;
  domain::wire::JobStatusMsg describe_locked(const Job& job) const;

  // Job runner thread body: run_job_steps, then the exit mark.
  void run_job(Job& job, Worker& self);
  void run_job_steps(Job& job);
  void finish_locked(Job& job, domain::wire::JobState state, const std::string& reason);
  void write_job_bench(const Job& job);

  ServerConfig cfg_;
  int pool_slots_ = 0;
  domain::Listener listener_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<int, std::unique_ptr<Job>> jobs_;
  int next_job_id_ = 1;
  int free_slots_ = 0;
  bool shutting_down_ = false;
  bool shutdown_requested_ = false;
  // Server-level counters and the job.* gauges. A scrape merges the resident
  // jobs' own labeled step metrics into it.
  metrics::Registry registry_;

  // Job runner threads (guarded by mu_). A suspended job resumes on a fresh
  // runner while the old one may still be unwinding, so runners are tracked
  // per thread, not per job. Exited runners are reaped by schedule_locked().
  std::list<Worker> runners_;

  std::mutex conn_mu_;
  std::vector<domain::FrameSocket*> conns_;  // live client sockets, for shutdown()
  std::list<Worker> handlers_;       // guarded by conn_mu_; reaped on accept
  std::thread accept_thread_;
};

}  // namespace bonsai::serve
