// bonsai_sim: multi-rank gravitational tree-code driver.
//
// Runs the full per-step pipeline of the paper on a domain decomposition
// (see src/domain/) and prints per-stage timing tables in the style of
// Table II. Ranks live either in-process (--transport inproc, the default)
// or in separate worker processes connected over localhost TCP
// (--transport socket); both speak the same serialized wire frames.
// `--validate` additionally checks the multi-rank forces against a
// single-rank run and against direct summation. Invoked with --rank-id and
// --coordinator, the binary instead runs as one socket worker.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "domain/cluster.hpp"
#include "domain/simulation.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/snapshot.hpp"
#include "tree/direct.hpp"
#include "util/cli.hpp"
#include "util/compare.hpp"
#include "util/ic.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

void register_flags(bonsai::CommandLine& cli) {
  cli.add_switch("help", "print this listing and exit");
  cli.add_option("n", "N", "particles (default 16384)");
  cli.add_option("ranks", "R", "ranks (default 4)");
  cli.add_option("steps", "S", "simulation steps (default 4)");
  cli.add_option("dt", "DT", "timestep; 0 = forces only (default 1e-3)");
  cli.add_option("theta", "T", "opening angle (default 0.4)");
  cli.add_option("eps", "E", "Plummer softening (default 1e-2)");
  cli.add_option("nleaf", "L", "leaf capacity (default 16)");
  cli.add_option("ncrit", "C", "target-group size (default 64)");
  cli.add_option("threads", "T", "threads per rank (default: hardware/ranks)");
  cli.add_option("seed", "S", "RNG seed (default 42)");
  cli.add_option("kernel", "B",
                 "scalar | simd: force backend draining the batched "
                 "interaction lists (default simd)");
  cli.add_option("drift", "V",
                 "add a uniform bulk velocity of magnitude V to the initial "
                 "conditions (a drifting cloud; default 0)");
  cli.add_option("bench", "FILE", "write per-step reports as JSON to FILE");
  cli.add_option("trace", "FILE",
                 "write every step's merged spans as Chrome trace-event JSON "
                 "(open in Perfetto) to FILE");
  cli.add_switch("validate", "compare forces vs 1-rank run and direct summation");
  cli.add_option("transport", "KIND",
                 "inproc | socket: where ranks live (default inproc)");
  cli.add_option("port", "P", "socket coordinator listen port (default: ephemeral)");
  cli.add_switch("no-spawn",
                 "socket coordinator: wait for externally launched workers");
  cli.add_option("rank-id", "K", "worker mode: serve rank K for a coordinator");
  cli.add_option("coordinator", "HOST:PORT", "worker mode: coordinator address");
  cli.add_option("listen-port", "P",
                 "worker mode: own listen port for peer links (default: ephemeral)");
  cli.add_option("snapshot-in", "FILE",
                 "read initial particles from a snapshot file instead of "
                 "generating a Plummer model");
  cli.add_option("snapshot-out", "FILE",
                 "write the final particle state as a snapshot file (also the "
                 "client-side sink for --job-snapshot / --job-wait)");
  cli.add_option("serve", "P",
                 "run as a resident job server on 127.0.0.1:P (0 = ephemeral)");
  cli.add_option("pool-slots", "S", "job server: total rank slots (default: hardware)");
  cli.add_option("max-jobs", "J", "job server: max resident jobs (default 8)");
  cli.add_option("max-particles", "N",
                 "job server: max resident particles across jobs (default 4194304)");
  cli.add_option("spool-dir", "DIR",
                 "job server: preemption checkpoint directory (default .)");
  cli.add_option("serve-bench", "DIR", "job server: write per-job bench JSON into DIR");
  cli.add_option("server", "HOST:PORT", "client mode: job server address");
  cli.add_switch("submit",
                 "client: submit a job described by --n/--steps/--theta/--eps/"
                 "--dt/--seed/--kernel (or --snapshot-in as the IC)");
  cli.add_option("job-name", "NAME", "client submit: job name label");
  cli.add_option("job-ranks", "R",
                 "client submit: explicit rank count (default 0: the scheduler "
                 "sizes the job by its share of resident particles)");
  cli.add_option("priority", "P",
                 "client submit: scheduling priority; a higher-priority job may "
                 "preempt a running lower-priority one (default 0)");
  cli.add_switch("wait", "client submit: block until the job finishes");
  cli.add_option("job-status", "ID", "client: poll one job's status");
  cli.add_option("job-wait", "ID", "client: block until job ID reaches a terminal state");
  cli.add_option("job-cancel", "ID", "client: cancel job ID");
  cli.add_option("job-snapshot", "ID",
                 "client: fetch job ID's current snapshot (--snapshot-out FILE)");
  cli.add_switch("server-metrics", "client: scrape the server metrics registry as JSON");
  cli.add_switch("server-shutdown", "client: stop the server");
}

// Parse HOST:PORT (shared by --coordinator and --server).
std::pair<std::string, std::uint16_t> parse_host_port(const std::string& value,
                                                      const char* flag) {
  const auto colon = value.rfind(':');
  if (colon == std::string::npos || colon + 1 == value.size())
    throw bonsai::CliError(std::string(flag) + " expects HOST:PORT, got '" + value + "'");
  const std::string port_str = value.substr(colon + 1);
  char* end = nullptr;
  const long port_val = std::strtol(port_str.c_str(), &end, 10);
  if (end == port_str.c_str() || *end != '\0' || port_val < 1 || port_val > 65535)
    throw bonsai::CliError(std::string(flag) + ": bad port '" + port_str + "'");
  return {value.substr(0, colon), static_cast<std::uint16_t>(port_val)};
}

// A count flag (--n, --steps): a negative value is a usage error naming the
// flag, not a fatal allocation failure or a silent no-op run.
std::int64_t get_count(const bonsai::CommandLine& cli, const std::string& flag,
                       std::int64_t fallback) {
  const std::int64_t value = cli.get_int(flag, fallback);
  if (value < 0)
    throw bonsai::CliError("--" + flag + ": expected a count >= 0, got '" +
                           std::to_string(value) + "'");
  return value;
}

// --theta: the opening angle, finite and > 0 (the walk's MAC divides by it).
double get_theta(const bonsai::CommandLine& cli) {
  const double theta = cli.get_double("theta", 0.4);
  if (!(std::isfinite(theta) && theta > 0.0))
    throw bonsai::CliError("--theta: expected a finite angle > 0, got '" +
                           cli.get("theta", "") + "'");
  return theta;
}

// --eps: the Plummer softening, finite and >= 0.
double get_eps(const bonsai::CommandLine& cli) {
  const double eps = cli.get_double("eps", 1e-2);
  if (!(std::isfinite(eps) && eps >= 0.0))
    throw bonsai::CliError("--eps: expected a finite softening >= 0, got '" +
                           cli.get("eps", "") + "'");
  return eps;
}

// --dt: the timestep, finite (0 = forces only; integration multiplies by it).
double get_dt(const bonsai::CommandLine& cli) {
  const double dt = cli.get_double("dt", 1e-3);
  if (!std::isfinite(dt))
    throw bonsai::CliError("--dt: expected a finite timestep, got '" + cli.get("dt", "") + "'");
  return dt;
}

// --nleaf / --ncrit: a leaf capacity or target-group size, at least 1.
int get_size(const bonsai::CommandLine& cli, const std::string& flag, int fallback) {
  const std::int64_t value = cli.get_int(flag, fallback);
  if (value < 1 || value > std::numeric_limits<int>::max())
    throw bonsai::CliError("--" + flag + ": expected a size >= 1, got '" +
                           std::to_string(value) + "'");
  return static_cast<int>(value);
}

// Parse --kernel (default simd). The error lists every backend by its
// kernel_backend_name, so it names exactly the values the parser accepts.
bonsai::KernelBackend parse_kernel(const bonsai::CommandLine& cli) {
  const std::string name = cli.get("kernel", "simd");
  if (const auto kernel = bonsai::kernel_backend_from_name(name)) return *kernel;
  std::string expected;
  for (const bonsai::KernelBackend b : bonsai::kKernelBackends)
    expected += (expected.empty() ? "" : " or ") + std::string(bonsai::kernel_backend_name(b));
  throw bonsai::CliError("--kernel: expected " + expected + ", got '" + name + "'");
}

// Write the --bench trajectory; returns false (with a message) on I/O error.
bool write_bench(const std::string& path, const bonsai::domain::RunInfo& info,
                 std::span<const bonsai::domain::StepReport> reports) {
  if (path.empty()) return true;
  std::ofstream out(path);
  if (!out) {
    std::cerr << "bonsai_sim: cannot open bench file: " << path << "\n";
    return false;
  }
  bonsai::domain::write_step_report_json(info, reports, out);
  std::cout << "bench: wrote " << reports.size() << " step report(s) to " << path << "\n";
  return true;
}

// Write the --trace file: every step's merged spans as one Chrome trace-event
// JSON, one pid per rank (coordinator first). Returns false on I/O error.
bool write_trace(const std::string& path,
                 std::span<const bonsai::domain::StepReport> reports) {
  if (path.empty()) return true;
  std::vector<bonsai::trace::Span> spans;
  for (const auto& rep : reports)
    spans.insert(spans.end(), rep.spans.begin(), rep.spans.end());
  std::map<int, std::string> names;
  for (const auto& s : spans)
    names.emplace(s.rank, s.rank < 0 ? std::string("coordinator")
                                     : "rank " + std::to_string(s.rank));
  std::ofstream out(path);
  if (!out) {
    std::cerr << "bonsai_sim: cannot open trace file: " << path << "\n";
    return false;
  }
  bonsai::trace::write_chrome_trace(out, spans, names);
  std::cout << "trace: wrote " << spans.size() << " span(s) to " << path << "\n";
  return true;
}

// One validated forces-only step of `multi` (in-process or cluster driver)
// against a 1-rank run and direct summation.
template <typename SimT>
int run_validation(SimT& multi, const bonsai::domain::SimConfig& force_cfg,
                   const bonsai::ParticleSet& initial, const bonsai::domain::RunInfo& info,
                   const std::string& bench_path, const std::string& trace_path) {
  using namespace bonsai;
  multi.init(initial);
  domain::StepReport rep = multi.step();
  print_step_report(rep, std::cout);
  if (!write_bench(bench_path, info, {&rep, 1})) return 2;
  if (!write_trace(trace_path, {&rep, 1})) return 2;
  ParticleSet gathered = multi.gather();

  domain::SimConfig single_cfg = force_cfg;
  single_cfg.nranks = 1;
  domain::Simulation single(single_cfg);
  single.init(initial);
  single.step();
  ParticleSet reference = single.gather();

  const double rms = rms_acc_diff(gathered, reference);
  const double med_vs_single = median_acc_error(gathered, reference);

  // Direct-summation spot check on a deterministic subset.
  const std::size_t nsub = std::min<std::size_t>(gathered.size(), 256);
  std::vector<std::uint32_t> subset;
  Xoshiro256 rng(991);
  for (std::size_t i = 0; i < nsub; ++i)
    subset.push_back(static_cast<std::uint32_t>(rng() % gathered.size()));
  ParticleSet direct = gathered;
  direct_forces_subset(direct, force_cfg.eps, subset);
  std::vector<double> direct_err;
  for (const std::uint32_t i : subset)
    direct_err.push_back(norm(gathered.acc(i) - direct.acc(i)) /
                         std::max(norm(direct.acc(i)), 1e-300));
  const double med_vs_direct = percentile(direct_err, 0.5);

  std::cout << "validate: rms |a_multi - a_single| = " << rms
            << "  (median rel = " << med_vs_single << ")\n"
            << "validate: median rel error vs direct (subset of " << nsub
            << ") = " << med_vs_direct << "\n";

  // The group-MAC envelope for the shared theta (matching the bounds the
  // tier-1 traversal tests use), and the direct-sum theta tolerance.
  const double mac_bound = force_cfg.theta <= 0.3 ? 2e-4 : force_cfg.theta <= 0.5 ? 1e-3 : 5e-3;
  const double direct_bound = force_cfg.theta <= 0.3 ? 2e-5 : force_cfg.theta <= 0.5 ? 2e-4 : 2e-3;
  const bool ok = med_vs_single < mac_bound && med_vs_direct < direct_bound;
  std::cout << (ok ? "validate: PASS\n" : "validate: FAIL\n");
  return ok ? 0 : 1;
}

// The plain step loop with per-step reports and energy diagnostics. With
// `snapshot_out`, gather() writes the final state (forces included) as one
// id-sorted set, so two runs that agree bitwise on the physics write
// byte-identical files whatever their transport — `cmp`-able by CI.
template <typename SimT>
int run_steps(SimT& sim, const bonsai::ParticleSet& initial, int steps,
              const bonsai::domain::RunInfo& info, const std::string& bench_path,
              const std::string& trace_path, const std::string& snapshot_out) {
  sim.init(initial);
  std::vector<bonsai::domain::StepReport> reports;
  reports.reserve(static_cast<std::size_t>(std::max(steps, 0)));
  for (int s = 0; s < steps; ++s) {
    reports.push_back(sim.step());
    // Only --trace reads the spans; a long run would otherwise hold them all.
    if (trace_path.empty()) reports.back().spans = {};
    print_step_report(reports.back(), std::cout);
    const double ke = sim.kinetic_energy();
    const double pe = sim.potential_energy();
    std::cout << "energy: K=" << bonsai::TextTable::num(ke, 6)
              << " W=" << bonsai::TextTable::num(pe, 6)
              << " E=" << bonsai::TextTable::num(ke + pe, 6) << "\n\n";
  }
  if (!write_bench(bench_path, info, reports)) return 2;
  if (!write_trace(trace_path, reports)) return 2;
  if (!snapshot_out.empty()) {
    bonsai::domain::wire::SnapshotMsg snap;
    snap.job_id = -1;
    snap.next_step = steps;
    snap.sets.push_back(sim.gather());
    bonsai::serve::write_snapshot_file(snapshot_out, snap);
    std::cout << "snapshot: wrote " << snap.sets[0].size() << " particle(s) to "
              << snapshot_out << "\n";
  }
  return 0;
}

// Worker mode: --transport socket --rank-id K --coordinator HOST:PORT
// [--listen-port P].
int run_worker_mode(const bonsai::CommandLine& cli) {
  const auto [host, port] = parse_host_port(cli.get("coordinator", "127.0.0.1:0"),
                                            "--coordinator");
  const int rank_id = static_cast<int>(cli.get_int("rank-id", -1));
  const auto threads = static_cast<std::size_t>(get_count(cli, "threads", 0));
  const std::int64_t listen_port = cli.get_int("listen-port", 0);
  if (listen_port < 0 || listen_port > 65535)
    throw bonsai::CliError("--listen-port: expected 0-65535, got '" +
                           std::to_string(listen_port) + "'");
  return bonsai::domain::run_worker(host, port, rank_id, threads,
                                    static_cast<std::uint16_t>(listen_port));
}

// Server mode: --serve P. Resident until a client sends --server-shutdown.
int run_serve_mode(const bonsai::CommandLine& cli) {
  const std::int64_t port = cli.get_int("serve", 0);
  if (port < 0 || port > 65535)
    throw bonsai::CliError("--serve: expected 0-65535, got '" + std::to_string(port) + "'");
  bonsai::serve::ServerConfig scfg;
  scfg.port = static_cast<std::uint16_t>(port);
  scfg.limits.pool_slots = static_cast<int>(cli.get_int("pool-slots", 0));
  scfg.limits.max_concurrent_jobs = static_cast<int>(cli.get_int("max-jobs", 8));
  scfg.limits.max_resident_particles =
      static_cast<std::uint64_t>(cli.get_int("max-particles", 4194304));
  scfg.spool_dir = cli.get("spool-dir", ".");
  scfg.bench_dir = cli.get("serve-bench", "");
  if (scfg.limits.max_concurrent_jobs < 1 || scfg.limits.max_resident_particles < 1)
    throw bonsai::CliError("--max-jobs/--max-particles must be at least 1");
  bonsai::serve::JobServer server(scfg);
  // Flushed line with the bound port, so scripts can wait for readiness.
  std::cout << "serve: job server on 127.0.0.1:" << server.port()
            << " pool_slots=" << server.pool_slots()
            << " max_jobs=" << scfg.limits.max_concurrent_jobs
            << " max_particles=" << scfg.limits.max_resident_particles << std::endl;
  server.wait_for_shutdown();
  std::cout << "serve: shutdown requested, draining\n";
  server.shutdown();
  return 0;
}

void print_job_status(const bonsai::domain::wire::JobStatusMsg& st) {
  std::cout << "job " << st.job_id << ": " << bonsai::domain::wire::job_state_name(st.state)
            << " steps " << st.steps_done << "/" << st.steps_total << " ranks=" << st.ranks
            << " priority=" << st.priority << " n=" << st.n;
  if (!st.reason.empty()) std::cout << " (" << st.reason << ")";
  std::cout << "\n";
}

// Render a terminal job result; writes the final state as a snapshot file
// when `snapshot_out` is given. Exit code 0 only for a completed job.
int print_job_result(const bonsai::domain::wire::JobResultMsg& res,
                     const std::string& snapshot_out) {
  namespace wire = bonsai::domain::wire;
  std::cout << "job " << res.job_id << ": " << wire::job_state_name(res.state)
            << " steps_done=" << res.steps_done;
  if (res.state == wire::JobState::kCompleted)
    std::cout << " K=" << bonsai::TextTable::num(res.kinetic, 6)
              << " W=" << bonsai::TextTable::num(res.potential, 6)
              << " E=" << bonsai::TextTable::num(res.kinetic + res.potential, 6);
  if (!res.reason.empty()) std::cout << " (" << res.reason << ")";
  std::cout << "\n";
  if (!snapshot_out.empty() && res.parts.size() > 0) {
    wire::SnapshotMsg snap;
    snap.job_id = res.job_id;
    snap.next_step = res.steps_done;
    snap.sets.push_back(res.parts);
    bonsai::serve::write_snapshot_file(snapshot_out, snap);
    std::cout << "snapshot: wrote " << res.parts.size() << " particle(s) to "
              << snapshot_out << "\n";
  }
  return res.state == wire::JobState::kCompleted ? 0 : 1;
}

// Client mode: --server HOST:PORT plus exactly one action flag.
int run_client_mode(const bonsai::CommandLine& cli) {
  namespace wire = bonsai::domain::wire;
  namespace serve = bonsai::serve;
  const auto [host, port] = parse_host_port(cli.get("server", ""), "--server");
  const std::string snapshot_out = cli.get("snapshot-out", "");

  if (cli.get_bool("server-shutdown", false)) {
    serve::request_shutdown(host, port);
    std::cout << "server: shutdown requested\n";
    return 0;
  }
  if (cli.get_bool("server-metrics", false)) {
    bonsai::metrics::to_json(std::cout, serve::fetch_metrics(host, port));
    std::cout << "\n";
    return 0;
  }
  if (cli.has("job-status")) {
    const auto st = serve::job_status(host, port,
                                      static_cast<std::int32_t>(cli.get_int("job-status", -1)));
    print_job_status(st);
    return st.state == wire::JobState::kRejected ? 1 : 0;
  }
  if (cli.has("job-cancel")) {
    const auto st = serve::cancel_job(host, port,
                                      static_cast<std::int32_t>(cli.get_int("job-cancel", -1)));
    print_job_status(st);
    return st.state == wire::JobState::kRejected ? 1 : 0;
  }
  if (cli.has("job-wait")) {
    return print_job_result(
        serve::wait_job(host, port, static_cast<std::int32_t>(cli.get_int("job-wait", -1))),
        snapshot_out);
  }
  if (cli.has("job-snapshot")) {
    const auto id = static_cast<std::int32_t>(cli.get_int("job-snapshot", -1));
    const wire::SnapshotMsg snap = serve::fetch_snapshot(host, port, id);
    std::size_t total = 0;
    for (const auto& s : snap.sets) total += s.size();
    std::cout << "job " << id << ": snapshot at step " << snap.next_step << " with "
              << snap.sets.size() << " rank set(s), " << total << " particle(s)\n";
    if (snapshot_out.empty())
      throw bonsai::CliError("--job-snapshot needs --snapshot-out FILE");
    serve::write_snapshot_file(snapshot_out, snap);
    std::cout << "snapshot: wrote " << total << " particle(s) to " << snapshot_out << "\n";
    return total > 0 ? 0 : 1;
  }
  if (cli.get_bool("submit", false)) {
    wire::JobSpec spec;
    spec.name = cli.get("job-name", "");
    spec.n = static_cast<std::uint64_t>(get_count(cli, "n", 16384));
    spec.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
    spec.steps = static_cast<std::int32_t>(get_count(cli, "steps", 4));
    spec.ranks = static_cast<std::int32_t>(cli.get_int("job-ranks", 0));
    spec.priority = static_cast<std::int32_t>(cli.get_int("priority", 0));
    spec.theta = get_theta(cli);
    spec.eps = get_eps(cli);
    spec.dt = get_dt(cli);
    spec.kernel = parse_kernel(cli);
    const std::string snapshot_in = cli.get("snapshot-in", "");
    if (!snapshot_in.empty())
      spec.parts = serve::flatten_snapshot(serve::read_snapshot_file(snapshot_in));
    const auto st = serve::submit_job(host, port, spec);
    if (st.state == wire::JobState::kRejected) {
      std::cout << "rejected: " << st.reason << "\n";
      return 1;
    }
    std::cout << "submitted job " << st.job_id << " n=" << st.n << " steps="
              << st.steps_total << " priority=" << st.priority << std::endl;
    if (cli.get_bool("wait", false))
      return print_job_result(serve::wait_job(host, port, st.job_id), snapshot_out);
    return 0;
  }
  throw bonsai::CliError(
      "--server needs one of --submit, --job-status, --job-wait, --job-cancel, "
      "--job-snapshot, --server-metrics, --server-shutdown");
}

}  // namespace

int main(int argc, char** argv) {
  bonsai::CommandLine cli;
  register_flags(cli);
  try {
    cli.parse(argc, argv);

    if (cli.get_bool("help", false)) {
      std::cout << cli.help("bonsai_sim", "multi-rank Barnes-Hut gravity driver");
      return 0;
    }

    if (cli.has("serve")) return run_serve_mode(cli);
    if (cli.has("server")) return run_client_mode(cli);

    const std::string transport = cli.get("transport", "inproc");
    if (transport != "inproc" && transport != "socket")
      throw bonsai::CliError("--transport: expected inproc or socket, got '" + transport +
                             "'");
    const bool socket_mode = transport == "socket";

    if (cli.has("rank-id")) {
      if (!socket_mode)
        throw bonsai::CliError("--rank-id only applies to --transport socket workers");
      return run_worker_mode(cli);
    }
    if (cli.has("listen-port"))
      throw bonsai::CliError("--listen-port only applies to --rank-id workers");

    bonsai::domain::SimConfig cfg;
    auto n = static_cast<std::size_t>(get_count(cli, "n", 16384));
    const std::int64_t ranks = cli.get_int("ranks", 4);
    // The wire Config, PeerDirectory and Snapshot decoders cap ranks at 255.
    if (ranks < 1 || ranks > 255)
      throw bonsai::CliError("--ranks: expected 1-255, got '" + std::to_string(ranks) + "'");
    cfg.nranks = static_cast<int>(ranks);
    cfg.theta = get_theta(cli);
    cfg.eps = get_eps(cli);
    cfg.nleaf = get_size(cli, "nleaf", bonsai::Octree::kDefaultNLeaf);
    cfg.ncrit = get_size(cli, "ncrit", 64);
    cfg.dt = get_dt(cli);
    cfg.threads_per_rank = static_cast<std::size_t>(get_count(cli, "threads", 0));
    cfg.kernel = parse_kernel(cli);
    const std::string bench_path = cli.get("bench", "");
    const std::string trace_path = cli.get("trace", "");
    const auto steps = static_cast<int>(get_count(cli, "steps", 4));
    const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
    const bool validate = cli.get_bool("validate", false);

    const std::string snapshot_in = cli.get("snapshot-in", "");
    const std::string snapshot_out = cli.get("snapshot-out", "");
    if (!snapshot_out.empty() && validate)
      throw bonsai::CliError(
          "--snapshot-out applies to plain runs (it writes the final particle "
          "state after the last step, not the validation comparison)");

    bonsai::ParticleSet initial;
    if (!snapshot_in.empty()) {
      initial = bonsai::serve::flatten_snapshot(bonsai::serve::read_snapshot_file(snapshot_in));
      n = initial.size();
      std::cout << "snapshot: read " << n << " particle(s) from " << snapshot_in << "\n";
    } else {
      initial = bonsai::make_plummer(n, seed);
    }
    const double drift = cli.get_double("drift", 0.0);
    if (!std::isfinite(drift))
      throw bonsai::CliError("--drift: expected a finite velocity, got '" + cli.get("drift", "") +
                             "'");
    if (drift != 0.0) {
      // A bulk velocity keeps the cloud coherent while its bounding boxes and
      // tree geometry translate every step, so the domain cut and the LETs
      // change every step.
      for (std::size_t i = 0; i < initial.size(); ++i) {
        initial.vx[i] += drift;
        initial.vy[i] += 0.5 * drift;
        initial.vz[i] += 0.25 * drift;
      }
    }

    bonsai::domain::RunInfo info;
    info.ranks = cfg.nranks;
    info.num_particles = n;
    info.theta = cfg.theta;
    info.transport = transport;
    info.kernel = bonsai::kernel_backend_name(cfg.kernel);

    std::cout << "bonsai_sim: n=" << n << " ranks=" << cfg.nranks << " theta=" << cfg.theta
              << " eps=" << cfg.eps << " dt=" << cfg.dt << " steps=" << steps
              << " transport=" << transport
              << " kernel=" << bonsai::kernel_backend_name(cfg.kernel)
              << " kernel_isa=" << bonsai::kernel_isa() << "\n";

    if (socket_mode) {
      const std::int64_t port = cli.get_int("port", 0);
      if (port < 0 || port > 65535)
        throw bonsai::CliError("--port: expected 0-65535, got '" +
                               std::to_string(port) + "'");
      if (cli.get_bool("no-spawn", false) && port == 0)
        throw bonsai::CliError(
            "--no-spawn needs a fixed --port: external workers cannot learn "
            "an ephemeral port (the coordinator blocks before printing it)");
      bonsai::domain::ClusterConfig ccfg;
      ccfg.sim = cfg;
      if (validate) ccfg.sim.dt = 0.0;  // forces-only comparison
      ccfg.port = static_cast<std::uint16_t>(port);
      ccfg.spawn_workers = !cli.get_bool("no-spawn", false);
      ccfg.program = argv[0];
      ccfg.worker_threads = cfg.threads_per_rank;
      bonsai::domain::ClusterSimulation sim(ccfg);
      std::cout << "cluster: coordinator on 127.0.0.1:" << sim.port() << " driving "
                << cfg.nranks << (ccfg.spawn_workers ? " spawned" : " external")
                << " worker process(es)\n";
      if (validate)
        return run_validation(sim, ccfg.sim, initial, info, bench_path, trace_path);
      return run_steps(sim, initial, steps, info, bench_path, trace_path, snapshot_out);
    }

    if (validate) {
      bonsai::domain::SimConfig force_cfg = cfg;
      force_cfg.dt = 0.0;
      bonsai::domain::Simulation sim(force_cfg);
      return run_validation(sim, force_cfg, initial, info, bench_path, trace_path);
    }
    bonsai::domain::Simulation sim(cfg);
    return run_steps(sim, initial, steps, info, bench_path, trace_path, snapshot_out);
  } catch (const bonsai::CliError& e) {
    std::cerr << "bonsai_sim: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "bonsai_sim: fatal: " << e.what() << "\n";
    return 2;
  }
  return 0;
}
