// Versioned wire format for inter-rank messages (the serialization layer the
// ROADMAP names as the blocker for real transports, §III-B of the paper).
//
// Every message is a self-describing *frame*: a fixed 16-byte header
// (magic, version, frame type, payload length) followed by a flat
// little-endian payload. Frames are what a Transport moves between ranks —
// live C++ objects never cross the rank boundary, so an MPI or socket
// backend carries exactly the same bytes as the in-process loopback.
//
// Decoding validates hard: magic/version/type/length are checked before any
// payload read, every payload read is bounds-checked against the buffer, and
// structural invariants of decoded trees (node kinds, child ranges pointing
// strictly forward, particle ranges inside the payload arrays) are enforced.
// A malformed frame throws WireError; it never reads out of bounds and never
// produces a tree the traversal could walk off of.
//
// Each frame's layout is written once: wire.cpp holds one field list per
// frame, walked by the encoder and the decoder alike. A layout change is one
// edit to that list, a kVersion bump and a regeneration of the seed corpora
// under tests/fuzz/corpora/ (corpus_dump).
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "domain/let.hpp"
#include "domain/metrics.hpp"
#include "domain/rank.hpp"
#include "tree/particle.hpp"
#include "util/flops.hpp"
#include "util/trace.hpp"

namespace bonsai::domain::wire {

// Frame header constants. The magic bytes spell "BNSW" on the wire.
// Version 3 extends Hello with the worker's mesh listen port and adds the
// PeerDirectory / PeerHello handshake frames of the mesh topology. Version 4
// adds the Trace frame (span traces + metric deltas shipped alongside
// StepResult) and the trace flag in Config. Version 5 adds the kernel-backend
// selector to Config and the batched-engine counters (padded interactions,
// batch counts, batch-size histogram) to the StepResult interaction stats.
// Version 6 adds the job-server client protocol (JobSubmit / JobStatus /
// JobResult / JobCancel / Snapshot) and the live metrics scrape
// (MetricsQuery / MetricsReport). Version 7 adds the incremental LET
// exchange: the LetDelta frame (a versioned per-pair patch against the LET
// the peer already holds), the let-cache/churn knobs in Config, and the
// delta accounting counters in StepResult. Version 8 drops the coordinator-
// owned ("hub") step: StepBegin loses its bounds/active/boxes fields and the
// hub mode byte, and StepResult its particle payload. Version 9 makes spans
// the only timing source: StepResult carries the rank's span log and the two
// worker clock samples instead of named stage times and wire seconds, the
// Trace frame (type 13, never reused) and the trace byte of Config are gone.
// Version 10 drops the churn ratio from Config: it became a constant.
// Version 11 drops the curve and balance bytes from Config (keys are Hilbert,
// cuts weigh counted walk work) and adds the per-particle work column to the
// Particles force block. Version 12 makes the records the
// only source of the step report's wire rows and LET totals: StepResult loses
// its LET cell/particle counts and its three frames/bytes tallies (the traffic
// matrix and the LET size records carry both), Let and LetDelta frames lose
// the unread export seconds, and Config loses the quadrupole byte. Version 13
// ships every LET as a full Let frame: the LetDelta frame (type 21, never
// reused), the let-cache byte of Config and the delta counters of StepResult
// are gone.
inline constexpr std::uint32_t kMagic = 0x57534E42u;
inline constexpr std::uint16_t kVersion = 13;
inline constexpr std::size_t kHeaderBytes = 16;

enum class FrameType : std::uint16_t {
  kLet = 1,        // one rank's LET for one remote rank
  kParticles = 2,  // particle batch (in-process migration cell, gather reply)
  kHello = 3,      // worker -> coordinator: rank id + mesh listen port
  kConfig = 4,     // coordinator -> worker: simulation parameters
  kStepBegin = 5,  // coordinator -> worker: step trigger (+ bootstrap batch)
  kStepResult = 6, // worker -> coordinator: timings, stats, energies
  kShutdown = 7,   // coordinator -> worker: exit cleanly; client -> job server:
                   // stop serving
  kBoundaries = 8, // SPMD allgather: one rank's local bounds/population/weight
  kKeySamples = 9, // SPMD allgather: one rank's sampled SFC keys
  kMigration = 10, // SPMD peer-to-peer: owner-changing particles (alltoallv cell)
  kPeerDirectory = 11,  // coordinator -> worker: every worker's mesh endpoint
  kPeerHello = 12,      // worker -> worker: dialing rank's id on a fresh mesh link
                        // 13: the retired Trace frame (wire v4-v8)
  kJobSubmit = 14,      // client -> job server: job spec (+ optional explicit IC)
  kJobStatus = 15,      // client <-> job server: status request / description
  kJobResult = 16,      // job server -> client: terminal state + final particles
  kJobCancel = 17,      // client -> job server: cancel a queued or running job
  kSnapshot = 18,       // checkpoint/snapshot: per-rank populations + step
  kMetricsQuery = 19,   // client -> job server: scrape the metrics registry
  kMetricsReport = 20,  // job server -> client: the registry snapshot
                        // 21: the retired LetDelta frame (wire v7-v12)
};

// Human-readable frame type name for reports ("Let", "Migration", ...).
const char* frame_type_name(FrameType type);

// Malformed/truncated/mismatched frame. Decoders throw this (and only this)
// for any byte-level problem.
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

// Validate the header of `frame` (magic, version, frame type, payload length
// against the buffer size) and return its type. Throws WireError on any
// mismatch, and on a type that names no live FrameType (0, a retired number,
// or one past the last).
FrameType frame_type(std::span<const std::uint8_t> frame);

// Serialization accounting of one frame class: frames/bytes moved plus the
// seconds spent encoding and decoding them, reported per step next to the
// compute stages. None of it crosses the wire: frames and bytes are sums of
// the step's traffic matrix, the seconds of the ranks' wire.encode.* /
// wire.decode.* spans.
struct WireStats {
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
  double encode_seconds = 0.0;
  double decode_seconds = 0.0;
};

// Size record of one imported LET: the step report's LET totals and
// histogram are sums over these.
struct LetSizeSample {
  std::uint64_t cells = 0;
  std::uint64_t particles = 0;
  std::uint64_t bytes = 0;
};

// One cell of the per-peer traffic matrix: frames/bytes posted from `src` to
// `dst` of one frame type. Sent-side accounting only, so summing cells never
// double-counts a frame; the step report and --bench JSON carry the matrix
// so per-type traffic is directly measurable.
struct PeerTraffic {
  int src = 0;
  int dst = 0;
  std::uint16_t type = 0;  // FrameType as its wire value
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
};

// Merge `add` into `into`, summing cells with equal (src, dst, type) and
// keeping the result sorted by that key.
void merge_traffic(std::vector<PeerTraffic>& into, std::span<const PeerTraffic> add);

// A decoded LET from rank `src`, carrying the encoded frame size for the LET
// size records.
struct LetMessage {
  int src = -1;
  LetTree let;
  std::uint64_t wire_bytes = 0;
};

// --- LET frames --------------------------------------------------------------
// The encoders read the exported tree in place; a LetMessage is only what the
// decoders return.
std::vector<std::uint8_t> encode_let(int src, const LetTree& let);
LetMessage decode_let(std::span<const std::uint8_t> frame);

// bench/ remnant: the benchmark reads these two counters through
// LetExchange::delta_stats, which src/ always answers with zeros. Every LET
// crosses the wire as a full Let frame.
struct LetDeltaStats {
  std::uint64_t delta_frames = 0;
  std::uint64_t bytes_saved = 0;
};

// --- Particle-migration batches ----------------------------------------------
// A batch owns full particle state; forces/potential/work ride along only
// when `with_forces` (the worker -> coordinator result direction). Migration
// batches travel force-free — forces are recomputed every step.
struct ParticleBatch {
  int src = -1;
  bool with_forces = false;
  ParticleSet parts;
};

std::vector<std::uint8_t> encode_particles(int src, const ParticleSet& parts,
                                           bool with_forces);
ParticleBatch decode_particles(std::span<const std::uint8_t> frame);

// --- Cluster control frames (coordinator <-> out-of-process workers) ---------
// The first frame on every worker -> coordinator connection. `listen_port`
// is the port the worker's own mesh listener is bound to (0: star topology,
// the worker accepts no peer connections).
struct Hello {
  int rank = -1;
  std::uint16_t listen_port = 0;
};

std::vector<std::uint8_t> encode_hello(int rank, std::uint16_t listen_port = 0);
Hello decode_hello(std::span<const std::uint8_t> frame);

// --- Mesh-topology handshake frames ------------------------------------------
// One worker's dialable endpoint, as the coordinator's rendezvous learned it
// from the Hello handshake.
struct PeerEndpoint {
  std::string host;
  std::uint16_t port = 0;
};

// The rendezvous directory the coordinator broadcasts before Config in mesh
// topology: entry r is rank r's listen endpoint. Workers dial every
// higher-ranked entry; lower ranks accept, so each pair meets exactly once.
std::vector<std::uint8_t> encode_peer_directory(std::span<const PeerEndpoint> peers);
std::vector<PeerEndpoint> decode_peer_directory(std::span<const std::uint8_t> frame);

// The dialing worker's rank announcement, first frame on a fresh mesh link.
std::vector<std::uint8_t> encode_peer_hello(int rank);
int decode_peer_hello(std::span<const std::uint8_t> frame);

std::vector<std::uint8_t> encode_config(const SimConfig& cfg);
SimConfig decode_config(std::span<const std::uint8_t> frame);

// What a StepBegin asks the worker to do. Byte 0 (the old coordinator-owned
// step) is rejected.
enum class StepMode : std::uint8_t {
  kSpmdBootstrap = 1,  // batch seeds the resident state, then run SPMD phases
  kSpmdStep = 2,       // empty batch: step the resident state via SPMD phases
  kCollect = 3,        // no step: reply with the resident particles (+forces)
};

// A bare step trigger, plus the bootstrap batch on the first step: workers
// derive the key space, the active set and the domain boxes themselves from
// the Boundaries/KeySamples allgathers.
struct StepBegin {
  int step = 0;
  StepMode mode = StepMode::kSpmdStep;
  ParticleSet parts;
};

std::vector<std::uint8_t> encode_step_begin(const StepBegin& sb);
StepBegin decode_step_begin(std::span<const std::uint8_t> frame);

// --- SPMD domain frames ------------------------------------------------------
// One rank's contribution to the distributed domain update, posted to every
// peer. Pre-migration (phase 1) it carries the local particle bounds, the
// population and the rank's cost weight (the mean counted walk work of its
// particles' last force pass; 0 before the first) — enough for every rank to
// build the identical global KeySpace, sample stride and weight vector.
// Post-migration (phase 4) the same frame re-announces the rank's new
// population and tight box, which is what peers build LETs against.
struct Boundaries {
  int src = -1;
  int step = 0;
  bool post_migration = false;
  std::uint64_t count = 0;  // local population (0: box is default/invalid)
  AABB box;
  double weight = 0.0;
};

std::vector<std::uint8_t> encode_boundaries(const Boundaries& b);
Boundaries decode_boundaries(std::span<const std::uint8_t> frame);

// One rank's sampled SFC keys (phase 2): pooled in rank order by every
// receiver, so all ranks cut the identical Decomposition.
struct KeySamples {
  int src = -1;
  int step = 0;
  std::vector<sfc::Key> keys;
};

std::vector<std::uint8_t> encode_key_samples(const KeySamples& ks);
KeySamples decode_key_samples(std::span<const std::uint8_t> frame);

// One (src, dst) cell of the SPMD particle alltoallv (phase 3): the
// particles of `src` whose new owner is the destination rank. Always
// force-free — forces are recomputed every step.
struct MigrationMsg {
  int src = -1;
  int step = 0;
  ParticleSet parts;
};

std::vector<std::uint8_t> encode_migration(int src, int step, const ParticleSet& parts);
MigrationMsg decode_migration(std::span<const std::uint8_t> frame);

// A rank's step output: its span log, traffic matrix, imported-LET size
// records, interaction statistics and the local population/energy summary —
// never particles, which stay resident on the worker. `boundaries` carries the
// Decomposition the rank computed so the driver can cross-check that all
// ranks derived the identical partition. Every stage row, the schedule model
// and the wire seconds are derived from `spans`, the wire frames and bytes
// from `traffic`, and the LET totals from `let_sizes`.
// A socket worker also samples its clock when the StepBegin is in hand
// (`recv_ns`) and just before encoding this frame (`send_ns`), for the
// coordinator's clock-offset estimate.
struct StepResult {
  int rank = -1;
  InteractionStats local_stats, remote_stats;
  std::uint64_t migrated = 0;     // emigrants this rank posted (SPMD)
  std::uint64_t local_count = 0;  // resident population after the step
  double kinetic = 0.0;           // local kinetic-energy partial sum
  double potential = 0.0;         // local potential-energy partial sum
  std::vector<LetSizeSample> let_sizes;  // one per imported LET
  std::vector<sfc::Key> boundaries;  // SPMD: computed decomposition bounds
  std::vector<PeerTraffic> traffic;  // frames this worker posted, per peer/type
  std::int64_t recv_ns = 0;          // worker clock: StepBegin decoded
  std::int64_t send_ns = 0;          // worker clock: this frame about to encode
  std::vector<trace::Span> spans;    // the rank's span log of the step
};

std::vector<std::uint8_t> encode_step_result(const StepResult& sr);
StepResult decode_step_result(std::span<const std::uint8_t> frame);

std::vector<std::uint8_t> encode_shutdown();

// --- Job-server client protocol (wire v6; see src/serve/) --------------------
// Lifecycle of a job on the server. Rejected/Failed/Cancelled/Completed are
// terminal; Suspended jobs hold a disk checkpoint and resume when slots free.
enum class JobState : std::uint8_t {
  kQueued = 0,     // admitted, waiting for rank slots
  kRunning = 1,    // stepping on its slice of the rank pool
  kSuspended = 2,  // preempted: checkpointed to disk, slots released
  kCompleted = 3,  // all steps done, result available
  kCancelled = 4,  // cancelled by a client before completion
  kFailed = 5,     // runner threw; reason carries the message
  kRejected = 6,   // admission control refused it; reason names the limit
};

// Human-readable state name ("queued", "running", ...).
const char* job_state_name(JobState state);

// What a client asks the server to run. When `parts` is empty the server
// generates a Plummer sphere from (n, seed); otherwise `parts` is the
// explicit force-free initial condition (e.g. a --snapshot-in file) and `n`
// is ignored. `ranks` = 0 lets the scheduler size the job's slice of the
// rank pool; `priority` orders the queue, and a higher-priority job may
// preempt a running lower-priority one.
struct JobSpec {
  std::string name;
  std::uint64_t n = 0;
  std::uint64_t seed = 42;
  std::int32_t steps = 1;
  std::int32_t ranks = 0;
  std::int32_t priority = 0;
  double theta = 0.4;
  double eps = 1e-2;
  double dt = 1e-3;
  KernelBackend kernel = KernelBackend::kSimd;
  ParticleSet parts;
};

std::vector<std::uint8_t> encode_job_submit(const JobSpec& spec);
JobSpec decode_job_submit(std::span<const std::uint8_t> frame);

// One job's description. Client -> server it is a request (only job_id —
// and `wait`, which asks the server to block until the job is terminal and
// answer with a JobResult frame instead); server -> client it is the reply
// to a submit, status or cancel, fully filled. `reason` carries the
// admission-rejection or failure detail.
struct JobStatusMsg {
  std::int32_t job_id = -1;
  JobState state = JobState::kQueued;
  bool wait = false;
  std::int32_t steps_done = 0;
  std::int32_t steps_total = 0;
  std::int32_t ranks = 0;
  std::int32_t priority = 0;
  std::uint64_t n = 0;
  std::string reason;
};

std::vector<std::uint8_t> encode_job_status(const JobStatusMsg& status);
JobStatusMsg decode_job_status(std::span<const std::uint8_t> frame);

// Terminal answer to a `wait` request: the final state, energies, and — for
// completed jobs — the particle population with forces, sorted by id.
struct JobResultMsg {
  std::int32_t job_id = -1;
  JobState state = JobState::kCompleted;
  std::int32_t steps_done = 0;
  double kinetic = 0.0;
  double potential = 0.0;
  std::string reason;
  ParticleSet parts;
};

std::vector<std::uint8_t> encode_job_result(const JobResultMsg& result);
JobResultMsg decode_job_result(std::span<const std::uint8_t> frame);

std::vector<std::uint8_t> encode_job_cancel(std::int32_t job_id);
std::int32_t decode_job_cancel(std::span<const std::uint8_t> frame);

// A checkpoint/snapshot: the per-rank populations in array order (forces and
// walk work included) plus the step counter. These are the complete input of
// the next step (its cut weighs the carried work), so restoring them into a
// fresh Simulation with the same config resumes bit-for-bit — this frame is
// the job server's preemption checkpoint, the --snapshot-out/--snapshot-in
// file format, and the reply to a client's snapshot request (an empty-`sets`
// Snapshot frame carrying the job id).
struct SnapshotMsg {
  std::int32_t job_id = -1;  // -1: standalone file outside the server
  std::int32_t next_step = 0;
  std::vector<ParticleSet> sets;
};

std::vector<std::uint8_t> encode_snapshot(const SnapshotMsg& snap);
SnapshotMsg decode_snapshot(std::span<const std::uint8_t> frame);

// Live scrape of a running server's metrics registry (job-labeled step
// aggregates plus the server's own counters/gauges).
std::vector<std::uint8_t> encode_metrics_query();
std::vector<std::uint8_t> encode_metrics_report(const metrics::Snapshot& snapshot);
metrics::Snapshot decode_metrics_report(std::span<const std::uint8_t> frame);

}  // namespace bonsai::domain::wire
