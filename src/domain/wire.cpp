#include "domain/wire.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <tuple>

#include "util/check.hpp"

namespace bonsai::domain::wire {

namespace {

constexpr bool kHostLittle = std::endian::native == std::endian::little;

// Per-node wire footprint: keys (16) + particle range (8) + child link (5) +
// level/kind (2) + box (48) + multipole (80) + rcrit (8).
constexpr std::size_t kNodeBytes = 167;

// Per-particle footprint without / with the force block.
constexpr std::size_t kParticleBytes = 9 * 8;
constexpr std::size_t kParticleForceBytes = 14 * 8;

// --- One field vocabulary, two directions -------------------------------------
// Writer and Reader answer the same calls, so each frame's layout is one
// function template (the `*_fields` lists below): handed a Writer and a const
// value it encodes, handed a Reader and a value to fill it decodes. The Reader
// bounds-checks every read, range-checks flags and enums, and checks each
// count against the remaining payload before allocating from it. `kDecoding`
// guards the few checks that have no counterpart on the writer side.

// The 16-byte frame header.
template <typename IO>
void header_fields(IO& io, std::uint32_t& magic, std::uint16_t& version, std::uint16_t& type,
                   std::uint64_t& payload) {
  io.u32(magic);
  io.u16(version);
  io.u16(type);
  io.u64(payload);
}

// --- Flat little-endian writer ----------------------------------------------
class Writer {
 public:
  static constexpr bool kDecoding = false;

  explicit Writer(FrameType type) {
    std::uint32_t magic = kMagic;
    std::uint16_t version = kVersion;
    auto raw_type = static_cast<std::uint16_t>(type);
    std::uint64_t payload = 0;  // patched by finish()
    header_fields(*this, magic, version, raw_type, payload);
  }

  // Make room for `bytes` more bytes at once, for frames whose size is known
  // up front; later fields then write without regrowing.
  void reserve(std::size_t bytes) {
    if (pos_ + bytes > buf_.size()) buf_.resize(pos_ + bytes);
  }

  void u8(std::uint8_t v) { *take(1) = v; }
  void u16(std::uint16_t v) { raw(v); }
  void u32(std::uint32_t v) { raw(v); }
  void u64(std::uint64_t v) { raw(v); }
  void i32(std::int32_t v) { raw(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { raw(static_cast<std::uint64_t>(v)); }
  void f64(double v) { raw(std::bit_cast<std::uint64_t>(v)); }

  void vec3(const Vec3d& v) {
    f64(v.x);
    f64(v.y);
    f64(v.z);
  }

  void aabb(const AABB& b) {
    vec3(b.lo);
    vec3(b.hi);
  }

  void flag(bool v, const char*) { u8(v ? 1 : 0); }

  template <typename E>
  void enum8(E v, E, E, const char*) {
    u8(static_cast<std::uint8_t>(v));
  }

  // Count prefixes; the list's elements follow.
  template <typename V>
  void count32(const V& v, std::size_t, const char*) {
    raw(static_cast<std::uint32_t>(v.size()));
  }
  template <typename V>
  void count64(const V& v, std::size_t, const char*) {
    raw(static_cast<std::uint64_t>(v.size()));
  }

  // The frame fixes `v` to `n` elements.
  template <typename V>
  void resize(const V& v, std::size_t n) {
    BNS_CHECK(v.size() == n);
  }

  void str(const std::string& s, const char* what) {
    count32(s, 1, what);
    if (!s.empty()) std::memcpy(take(s.size()), s.data(), s.size());
  }

  void f64s(std::span<const double> v) { raw_span(v); }
  void u64s(std::span<const std::uint64_t> v) { raw_span(v); }

  // A u32-counted map; `each(key, value)` lists one entry's fields.
  template <typename Map, typename Each>
  void entries(const Map& m, std::size_t, const char*, Each each) {
    raw(static_cast<std::uint32_t>(m.size()));
    for (const auto& [key, value] : m) each(key, value);
  }

  std::vector<std::uint8_t> finish() {
    buf_.resize(pos_);
    const std::uint64_t payload = pos_ - kHeaderBytes;
    for (int i = 0; i < 8; ++i)
      buf_[8 + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(payload >> (8 * i));
    return std::move(buf_);
  }

 private:
  // The next `n` bytes at the write cursor. The buffer grows geometrically,
  // so appending a field is a compare and a copy; finish() trims the rest.
  std::uint8_t* take(std::size_t n) {
    if (pos_ + n > buf_.size()) buf_.resize(std::max({pos_ + n, 2 * buf_.size(), kMinFrame}));
    std::uint8_t* at = buf_.data() + pos_;
    pos_ += n;
    return at;
  }

  template <typename T>
  void raw(T v) {
    std::uint8_t* at = take(sizeof(T));
    if constexpr (kHostLittle) {
      std::memcpy(at, &v, sizeof(T));
    } else {
      for (std::size_t i = 0; i < sizeof(T); ++i) at[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }

  template <typename T>
  void raw_span(std::span<const T> v) {
    if constexpr (kHostLittle) {
      if (!v.empty()) std::memcpy(take(v.size_bytes()), v.data(), v.size_bytes());
    } else {
      for (const T x : v) raw(std::bit_cast<std::uint64_t>(x));
    }
  }

  static constexpr std::size_t kMinFrame = 64;
  std::vector<std::uint8_t> buf_;  // bytes [0, pos_) written; the rest is room
  std::size_t pos_ = 0;
};

// --- Bounds-checked little-endian reader -------------------------------------
class Reader {
 public:
  static constexpr bool kDecoding = true;

  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::size_t remaining() const { return bytes_.size() - pos_; }

  void require(bool cond, const char* what) {
    if (!cond) throw WireError(std::string("wire decode: ") + what);
  }

  // Sized-array handshake: validate that `count` elements of `elem_bytes`
  // each actually fit in the remaining payload *before* any allocation, so a
  // corrupted count can neither overflow nor trigger a huge resize.
  std::size_t array_count(std::uint64_t count, std::size_t elem_bytes, const char* what) {
    require(elem_bytes == 0 || count <= remaining() / elem_bytes, what);
    return static_cast<std::size_t>(count);
  }

  void u8(std::uint8_t& v) { v = take(1)[0]; }
  void u16(std::uint16_t& v) { raw(v); }
  void u32(std::uint32_t& v) { raw(v); }
  void u64(std::uint64_t& v) { raw(v); }
  void i32(std::int32_t& v) { v = static_cast<std::int32_t>(raw<std::uint32_t>()); }
  void i64(std::int64_t& v) { v = static_cast<std::int64_t>(raw<std::uint64_t>()); }
  void f64(double& v) { v = std::bit_cast<double>(raw<std::uint64_t>()); }

  void vec3(Vec3d& v) {
    f64(v.x);
    f64(v.y);
    f64(v.z);
  }

  void aabb(AABB& b) {
    vec3(b.lo);
    vec3(b.hi);
  }

  void flag(bool& v, const char* what) {
    std::uint8_t b = 0;
    u8(b);
    require(b <= 1, what);
    v = b != 0;
  }

  template <typename E>
  void enum8(E& v, E first, E last, const char* what) {
    std::uint8_t b = 0;
    u8(b);
    require(b >= static_cast<std::uint8_t>(first) && b <= static_cast<std::uint8_t>(last), what);
    v = static_cast<E>(b);
  }

  // `v` gets as many elements as the count prefix says, once they can fit in
  // the remaining payload at `elem_bytes` each.
  template <typename V>
  void count32(V& v, std::size_t elem_bytes, const char* what) {
    v.resize(array_count(raw<std::uint32_t>(), elem_bytes, what));
  }
  template <typename V>
  void count64(V& v, std::size_t elem_bytes, const char* what) {
    v.resize(array_count(raw<std::uint64_t>(), elem_bytes, what));
  }

  // Only after a check that bounds `n` by the payload.
  template <typename V>
  void resize(V& v, std::size_t n) {
    v.resize(n);
  }

  void str(std::string& s, const char* what) {
    count32(s, 1, what);
    if (!s.empty()) std::memcpy(s.data(), take(s.size()).data(), s.size());
  }

  void f64s(std::span<double> out) { raw_span(out); }
  void u64s(std::span<std::uint64_t> out) { raw_span(out); }

  template <typename Map, typename Each>
  void entries(Map& m, std::size_t elem_bytes, const char* what, Each each) {
    const std::size_t n = array_count(raw<std::uint32_t>(), elem_bytes, what);
    for (std::size_t i = 0; i < n; ++i) {
      typename Map::key_type key;
      typename Map::mapped_type value;
      each(key, value);
      m.insert_or_assign(std::move(key), std::move(value));
    }
  }

  void done() { require(pos_ == bytes_.size(), "trailing bytes after payload"); }

 private:
  std::span<const std::uint8_t> take(std::size_t n) {
    require(n <= remaining(), "truncated frame");
    const auto s = bytes_.subspan(pos_, n);
    pos_ += n;
    return s;
  }

  template <typename T>
  void raw(T& v) {
    const auto s = take(sizeof(T));
    if constexpr (kHostLittle) {
      std::memcpy(&v, s.data(), sizeof(T));
    } else {
      v = 0;
      for (std::size_t i = 0; i < sizeof(T); ++i)
        v = static_cast<T>(v | (static_cast<T>(s[i]) << (8 * i)));
    }
  }

  template <typename T>
  T raw() {
    T v;
    raw(v);
    return v;
  }

  template <typename T>
  void raw_span(std::span<T> out) {
    if (out.empty()) return;  // empty vector => null data(); memcpy(null,...) is UB
    const auto s = take(out.size_bytes());
    if constexpr (kHostLittle) {
      std::memcpy(out.data(), s.data(), s.size());
    } else {
      Reader sub(s);
      for (T& x : out) x = std::bit_cast<T>(sub.raw<std::uint64_t>());
    }
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

// Validate the header and position a Reader at the payload.
Reader open_frame(std::span<const std::uint8_t> frame, FrameType expected) {
  const FrameType type = frame_type(frame);
  if (type != expected)
    throw WireError("wire decode: unexpected frame type " +
                    std::to_string(static_cast<int>(type)) + " (expected " +
                    std::to_string(static_cast<int>(expected)) + ")");
  return Reader(frame.subspan(kHeaderBytes));
}

// --- Field lists shared by several frames ------------------------------------

template <typename IO, typename Node>
void node_fields(IO& io, Node& nd) {
  io.u64(nd.key_begin);
  io.u64(nd.key_end);
  io.u32(nd.part_begin);
  io.u32(nd.part_end);
  io.i32(nd.first_child);
  io.u8(nd.num_children);
  io.u8(nd.level);
  io.enum8(nd.kind, NodeKind::kInternal, NodeKind::kMultipoleLeaf, "unknown node kind");
  io.aabb(nd.box);
  io.f64(nd.mp.mass);
  io.vec3(nd.mp.com);
  for (auto& q : nd.mp.quad.q) io.f64(q);
  io.f64(nd.rcrit);
}

// Enforce the structural invariants both LET producers guarantee: children
// are a forward-pointing contiguous block inside the node array (so
// traversal cannot cycle), leaves have no children, and the particle range
// lies inside the payload arrays. Normalizes leaf child links to -1.
void validate_node(TreeNode& nd, std::size_t index, std::size_t num_nodes,
                   std::size_t num_particles) {
  const auto require = [](bool cond, const char* what) {
    if (!cond) throw WireError(std::string("wire decode: ") + what);
  };
  require(nd.key_begin <= nd.key_end, "node key range inverted");
  require(nd.part_begin <= nd.part_end, "node particle range inverted");
  require(nd.part_end <= num_particles, "node particle range out of bounds");
  if (nd.kind == NodeKind::kInternal) {
    require(nd.num_children >= 1, "internal node without children");
    require(nd.first_child > static_cast<std::int32_t>(index),
            "child block does not point forward");
    require(static_cast<std::size_t>(nd.first_child) + nd.num_children <= num_nodes,
            "child block out of bounds");
  } else {
    require(nd.num_children == 0, "leaf node with children");
    nd.first_child = -1;
  }
}

// A particle batch: source rank, force flag, count, then one column per
// field; forces/potential/work only when the flag is set.
template <typename IO, typename Src, typename Flag, typename Parts>
void particle_fields(IO& io, Src& src, Flag& with_forces, Parts& p) {
  io.i32(src);
  io.flag(with_forces, "unknown particle batch flags");
  io.count64(p, with_forces ? kParticleForceBytes : kParticleBytes,
             "particle count exceeds payload");
  io.f64s(p.x);
  io.f64s(p.y);
  io.f64s(p.z);
  io.f64s(p.vx);
  io.f64s(p.vy);
  io.f64s(p.vz);
  io.f64s(p.mass);
  io.u64s(p.id);
  io.u64s(p.key);
  if (with_forces) {
    io.f64s(p.ax);
    io.f64s(p.ay);
    io.f64s(p.az);
    io.f64s(p.pot);
    io.f64s(p.work);
  }
}

// A particle batch whose force flag the frame fixes to `forces`.
template <typename IO, typename Src, typename Parts>
void fixed_particle_fields(IO& io, Src& src, bool forces, Parts& p, const char* what) {
  bool with_forces = forces;
  particle_fields(io, src, with_forces, p);
  if constexpr (IO::kDecoding) io.require(with_forces == forces, what);
}

template <typename IO, typename Stats>
void interaction_stats_fields(IO& io, Stats& s) {
  io.u64(s.p2p);
  io.u64(s.p2c);
  io.u64(s.p2p_padded);
  io.u64(s.p2c_padded);
  io.u64(s.pp_batches);
  io.u64(s.pc_batches);
  for (auto& b : s.batch_hist) io.u64(b);
}

// Minimum wire footprint of one span: name length prefix + the fixed fields.
constexpr std::size_t kSpanMinBytes = 4 + 8 + 8 + 4 + 4 + 8 + 8 + 8;

template <typename IO, typename S>
void span_fields(IO& io, S& s) {
  io.str(s.name, "span name exceeds payload");
  io.i64(s.begin_ns);
  io.i64(s.end_ns);
  io.i32(s.rank);
  io.i32(s.lane);
  io.i64(s.step);
  io.i64(s.peer);
  io.i64(s.bytes);
  if constexpr (IO::kDecoding) io.require(s.end_ns >= s.begin_ns, "span ends before it begins");
}

template <typename IO, typename Metrics>
void metrics_fields(IO& io, Metrics& m) {
  const auto named_value = [&io](auto& name, auto& v) {
    io.str(name, "metric name exceeds payload");
    io.f64(v);
  };
  io.entries(m.counters, 4 + 8, "metric counter count exceeds payload", named_value);
  io.entries(m.gauges, 4 + 8, "metric gauge count exceeds payload", named_value);
  io.entries(m.histograms, 4 + 4 + 8 + 8 + 8, "metric histogram count exceeds payload",
             [&io](auto& name, auto& h) {
               io.str(name, "metric name exceeds payload");
               io.count32(h.bounds, 8 + 8, "histogram bound count exceeds payload");
               io.f64s(h.bounds);
               io.resize(h.counts, h.bounds.size() + 1);
               io.u64s(h.counts);
               io.u64(h.count);
               io.f64(h.sum);
             });
}

// --- Frame field lists ---------------------------------------------------------

template <typename IO, typename Src, typename Let>
void let_fields(IO& io, Src& src, Let& let) {
  io.i32(src);
  auto num_nodes = static_cast<std::uint32_t>(let.nodes.size());
  auto num_parts = static_cast<std::uint32_t>(let.num_particles());
  io.u32(num_nodes);
  io.u32(num_parts);
  if constexpr (IO::kDecoding) {
    io.require(num_nodes <= io.remaining() / kNodeBytes, "node count exceeds payload");
    io.require(num_parts <= (io.remaining() - num_nodes * kNodeBytes) / (4 * 8),
               "particle count exceeds payload");
  }
  io.resize(let.nodes, num_nodes);
  for (std::size_t i = 0; i < num_nodes; ++i) {
    node_fields(io, let.nodes[i]);
    if constexpr (IO::kDecoding) validate_node(let.nodes[i], i, num_nodes, num_parts);
  }
  for (auto* col : {&let.x, &let.y, &let.z, &let.m}) {
    io.resize(*col, num_parts);
    io.f64s(*col);
  }
}

template <typename IO, typename Rank, typename Port>
void hello_fields(IO& io, Rank& rank, Port& listen_port) {
  io.i32(rank);
  io.u16(listen_port);
}

template <typename IO, typename Peers>
void peer_directory_fields(IO& io, Peers& peers) {
  auto n = static_cast<std::uint32_t>(peers.size());
  io.u32(n);
  if constexpr (IO::kDecoding) {
    io.array_count(n, 2 + 4, "directory entry count exceeds payload");
    io.require(n >= 1 && n <= 255, "directory rank count out of range");
  }
  io.resize(peers, n);
  for (auto& p : peers) {
    io.u16(p.port);
    io.str(p.host, "directory host exceeds payload");
  }
}

// PeerHello (a rank) and JobCancel (a job id): one i32.
template <typename IO, typename Id>
void id_fields(IO& io, Id& id) {
  io.i32(id);
}

template <typename IO, typename Config>
void config_fields(IO& io, Config& cfg) {
  io.i32(cfg.nranks);
  io.f64(cfg.theta);
  io.f64(cfg.eps);
  io.i32(cfg.nleaf);
  io.i32(cfg.ncrit);
  io.f64(cfg.dt);
  io.u64(cfg.samples_per_rank);
  io.i32(cfg.snap_level);
  io.enum8(cfg.kernel, KernelBackend::kScalar, KernelBackend::kSimd,
           "config kernel backend out of range");
}

template <typename IO, typename Begin>
void step_begin_fields(IO& io, Begin& sb) {
  io.i32(sb.step);
  io.enum8(sb.mode, StepMode::kSpmdBootstrap, StepMode::kCollect, "unknown step mode");
  int src = -1;
  fixed_particle_fields(io, src, false, sb.parts, "step-begin batch must not carry forces");
}

template <typename IO, typename Bounds>
void boundaries_fields(IO& io, Bounds& b) {
  io.i32(b.src);
  io.i32(b.step);
  io.flag(b.post_migration, "unknown boundaries phase");
  io.u64(b.count);
  io.aabb(b.box);
  io.f64(b.weight);
}

template <typename IO, typename Samples>
void key_samples_fields(IO& io, Samples& ks) {
  io.i32(ks.src);
  io.i32(ks.step);
  io.count64(ks.keys, 8, "sample count exceeds payload");
  io.u64s(ks.keys);
}

template <typename IO, typename Src, typename Step, typename Parts>
void migration_fields(IO& io, Src& src, Step& step, Parts& parts) {
  io.i32(step);
  fixed_particle_fields(io, src, false, parts, "migration batches must travel force-free");
}

template <typename IO, typename Result>
void step_result_fields(IO& io, Result& sr) {
  io.i32(sr.rank);
  interaction_stats_fields(io, sr.local_stats);
  interaction_stats_fields(io, sr.remote_stats);
  io.u64(sr.migrated);
  io.u64(sr.local_count);
  io.f64(sr.kinetic);
  io.f64(sr.potential);
  io.count32(sr.let_sizes, 3 * 8, "LET size count exceeds payload");
  for (auto& s : sr.let_sizes) {
    io.u64(s.cells);
    io.u64(s.particles);
    io.u64(s.bytes);
  }
  io.count32(sr.boundaries, 8, "boundary count exceeds payload");
  io.u64s(sr.boundaries);
  io.count32(sr.traffic, 4 + 4 + 2 + 8 + 8, "traffic count exceeds payload");
  for (auto& t : sr.traffic) {
    io.i32(t.src);
    io.i32(t.dst);
    io.u16(t.type);
    io.u64(t.frames);
    io.u64(t.bytes);
  }
  io.i64(sr.recv_ns);
  io.i64(sr.send_ns);
  io.count32(sr.spans, kSpanMinBytes, "span count exceeds payload");
  for (auto& s : sr.spans) span_fields(io, s);
}

template <typename IO, typename Spec>
void job_submit_fields(IO& io, Spec& spec) {
  io.str(spec.name, "job name exceeds payload");
  io.u64(spec.n);
  io.u64(spec.seed);
  io.i32(spec.steps);
  io.i32(spec.ranks);
  io.i32(spec.priority);
  io.f64(spec.theta);
  io.f64(spec.eps);
  io.f64(spec.dt);
  io.enum8(spec.kernel, KernelBackend::kScalar, KernelBackend::kSimd,
           "job kernel backend out of range");
  int src = -1;
  fixed_particle_fields(io, src, false, spec.parts,
                        "job initial condition must travel force-free");
}

template <typename IO, typename Status>
void job_status_fields(IO& io, Status& status) {
  io.i32(status.job_id);
  io.enum8(status.state, JobState::kQueued, JobState::kRejected, "unknown job state");
  io.flag(status.wait, "unknown job status flags");
  io.i32(status.steps_done);
  io.i32(status.steps_total);
  io.i32(status.ranks);
  io.i32(status.priority);
  io.u64(status.n);
  io.str(status.reason, "job status reason exceeds payload");
}

template <typename IO, typename Result>
void job_result_fields(IO& io, Result& result) {
  io.i32(result.job_id);
  io.enum8(result.state, JobState::kQueued, JobState::kRejected, "unknown job state");
  io.i32(result.steps_done);
  io.f64(result.kinetic);
  io.f64(result.potential);
  io.str(result.reason, "job result reason exceeds payload");
  int src = -1;
  fixed_particle_fields(io, src, true, result.parts, "job result batch must carry forces");
}

template <typename IO, typename Snap>
void snapshot_fields(IO& io, Snap& snap) {
  io.i32(snap.job_id);
  io.i32(snap.next_step);
  auto nsets = static_cast<std::uint32_t>(snap.sets.size());
  io.u32(nsets);
  if constexpr (IO::kDecoding) {
    // Minimum per-set footprint: the particle payload prologue (src + flags +
    // count) of an empty set.
    io.array_count(nsets, 4 + 1 + 8, "snapshot set count exceeds payload");
    io.require(nsets <= 255, "snapshot rank count out of range");
  }
  io.resize(snap.sets, nsets);
  for (std::size_t r = 0; r < nsets; ++r) {
    int src = static_cast<int>(r);
    fixed_particle_fields(io, src, true, snap.sets[r], "snapshot sets must carry forces");
  }
}

}  // namespace

const char* frame_type_name(FrameType type) {
  switch (type) {
    case FrameType::kLet: return "Let";
    case FrameType::kParticles: return "Particles";
    case FrameType::kHello: return "Hello";
    case FrameType::kConfig: return "Config";
    case FrameType::kStepBegin: return "StepBegin";
    case FrameType::kStepResult: return "StepResult";
    case FrameType::kShutdown: return "Shutdown";
    case FrameType::kBoundaries: return "Boundaries";
    case FrameType::kKeySamples: return "KeySamples";
    case FrameType::kMigration: return "Migration";
    case FrameType::kPeerDirectory: return "PeerDirectory";
    case FrameType::kPeerHello: return "PeerHello";
    case FrameType::kJobSubmit: return "JobSubmit";
    case FrameType::kJobStatus: return "JobStatus";
    case FrameType::kJobResult: return "JobResult";
    case FrameType::kJobCancel: return "JobCancel";
    case FrameType::kSnapshot: return "Snapshot";
    case FrameType::kMetricsQuery: return "MetricsQuery";
    case FrameType::kMetricsReport: return "MetricsReport";
  }
  return "Unknown";
}

void merge_traffic(std::vector<PeerTraffic>& into, std::span<const PeerTraffic> add) {
  const auto key = [](const PeerTraffic& t) { return std::tie(t.src, t.dst, t.type); };
  for (const PeerTraffic& t : add) {
    auto it = std::lower_bound(into.begin(), into.end(), t,
                               [&](const PeerTraffic& a, const PeerTraffic& b) {
                                 return key(a) < key(b);
                               });
    if (it != into.end() && key(*it) == key(t)) {
      it->frames += t.frames;
      it->bytes += t.bytes;
    } else {
      into.insert(it, t);
    }
  }
}

FrameType frame_type(std::span<const std::uint8_t> frame) {
  if (frame.size() < kHeaderBytes) throw WireError("wire decode: frame shorter than header");
  Reader r(frame);
  std::uint32_t magic = 0;
  std::uint16_t version = 0, raw_type = 0;
  std::uint64_t payload = 0;
  header_fields(r, magic, version, raw_type, payload);
  if (magic != kMagic) throw WireError("wire decode: bad magic");
  if (version != kVersion)
    throw WireError("wire decode: version mismatch (got " + std::to_string(version) +
                    ", expected " + std::to_string(kVersion) + ")");
  const auto type = static_cast<FrameType>(raw_type);
  // frame_type_name has an arm for exactly the live types.
  if (std::strcmp(frame_type_name(type), "Unknown") == 0)
    throw WireError("wire decode: unknown frame type " + std::to_string(raw_type));
  if (payload != frame.size() - kHeaderBytes)
    throw WireError("wire decode: payload length mismatch");
  return type;
}

std::vector<std::uint8_t> encode_let(int src, const LetTree& let) {
  Writer w(FrameType::kLet);
  w.reserve(4 + 4 + 4 + let.num_cells() * kNodeBytes + let.num_particles() * 4 * 8);
  let_fields(w, src, let);
  return w.finish();
}

LetMessage decode_let(std::span<const std::uint8_t> frame) {
  Reader r = open_frame(frame, FrameType::kLet);
  LetMessage msg;
  msg.wire_bytes = frame.size();
  let_fields(r, msg.src, msg.let);
  r.done();
  return msg;
}

std::vector<std::uint8_t> encode_particles(int src, const ParticleSet& parts,
                                           bool with_forces) {
  Writer w(FrameType::kParticles);
  particle_fields(w, src, with_forces, parts);
  return w.finish();
}

ParticleBatch decode_particles(std::span<const std::uint8_t> frame) {
  Reader r = open_frame(frame, FrameType::kParticles);
  ParticleBatch batch;
  particle_fields(r, batch.src, batch.with_forces, batch.parts);
  r.done();
  return batch;
}

std::vector<std::uint8_t> encode_hello(int rank, std::uint16_t listen_port) {
  Writer w(FrameType::kHello);
  hello_fields(w, rank, listen_port);
  return w.finish();
}

Hello decode_hello(std::span<const std::uint8_t> frame) {
  Reader r = open_frame(frame, FrameType::kHello);
  Hello h;
  hello_fields(r, h.rank, h.listen_port);
  r.done();
  return h;
}

std::vector<std::uint8_t> encode_peer_directory(std::span<const PeerEndpoint> peers) {
  Writer w(FrameType::kPeerDirectory);
  peer_directory_fields(w, peers);
  return w.finish();
}

std::vector<PeerEndpoint> decode_peer_directory(std::span<const std::uint8_t> frame) {
  Reader r = open_frame(frame, FrameType::kPeerDirectory);
  std::vector<PeerEndpoint> peers;
  peer_directory_fields(r, peers);
  r.done();
  return peers;
}

std::vector<std::uint8_t> encode_peer_hello(int rank) {
  Writer w(FrameType::kPeerHello);
  id_fields(w, rank);
  return w.finish();
}

int decode_peer_hello(std::span<const std::uint8_t> frame) {
  Reader r = open_frame(frame, FrameType::kPeerHello);
  int rank = -1;
  id_fields(r, rank);
  r.done();
  return rank;
}

std::vector<std::uint8_t> encode_config(const SimConfig& cfg) {
  Writer w(FrameType::kConfig);
  config_fields(w, cfg);
  return w.finish();
}

SimConfig decode_config(std::span<const std::uint8_t> frame) {
  Reader r = open_frame(frame, FrameType::kConfig);
  SimConfig cfg;
  config_fields(r, cfg);
  r.done();
  r.require(cfg.nranks >= 1 && cfg.nranks <= 255, "config rank count out of range");
  return cfg;
}

std::vector<std::uint8_t> encode_step_begin(const StepBegin& sb) {
  Writer w(FrameType::kStepBegin);
  step_begin_fields(w, sb);
  return w.finish();
}

StepBegin decode_step_begin(std::span<const std::uint8_t> frame) {
  Reader r = open_frame(frame, FrameType::kStepBegin);
  StepBegin sb;
  step_begin_fields(r, sb);
  r.done();
  return sb;
}

std::vector<std::uint8_t> encode_boundaries(const Boundaries& b) {
  Writer w(FrameType::kBoundaries);
  boundaries_fields(w, b);
  return w.finish();
}

Boundaries decode_boundaries(std::span<const std::uint8_t> frame) {
  Reader r = open_frame(frame, FrameType::kBoundaries);
  Boundaries b;
  boundaries_fields(r, b);
  r.done();
  return b;
}

std::vector<std::uint8_t> encode_key_samples(const KeySamples& ks) {
  Writer w(FrameType::kKeySamples);
  key_samples_fields(w, ks);
  return w.finish();
}

KeySamples decode_key_samples(std::span<const std::uint8_t> frame) {
  Reader r = open_frame(frame, FrameType::kKeySamples);
  KeySamples ks;
  key_samples_fields(r, ks);
  r.done();
  return ks;
}

std::vector<std::uint8_t> encode_migration(int src, int step, const ParticleSet& parts) {
  Writer w(FrameType::kMigration);
  migration_fields(w, src, step, parts);
  return w.finish();
}

MigrationMsg decode_migration(std::span<const std::uint8_t> frame) {
  Reader r = open_frame(frame, FrameType::kMigration);
  MigrationMsg msg;
  migration_fields(r, msg.src, msg.step, msg.parts);
  r.done();
  return msg;
}

std::vector<std::uint8_t> encode_step_result(const StepResult& sr) {
  Writer w(FrameType::kStepResult);
  step_result_fields(w, sr);
  return w.finish();
}

StepResult decode_step_result(std::span<const std::uint8_t> frame) {
  Reader r = open_frame(frame, FrameType::kStepResult);
  StepResult sr;
  step_result_fields(r, sr);
  r.done();
  return sr;
}

std::vector<std::uint8_t> encode_shutdown() { return Writer(FrameType::kShutdown).finish(); }

const char* job_state_name(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kSuspended: return "suspended";
    case JobState::kCompleted: return "completed";
    case JobState::kCancelled: return "cancelled";
    case JobState::kFailed: return "failed";
    case JobState::kRejected: return "rejected";
  }
  return "unknown";
}

std::vector<std::uint8_t> encode_job_submit(const JobSpec& spec) {
  Writer w(FrameType::kJobSubmit);
  job_submit_fields(w, spec);
  return w.finish();
}

JobSpec decode_job_submit(std::span<const std::uint8_t> frame) {
  Reader r = open_frame(frame, FrameType::kJobSubmit);
  JobSpec spec;
  job_submit_fields(r, spec);
  r.done();
  r.require(spec.steps >= 0, "job step count negative");
  r.require(spec.ranks >= 0 && spec.ranks <= 255, "job rank request out of range");
  r.require(std::isfinite(spec.theta) && spec.theta > 0.0, "job theta must be finite and > 0");
  r.require(std::isfinite(spec.eps) && spec.eps >= 0.0, "job eps must be finite and >= 0");
  r.require(std::isfinite(spec.dt), "job dt must be finite");
  return spec;
}

std::vector<std::uint8_t> encode_job_status(const JobStatusMsg& status) {
  Writer w(FrameType::kJobStatus);
  job_status_fields(w, status);
  return w.finish();
}

JobStatusMsg decode_job_status(std::span<const std::uint8_t> frame) {
  Reader r = open_frame(frame, FrameType::kJobStatus);
  JobStatusMsg status;
  job_status_fields(r, status);
  r.done();
  return status;
}

std::vector<std::uint8_t> encode_job_result(const JobResultMsg& result) {
  Writer w(FrameType::kJobResult);
  job_result_fields(w, result);
  return w.finish();
}

JobResultMsg decode_job_result(std::span<const std::uint8_t> frame) {
  Reader r = open_frame(frame, FrameType::kJobResult);
  JobResultMsg result;
  job_result_fields(r, result);
  r.done();
  return result;
}

std::vector<std::uint8_t> encode_job_cancel(std::int32_t job_id) {
  Writer w(FrameType::kJobCancel);
  id_fields(w, job_id);
  return w.finish();
}

std::int32_t decode_job_cancel(std::span<const std::uint8_t> frame) {
  Reader r = open_frame(frame, FrameType::kJobCancel);
  std::int32_t job_id = -1;
  id_fields(r, job_id);
  r.done();
  return job_id;
}

std::vector<std::uint8_t> encode_snapshot(const SnapshotMsg& snap) {
  Writer w(FrameType::kSnapshot);
  snapshot_fields(w, snap);
  return w.finish();
}

SnapshotMsg decode_snapshot(std::span<const std::uint8_t> frame) {
  Reader r = open_frame(frame, FrameType::kSnapshot);
  SnapshotMsg snap;
  snapshot_fields(r, snap);
  r.done();
  return snap;
}

std::vector<std::uint8_t> encode_metrics_query() {
  return Writer(FrameType::kMetricsQuery).finish();
}

std::vector<std::uint8_t> encode_metrics_report(const metrics::Snapshot& snapshot) {
  Writer w(FrameType::kMetricsReport);
  metrics_fields(w, snapshot);
  return w.finish();
}

metrics::Snapshot decode_metrics_report(std::span<const std::uint8_t> frame) {
  Reader r = open_frame(frame, FrameType::kMetricsReport);
  metrics::Snapshot m;
  metrics_fields(r, m);
  r.done();
  return m;
}

}  // namespace bonsai::domain::wire
