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

// --- Flat little-endian writer ----------------------------------------------
class Writer {
 public:
  explicit Writer(FrameType type) { header(type); }

  // Build the frame inside `reuse` (its capacity carries over), for posting
  // paths that encode every step: finish() hands the buffer back to the
  // caller, who keeps it for the next encode.
  Writer(FrameType type, std::vector<std::uint8_t>&& reuse) : buf_(std::move(reuse)) {
    header(type);
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
  void f64(double v) { raw(std::bit_cast<std::uint64_t>(v)); }

  void f64_span(std::span<const double> v) { raw_span(v); }
  void u64_span(std::span<const std::uint64_t> v) { raw_span(v); }
  void bytes(std::span<const std::uint8_t> v) {
    if (!v.empty()) std::memcpy(take(v.size()), v.data(), v.size());
  }

  void vec3(const Vec3d& v) {
    f64(v.x);
    f64(v.y);
    f64(v.z);
  }

  void aabb(const AABB& b) {
    vec3(b.lo);
    vec3(b.hi);
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
  void header(FrameType type) {
    u32(kMagic);
    u16(kVersion);
    u16(static_cast<std::uint16_t>(type));
    u64(0);  // payload length, patched by finish()
  }

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
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::size_t remaining() const { return bytes_.size() - pos_; }

  void require(bool cond, const char* what) {
    if (!cond) throw WireError(std::string("wire decode: ") + what);
  }

  std::uint8_t u8() { return take(1)[0]; }
  std::uint16_t u16() { return raw<std::uint16_t>(); }
  std::uint32_t u32() { return raw<std::uint32_t>(); }
  std::uint64_t u64() { return raw<std::uint64_t>(); }
  std::int32_t i32() { return static_cast<std::int32_t>(raw<std::uint32_t>()); }
  double f64() { return std::bit_cast<double>(raw<std::uint64_t>()); }

  void f64_span(std::span<double> out) { raw_span(out); }
  void u64_span(std::span<std::uint64_t> out) { raw_span(out); }

  // Sized-array handshake: validate that `count` elements of `elem_bytes`
  // each actually fit in the remaining payload *before* any allocation, so a
  // corrupted count can neither overflow nor trigger a huge resize.
  std::size_t array_count(std::uint64_t count, std::size_t elem_bytes, const char* what) {
    require(elem_bytes == 0 || count <= remaining() / elem_bytes, what);
    return static_cast<std::size_t>(count);
  }

  Vec3d vec3() { return {f64(), f64(), f64()}; }

  AABB aabb() {
    AABB b;
    b.lo = vec3();
    b.hi = vec3();
    return b;
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
  T raw() {
    const auto s = take(sizeof(T));
    T v = 0;
    if constexpr (kHostLittle) {
      std::memcpy(&v, s.data(), sizeof(T));
    } else {
      for (std::size_t i = 0; i < sizeof(T); ++i)
        v = static_cast<T>(v | (static_cast<T>(s[i]) << (8 * i)));
    }
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

void put_node(Writer& w, const TreeNode& nd) {
  w.u64(nd.key_begin);
  w.u64(nd.key_end);
  w.u32(nd.part_begin);
  w.u32(nd.part_end);
  w.i32(nd.first_child);
  w.u8(nd.num_children);
  w.u8(nd.level);
  w.u8(static_cast<std::uint8_t>(nd.kind));
  w.aabb(nd.box);
  w.f64(nd.mp.mass);
  w.vec3(nd.mp.com);
  for (double q : nd.mp.quad.q) w.f64(q);
  w.f64(nd.rcrit);
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

// Read one node and enforce the invariants above.
TreeNode read_node(Reader& r, std::size_t index, std::size_t num_nodes,
                   std::size_t num_particles) {
  TreeNode nd;
  nd.key_begin = r.u64();
  nd.key_end = r.u64();
  nd.part_begin = r.u32();
  nd.part_end = r.u32();
  nd.first_child = r.i32();
  nd.num_children = r.u8();
  nd.level = r.u8();
  const std::uint8_t kind = r.u8();
  nd.box = r.aabb();
  nd.mp.mass = r.f64();
  nd.mp.com = r.vec3();
  for (double& q : nd.mp.quad.q) q = r.f64();
  nd.rcrit = r.f64();

  r.require(kind <= static_cast<std::uint8_t>(NodeKind::kMultipoleLeaf),
            "unknown node kind");
  nd.kind = static_cast<NodeKind>(kind);
  validate_node(nd, index, num_nodes, num_particles);
  return nd;
}

void put_particle_payload(Writer& w, int src, const ParticleSet& p, bool with_forces) {
  w.i32(src);
  w.u8(with_forces ? 1 : 0);
  w.u64(p.size());
  w.f64_span(p.x);
  w.f64_span(p.y);
  w.f64_span(p.z);
  w.f64_span(p.vx);
  w.f64_span(p.vy);
  w.f64_span(p.vz);
  w.f64_span(p.mass);
  w.u64_span(p.id);
  w.u64_span(p.key);
  if (with_forces) {
    w.f64_span(p.ax);
    w.f64_span(p.ay);
    w.f64_span(p.az);
    w.f64_span(p.pot);
    w.f64_span(p.work);
  }
}

ParticleBatch read_particle_payload(Reader& r) {
  ParticleBatch batch;
  batch.src = r.i32();
  const std::uint8_t flags = r.u8();
  r.require(flags <= 1, "unknown particle batch flags");
  batch.with_forces = flags != 0;
  const std::size_t n =
      r.array_count(r.u64(), batch.with_forces ? kParticleForceBytes : kParticleBytes,
                    "particle count exceeds payload");
  ParticleSet& p = batch.parts;
  p.resize(n);
  r.f64_span(p.x);
  r.f64_span(p.y);
  r.f64_span(p.z);
  r.f64_span(p.vx);
  r.f64_span(p.vy);
  r.f64_span(p.vz);
  r.f64_span(p.mass);
  r.u64_span(p.id);
  r.u64_span(p.key);
  if (batch.with_forces) {
    r.f64_span(p.ax);
    r.f64_span(p.ay);
    r.f64_span(p.az);
    r.f64_span(p.pot);
    r.f64_span(p.work);
  }
  return batch;
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
  if (r.u32() != kMagic) throw WireError("wire decode: bad magic");
  const std::uint16_t version = r.u16();
  if (version != kVersion)
    throw WireError("wire decode: version mismatch (got " + std::to_string(version) +
                    ", expected " + std::to_string(kVersion) + ")");
  const std::uint16_t raw_type = r.u16();
  const auto type = static_cast<FrameType>(raw_type);
  // frame_type_name has an arm for exactly the live types.
  if (std::strcmp(frame_type_name(type), "Unknown") == 0)
    throw WireError("wire decode: unknown frame type " + std::to_string(raw_type));
  if (r.u64() != frame.size() - kHeaderBytes)
    throw WireError("wire decode: payload length mismatch");
  return type;
}

namespace {

// Exact wire footprint of the full Let frame for the same tree.
std::uint64_t full_let_bytes(const LetTree& let) {
  return kHeaderBytes + 4 + 4 + 4 + let.num_cells() * kNodeBytes +
         let.num_particles() * 4 * 8;  // x y z m
}

void put_let(Writer& w, int src, const LetTree& let) {
  w.reserve(full_let_bytes(let) - kHeaderBytes);
  w.i32(src);
  w.u32(static_cast<std::uint32_t>(let.nodes.size()));
  w.u32(static_cast<std::uint32_t>(let.num_particles()));
  for (const TreeNode& nd : let.nodes) put_node(w, nd);
  w.f64_span(let.x);
  w.f64_span(let.y);
  w.f64_span(let.z);
  w.f64_span(let.m);
}

}  // namespace

std::vector<std::uint8_t> encode_let(int src, const LetTree& let) {
  Writer w(FrameType::kLet);
  put_let(w, src, let);
  return w.finish();
}

std::vector<std::uint8_t> encode_let_scratch(int src, const LetTree& let,
                                             std::vector<std::uint8_t>& scratch) {
  Writer w(FrameType::kLet, std::move(scratch));
  put_let(w, src, let);
  scratch = w.finish();
  return {scratch.begin(), scratch.end()};
}

LetMessage decode_let(std::span<const std::uint8_t> frame) {
  Reader r = open_frame(frame, FrameType::kLet);
  LetMessage msg;
  msg.wire_bytes = frame.size();
  msg.src = r.i32();
  const std::size_t num_nodes = r.u32();
  const std::size_t num_parts = r.u32();
  r.require(num_nodes <= r.remaining() / kNodeBytes,
            "node count exceeds payload");
  r.require(num_parts <= (r.remaining() - num_nodes * kNodeBytes) / (4 * 8),
            "particle count exceeds payload");
  msg.let.nodes.reserve(num_nodes);
  for (std::size_t i = 0; i < num_nodes; ++i)
    msg.let.nodes.push_back(read_node(r, i, num_nodes, num_parts));
  msg.let.x.resize(num_parts);
  msg.let.y.resize(num_parts);
  msg.let.z.resize(num_parts);
  msg.let.m.resize(num_parts);
  r.f64_span(msg.let.x);
  r.f64_span(msg.let.y);
  r.f64_span(msg.let.z);
  r.f64_span(msg.let.m);
  r.done();
  return msg;
}

std::vector<std::uint8_t> encode_particles(int src, const ParticleSet& parts,
                                           bool with_forces) {
  Writer w(FrameType::kParticles);
  put_particle_payload(w, src, parts, with_forces);
  return w.finish();
}

ParticleBatch decode_particles(std::span<const std::uint8_t> frame) {
  Reader r = open_frame(frame, FrameType::kParticles);
  ParticleBatch batch = read_particle_payload(r);
  r.done();
  return batch;
}

std::vector<std::uint8_t> encode_hello(int rank, std::uint16_t listen_port) {
  Writer w(FrameType::kHello);
  w.i32(rank);
  w.u16(listen_port);
  return w.finish();
}

Hello decode_hello(std::span<const std::uint8_t> frame) {
  Reader r = open_frame(frame, FrameType::kHello);
  Hello h;
  h.rank = r.i32();
  h.listen_port = r.u16();
  r.done();
  return h;
}

std::vector<std::uint8_t> encode_peer_directory(std::span<const PeerEndpoint> peers) {
  Writer w(FrameType::kPeerDirectory);
  w.u32(static_cast<std::uint32_t>(peers.size()));
  for (const PeerEndpoint& p : peers) {
    w.u16(p.port);
    w.u32(static_cast<std::uint32_t>(p.host.size()));
    for (const char c : p.host) w.u8(static_cast<std::uint8_t>(c));
  }
  return w.finish();
}

std::vector<PeerEndpoint> decode_peer_directory(std::span<const std::uint8_t> frame) {
  Reader r = open_frame(frame, FrameType::kPeerDirectory);
  const std::size_t n =
      r.array_count(r.u32(), 2 + 4, "directory entry count exceeds payload");
  r.require(n >= 1 && n <= 255, "directory rank count out of range");
  std::vector<PeerEndpoint> peers(n);
  for (PeerEndpoint& p : peers) {
    p.port = r.u16();
    const std::size_t len = r.array_count(r.u32(), 1, "directory host exceeds payload");
    p.host.resize(len);
    for (char& c : p.host) c = static_cast<char>(r.u8());
  }
  r.done();
  return peers;
}

std::vector<std::uint8_t> encode_peer_hello(int rank) {
  Writer w(FrameType::kPeerHello);
  w.i32(rank);
  return w.finish();
}

int decode_peer_hello(std::span<const std::uint8_t> frame) {
  Reader r = open_frame(frame, FrameType::kPeerHello);
  const int rank = r.i32();
  r.done();
  return rank;
}

std::vector<std::uint8_t> encode_config(const SimConfig& cfg) {
  Writer w(FrameType::kConfig);
  w.i32(cfg.nranks);
  w.f64(cfg.theta);
  w.f64(cfg.eps);
  w.i32(cfg.nleaf);
  w.i32(cfg.ncrit);
  w.f64(cfg.dt);
  w.u64(cfg.samples_per_rank);
  w.i32(cfg.snap_level);
  w.u8(static_cast<std::uint8_t>(cfg.kernel));
  return w.finish();
}

SimConfig decode_config(std::span<const std::uint8_t> frame) {
  Reader r = open_frame(frame, FrameType::kConfig);
  SimConfig cfg;
  cfg.nranks = r.i32();
  cfg.theta = r.f64();
  cfg.eps = r.f64();
  cfg.nleaf = r.i32();
  cfg.ncrit = r.i32();
  cfg.dt = r.f64();
  cfg.samples_per_rank = r.u64();
  cfg.snap_level = r.i32();
  const std::uint8_t kernel = r.u8();
  r.require(kernel <= static_cast<std::uint8_t>(KernelBackend::kSimd),
            "config kernel backend out of range");
  cfg.kernel = static_cast<KernelBackend>(kernel);
  r.done();
  r.require(cfg.nranks >= 1 && cfg.nranks <= 255, "config rank count out of range");
  return cfg;
}

std::vector<std::uint8_t> encode_step_begin(const StepBegin& sb) {
  Writer w(FrameType::kStepBegin);
  w.i32(sb.step);
  w.u8(static_cast<std::uint8_t>(sb.mode));
  put_particle_payload(w, -1, sb.parts, /*with_forces=*/false);
  return w.finish();
}

StepBegin decode_step_begin(std::span<const std::uint8_t> frame) {
  Reader r = open_frame(frame, FrameType::kStepBegin);
  StepBegin sb;
  sb.step = r.i32();
  const std::uint8_t mode = r.u8();
  r.require(mode >= static_cast<std::uint8_t>(StepMode::kSpmdBootstrap) &&
                mode <= static_cast<std::uint8_t>(StepMode::kCollect),
            "unknown step mode");
  sb.mode = static_cast<StepMode>(mode);
  ParticleBatch batch = read_particle_payload(r);
  r.require(!batch.with_forces, "step-begin batch must not carry forces");
  sb.parts = std::move(batch.parts);
  r.done();
  return sb;
}

std::vector<std::uint8_t> encode_boundaries(const Boundaries& b) {
  Writer w(FrameType::kBoundaries);
  w.i32(b.src);
  w.i32(b.step);
  w.u8(b.post_migration ? 1 : 0);
  w.u64(b.count);
  w.aabb(b.box);
  w.f64(b.weight);
  return w.finish();
}

Boundaries decode_boundaries(std::span<const std::uint8_t> frame) {
  Reader r = open_frame(frame, FrameType::kBoundaries);
  Boundaries b;
  b.src = r.i32();
  b.step = r.i32();
  const std::uint8_t phase = r.u8();
  r.require(phase <= 1, "unknown boundaries phase");
  b.post_migration = phase != 0;
  b.count = r.u64();
  b.box = r.aabb();
  b.weight = r.f64();
  r.done();
  return b;
}

std::vector<std::uint8_t> encode_key_samples(const KeySamples& ks) {
  Writer w(FrameType::kKeySamples);
  w.i32(ks.src);
  w.i32(ks.step);
  w.u64(ks.keys.size());
  w.u64_span(ks.keys);
  return w.finish();
}

KeySamples decode_key_samples(std::span<const std::uint8_t> frame) {
  Reader r = open_frame(frame, FrameType::kKeySamples);
  KeySamples ks;
  ks.src = r.i32();
  ks.step = r.i32();
  const std::size_t n = r.array_count(r.u64(), 8, "sample count exceeds payload");
  ks.keys.resize(n);
  r.u64_span(ks.keys);
  r.done();
  return ks;
}

std::vector<std::uint8_t> encode_migration(int src, int step, const ParticleSet& parts) {
  Writer w(FrameType::kMigration);
  w.i32(step);
  put_particle_payload(w, src, parts, /*with_forces=*/false);
  return w.finish();
}

MigrationMsg decode_migration(std::span<const std::uint8_t> frame) {
  Reader r = open_frame(frame, FrameType::kMigration);
  MigrationMsg msg;
  msg.step = r.i32();
  ParticleBatch batch = read_particle_payload(r);
  r.require(!batch.with_forces, "migration batches must travel force-free");
  msg.src = batch.src;
  msg.parts = std::move(batch.parts);
  r.done();
  return msg;
}

namespace {

void put_string(Writer& w, const std::string& s) {
  w.u32(static_cast<std::uint32_t>(s.size()));
  for (const char c : s) w.u8(static_cast<std::uint8_t>(c));
}

std::string read_string(Reader& r, const char* what) {
  const std::size_t len = r.array_count(r.u32(), 1, what);
  std::string s(len, '\0');
  for (char& c : s) c = static_cast<char>(r.u8());
  return s;
}

void put_i64(Writer& w, std::int64_t v) { w.u64(static_cast<std::uint64_t>(v)); }
std::int64_t read_i64(Reader& r) { return static_cast<std::int64_t>(r.u64()); }

// Minimum wire footprint of one span: name length prefix + the fixed fields.
constexpr std::size_t kSpanMinBytes = 4 + 8 + 8 + 4 + 4 + 8 + 8 + 8;

void put_span(Writer& w, const trace::Span& s) {
  put_string(w, s.name);
  put_i64(w, s.begin_ns);
  put_i64(w, s.end_ns);
  w.i32(s.rank);
  w.i32(s.lane);
  put_i64(w, s.step);
  put_i64(w, s.peer);
  put_i64(w, s.bytes);
}

trace::Span read_span(Reader& r) {
  trace::Span s;
  s.name = read_string(r, "span name exceeds payload");
  s.begin_ns = read_i64(r);
  s.end_ns = read_i64(r);
  s.rank = r.i32();
  s.lane = r.i32();
  s.step = read_i64(r);
  s.peer = read_i64(r);
  s.bytes = read_i64(r);
  r.require(s.end_ns >= s.begin_ns, "span ends before it begins");
  return s;
}

void put_interaction_stats(Writer& w, const InteractionStats& s) {
  w.u64(s.p2p);
  w.u64(s.p2c);
  w.u64(s.p2p_padded);
  w.u64(s.p2c_padded);
  w.u64(s.pp_batches);
  w.u64(s.pc_batches);
  for (std::size_t b = 0; b < kBatchHistBuckets; ++b) w.u64(s.batch_hist[b]);
}

InteractionStats read_interaction_stats(Reader& r) {
  InteractionStats s;
  s.p2p = r.u64();
  s.p2c = r.u64();
  s.p2p_padded = r.u64();
  s.p2c_padded = r.u64();
  s.pp_batches = r.u64();
  s.pc_batches = r.u64();
  for (std::size_t b = 0; b < kBatchHistBuckets; ++b) s.batch_hist[b] = r.u64();
  return s;
}

}  // namespace

std::vector<std::uint8_t> encode_step_result(const StepResult& sr) {
  Writer w(FrameType::kStepResult);
  w.i32(sr.rank);
  put_interaction_stats(w, sr.local_stats);
  put_interaction_stats(w, sr.remote_stats);
  w.u64(sr.migrated);
  w.u64(sr.local_count);
  w.f64(sr.kinetic);
  w.f64(sr.potential);
  w.u32(static_cast<std::uint32_t>(sr.let_sizes.size()));
  for (const LetSizeSample& s : sr.let_sizes) {
    w.u64(s.cells);
    w.u64(s.particles);
    w.u64(s.bytes);
  }
  w.u32(static_cast<std::uint32_t>(sr.boundaries.size()));
  w.u64_span(sr.boundaries);
  w.u32(static_cast<std::uint32_t>(sr.traffic.size()));
  for (const PeerTraffic& t : sr.traffic) {
    w.i32(t.src);
    w.i32(t.dst);
    w.u16(t.type);
    w.u64(t.frames);
    w.u64(t.bytes);
  }
  put_i64(w, sr.recv_ns);
  put_i64(w, sr.send_ns);
  w.u32(static_cast<std::uint32_t>(sr.spans.size()));
  for (const trace::Span& span : sr.spans) put_span(w, span);
  return w.finish();
}

StepResult decode_step_result(std::span<const std::uint8_t> frame) {
  Reader r = open_frame(frame, FrameType::kStepResult);
  StepResult sr;
  sr.rank = r.i32();
  sr.local_stats = read_interaction_stats(r);
  sr.remote_stats = read_interaction_stats(r);
  sr.migrated = r.u64();
  sr.local_count = r.u64();
  sr.kinetic = r.f64();
  sr.potential = r.f64();
  const std::size_t nsizes = r.array_count(r.u32(), 3 * 8, "LET size count exceeds payload");
  sr.let_sizes.resize(nsizes);
  for (LetSizeSample& s : sr.let_sizes) {
    s.cells = r.u64();
    s.particles = r.u64();
    s.bytes = r.u64();
  }
  const std::size_t nbounds = r.array_count(r.u32(), 8, "boundary count exceeds payload");
  sr.boundaries.resize(nbounds);
  r.u64_span(sr.boundaries);
  const std::size_t ntraffic =
      r.array_count(r.u32(), 4 + 4 + 2 + 8 + 8, "traffic count exceeds payload");
  sr.traffic.resize(ntraffic);
  for (PeerTraffic& t : sr.traffic) {
    t.src = r.i32();
    t.dst = r.i32();
    t.type = r.u16();
    t.frames = r.u64();
    t.bytes = r.u64();
  }
  sr.recv_ns = read_i64(r);
  sr.send_ns = read_i64(r);
  const std::size_t nspans =
      r.array_count(r.u32(), kSpanMinBytes, "span count exceeds payload");
  sr.spans.reserve(nspans);
  for (std::size_t i = 0; i < nspans; ++i) sr.spans.push_back(read_span(r));
  r.done();
  return sr;
}

namespace {

void put_metrics(Writer& w, const metrics::Snapshot& m) {
  w.u32(static_cast<std::uint32_t>(m.counters.size()));
  for (const auto& [name, v] : m.counters) {
    put_string(w, name);
    w.f64(v);
  }
  w.u32(static_cast<std::uint32_t>(m.gauges.size()));
  for (const auto& [name, v] : m.gauges) {
    put_string(w, name);
    w.f64(v);
  }
  w.u32(static_cast<std::uint32_t>(m.histograms.size()));
  for (const auto& [name, h] : m.histograms) {
    BNS_CHECK(h.counts.size() == h.bounds.size() + 1);
    put_string(w, name);
    w.u32(static_cast<std::uint32_t>(h.bounds.size()));
    w.f64_span(h.bounds);
    w.u64_span(h.counts);
    w.u64(h.count);
    w.f64(h.sum);
  }
}

metrics::Snapshot read_metrics(Reader& r) {
  metrics::Snapshot m;
  const std::size_t ncounters =
      r.array_count(r.u32(), 4 + 8, "metric counter count exceeds payload");
  for (std::size_t i = 0; i < ncounters; ++i) {
    std::string name = read_string(r, "metric name exceeds payload");
    m.counters[std::move(name)] = r.f64();
  }
  const std::size_t ngauges =
      r.array_count(r.u32(), 4 + 8, "metric gauge count exceeds payload");
  for (std::size_t i = 0; i < ngauges; ++i) {
    std::string name = read_string(r, "metric name exceeds payload");
    m.gauges[std::move(name)] = r.f64();
  }
  const std::size_t nhists =
      r.array_count(r.u32(), 4 + 4 + 8 + 8 + 8, "metric histogram count exceeds payload");
  for (std::size_t i = 0; i < nhists; ++i) {
    std::string name = read_string(r, "metric name exceeds payload");
    metrics::HistogramData h;
    const std::size_t nbounds =
        r.array_count(r.u32(), 8 + 8, "histogram bound count exceeds payload");
    h.bounds.resize(nbounds);
    r.f64_span(h.bounds);
    h.counts.resize(nbounds + 1);
    r.u64_span(h.counts);
    h.count = r.u64();
    h.sum = r.f64();
    m.histograms.emplace(std::move(name), std::move(h));
  }
  return m;
}

}  // namespace

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

namespace {

JobState read_job_state(Reader& r) {
  const std::uint8_t state = r.u8();
  r.require(state <= static_cast<std::uint8_t>(JobState::kRejected),
            "unknown job state");
  return static_cast<JobState>(state);
}

}  // namespace

std::vector<std::uint8_t> encode_job_submit(const JobSpec& spec) {
  Writer w(FrameType::kJobSubmit);
  put_string(w, spec.name);
  w.u64(spec.n);
  w.u64(spec.seed);
  w.i32(spec.steps);
  w.i32(spec.ranks);
  w.i32(spec.priority);
  w.f64(spec.theta);
  w.f64(spec.eps);
  w.f64(spec.dt);
  w.u8(static_cast<std::uint8_t>(spec.kernel));
  put_particle_payload(w, -1, spec.parts, /*with_forces=*/false);
  return w.finish();
}

JobSpec decode_job_submit(std::span<const std::uint8_t> frame) {
  Reader r = open_frame(frame, FrameType::kJobSubmit);
  JobSpec spec;
  spec.name = read_string(r, "job name exceeds payload");
  spec.n = r.u64();
  spec.seed = r.u64();
  spec.steps = r.i32();
  spec.ranks = r.i32();
  spec.priority = r.i32();
  spec.theta = r.f64();
  spec.eps = r.f64();
  spec.dt = r.f64();
  const std::uint8_t kernel = r.u8();
  r.require(kernel <= static_cast<std::uint8_t>(KernelBackend::kSimd),
            "job kernel backend out of range");
  spec.kernel = static_cast<KernelBackend>(kernel);
  ParticleBatch batch = read_particle_payload(r);
  r.require(!batch.with_forces, "job initial condition must travel force-free");
  spec.parts = std::move(batch.parts);
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
  w.i32(status.job_id);
  w.u8(static_cast<std::uint8_t>(status.state));
  w.u8(status.wait ? 1 : 0);
  w.i32(status.steps_done);
  w.i32(status.steps_total);
  w.i32(status.ranks);
  w.i32(status.priority);
  w.u64(status.n);
  put_string(w, status.reason);
  return w.finish();
}

JobStatusMsg decode_job_status(std::span<const std::uint8_t> frame) {
  Reader r = open_frame(frame, FrameType::kJobStatus);
  JobStatusMsg status;
  status.job_id = r.i32();
  status.state = read_job_state(r);
  const std::uint8_t wait = r.u8();
  r.require(wait <= 1, "unknown job status flags");
  status.wait = wait != 0;
  status.steps_done = r.i32();
  status.steps_total = r.i32();
  status.ranks = r.i32();
  status.priority = r.i32();
  status.n = r.u64();
  status.reason = read_string(r, "job status reason exceeds payload");
  r.done();
  return status;
}

std::vector<std::uint8_t> encode_job_result(const JobResultMsg& result) {
  Writer w(FrameType::kJobResult);
  w.i32(result.job_id);
  w.u8(static_cast<std::uint8_t>(result.state));
  w.i32(result.steps_done);
  w.f64(result.kinetic);
  w.f64(result.potential);
  put_string(w, result.reason);
  put_particle_payload(w, -1, result.parts, /*with_forces=*/true);
  return w.finish();
}

JobResultMsg decode_job_result(std::span<const std::uint8_t> frame) {
  Reader r = open_frame(frame, FrameType::kJobResult);
  JobResultMsg result;
  result.job_id = r.i32();
  result.state = read_job_state(r);
  result.steps_done = r.i32();
  result.kinetic = r.f64();
  result.potential = r.f64();
  result.reason = read_string(r, "job result reason exceeds payload");
  ParticleBatch batch = read_particle_payload(r);
  r.require(batch.with_forces, "job result batch must carry forces");
  result.parts = std::move(batch.parts);
  r.done();
  return result;
}

std::vector<std::uint8_t> encode_job_cancel(std::int32_t job_id) {
  Writer w(FrameType::kJobCancel);
  w.i32(job_id);
  return w.finish();
}

std::int32_t decode_job_cancel(std::span<const std::uint8_t> frame) {
  Reader r = open_frame(frame, FrameType::kJobCancel);
  const std::int32_t job_id = r.i32();
  r.done();
  return job_id;
}

std::vector<std::uint8_t> encode_snapshot(const SnapshotMsg& snap) {
  Writer w(FrameType::kSnapshot);
  w.i32(snap.job_id);
  w.i32(snap.next_step);
  w.u32(static_cast<std::uint32_t>(snap.sets.size()));
  for (std::size_t r = 0; r < snap.sets.size(); ++r)
    put_particle_payload(w, static_cast<int>(r), snap.sets[r], /*with_forces=*/true);
  return w.finish();
}

SnapshotMsg decode_snapshot(std::span<const std::uint8_t> frame) {
  Reader r = open_frame(frame, FrameType::kSnapshot);
  SnapshotMsg snap;
  snap.job_id = r.i32();
  snap.next_step = r.i32();
  // Minimum per-set footprint: the particle payload prologue (src + flags +
  // count) of an empty set.
  const std::size_t nsets =
      r.array_count(r.u32(), 4 + 1 + 8, "snapshot set count exceeds payload");
  r.require(nsets <= 255, "snapshot rank count out of range");
  snap.sets.reserve(nsets);
  for (std::size_t i = 0; i < nsets; ++i) {
    ParticleBatch batch = read_particle_payload(r);
    r.require(batch.with_forces, "snapshot sets must carry forces");
    snap.sets.push_back(std::move(batch.parts));
  }
  r.done();
  return snap;
}

std::vector<std::uint8_t> encode_metrics_query() {
  return Writer(FrameType::kMetricsQuery).finish();
}

std::vector<std::uint8_t> encode_metrics_report(const metrics::Snapshot& snapshot) {
  Writer w(FrameType::kMetricsReport);
  put_metrics(w, snapshot);
  return w.finish();
}

metrics::Snapshot decode_metrics_report(std::span<const std::uint8_t> frame) {
  Reader r = open_frame(frame, FrameType::kMetricsReport);
  metrics::Snapshot m = read_metrics(r);
  r.done();
  return m;
}

}  // namespace bonsai::domain::wire
