// Wire-format round-trips and hard rejection of malformed frames, plus the
// transport backends the frames travel through. Decoders must throw
// WireError on any truncated/corrupted/mismatched buffer — and must never
// read out of bounds or hand the traversal a malformed tree.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "domain/channel.hpp"
#include "domain/decomposition.hpp"
#include "domain/let.hpp"
#include "domain/simulation.hpp"
#include "domain/transport.hpp"
#include "domain/wire.hpp"
#include "fuzz/wire_corpus.hpp"
#include "util/ic.hpp"

namespace bonsai {
namespace {

using domain::LetTree;
namespace wire = domain::wire;

// A LET with real structure: built from a Plummer tree against a displaced
// remote box, so it mixes internal nodes, multipole leaves and particle
// leaves.
LetTree make_real_let() {
  ParticleSet parts = make_plummer(512, 7);
  const sfc::KeySpace space(parts.bounds());
  sort_by_keys(parts, space);
  Octree tree;
  tree.build(parts);
  tree.compute_properties(parts, 0.5);
  const AABB remote{{4.0, 4.0, 4.0}, {6.0, 6.0, 6.0}};
  return domain::build_let(tree.view(parts), remote);
}

// The kernel byte of a frame: the one byte where its kScalar (0) and kSimd
// (1) encodings differ.
std::size_t kernel_byte(const std::vector<std::uint8_t>& scalar_frame,
                        const std::vector<std::uint8_t>& simd_frame) {
  EXPECT_EQ(scalar_frame.size(), simd_frame.size());
  std::size_t at = 0, diffs = 0;
  for (std::size_t i = 0; i < scalar_frame.size(); ++i)
    if (scalar_frame[i] != simd_frame[i]) {
      at = i;
      ++diffs;
    }
  EXPECT_EQ(diffs, 1u);
  EXPECT_EQ(simd_frame[at], 1u);
  return at;
}

void expect_same_let(const LetTree& a, const LetTree& b) {
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  ASSERT_EQ(a.x, b.x);  // bit-for-bit doubles
  ASSERT_EQ(a.y, b.y);
  ASSERT_EQ(a.z, b.z);
  ASSERT_EQ(a.m, b.m);
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    const TreeNode& n1 = a.nodes[i];
    const TreeNode& n2 = b.nodes[i];
    EXPECT_EQ(n1.key_begin, n2.key_begin);
    EXPECT_EQ(n1.key_end, n2.key_end);
    EXPECT_EQ(n1.part_begin, n2.part_begin);
    EXPECT_EQ(n1.part_end, n2.part_end);
    EXPECT_EQ(n1.first_child, n2.first_child);
    EXPECT_EQ(n1.num_children, n2.num_children);
    EXPECT_EQ(n1.level, n2.level);
    EXPECT_EQ(n1.kind, n2.kind);
    EXPECT_EQ(n1.mp.mass, n2.mp.mass);
    EXPECT_EQ(n1.mp.com.x, n2.mp.com.x);
    EXPECT_EQ(n1.mp.quad.q, n2.mp.quad.q);
    EXPECT_EQ(n1.rcrit, n2.rcrit);
    EXPECT_EQ(n1.box.lo.x, n2.box.lo.x);
    EXPECT_EQ(n1.box.hi.z, n2.box.hi.z);
  }
}

TEST(Wire, EmptyLetRoundTrip) {
  const std::vector<std::uint8_t> frame = wire::encode_let(3, LetTree{});
  EXPECT_EQ(wire::frame_type(frame), wire::FrameType::kLet);
  const wire::LetMessage msg = wire::decode_let(frame);
  EXPECT_EQ(msg.src, 3);
  EXPECT_EQ(msg.wire_bytes, frame.size());
  EXPECT_TRUE(msg.let.empty());
  EXPECT_EQ(msg.let.num_cells(), 0u);
}

TEST(Wire, SingleMultipoleLeafLetRoundTrip) {
  LetTree let;
  TreeNode nd;
  nd.kind = NodeKind::kMultipoleLeaf;
  nd.key_begin = 0;
  nd.key_end = sfc::kKeyEnd;
  nd.mp.mass = 2.5;
  nd.mp.com = {0.5, -0.25, 1.0 / 3.0};
  nd.mp.quad.q = {1, 2, 3, 4, 5, 6};
  nd.rcrit = 0.75;
  nd.box = {{-1, -1, -1}, {1, 1, 1}};
  let.nodes.push_back(nd);

  const wire::LetMessage msg = wire::decode_let(wire::encode_let(0, let));
  EXPECT_FALSE(msg.let.empty());  // a bare multipole leaf still exerts force
  expect_same_let(let, msg.let);
}

TEST(Wire, RealLetRoundTripsBitForBit) {
  const LetTree let = make_real_let();
  ASSERT_GT(let.num_cells(), 1u);
  ASSERT_GT(let.num_particles(), 0u);
  const wire::LetMessage msg = wire::decode_let(wire::encode_let(1, let));
  expect_same_let(let, msg.let);
}

TEST(Wire, ZeroParticleBatchRoundTrip) {
  const std::vector<std::uint8_t> frame =
      wire::encode_particles(5, ParticleSet{}, /*with_forces=*/false);
  EXPECT_EQ(wire::frame_type(frame), wire::FrameType::kParticles);
  const wire::ParticleBatch batch = wire::decode_particles(frame);
  EXPECT_EQ(batch.src, 5);
  EXPECT_FALSE(batch.with_forces);
  EXPECT_EQ(batch.parts.size(), 0u);
}

TEST(Wire, ParticleBatchRoundTripsBitForBitWithForces) {
  ParticleSet parts = make_plummer(100, 11);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    parts.ax[i] = 0.1 * static_cast<double>(i);
    parts.pot[i] = -1.0 / (1.0 + static_cast<double>(i));
    parts.work[i] = 23.0 * static_cast<double>(i) / 3.0;
    parts.key[i] = 77 * i;
  }
  const wire::ParticleBatch batch =
      wire::decode_particles(wire::encode_particles(2, parts, /*with_forces=*/true));
  EXPECT_TRUE(batch.with_forces);
  EXPECT_EQ(batch.parts.x, parts.x);
  EXPECT_EQ(batch.parts.vz, parts.vz);
  EXPECT_EQ(batch.parts.mass, parts.mass);
  EXPECT_EQ(batch.parts.id, parts.id);
  EXPECT_EQ(batch.parts.key, parts.key);
  EXPECT_EQ(batch.parts.ax, parts.ax);
  EXPECT_EQ(batch.parts.pot, parts.pot);
  EXPECT_EQ(batch.parts.work, parts.work);
}

TEST(Wire, ForceFreeBatchDecodesWithZeroForces) {
  ParticleSet parts = make_plummer(16, 3);
  for (std::size_t i = 0; i < parts.size(); ++i) parts.ax[i] = parts.work[i] = 9.0;
  const wire::ParticleBatch batch =  // forces and work must not travel
      wire::decode_particles(wire::encode_particles(0, parts, /*with_forces=*/false));
  for (std::size_t i = 0; i < batch.parts.size(); ++i) {
    EXPECT_EQ(batch.parts.ax[i], 0.0);
    EXPECT_EQ(batch.parts.pot[i], 0.0);
    EXPECT_EQ(batch.parts.work[i], 0.0);
  }
}

TEST(Wire, TruncatedFramesThrowAtEveryLength) {
  const std::vector<std::uint8_t> frame = wire::encode_let(0, make_real_let());
  for (std::size_t len = 0; len < frame.size(); len += 13) {
    const std::vector<std::uint8_t> cut(frame.begin(),
                                        frame.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW(wire::decode_let(cut), wire::WireError) << "length " << len;
  }
}

TEST(Wire, HeaderCorruptionIsRejected) {
  std::vector<std::uint8_t> frame = wire::encode_let(0, LetTree{});

  std::vector<std::uint8_t> bad = frame;
  bad[0] ^= 0xFF;  // magic
  EXPECT_THROW(wire::frame_type(bad), wire::WireError);

  bad = frame;
  bad[4] += 1;  // version
  EXPECT_THROW(wire::decode_let(bad), wire::WireError);

  bad = frame;
  bad[8] += 1;  // payload length no longer matches the buffer
  EXPECT_THROW(wire::decode_let(bad), wire::WireError);

  // Wrong frame type for the decoder.
  EXPECT_THROW(wire::decode_particles(frame), wire::WireError);
}

TEST(Wire, EveryByteFlipEitherDecodesOrThrowsWireError) {
  // Exhaustive single-byte corruption: decode must never crash, hang or read
  // out of bounds — it either throws WireError or yields a structurally
  // valid LET (flips in coordinate payloads are indistinguishable from
  // data).
  const std::vector<std::uint8_t> frame = wire::encode_let(0, make_real_let());
  for (std::size_t i = 0; i < frame.size(); ++i) {
    std::vector<std::uint8_t> bad = frame;
    bad[i] ^= 0xA5;
    try {
      const wire::LetMessage msg = wire::decode_let(bad);
      // Decoded trees must uphold the traversal-safety invariants.
      for (std::size_t j = 0; j < msg.let.nodes.size(); ++j) {
        const TreeNode& nd = msg.let.nodes[j];
        ASSERT_LE(nd.part_end, msg.let.num_particles());
        if (nd.kind == NodeKind::kInternal) {
          ASSERT_GT(nd.first_child, static_cast<std::int32_t>(j));
          ASSERT_LE(static_cast<std::size_t>(nd.first_child) + nd.num_children,
                    msg.let.nodes.size());
        }
      }
    } catch (const wire::WireError&) {
      // Rejected: fine.
    }
  }
}

TEST(Wire, VersionMismatchNamesBothVersions) {
  std::vector<std::uint8_t> frame = wire::encode_hello(1);
  frame[4] = static_cast<std::uint8_t>(wire::kVersion + 1);  // version LE low byte
  try {
    wire::frame_type(frame);
    FAIL() << "version mismatch must throw";
  } catch (const wire::WireError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("got " + std::to_string(wire::kVersion + 1)), std::string::npos)
        << what;
    EXPECT_NE(what.find("expected " + std::to_string(wire::kVersion)), std::string::npos)
        << what;
  }
}

// The header names only live frame types: 0, the retired Trace (13) and
// LetDelta (21) numbers, and anything past the last type are rejected before
// any consumer sees the frame, with the value in the message.
TEST(Wire, UnknownFrameTypesAreRejectedAtTheHeader) {
  const std::vector<std::uint8_t> frame = wire::encode_let(0, make_real_let());
  ASSERT_EQ(wire::frame_type(frame), wire::FrameType::kLet);
  const auto last = static_cast<std::uint16_t>(wire::FrameType::kMetricsReport);
  for (const std::uint16_t type :
       {std::uint16_t{0}, std::uint16_t{13}, std::uint16_t{21},
        static_cast<std::uint16_t>(last + 1), std::uint16_t{0xFFFF}}) {
    std::vector<std::uint8_t> bad = frame;
    bad[6] = static_cast<std::uint8_t>(type & 0xFF);  // frame type, little-endian
    bad[7] = static_cast<std::uint8_t>(type >> 8);
    try {
      wire::frame_type(bad);
      ADD_FAILURE() << "frame type " << type << " accepted";
    } catch (const wire::WireError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("unknown frame type " + std::to_string(type)), std::string::npos)
          << what;
    }
    EXPECT_THROW(fuzz::decode_any(bad), wire::WireError) << "type " << type;
  }
}

// ---- The LET exchange without a delta codec (wire v13) ---------------------
// Wire v7 to v12 could ship a LET as a LetDelta frame (type 21) patched
// against a per-pair cache; v13 retired that codec. The LetDelta tests keep
// its correctness bar on the path that replaced it: every LET crosses as a
// full Let frame that decodes bit for bit, a delta frame is rejected, a
// rejected frame leaves the exchange's expected-arrival count untouched,
// and the cache knobs that SimConfig and LetChannelState still accept
// change nothing.

// A drifting cloud whose per-step LET exports evolve the way a real run's
// do: coherent bulk motion plus slow internal evolution, so node geometry
// and multipoles change every step while the topology stays mostly stable.
class DriftingExporter {
 public:
  explicit DriftingExporter(std::size_t n, std::uint64_t seed)
      : parts_(make_plummer(n, seed)) {
    for (std::size_t i = 0; i < parts_.size(); ++i) {
      parts_.vx[i] += 0.5;
      parts_.vy[i] += 0.25;
    }
  }

  // Advance the cloud and export the LET a remote rank would receive.
  LetTree step_export() {
    for (std::size_t i = 0; i < parts_.size(); ++i) {
      parts_.x[i] += 1e-2 * parts_.vx[i];
      parts_.y[i] += 1e-2 * parts_.vy[i];
      parts_.z[i] += 1e-2 * parts_.vz[i];
    }
    const sfc::KeySpace space(parts_.bounds());
    sort_by_keys(parts_, space);
    Octree tree;
    tree.build(parts_);
    tree.compute_properties(parts_, 0.5);
    const AABB remote{{4.0, 4.0, 4.0}, {6.0, 6.0, 6.0}};
    return domain::build_let(tree.view(parts_), remote);
  }

 private:
  ParticleSet parts_;
};

// Traversal-safety invariants every accepted decode must uphold.
void expect_walkable(const LetTree& let) {
  for (std::size_t j = 0; j < let.nodes.size(); ++j) {
    const TreeNode& nd = let.nodes[j];
    ASSERT_LE(nd.part_end, let.num_particles());
    if (nd.kind == NodeKind::kInternal) {
      ASSERT_GT(nd.first_child, static_cast<std::int32_t>(j));
      ASSERT_LE(static_cast<std::size_t>(nd.first_child) + nd.num_children,
                let.nodes.size());
    }
  }
}

// A rank pair's exchange with the bench/ remnant cache knobs switched on:
// rank 0 posts to rank 1, which expects one LET per step.
struct LetPair {
  explicit LetPair(double churn) : transport(2) { state.init(2, true, churn); }

  // Posts `let` from rank 0 and returns the frame that reached rank 1's
  // mailbox, without decoding it.
  std::vector<std::uint8_t> post_raw(const LetTree& let) {
    domain::LetExchange net(transport, {1, 1}, &state);
    const std::size_t bytes = net.post(0, 1, let);
    std::vector<std::uint8_t> frame = transport.recv(1).value();
    EXPECT_EQ(frame.size(), bytes);
    return frame;
  }

  domain::InProcTransport transport;
  domain::LetChannelState state;
};

// LetDelta frames arrived in wire v7; the version only grows.
TEST(LetDelta, WireVersionIsAtLeastSeven) { EXPECT_GE(wire::kVersion, 7); }

TEST(LetDelta, EvolvingExchangePatchesBitForBit) {
  DriftingExporter source(512, 7);
  LetPair pair(0.75);
  domain::InProcTransport& transport = pair.transport;
  for (int step = 0; step < 6; ++step) {
    const LetTree fresh = source.step_export();
    domain::LetExchange net(transport, {1, 1}, &pair.state);
    net.post(0, 1, fresh);
    const std::optional<wire::LetMessage> msg = net.recv(1);
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(msg->src, 0);
    EXPECT_FALSE(net.recv(1).has_value());
    // Every step ships the whole LET: the received tree must match the
    // fresh export field by field and, re-encoded, byte for byte.
    expect_same_let(fresh, msg->let);
    EXPECT_EQ(wire::encode_let(0, msg->let), wire::encode_let(0, fresh))
        << "received LET re-encodes differently from the export at step " << step;
    EXPECT_EQ(net.delta_stats(0).delta_frames, 0u);
    EXPECT_EQ(net.delta_stats(0).bytes_saved, 0u);
  }
}

TEST(LetDelta, TruncationThrowsAtEveryLengthAndLeavesTheCacheUntouched) {
  DriftingExporter source(512, 7);
  LetPair pair(0.75);
  (void)source.step_export();
  const std::vector<std::uint8_t> frame = pair.post_raw(source.step_export());
  domain::LetExchange net(pair.transport, {1, 1}, &pair.state);
  for (std::size_t len = 0; len < frame.size(); ++len) {
    pair.transport.post(0, 1, std::vector<std::uint8_t>(
                                  frame.begin(), frame.begin() + static_cast<std::ptrdiff_t>(len)));
    EXPECT_THROW((void)net.recv(1), wire::WireError) << "length " << len;
    EXPECT_EQ(net.remaining(1), 1u) << "a rejected frame must not count as an arrival";
  }
  // The pristine frame still arrives: the exchange survived every rejection.
  pair.transport.post(0, 1, frame);
  EXPECT_EQ(net.recv(1).value().src, 0);
  EXPECT_EQ(net.remaining(1), 0u);
}

TEST(LetDelta, EveryByteFlipEitherPatchesValidOrThrows) {
  DriftingExporter source(512, 7);
  LetPair pair(0.75);
  (void)source.step_export();
  const std::vector<std::uint8_t> frame = pair.post_raw(source.step_export());
  for (std::size_t i = 0; i < frame.size(); ++i) {
    std::vector<std::uint8_t> bad = frame;
    bad[i] ^= 0xA5;
    // Each flip goes to a fresh exchange so one accepted mutation cannot
    // change the expected-arrival count the next probe starts from.
    domain::LetExchange net(pair.transport, {1, 1}, &pair.state);
    pair.transport.post(0, 1, std::move(bad));
    try {
      const std::optional<wire::LetMessage> msg = net.recv(1);
      ASSERT_TRUE(msg.has_value());
      // Accepted: the tree must still be safe to walk (flips in value
      // payloads are indistinguishable from data).
      expect_walkable(msg->let);
    } catch (const wire::WireError&) {
      EXPECT_EQ(net.remaining(1), 1u) << "byte " << i;
    }
  }
}

TEST(LetDelta, DeltaAgainstEmptyCacheIsRejected) {
  // A LetDelta frame (type 21) has no cache to patch against anywhere: the
  // header check rejects it before any decoder, and an exchange that
  // receives one throws without counting it as an arrival.
  DriftingExporter source(256, 5);
  LetPair pair(0.75);
  std::vector<std::uint8_t> delta = pair.post_raw(source.step_export());
  delta[6] = 21;  // frame type, little-endian
  delta[7] = 0;
  EXPECT_THROW(wire::frame_type(delta), wire::WireError);
  EXPECT_THROW((void)wire::decode_let(delta), wire::WireError);
  domain::LetExchange net(pair.transport, {1, 1}, &pair.state);
  pair.transport.post(0, 1, delta);
  EXPECT_THROW((void)net.recv(1), wire::WireError);
  EXPECT_EQ(net.remaining(1), 1u);
}

TEST(LetDelta, TinyChurnRatioForcesFullFrames) {
  // A churn ratio near 0 once made every delta "too big". The knob is
  // ignored now: whatever it is, each post is a full Let frame identical
  // to a plain encode, and the stream stays decodable.
  DriftingExporter source(256, 9);
  LetPair pair(1e-9);
  for (int step = 0; step < 3; ++step) {
    const LetTree fresh = source.step_export();
    const std::vector<std::uint8_t> frame = pair.post_raw(fresh);
    EXPECT_EQ(wire::frame_type(frame), wire::FrameType::kLet);
    EXPECT_EQ(frame, wire::encode_let(0, fresh));
    expect_same_let(fresh, wire::decode_let(frame).let);
  }
}

TEST(LetDelta, EmptyTreesAlwaysShipFull) {
  LetPair pair(0.75);
  for (int step = 0; step < 2; ++step) {
    const std::vector<std::uint8_t> frame = pair.post_raw(LetTree{});
    EXPECT_EQ(wire::frame_type(frame), wire::FrameType::kLet);
    EXPECT_EQ(frame, wire::encode_let(0, LetTree{}));
    EXPECT_EQ(wire::decode_let(frame).let.nodes.size(), 0u);
  }
}

TEST(LetDelta, ScratchEncodeMatchesPlainEncode) {
  DriftingExporter source(256, 13);
  const LetTree let = source.step_export();
  std::vector<std::uint8_t> scratch;
  const std::vector<std::uint8_t> a = wire::encode_let_scratch(2, let, scratch);
  const std::size_t cap = scratch.capacity();
  EXPECT_EQ(a, wire::encode_let(2, let));
  // A second encode reuses the buffer's capacity instead of growing anew.
  const std::vector<std::uint8_t> b = wire::encode_let_scratch(2, let, scratch);
  EXPECT_EQ(a, b);
  EXPECT_EQ(scratch.capacity(), cap);
}

// SimConfig::let_cache is a bench/ remnant that src/ ignores: a multi-rank
// run with it set must reproduce the run without it bit for bit.
TEST(LetDelta, CachedSimulationMatchesUncachedBitForBit) {
  ParticleSet initial = make_plummer(1200, 21);
  for (std::size_t i = 0; i < initial.size(); ++i) initial.vx[i] += 0.5;

  domain::SimConfig cfg;
  cfg.nranks = 3;
  cfg.dt = 1e-3;
  cfg.threads_per_rank = 1;
  const auto run = [&](bool cache_on) {
    domain::SimConfig c = cfg;
    c.let_cache = cache_on;
    domain::Simulation sim(c);
    sim.init(initial);
    for (int s = 0; s < 5; ++s) (void)sim.step();
    return sim.gather();
  };
  const ParticleSet on = run(true);
  const ParticleSet off = run(false);
  ASSERT_EQ(on.size(), off.size());
  EXPECT_EQ(on.x, off.x);
  EXPECT_EQ(on.y, off.y);
  EXPECT_EQ(on.z, off.z);
  EXPECT_EQ(on.ax, off.ax);
  EXPECT_EQ(on.ay, off.ay);
  EXPECT_EQ(on.az, off.az);
  EXPECT_EQ(on.pot, off.pot);
}

TEST(Wire, MeshHandshakeFramesRoundTrip) {
  const std::vector<wire::PeerEndpoint> dir = {
      {"127.0.0.1", 40001}, {"127.0.0.1", 40002}, {"10.0.0.7", 65535}};
  const std::vector<wire::PeerEndpoint> back =
      wire::decode_peer_directory(wire::encode_peer_directory(dir));
  ASSERT_EQ(back.size(), 3u);
  for (std::size_t i = 0; i < dir.size(); ++i) {
    EXPECT_EQ(back[i].host, dir[i].host);
    EXPECT_EQ(back[i].port, dir[i].port);
  }
  EXPECT_EQ(wire::decode_peer_hello(wire::encode_peer_hello(17)), 17);
}

TEST(Wire, MeshHandshakeFramesRejectTruncationAndSurviveByteFlips) {
  const std::vector<wire::PeerEndpoint> dir = {{"127.0.0.1", 40001}, {"127.0.0.1", 2}};
  const std::vector<std::uint8_t> frame = wire::encode_peer_directory(dir);
  // Truncation at every length: always a WireError, never a crash or a read
  // past the buffer.
  for (std::size_t len = 0; len < frame.size(); ++len) {
    const std::vector<std::uint8_t> cut(frame.begin(),
                                        frame.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW(wire::decode_peer_directory(cut), wire::WireError) << len;
  }
  // An empty directory (no ranks) is structurally invalid.
  EXPECT_THROW(
      wire::decode_peer_directory(wire::encode_peer_directory(
          std::vector<wire::PeerEndpoint>{})),
      wire::WireError);
  // Exhaustive single-byte corruption: throw or decode to a bounded value.
  for (std::size_t i = 0; i < frame.size(); ++i) {
    std::vector<std::uint8_t> bad = frame;
    bad[i] ^= 0xA5;
    try {
      const std::vector<wire::PeerEndpoint> got = wire::decode_peer_directory(bad);
      EXPECT_LE(got.size(), 255u);
      for (const wire::PeerEndpoint& p : got) EXPECT_LE(p.host.size(), bad.size());
    } catch (const wire::WireError&) {
    }
  }
  const std::vector<std::uint8_t> ph = wire::encode_peer_hello(3);
  for (std::size_t len = 0; len < ph.size(); ++len) {
    const std::vector<std::uint8_t> cut(ph.begin(),
                                        ph.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW(wire::decode_peer_hello(cut), wire::WireError) << len;
  }
}

TEST(Wire, BoundariesRoundTripsBothPhases) {
  wire::Boundaries pre;
  pre.src = 3;
  pre.step = 17;
  pre.post_migration = false;
  pre.count = 4096;
  pre.box = {{-1.5, -2.5, -3.5}, {1.25, 2.25, 3.25}};
  pre.weight = 1.75e-6;
  const wire::Boundaries back = wire::decode_boundaries(wire::encode_boundaries(pre));
  EXPECT_EQ(back.src, 3);
  EXPECT_EQ(back.step, 17);
  EXPECT_FALSE(back.post_migration);
  EXPECT_EQ(back.count, 4096u);
  EXPECT_EQ(back.box.lo.x, -1.5);
  EXPECT_EQ(back.box.hi.z, 3.25);
  EXPECT_EQ(back.weight, 1.75e-6);  // bit-for-bit

  wire::Boundaries post;
  post.src = 0;
  post.step = 17;
  post.post_migration = true;
  post.count = 0;  // empty rank: default (invalid) box must survive
  const wire::Boundaries pback = wire::decode_boundaries(wire::encode_boundaries(post));
  EXPECT_TRUE(pback.post_migration);
  EXPECT_EQ(pback.count, 0u);
  EXPECT_FALSE(pback.box.valid());
}

TEST(Wire, KeySamplesRoundTripBitForBit) {
  wire::KeySamples ks;
  ks.src = 2;
  ks.step = 5;
  for (std::uint64_t i = 0; i < 1000; ++i) ks.keys.push_back(i * 0x9E3779B97F4A7C15ull);
  const wire::KeySamples back = wire::decode_key_samples(wire::encode_key_samples(ks));
  EXPECT_EQ(back.src, 2);
  EXPECT_EQ(back.step, 5);
  EXPECT_EQ(back.keys, ks.keys);

  // An empty rank contributes an empty sample set.
  const wire::KeySamples empty = wire::decode_key_samples(
      wire::encode_key_samples({4, 9, {}}));
  EXPECT_EQ(empty.src, 4);
  EXPECT_TRUE(empty.keys.empty());
}

TEST(Wire, MigrationRoundTripsBitForBitAndForceFree) {
  ParticleSet parts = make_plummer(64, 19);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    parts.key[i] = 13 * i + 7;
    parts.ax[i] = 5.0;  // forces must not travel
  }
  const wire::MigrationMsg msg =
      wire::decode_migration(wire::encode_migration(1, 23, parts));
  EXPECT_EQ(msg.src, 1);
  EXPECT_EQ(msg.step, 23);
  EXPECT_EQ(msg.parts.x, parts.x);
  EXPECT_EQ(msg.parts.vz, parts.vz);
  EXPECT_EQ(msg.parts.mass, parts.mass);
  EXPECT_EQ(msg.parts.id, parts.id);
  EXPECT_EQ(msg.parts.key, parts.key);
  for (std::size_t i = 0; i < msg.parts.size(); ++i) EXPECT_EQ(msg.parts.ax[i], 0.0);

  const wire::MigrationMsg empty =
      wire::decode_migration(wire::encode_migration(0, 1, ParticleSet{}));
  EXPECT_EQ(empty.parts.size(), 0u);
}

TEST(Wire, SpmdFramesRejectTruncationAtEveryLength) {
  wire::KeySamples ks{1, 2, {10, 20, 30, 40}};
  wire::Boundaries b;
  b.src = 1;
  b.count = 7;
  const std::vector<std::vector<std::uint8_t>> frames = {
      wire::encode_boundaries(b),
      wire::encode_key_samples(ks),
      wire::encode_migration(0, 3, make_plummer(16, 1)),
  };
  for (const auto& frame : frames) {
    for (std::size_t len = 0; len < frame.size(); ++len) {
      const std::vector<std::uint8_t> cut(
          frame.begin(), frame.begin() + static_cast<std::ptrdiff_t>(len));
      switch (wire::FrameType{frame[6]}) {
        case wire::FrameType::kBoundaries:
          EXPECT_THROW(wire::decode_boundaries(cut), wire::WireError) << len;
          break;
        case wire::FrameType::kKeySamples:
          EXPECT_THROW(wire::decode_key_samples(cut), wire::WireError) << len;
          break;
        default:
          EXPECT_THROW(wire::decode_migration(cut), wire::WireError) << len;
          break;
      }
    }
  }
}

TEST(Wire, SpmdFrameByteFlipsEitherDecodeOrThrow) {
  // Exhaustive single-byte corruption over the three SPMD frames: decode
  // must never crash, hang or read out of bounds — it throws WireError or
  // yields a structurally valid value (flips inside f64/key payloads are
  // indistinguishable from data).
  {
    wire::Boundaries b;
    b.src = 2;
    b.step = 4;
    b.count = 123;
    b.box = {{-1, -1, -1}, {1, 1, 1}};
    const std::vector<std::uint8_t> frame = wire::encode_boundaries(b);
    for (std::size_t i = 0; i < frame.size(); ++i) {
      std::vector<std::uint8_t> bad = frame;
      bad[i] ^= 0xA5;
      try {
        (void)wire::decode_boundaries(bad);
      } catch (const wire::WireError&) {
      }
    }
  }
  {
    const std::vector<std::uint8_t> frame =
        wire::encode_key_samples({0, 1, {1, 2, 3, 4, 5, 6, 7, 8}});
    for (std::size_t i = 0; i < frame.size(); ++i) {
      std::vector<std::uint8_t> bad = frame;
      bad[i] ^= 0xA5;
      try {
        const wire::KeySamples ks = wire::decode_key_samples(bad);
        EXPECT_LE(ks.keys.size(), bad.size());  // counts always payload-bounded
      } catch (const wire::WireError&) {
      }
    }
  }
  {
    const std::vector<std::uint8_t> frame =
        wire::encode_migration(1, 2, make_plummer(32, 9));
    for (std::size_t i = 0; i < frame.size(); ++i) {
      std::vector<std::uint8_t> bad = frame;
      bad[i] ^= 0xA5;
      try {
        const wire::MigrationMsg msg = wire::decode_migration(bad);
        // Force-free invariant survives any accepted mutation.
        for (std::size_t p = 0; p < msg.parts.size(); ++p)
          ASSERT_EQ(msg.parts.pot[p], 0.0);
      } catch (const wire::WireError&) {
      }
    }
  }
}

TEST(Wire, StepBeginModeRoundTripsAndRejectsUnknown) {
  wire::StepBegin sb;
  sb.step = 9;
  sb.mode = wire::StepMode::kSpmdStep;
  const std::vector<std::uint8_t> frame = wire::encode_step_begin(sb);
  EXPECT_EQ(wire::decode_step_begin(frame).mode, wire::StepMode::kSpmdStep);

  // The mode byte sits right after the step field in the payload. Byte 0,
  // the deleted coordinator-owned step, is as unknown as any other.
  for (const std::uint8_t mode : {std::uint8_t{0}, std::uint8_t{4}, std::uint8_t{200}}) {
    std::vector<std::uint8_t> bad = frame;
    bad[wire::kHeaderBytes + 4] = mode;
    EXPECT_THROW(wire::decode_step_begin(bad), wire::WireError) << int{mode};
  }
}

TEST(Wire, StepResultCarriesSpmdAggregates) {
  wire::StepResult sr;
  sr.rank = 1;
  sr.migrated = 42;
  sr.local_count = 512;
  sr.kinetic = 0.25;
  sr.potential = -0.5;
  sr.boundaries = {0, 1000, 2000, sfc::kKeyEnd};
  sr.traffic = {{1, 0, 10, 2, 64}, {1, 2, 1, 3, 128}};
  const wire::StepResult back = wire::decode_step_result(wire::encode_step_result(sr));
  EXPECT_EQ(back.migrated, 42u);
  EXPECT_EQ(back.local_count, 512u);
  EXPECT_EQ(back.kinetic, 0.25);
  EXPECT_EQ(back.potential, -0.5);
  EXPECT_EQ(back.boundaries, sr.boundaries);
  ASSERT_EQ(back.traffic.size(), 2u);
  EXPECT_EQ(back.traffic[0].src, 1);
  EXPECT_EQ(back.traffic[0].dst, 0);
  EXPECT_EQ(back.traffic[0].type, 10);
  EXPECT_EQ(back.traffic[1].bytes, 128u);
}

TEST(Wire, ControlFramesRoundTrip) {
  const wire::Hello h = wire::decode_hello(wire::encode_hello(9, 40123));
  EXPECT_EQ(h.rank, 9);
  EXPECT_EQ(h.listen_port, 40123);
  EXPECT_EQ(wire::decode_hello(wire::encode_hello(3)).listen_port, 0);  // star default
  EXPECT_EQ(wire::frame_type(wire::encode_shutdown()), wire::FrameType::kShutdown);

  domain::SimConfig cfg;
  cfg.nranks = 6;
  cfg.theta = 0.3;
  cfg.eps = 0.05;
  cfg.nleaf = 24;
  cfg.ncrit = 96;
  cfg.dt = 0.5e-3;
  cfg.kernel = KernelBackend::kScalar;
  const domain::SimConfig back = wire::decode_config(wire::encode_config(cfg));
  EXPECT_EQ(back.nranks, 6);
  EXPECT_DOUBLE_EQ(back.theta, 0.3);
  EXPECT_DOUBLE_EQ(back.eps, 0.05);
  EXPECT_EQ(back.nleaf, 24);
  EXPECT_EQ(back.ncrit, 96);
  EXPECT_DOUBLE_EQ(back.dt, 0.5e-3);
  EXPECT_EQ(back.kernel, KernelBackend::kScalar);

  // Kernel bytes past kSimd name no backend and are rejected.
  const std::vector<std::uint8_t> scalar_frame = wire::encode_config(cfg);
  cfg.kernel = KernelBackend::kSimd;
  std::vector<std::uint8_t> bad = wire::encode_config(cfg);
  bad[kernel_byte(scalar_frame, bad)] = 2;
  EXPECT_THROW(wire::decode_config(bad), wire::WireError);
}

TEST(Wire, StepBeginAndResultRoundTrip) {
  // StepBegin is step + mode + the (bootstrap) batch, nothing else.
  wire::StepBegin sb;
  sb.step = 4;
  sb.mode = wire::StepMode::kSpmdBootstrap;
  sb.parts = make_plummer(32, 5);
  const std::vector<std::uint8_t> sb_frame = wire::encode_step_begin(sb);
  EXPECT_EQ(sb_frame.size(),
            wire::encode_particles(-1, sb.parts, /*with_forces=*/false).size() + 4 + 1);
  const wire::StepBegin back = wire::decode_step_begin(sb_frame);
  EXPECT_EQ(back.step, 4);
  EXPECT_EQ(back.mode, wire::StepMode::kSpmdBootstrap);
  EXPECT_EQ(back.parts.x, sb.parts.x);
  EXPECT_EQ(back.parts.id, sb.parts.id);

  wire::StepResult sr;
  sr.rank = 2;
  sr.local_stats = {10, 20};
  sr.local_stats.p2p_padded = 16;
  sr.local_stats.p2c_padded = 24;
  sr.local_stats.pp_batches = 3;
  sr.local_stats.pc_batches = 2;
  sr.local_stats.batch_hist[0] = 1;
  sr.local_stats.batch_hist[kBatchHistBuckets - 1] = 4;
  sr.remote_stats = {30, 40};
  sr.let_sizes.push_back({7, 8, 9});
  const wire::StepResult rback = wire::decode_step_result(wire::encode_step_result(sr));
  EXPECT_EQ(rback.rank, 2);
  EXPECT_EQ(rback.local_stats.p2p, 10u);
  EXPECT_EQ(rback.local_stats.p2p_padded, 16u);
  EXPECT_EQ(rback.local_stats.p2c_padded, 24u);
  EXPECT_EQ(rback.local_stats.pp_batches, 3u);
  EXPECT_EQ(rback.local_stats.pc_batches, 2u);
  EXPECT_EQ(rback.local_stats.batch_hist, sr.local_stats.batch_hist);
  EXPECT_EQ(rback.remote_stats.p2c, 40u);
  EXPECT_EQ(rback.remote_stats.pp_batches, 0u);
  ASSERT_EQ(rback.let_sizes.size(), 1u);
  EXPECT_EQ(rback.let_sizes[0].cells, 7u);
  EXPECT_EQ(rback.let_sizes[0].particles, 8u);
  EXPECT_EQ(rback.let_sizes[0].bytes, 9u);
}

// A worker's StepResult with its span log: the rank.step envelope, a remote
// walk naming its peer, a coordinator-peer post (peer -1, a real id) and the
// clock samples the coordinator's offset estimate needs.
wire::StepResult make_result_with_spans() {
  wire::StepResult sr;
  sr.rank = 2;
  sr.boundaries = {0, sfc::kKeyEnd};
  sr.recv_ns = 1'000'000'000;
  sr.send_ns = 1'004'200'000;
  trace::Span a;
  a.name = "rank.step";
  a.begin_ns = 1'000'000'000;
  a.end_ns = 1'004'000'000;
  a.rank = 2;
  a.lane = 2;
  a.step = 7;
  trace::Span b;
  b.name = "gravity.remote";
  b.begin_ns = 1'001'000'000;
  b.end_ns = 1'003'500'000;
  b.rank = 2;
  b.lane = 2;
  b.peer = 0;
  b.bytes = 4096;
  trace::Span c;
  c.name = "transport.post";
  c.begin_ns = 1'003'600'000;
  c.end_ns = 1'003'600'500;
  c.rank = 2;
  c.peer = -1;
  sr.spans = {a, b, c};
  return sr;
}

TEST(Wire, StepResultRoundTripsSpansAndClockSamples) {
  const wire::StepResult sr = make_result_with_spans();
  const wire::StepResult back = wire::decode_step_result(wire::encode_step_result(sr));
  EXPECT_EQ(back.recv_ns, sr.recv_ns);
  EXPECT_EQ(back.send_ns, sr.send_ns);
  ASSERT_EQ(back.spans.size(), 3u);
  EXPECT_EQ(back.spans[0].name, "rank.step");
  EXPECT_EQ(back.spans[0].begin_ns, sr.spans[0].begin_ns);
  EXPECT_EQ(back.spans[0].end_ns, sr.spans[0].end_ns);
  EXPECT_EQ(back.spans[0].step, 7);
  EXPECT_EQ(back.spans[0].peer, -2);  // unset sentinel survives
  EXPECT_EQ(back.spans[0].bytes, -1);
  EXPECT_EQ(back.spans[1].name, "gravity.remote");
  EXPECT_EQ(back.spans[1].step, -1);  // stamped when the result is folded
  EXPECT_EQ(back.spans[1].peer, 0);
  EXPECT_EQ(back.spans[1].bytes, 4096);
  EXPECT_EQ(back.spans[2].peer, -1);  // the coordinator is a real peer id
  EXPECT_EQ(back.spans[2].lane, -1);

  // A span that ends before it begins is malformed.
  wire::StepResult bad = sr;
  bad.spans[1].end_ns = bad.spans[1].begin_ns - 1;
  EXPECT_THROW(wire::decode_step_result(wire::encode_step_result(bad)), wire::WireError);
}

TEST(Wire, StepResultRejectsTruncationAtEveryLength) {
  const std::vector<std::uint8_t> frame = wire::encode_step_result(make_result_with_spans());
  for (std::size_t len = 0; len < frame.size(); ++len) {
    const std::vector<std::uint8_t> cut(frame.begin(),
                                        frame.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW(wire::decode_step_result(cut), wire::WireError) << "length " << len;
  }
}

TEST(Wire, StepResultByteFlipsEitherDecodeOrThrow) {
  // Exhaustive single-byte corruption: decode must never crash, hang or read
  // out of bounds — it throws WireError or yields a structurally valid result
  // (spans never end before they begin, counts bounded by the frame).
  const std::vector<std::uint8_t> frame = wire::encode_step_result(make_result_with_spans());
  for (std::size_t i = 0; i < frame.size(); ++i) {
    std::vector<std::uint8_t> bad = frame;
    bad[i] ^= 0xA5;
    try {
      const wire::StepResult sr = wire::decode_step_result(bad);
      EXPECT_LE(sr.spans.size(), bad.size());
      for (const trace::Span& s : sr.spans) {
        EXPECT_GE(s.end_ns, s.begin_ns);
        EXPECT_LE(s.name.size(), bad.size());
      }
    } catch (const wire::WireError&) {
      // Rejected: fine.
    }
  }
}

// A metrics snapshot with every kind of entry, for the MetricsReport frame.
metrics::Snapshot make_metrics_snapshot() {
  metrics::Snapshot m;
  m.counters["gravity.remote.p2p"] = 12345.0;
  m.counters["wire.let.bytes"] = 8192.0;
  m.gauges["step.elapsed_s"] = 0.004;
  metrics::HistogramData h;
  h.bounds = {16.0, 32.0, 64.0};
  h.counts = {1, 0, 2, 0};
  h.count = 3;
  h.sum = 150.0;
  m.histograms["let.size.bytes"] = h;
  return m;
}

// ---- Job-server frames (wire v6) -------------------------------------------

wire::JobSpec make_job_spec(bool with_parts) {
  wire::JobSpec spec;
  spec.name = "milky-way-disk";
  spec.n = 100000;
  spec.seed = 1234567;
  spec.steps = 12;
  spec.ranks = 6;
  spec.priority = -3;
  spec.theta = 0.35;
  spec.eps = 2.5e-2;
  spec.dt = 0.5e-3;
  spec.kernel = KernelBackend::kScalar;
  if (with_parts) spec.parts = make_plummer(48, 31);
  return spec;
}

TEST(Wire, JobSubmitRoundTripsBitForBit) {
  const wire::JobSpec spec = make_job_spec(/*with_parts=*/true);
  const std::vector<std::uint8_t> frame = wire::encode_job_submit(spec);
  EXPECT_EQ(wire::frame_type(frame), wire::FrameType::kJobSubmit);
  const wire::JobSpec back = wire::decode_job_submit(frame);
  EXPECT_EQ(back.name, spec.name);
  EXPECT_EQ(back.n, spec.n);
  EXPECT_EQ(back.seed, spec.seed);
  EXPECT_EQ(back.steps, spec.steps);
  EXPECT_EQ(back.ranks, spec.ranks);
  EXPECT_EQ(back.priority, spec.priority);
  EXPECT_EQ(back.theta, spec.theta);  // bit-for-bit doubles
  EXPECT_EQ(back.eps, spec.eps);
  EXPECT_EQ(back.dt, spec.dt);
  EXPECT_EQ(back.kernel, spec.kernel);
  EXPECT_EQ(back.parts.x, spec.parts.x);
  EXPECT_EQ(back.parts.vz, spec.parts.vz);
  EXPECT_EQ(back.parts.mass, spec.parts.mass);
  EXPECT_EQ(back.parts.id, spec.parts.id);

  // Generator form: no particles, the server makes the IC from (n, seed).
  const wire::JobSpec gen = wire::decode_job_submit(
      wire::encode_job_submit(make_job_spec(/*with_parts=*/false)));
  EXPECT_EQ(gen.parts.size(), 0u);
  EXPECT_EQ(gen.n, 100000u);

  // Kernel bytes past kSimd name no backend and are rejected.
  wire::JobSpec simd_spec = make_job_spec(/*with_parts=*/true);
  simd_spec.kernel = KernelBackend::kSimd;
  std::vector<std::uint8_t> bad = wire::encode_job_submit(simd_spec);
  bad[kernel_byte(frame, bad)] = 2;
  EXPECT_THROW(wire::decode_job_submit(bad), wire::WireError);
}

TEST(Wire, JobStatusRoundTripsBothDirections) {
  wire::JobStatusMsg st;
  st.job_id = 17;
  st.state = wire::JobState::kSuspended;
  st.wait = true;
  st.steps_done = 5;
  st.steps_total = 40;
  st.ranks = 3;
  st.priority = -1;
  st.n = 65536;
  st.reason = "job queue full: max_concurrent_jobs=2";
  const std::vector<std::uint8_t> frame = wire::encode_job_status(st);
  EXPECT_EQ(wire::frame_type(frame), wire::FrameType::kJobStatus);
  const wire::JobStatusMsg back = wire::decode_job_status(frame);
  EXPECT_EQ(back.job_id, 17);
  EXPECT_EQ(back.state, wire::JobState::kSuspended);
  EXPECT_TRUE(back.wait);
  EXPECT_EQ(back.steps_done, 5);
  EXPECT_EQ(back.steps_total, 40);
  EXPECT_EQ(back.ranks, 3);
  EXPECT_EQ(back.priority, -1);
  EXPECT_EQ(back.n, 65536u);
  EXPECT_EQ(back.reason, st.reason);

  // A corrupt state byte must be rejected, not cast blindly.
  std::vector<std::uint8_t> bad = frame;
  bad[wire::kHeaderBytes + 4] = 200;  // state sits right after job_id
  EXPECT_THROW(wire::decode_job_status(bad), wire::WireError);
}

TEST(Wire, JobResultRoundTripsParticlesWithForces) {
  wire::JobResultMsg res;
  res.job_id = 9;
  res.state = wire::JobState::kCompleted;
  res.steps_done = 8;
  res.kinetic = 0.25;
  res.potential = -0.5078125;
  res.parts = make_plummer(40, 3);
  for (std::size_t i = 0; i < res.parts.size(); ++i) {
    res.parts.ax[i] = 0.5 * static_cast<double>(i);
    res.parts.pot[i] = -2.0 / (1.0 + static_cast<double>(i));
  }
  const std::vector<std::uint8_t> frame = wire::encode_job_result(res);
  EXPECT_EQ(wire::frame_type(frame), wire::FrameType::kJobResult);
  const wire::JobResultMsg back = wire::decode_job_result(frame);
  EXPECT_EQ(back.job_id, 9);
  EXPECT_EQ(back.state, wire::JobState::kCompleted);
  EXPECT_EQ(back.steps_done, 8);
  EXPECT_EQ(back.kinetic, 0.25);
  EXPECT_EQ(back.potential, -0.5078125);
  EXPECT_EQ(back.parts.x, res.parts.x);
  EXPECT_EQ(back.parts.ax, res.parts.ax);  // forces travel in results
  EXPECT_EQ(back.parts.pot, res.parts.pot);
}

TEST(Wire, JobCancelRoundTrip) {
  const std::vector<std::uint8_t> frame = wire::encode_job_cancel(-7);
  EXPECT_EQ(wire::frame_type(frame), wire::FrameType::kJobCancel);
  EXPECT_EQ(wire::decode_job_cancel(frame), -7);
}

TEST(Wire, SnapshotRoundTripsPerRankSetsBitForBit) {
  wire::SnapshotMsg snap;
  snap.job_id = 4;
  snap.next_step = 11;
  snap.sets.resize(3);
  snap.sets[0] = make_plummer(32, 5);
  snap.sets[1] = make_plummer(17, 6);
  // sets[2] stays empty: a drained rank must survive the trip.
  for (auto& s : snap.sets)
    for (std::size_t i = 0; i < s.size(); ++i) {
      s.ax[i] = 0.25 * static_cast<double>(i);
      s.pot[i] = -1.0;
      s.key[i] = 99 * i;
    }
  const std::vector<std::uint8_t> frame = wire::encode_snapshot(snap);
  EXPECT_EQ(wire::frame_type(frame), wire::FrameType::kSnapshot);
  const wire::SnapshotMsg back = wire::decode_snapshot(frame);
  EXPECT_EQ(back.job_id, 4);
  EXPECT_EQ(back.next_step, 11);
  ASSERT_EQ(back.sets.size(), 3u);
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(back.sets[r].x, snap.sets[r].x);
    EXPECT_EQ(back.sets[r].vy, snap.sets[r].vy);
    EXPECT_EQ(back.sets[r].ax, snap.sets[r].ax);  // checkpoints carry forces
    EXPECT_EQ(back.sets[r].pot, snap.sets[r].pot);
    EXPECT_EQ(back.sets[r].key, snap.sets[r].key);
    EXPECT_EQ(back.sets[r].id, snap.sets[r].id);
  }

  // The request form: a job id and no sets.
  wire::SnapshotMsg req;
  req.job_id = 12;
  const wire::SnapshotMsg rback = wire::decode_snapshot(wire::encode_snapshot(req));
  EXPECT_EQ(rback.job_id, 12);
  EXPECT_TRUE(rback.sets.empty());
}

TEST(Wire, MetricsQueryAndReportRoundTrip) {
  EXPECT_EQ(wire::frame_type(wire::encode_metrics_query()),
            wire::FrameType::kMetricsQuery);

  metrics::Snapshot snap = make_metrics_snapshot();
  snap.counters["server.jobs.completed"] = 21.0;
  snap.gauges["job.num_particles{job=3}"] = 65536.0;
  const std::vector<std::uint8_t> frame = wire::encode_metrics_report(snap);
  EXPECT_EQ(wire::frame_type(frame), wire::FrameType::kMetricsReport);
  const metrics::Snapshot back = wire::decode_metrics_report(frame);
  EXPECT_EQ(back.counters, snap.counters);
  EXPECT_EQ(back.gauges, snap.gauges);
  ASSERT_EQ(back.histograms.size(), 1u);
  EXPECT_EQ(back.histograms.at("let.size.bytes").counts,
            snap.histograms.at("let.size.bytes").counts);
}

TEST(Wire, JobFramesRejectTruncationAtEveryLength) {
  wire::JobResultMsg res;
  res.job_id = 1;
  res.parts = make_plummer(8, 2);
  wire::SnapshotMsg snap;
  snap.sets = {make_plummer(8, 3), make_plummer(4, 4)};
  wire::JobStatusMsg st;
  st.reason = "because";
  const std::vector<std::vector<std::uint8_t>> frames = {
      wire::encode_job_submit(make_job_spec(/*with_parts=*/true)),
      wire::encode_job_status(st),
      wire::encode_job_result(res),
      wire::encode_job_cancel(2),
      wire::encode_snapshot(snap),
      wire::encode_metrics_report(make_metrics_snapshot()),
  };
  for (const auto& frame : frames) {
    for (std::size_t len = 0; len < frame.size(); ++len) {
      const std::vector<std::uint8_t> cut(
          frame.begin(), frame.begin() + static_cast<std::ptrdiff_t>(len));
      switch (wire::FrameType{frame[6]}) {
        case wire::FrameType::kJobSubmit:
          EXPECT_THROW(wire::decode_job_submit(cut), wire::WireError) << len;
          break;
        case wire::FrameType::kJobStatus:
          EXPECT_THROW(wire::decode_job_status(cut), wire::WireError) << len;
          break;
        case wire::FrameType::kJobResult:
          EXPECT_THROW(wire::decode_job_result(cut), wire::WireError) << len;
          break;
        case wire::FrameType::kJobCancel:
          EXPECT_THROW(wire::decode_job_cancel(cut), wire::WireError) << len;
          break;
        case wire::FrameType::kSnapshot:
          EXPECT_THROW(wire::decode_snapshot(cut), wire::WireError) << len;
          break;
        default:
          EXPECT_THROW(wire::decode_metrics_report(cut), wire::WireError) << len;
          break;
      }
    }
  }
}

TEST(Wire, JobFramesByteFlipsEitherDecodeOrThrow) {
  // Exhaustive single-byte corruption over every v6 frame: decode must never
  // crash, hang or read out of bounds — it throws WireError or yields a
  // structurally valid value (enum fields stay in range, counts stay
  // payload-bounded).
  {
    const std::vector<std::uint8_t> frame =
        wire::encode_job_submit(make_job_spec(/*with_parts=*/true));
    for (std::size_t i = 0; i < frame.size(); ++i) {
      std::vector<std::uint8_t> bad = frame;
      bad[i] ^= 0xA5;
      try {
        const wire::JobSpec spec = wire::decode_job_submit(bad);
        EXPECT_GE(spec.steps, 0);
        EXPECT_GE(spec.ranks, 0);
        EXPECT_LE(spec.ranks, 255);
        EXPECT_LE(static_cast<int>(spec.kernel), static_cast<int>(KernelBackend::kSimd));
        EXPECT_LE(spec.name.size(), bad.size());
      } catch (const wire::WireError&) {
      }
    }
  }
  {
    wire::JobStatusMsg st;
    st.job_id = 3;
    st.state = wire::JobState::kRunning;
    st.reason = "spinning";
    const std::vector<std::uint8_t> frame = wire::encode_job_status(st);
    for (std::size_t i = 0; i < frame.size(); ++i) {
      std::vector<std::uint8_t> bad = frame;
      bad[i] ^= 0xA5;
      try {
        const wire::JobStatusMsg got = wire::decode_job_status(bad);
        EXPECT_LE(static_cast<int>(got.state),
                  static_cast<int>(wire::JobState::kRejected));
      } catch (const wire::WireError&) {
      }
    }
  }
  {
    wire::JobResultMsg res;
    res.job_id = 1;
    res.parts = make_plummer(16, 8);
    const std::vector<std::uint8_t> frame = wire::encode_job_result(res);
    for (std::size_t i = 0; i < frame.size(); ++i) {
      std::vector<std::uint8_t> bad = frame;
      bad[i] ^= 0xA5;
      try {
        const wire::JobResultMsg got = wire::decode_job_result(bad);
        EXPECT_LE(static_cast<int>(got.state),
                  static_cast<int>(wire::JobState::kRejected));
      } catch (const wire::WireError&) {
      }
    }
  }
  {
    wire::SnapshotMsg snap;
    snap.job_id = 2;
    snap.next_step = 3;
    snap.sets = {make_plummer(12, 13), make_plummer(7, 14)};
    const std::vector<std::uint8_t> frame = wire::encode_snapshot(snap);
    for (std::size_t i = 0; i < frame.size(); ++i) {
      std::vector<std::uint8_t> bad = frame;
      bad[i] ^= 0xA5;
      try {
        const wire::SnapshotMsg got = wire::decode_snapshot(bad);
        EXPECT_LE(got.sets.size(), 255u);
      } catch (const wire::WireError&) {
      }
    }
  }
  {
    const std::vector<std::uint8_t> frame =
        wire::encode_metrics_report(make_metrics_snapshot());
    for (std::size_t i = 0; i < frame.size(); ++i) {
      std::vector<std::uint8_t> bad = frame;
      bad[i] ^= 0xA5;
      try {
        const metrics::Snapshot got = wire::decode_metrics_report(bad);
        for (const auto& [name, h] : got.histograms)
          EXPECT_EQ(h.counts.size(), h.bounds.size() + 1);
      } catch (const wire::WireError&) {
      }
    }
  }
}

TEST(InProcTransport, FifoPerDestinationAndClose) {
  domain::InProcTransport t(2);
  t.post(0, 1, {1, 2, 3});
  t.post(0, 1, {4});
  EXPECT_EQ(t.recv(1).value(), (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(t.recv(1).value(), (std::vector<std::uint8_t>{4}));
  t.close(1);
  EXPECT_FALSE(t.recv(1).has_value());
}

TEST(SocketTransport, StarLinkCarriesCoordinatorFramesOnly) {
  auto coord = domain::SocketTransport::listen(0, 2);
  ASSERT_GT(coord->port(), 0);

  std::unique_ptr<domain::SocketTransport> w0, w1;
  std::thread t0([&] { w0 = domain::SocketTransport::connect("127.0.0.1", coord->port(), 0); });
  std::thread t1([&] { w1 = domain::SocketTransport::connect("127.0.0.1", coord->port(), 1); });
  coord->accept_workers();
  t0.join();
  t1.join();

  // A star endpoint has no path to another worker (nobody forwards): the
  // post fails by the peer's name instead of vanishing.
  try {
    w0->post(0, 1, wire::encode_hello(42));
    FAIL() << "a star endpoint must not post to another worker";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("peer rank 1"), std::string::npos) << e.what();
  }

  // Worker -> coordinator, coordinator -> worker.
  w1->post(1, domain::kCoordinatorRank, wire::encode_hello(7));
  auto up = coord->recv(domain::kCoordinatorRank);
  ASSERT_TRUE(up.has_value());
  EXPECT_EQ(wire::decode_hello(*up).rank, 7);

  coord->post(domain::kCoordinatorRank, 0, wire::encode_shutdown());
  auto down = w0->recv(0);
  ASSERT_TRUE(down.has_value());
  EXPECT_EQ(wire::frame_type(*down), wire::FrameType::kShutdown);

  // Coordinator teardown closes the workers' endpoints: recv fails fast.
  coord.reset();
  EXPECT_FALSE(w0->recv(0).has_value());
  EXPECT_FALSE(w1->recv(1).has_value());
}

TEST(ExchangeOverTransport, AccountsWireTraffic) {
  std::vector<ParticleSet> sets(2);
  sets[0] = make_plummer(256, 21);  // everything starts on rank 0
  const sfc::KeySpace space(sets[0].bounds());
  const domain::Decomposition decomp = domain::Decomposition::uniform(2);

  domain::InProcTransport inner(2);
  domain::TrafficRecordingTransport transport(inner);
  const domain::ExchangeStats ex = domain::exchange(sets, space, decomp, transport);
  EXPECT_EQ(ex.total, 256u);
  EXPECT_EQ(sets[0].size() + sets[1].size(), 256u);
  std::uint64_t frames = 0, bytes = 0;
  for (const wire::PeerTraffic& t : transport.take()) {
    EXPECT_EQ(t.type, static_cast<std::uint16_t>(wire::FrameType::kParticles));
    frames += t.frames;
    bytes += t.bytes;
  }
  EXPECT_EQ(frames, 2u);  // one batch each way, even if one is empty
  EXPECT_GT(bytes, 0u);
  // Migrated particles and only migrated particles travel on the wire.
  const std::size_t header_free =
      bytes - 2 * (wire::kHeaderBytes + 13);  // 13 = src + flags + count
  EXPECT_EQ(header_free, ex.migrated * 72);  // 9 arrays x 8 bytes each
}

}  // namespace
}  // namespace bonsai
