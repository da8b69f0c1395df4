// Incremental LET exchange (wire v7): delta frames, per-pair caches and the
// patch-and-validate importer. The correctness bar: a patched LET must be
// indistinguishable — bit for bit — from a freshly exported full LET, a
// corrupted delta must be rejected before the patched tree can be walked,
// and a rejected frame must leave the importer's cache untouched.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "domain/let.hpp"
#include "domain/simulation.hpp"
#include "domain/wire.hpp"
#include "util/ic.hpp"

namespace bonsai {
namespace {

using domain::LetTree;
namespace wire = domain::wire;

// A drifting cloud whose per-step LET exports exercise the delta codec the
// way a real run does: coherent bulk motion plus slow internal evolution,
// so node geometry and multipoles change every step while the topology
// stays mostly stable.
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

// Traversal-safety invariants every accepted decode must uphold (the same
// bounds the plain-Let fuzz test enforces).
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

// LetDelta frames arrived in wire v7; every later version must carry them.
TEST(LetDelta, WireVersionIsAtLeastSeven) { EXPECT_GE(wire::kVersion, 7); }

TEST(LetDelta, EvolvingExchangePatchesBitForBit) {
  DriftingExporter source(512, 7);
  wire::LetCacheEntry send, recv;
  std::uint64_t deltas = 0;
  for (int step = 0; step < 6; ++step) {
    const LetTree fresh = source.step_export();
    const wire::LetEncodeResult enc = wire::encode_let_cached(1, fresh, send,
                                                              wire::kLetChurnRatio);
    if (step == 0) {
      EXPECT_FALSE(enc.is_delta) << "first contact must ship a full frame";
    }
    if (enc.is_delta) {
      ++deltas;
      EXPECT_EQ(wire::frame_type(enc.frame), wire::FrameType::kLetDelta);
      EXPECT_LT(enc.frame.size(), enc.full_bytes);
    }
    EXPECT_EQ(wire::peek_let_src(enc.frame), 1);
    const wire::LetMessage msg = wire::decode_let_cached(enc.frame, recv);
    EXPECT_EQ(msg.src, 1);

    // The patched tree must match the fresh export exactly — field by field
    // and, the stronger claim, byte for byte when re-encoded in full.
    expect_same_let(fresh, msg.let);
    EXPECT_EQ(wire::encode_let(1, msg.let), wire::encode_let(1, fresh))
        << "patched LET re-encodes differently from the full export at step " << step;

    // Exporter and importer mirrors stay in lock step.
    EXPECT_EQ(send.version, recv.version);
    EXPECT_EQ(recv.version, static_cast<std::uint64_t>(step + 1));
  }
  EXPECT_GT(deltas, 0u) << "a drifting cloud must produce delta frames";
}

TEST(LetDelta, FullFrameResetsTheCacheAndRestartsVersions) {
  DriftingExporter source(256, 11);
  wire::LetCacheEntry send, recv;
  for (int step = 0; step < 3; ++step) {
    const wire::LetEncodeResult enc =
        wire::encode_let_cached(0, source.step_export(), send, 0.75);
    (void)wire::decode_let_cached(enc.frame, recv);
  }
  ASSERT_EQ(recv.version, 3u);
  // An out-of-band full frame (reconnect, churn fallback) unconditionally
  // resets the pair: version restarts at 1 and the next delta builds on it.
  const LetTree fresh = source.step_export();
  const std::vector<std::uint8_t> full = wire::encode_let(0, fresh);
  const wire::LetMessage msg = wire::decode_let_cached(full, recv);
  expect_same_let(fresh, msg.let);
  EXPECT_EQ(recv.version, 1u);
}

TEST(LetDelta, TruncationThrowsAtEveryLengthAndLeavesTheCacheUntouched) {
  DriftingExporter source(512, 7);
  wire::LetCacheEntry send, recv;
  (void)wire::decode_let_cached(
      wire::encode_let_cached(0, source.step_export(), send, 0.75).frame, recv);
  const wire::LetEncodeResult enc =
      wire::encode_let_cached(0, source.step_export(), send, 0.75);
  ASSERT_TRUE(enc.is_delta);
  for (std::size_t len = 0; len < enc.frame.size(); ++len) {
    const std::vector<std::uint8_t> cut(
        enc.frame.begin(), enc.frame.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW((void)wire::decode_let_cached(cut, recv), wire::WireError)
        << "length " << len;
    EXPECT_EQ(recv.version, 1u) << "a rejected frame must not advance the cache";
  }
  // The pristine frame still applies: the cache survived every rejection.
  (void)wire::decode_let_cached(enc.frame, recv);
  EXPECT_EQ(recv.version, 2u);
}

TEST(LetDelta, EveryByteFlipEitherPatchesValidOrThrows) {
  DriftingExporter source(512, 7);
  wire::LetCacheEntry send, recv;
  (void)wire::decode_let_cached(
      wire::encode_let_cached(0, source.step_export(), send, 0.75).frame, recv);
  const wire::LetEncodeResult enc =
      wire::encode_let_cached(0, source.step_export(), send, 0.75);
  ASSERT_TRUE(enc.is_delta);
  for (std::size_t i = 0; i < enc.frame.size(); ++i) {
    std::vector<std::uint8_t> bad = enc.frame;
    bad[i] ^= 0xA5;
    // Each flip patches against a copy of the synced cache so one accepted
    // mutation cannot desynchronize the probes that follow.
    wire::LetCacheEntry probe = recv;
    try {
      const wire::LetMessage msg = wire::decode_let_cached(bad, probe);
      // Accepted: the patched tree must still be safe to walk (flips in
      // value residuals are indistinguishable from data).
      expect_walkable(msg.let);
    } catch (const wire::WireError&) {
      EXPECT_EQ(probe.version, 1u) << "byte " << i;
    }
  }
  // The cache is still usable after the fuzz: the pristine delta applies.
  (void)wire::decode_let_cached(enc.frame, recv);
  EXPECT_EQ(recv.version, 2u);
}

TEST(LetDelta, BaseVersionMismatchNamesBothVersions) {
  DriftingExporter source(256, 3);
  wire::LetCacheEntry send, recv;
  for (int step = 0; step < 2; ++step) {
    (void)wire::decode_let_cached(
        wire::encode_let_cached(0, source.step_export(), send, 0.75).frame,
        recv);
  }
  const wire::LetEncodeResult enc =
      wire::encode_let_cached(0, source.step_export(), send, 0.75);
  ASSERT_TRUE(enc.is_delta);  // base_version = 2
  recv.version = 5;           // importer desynced (e.g. a missed frame)
  try {
    (void)wire::decode_let_cached(enc.frame, recv);
    FAIL() << "a stale base version must throw";
  } catch (const wire::WireError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find('2'), std::string::npos) << what;
    EXPECT_NE(what.find('5'), std::string::npos) << what;
  }
  EXPECT_EQ(recv.version, 5u);
}

TEST(LetDelta, DeltaAgainstEmptyCacheIsRejected) {
  DriftingExporter source(256, 5);
  wire::LetCacheEntry send, recv;
  (void)wire::encode_let_cached(0, source.step_export(), send, 0.75);
  const wire::LetEncodeResult enc =
      wire::encode_let_cached(0, source.step_export(), send, 0.75);
  ASSERT_TRUE(enc.is_delta);
  EXPECT_THROW((void)wire::decode_let_cached(enc.frame, recv), wire::WireError);
  EXPECT_EQ(recv.version, 0u);
}

TEST(LetDelta, TinyChurnRatioForcesFullFrames) {
  // churn_ratio ~ 0 makes every delta "too big": the exporter must fall back
  // to full frames and the stream stays decodable (the fallback path is the
  // same one topology churn triggers).
  DriftingExporter source(256, 9);
  wire::LetCacheEntry send, recv;
  for (int step = 0; step < 3; ++step) {
    const LetTree fresh = source.step_export();
    const wire::LetEncodeResult enc =
        wire::encode_let_cached(0, fresh, send, /*churn_ratio=*/1e-9);
    EXPECT_FALSE(enc.is_delta);
    const wire::LetMessage msg = wire::decode_let_cached(enc.frame, recv);
    expect_same_let(fresh, msg.let);
    EXPECT_EQ(recv.version, 1u);
  }
}

TEST(LetDelta, EmptyTreesAlwaysShipFull) {
  wire::LetCacheEntry send;
  for (int step = 0; step < 2; ++step) {
    const wire::LetEncodeResult enc =
        wire::encode_let_cached(0, LetTree{}, send, 0.75);
    EXPECT_FALSE(enc.is_delta);
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

TEST(LetDelta, ConfigCarriesLetCacheKnobs) {
  domain::SimConfig cfg;
  cfg.nranks = 3;
  cfg.let_cache = true;
  EXPECT_TRUE(wire::decode_config(wire::encode_config(cfg)).let_cache);
  cfg.let_cache = false;
  EXPECT_FALSE(wire::decode_config(wire::encode_config(cfg)).let_cache);
}

TEST(LetDelta, StepResultCarriesDeltaStats) {
  wire::StepResult sr;
  sr.rank = 1;
  sr.let_delta.full_frames = 3;
  sr.let_delta.delta_frames = 11;
  sr.let_delta.bytes_saved = 123456789;
  sr.let_delta.cache_hits = 7;
  sr.let_delta.invalidations = 2;
  const wire::StepResult got = wire::decode_step_result(wire::encode_step_result(sr));
  EXPECT_EQ(got.let_delta.full_frames, 3u);
  EXPECT_EQ(got.let_delta.delta_frames, 11u);
  EXPECT_EQ(got.let_delta.bytes_saved, 123456789u);
  EXPECT_EQ(got.let_delta.cache_hits, 7u);
  EXPECT_EQ(got.let_delta.invalidations, 2u);
}

// The end-to-end differential bar: a cached multi-rank run must reproduce
// the uncached run's forces and positions bit for bit (the deterministic
// remote-walk order makes the comparison exact).
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
    wire::LetDeltaStats total;
    for (int s = 0; s < 5; ++s) total += sim.step().let_delta;
    if (cache_on) {
      EXPECT_GT(total.delta_frames, 0u);
    } else {
      EXPECT_EQ(total.delta_frames + total.full_frames, 0u);
    }
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

}  // namespace
}  // namespace bonsai
