// Transport conformance suite: one parameterized contract check run
// identically over every Transport backend (InProcTransport plus the mesh
// SocketTransport of a socket cluster today), so the next backend (MPI) has
// a ready-made acceptance test. The contract under test is what channel.*
// and the exchanges are written against:
//
//   * post() is nonblocking and frames are delivered to `dst` intact;
//   * per (src, dst) pair, frames arrive in post order (FIFO);
//   * frames from concurrent posters all arrive, each source's order kept;
//   * large frames survive byte-for-byte;
//   * close() on a local endpoint lets pending frames drain, then recv()
//     returns nullopt instead of blocking (fail fast, never hang).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "domain/transport.hpp"
#include "domain/wire.hpp"

namespace bonsai {
namespace {

namespace wire = domain::wire;

constexpr int kRanks = 3;

// A transport endpoint set under test: at(r) returns the Transport object
// that owns local endpoint r (one shared object in-process, one per worker
// over sockets — exactly how production code holds them).
class Harness {
 public:
  virtual ~Harness() = default;
  virtual domain::Transport& at(int rank) = 0;
};

class InProcHarness final : public Harness {
 public:
  InProcHarness() : t_(kRanks) {}
  domain::Transport& at(int) override { return t_; }

 private:
  domain::InProcTransport t_;
};

// A coordinator plus kRanks mesh workers, wired the way a socket cluster is.
class SocketHarness final : public Harness {
 public:
  SocketHarness() {
    coord_ = domain::SocketTransport::listen(0, kRanks, domain::SocketTopology::kMesh);
    std::vector<std::thread> connectors;
    workers_.resize(kRanks);
    for (int r = 0; r < kRanks; ++r)
      connectors.emplace_back([this, r] {
        auto& slot = workers_[static_cast<std::size_t>(r)];
        slot = domain::SocketTransport::connect_mesh("127.0.0.1", coord_->port(), r,
                                                     /*listen_port=*/0);
        slot->mesh_with_peers(/*timeout_ms=*/30000);
      });
    coord_->accept_workers(/*timeout_ms=*/30000);
    for (std::thread& t : connectors) t.join();
  }

  domain::Transport& at(int rank) override {
    return *workers_[static_cast<std::size_t>(rank)];
  }

  domain::SocketTransport& coordinator() { return *coord_; }
  domain::SocketTransport& worker(int rank) {
    return *workers_[static_cast<std::size_t>(rank)];
  }
  void kill_worker(int rank) { workers_[static_cast<std::size_t>(rank)].reset(); }

 private:
  std::unique_ptr<domain::SocketTransport> coord_;  // rendezvous + control links
  std::vector<std::unique_ptr<domain::SocketTransport>> workers_;
};

// Values stay fixed: ctest lists each instance with its parameter bytes.
enum class Backend { kInProc = 0, kSocketMesh = 2 };

std::unique_ptr<Harness> make_harness(Backend b) {
  if (b == Backend::kInProc) return std::make_unique<InProcHarness>();
  return std::make_unique<SocketHarness>();
}

class TransportConformance : public ::testing::TestWithParam<Backend> {
 protected:
  void SetUp() override { h_ = make_harness(GetParam()); }
  std::unique_ptr<Harness> h_;
};

// Payload helper: a valid wire frame carrying a recognizable value, so the
// socket path (which delimits frames by their wire header) and the
// in-process path move identical bytes.
std::vector<std::uint8_t> tagged(int value) { return wire::encode_hello(value); }

int tag_of(const std::vector<std::uint8_t>& frame) { return wire::decode_hello(frame).rank; }

// A well-formed frame of at least `payload` payload bytes: a KeySamples
// frame whose keys follow a position-dependent pattern, so a lost, repeated
// or reordered byte shows.
std::vector<std::uint8_t> patterned_frame(std::size_t payload) {
  wire::KeySamples ks;
  ks.src = 7;
  ks.keys.resize(payload / sizeof(sfc::Key));
  for (std::size_t i = 0; i < ks.keys.size(); ++i)
    ks.keys[i] = (i * 0x9E3779B97F4A7C15ull) ^ (i >> 3);
  return wire::encode_key_samples(ks);
}

TEST_P(TransportConformance, FifoPerSourceDestinationPair) {
  for (int i = 0; i < 64; ++i) h_->at(0).post(0, 1, tagged(i));
  for (int i = 0; i < 64; ++i) {
    auto frame = h_->at(1).recv(1);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(tag_of(*frame), i);
  }
}

TEST_P(TransportConformance, InterleavedSourcesKeepPerSourceOrder) {
  // Two sources, one destination: global arrival order is unspecified, but
  // each source's sequence must stay monotone and nothing may be lost.
  constexpr int kPerSource = 50;
  for (int i = 0; i < kPerSource; ++i) {
    h_->at(0).post(0, 2, tagged(i));
    h_->at(1).post(1, 2, tagged(1000 + i));
  }
  int next0 = 0, next1 = 1000;
  for (int i = 0; i < 2 * kPerSource; ++i) {
    auto frame = h_->at(2).recv(2);
    ASSERT_TRUE(frame.has_value());
    const int tag = tag_of(*frame);
    if (tag < 1000) {
      EXPECT_EQ(tag, next0++);
    } else {
      EXPECT_EQ(tag, next1++);
    }
  }
  EXPECT_EQ(next0, kPerSource);
  EXPECT_EQ(next1, 1000 + kPerSource);
}

TEST_P(TransportConformance, ConcurrentPostersAllDeliver) {
  // Concurrent posting threads per source rank; the consumer must see every
  // frame exactly once with per-source order preserved.
  constexpr int kPerSource = 200;
  std::vector<std::thread> posters;
  for (int src : {0, 1}) {
    posters.emplace_back([this, src] {
      for (int i = 0; i < kPerSource; ++i)
        h_->at(src).post(src, 2, tagged(src * 10000 + i));
    });
  }
  std::vector<int> next = {0, 10000};
  for (int i = 0; i < 2 * kPerSource; ++i) {
    auto frame = h_->at(2).recv(2);
    ASSERT_TRUE(frame.has_value());
    const int tag = tag_of(*frame);
    const std::size_t src = tag < 10000 ? 0 : 1;
    EXPECT_EQ(tag, next[src]++);
  }
  for (std::thread& t : posters) t.join();
  EXPECT_EQ(next[0], kPerSource);
  EXPECT_EQ(next[1], 10000 + kPerSource);
}

TEST_P(TransportConformance, LargeFramesArriveIntact) {
  // A multi-megabyte frame (a dense LET or migration burst) must cross the
  // backend byte-for-byte.
  std::vector<std::uint8_t> frame = patterned_frame(4u << 20);
  const std::vector<std::uint8_t> sent = frame;
  h_->at(0).post(0, 1, std::move(frame));
  auto got = h_->at(1).recv(1);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, sent);
}

TEST_P(TransportConformance, CloseFailsFastInsteadOfBlocking) {
  // Deliver (and drain) a frame first so the backend is demonstrably live,
  // then close the local endpoint: recv() must report completion instead of
  // blocking forever — the failure paths rely on exactly this.
  h_->at(0).post(0, 1, tagged(11));
  auto a = h_->at(1).recv(1);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(tag_of(*a), 11);
  h_->at(1).close(1);
  EXPECT_FALSE(h_->at(1).recv(1).has_value());
  EXPECT_FALSE(h_->at(1).recv(1).has_value());  // idempotent
}

TEST(InProcTransport, PendingFramesStayReceivableAfterClose) {
  // The drain-then-complete half of the close contract, checked where frame
  // arrival is synchronous with post() and therefore deterministic.
  domain::InProcTransport t(2);
  t.post(0, 1, tagged(11));
  t.post(0, 1, tagged(22));
  t.close(1);
  auto a = t.recv(1);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(tag_of(*a), 11);
  auto b = t.recv(1);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(tag_of(*b), 22);
  EXPECT_FALSE(t.recv(1).has_value());
}

INSTANTIATE_TEST_SUITE_P(Backends, TransportConformance,
                         ::testing::Values(Backend::kInProc, Backend::kSocketMesh),
                         [](const ::testing::TestParamInfo<Backend>& pinfo) {
                           return pinfo.param == Backend::kInProc ? "InProc" : "SocketMesh";
                         });

// The recorder decorator is transport-agnostic; spot-check it over the
// in-process backend (every backend sees the same frames by construction).
TEST(TrafficRecordingTransport, RecordsPerPeerPerType) {
  domain::InProcTransport inner(2);
  domain::TrafficRecordingTransport rec(inner);
  rec.post(0, 1, wire::encode_hello(1));
  rec.post(0, 1, wire::encode_hello(2));
  rec.post(1, 0, wire::encode_shutdown());
  rec.record(1, -1, static_cast<std::uint16_t>(wire::FrameType::kStepResult), 64);

  const std::vector<wire::PeerTraffic> t = rec.take();
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0].src, 0);
  EXPECT_EQ(t[0].dst, 1);
  EXPECT_EQ(t[0].type, static_cast<std::uint16_t>(wire::FrameType::kHello));
  EXPECT_EQ(t[0].frames, 2u);
  EXPECT_EQ(t[0].bytes, 2 * wire::encode_hello(1).size());
  EXPECT_EQ(t[1].src, 1);
  EXPECT_EQ(t[1].dst, -1);
  EXPECT_EQ(t[1].frames, 1u);
  EXPECT_EQ(t[2].type, static_cast<std::uint16_t>(wire::FrameType::kShutdown));
  EXPECT_TRUE(rec.take().empty());  // drained

  // Frames pass through unmodified.
  EXPECT_EQ(wire::decode_hello(*inner.recv(1)).rank, 1);
  EXPECT_EQ(wire::decode_hello(*inner.recv(1)).rank, 2);
}

// --- Socket failure paths ----------------------------------------------------

TEST(SocketTransport, MeshKeepsPeerFramesOffTheCoordinator) {
  // Worker↔worker frames ride the pair sockets: after a full all-to-all, the
  // only frames the coordinator holds are the ones addressed to it.
  SocketHarness h;
  for (int src = 0; src < kRanks; ++src)
    for (int dst = 0; dst < kRanks; ++dst)
      if (src != dst) h.at(src).post(src, dst, tagged(src));
  for (int dst = 0; dst < kRanks; ++dst)
    for (int k = 0; k + 1 < kRanks; ++k) ASSERT_TRUE(h.at(dst).recv(dst).has_value());
  for (int src = 0; src < kRanks; ++src)
    h.at(src).post(src, domain::kCoordinatorRank, tagged(100 + src));
  std::vector<int> got;
  for (int k = 0; k < kRanks; ++k) {
    auto frame = h.coordinator().recv(domain::kCoordinatorRank);
    ASSERT_TRUE(frame.has_value());
    got.push_back(tag_of(*frame));
  }
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<int>{100, 101, 102}));
}

TEST(SocketTransport, OrderlyPeerCloseIsNamedInCloseReason) {
  // A worker that goes away cleanly must surface as "closed connection" on
  // the coordinator — distinguishable from a socket error — and unblock
  // recv() instead of hanging it.
  SocketHarness h;
  h.kill_worker(1);
  // Workers 0 and 2 are still up, but any worker link loss closes the
  // coordinator's mailbox (its step protocol needs all of them).
  EXPECT_FALSE(h.coordinator().recv(domain::kCoordinatorRank).has_value());
  const std::string reason = h.coordinator().close_reason();
  EXPECT_NE(reason.find("worker 1"), std::string::npos) << reason;
  EXPECT_NE(reason.find("closed connection"), std::string::npos) << reason;
}

TEST(SocketTransport, MidStreamWriteFailurePoisonsThePeerByName) {
  // Once a write fails, part of a frame may be on the wire: the
  // peer must be marked dead so later posts fail fast with its name instead
  // of desyncing the stream into garbage decodes.
  SocketHarness h;
  h.kill_worker(1);
  // The kernel buffers a few frames after the peer vanishes; keep posting
  // until the failure surfaces (bounded: buffers are finite).
  const std::vector<std::uint8_t> big = patterned_frame(1u << 16);
  bool threw = false;
  std::string what;
  for (int i = 0; i < 100000 && !threw; ++i) {
    try {
      h.coordinator().post(domain::kCoordinatorRank, 1, big);
    } catch (const std::exception& e) {
      threw = true;
      what = e.what();
    }
  }
  ASSERT_TRUE(threw);
  EXPECT_NE(what.find("worker 1"), std::string::npos) << what;
  // Poisoned: the very next post fails immediately, still naming the peer.
  try {
    h.coordinator().post(domain::kCoordinatorRank, 1, tagged(1));
    FAIL() << "post to a dead peer must throw";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("worker 1"), std::string::npos) << e.what();
  }
  // Other peers are untouched.
  h.coordinator().post(domain::kCoordinatorRank, 0, tagged(5));
  auto frame = h.at(0).recv(0);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(tag_of(*frame), 5);
}

TEST(SocketTransport, PeerLinkFailureDoesNotPoisonTheCoordinatorLink) {
  // Worker 1 dies while worker 0 keeps posting to it on their pair link.
  // Only that pair may be poisoned, by name: worker 0's coordinator link
  // must stay healthy, so the teardown Shutdown still reaches it.
  SocketHarness h;
  h.kill_worker(1);
  // The kernel buffers a few frames after the peer vanishes; keep posting
  // until the failure surfaces (bounded: buffers are finite).
  const std::vector<std::uint8_t> big = patterned_frame(1u << 16);
  std::string what;
  for (int i = 0; i < 100000 && what.empty(); ++i) {
    try {
      h.at(0).post(0, 1, big);
    } catch (const std::exception& e) {
      what = e.what();
    }
  }
  EXPECT_NE(what.find("peer rank 1"), std::string::npos) << what;
  // The coordinator -> worker 0 direction must still deliver.
  h.coordinator().post(domain::kCoordinatorRank, 0, tagged(9));
  auto frame = h.at(0).recv(0);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(tag_of(*frame), 9);
}

TEST(SocketTransportMesh, PeerThatNeverDialsFailsTimedAndNamed) {
  // Partial-mesh fuzz: rank 0 completes the rendezvous (hello + directory)
  // but never dials its higher-ranked peers. Rank 2 waits for inbound
  // connections from ranks 0 and 1; only rank 1 dials, so rank 2's mesh
  // setup must fail after its deadline naming rank 0 — not hang.
  auto coord = domain::SocketTransport::listen(0, 3, domain::SocketTopology::kMesh);
  std::unique_ptr<domain::SocketTransport> w0, w1, w2;
  std::vector<std::thread> connectors;
  connectors.emplace_back([&] {
    w0 = domain::SocketTransport::connect_mesh("127.0.0.1", coord->port(), 0, 0);
  });
  connectors.emplace_back([&] {
    w1 = domain::SocketTransport::connect_mesh("127.0.0.1", coord->port(), 1, 0);
  });
  connectors.emplace_back([&] {
    w2 = domain::SocketTransport::connect_mesh("127.0.0.1", coord->port(), 2, 0);
  });
  coord->accept_workers(/*timeout_ms=*/30000);
  for (std::thread& t : connectors) t.join();

  // Rank 1 dials rank 2 (its only higher peer) and then times out waiting
  // for rank 0's inbound connection.
  std::thread w1_mesh([&] {
    try {
      w1->mesh_with_peers(/*timeout_ms=*/1500);
      ADD_FAILURE() << "rank 1 mesh must fail without rank 0";
    } catch (const std::exception& e) {
      EXPECT_NE(std::string(e.what()).find("rank(s) 0"), std::string::npos) << e.what();
    }
  });
  try {
    w2->mesh_with_peers(/*timeout_ms=*/1500);
    FAIL() << "rank 2 mesh must fail without rank 0";
  } catch (const std::exception& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("timed out"), std::string::npos) << what;
    EXPECT_NE(what.find("rank(s) 0"), std::string::npos) << what;
  }
  w1_mesh.join();
}

TEST(Wire, MergeTrafficSumsMatchingCells) {
  std::vector<wire::PeerTraffic> into = {{0, 1, 1, 2, 100}, {1, 0, 2, 1, 50}};
  const std::vector<wire::PeerTraffic> add = {{0, 1, 1, 3, 200}, {2, 0, 1, 1, 10}};
  wire::merge_traffic(into, add);
  ASSERT_EQ(into.size(), 3u);
  EXPECT_EQ(into[0].frames, 5u);
  EXPECT_EQ(into[0].bytes, 300u);
  EXPECT_EQ(into[1].src, 1);
  EXPECT_EQ(into[2].src, 2);
  EXPECT_EQ(into[2].bytes, 10u);
}

}  // namespace
}  // namespace bonsai
