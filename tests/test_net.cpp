// The framed-TCP layer (domain/net.hpp) and the link guards of its two
// users: the listener's descriptor handling, the dial retry window, and how
// a SocketTransport endpoint and the job server meet a peer that sends a bad
// magic, announces an oversized frame, or (on the posting side) hands over a
// frame whose header length disagrees with its size.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "domain/net.hpp"
#include "domain/transport.hpp"
#include "domain/wire.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/check.hpp"

namespace bonsai {
namespace {

namespace wire = domain::wire;
using domain::FrameSocket;
using domain::Listener;
using domain::NetError;

constexpr const char* kHost = "127.0.0.1";

// Open descriptors of this process, or -1 where /proc is unavailable.
long open_fds() {
  std::error_code ec;
  std::filesystem::directory_iterator it("/proc/self/fd", ec);
  if (ec) return -1;
  long n = 0;
  for (; it != std::filesystem::directory_iterator(); ++it) ++n;
  return n;
}

// A Hello frame whose magic is flipped: the stream is out of sync from its
// first byte.
std::vector<std::uint8_t> bad_magic_frame() {
  std::vector<std::uint8_t> frame = wire::encode_hello(0);
  frame[0] ^= 0xff;
  return frame;
}

// A lone Hello header announcing 1 TiB of payload, far over kMaxFrameBytes.
std::vector<std::uint8_t> oversized_header() {
  std::vector<std::uint8_t> header = wire::encode_hello(0);
  header.resize(wire::kHeaderBytes);
  const std::uint64_t announced = std::uint64_t{1} << 40;
  for (int i = 0; i < 8; ++i)
    header[8 + static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(announced >> (8 * i));
  return header;
}

// Regression for a TSan finding: server shutdown calls Listener::close()
// from outside the accept loop's thread, so the descriptor handover must be
// synchronized — close() must unblock a concurrent blocking accept() (which
// then reports end-of-serving), never race on the fd.
TEST(Listener, CloseFromAnotherThreadUnblocksAccept) {
  Listener listener(0);
  ASSERT_GT(listener.port(), 0);
  std::optional<FrameSocket> accepted;
  std::thread acceptor([&] { accepted = listener.accept(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // park in accept
  listener.close();
  acceptor.join();
  EXPECT_FALSE(accepted.has_value());
  EXPECT_NO_THROW(listener.close());  // idempotent after handover
}

TEST(Listener, FailedBindClosesItsSocket) {
  if (open_fds() < 0) GTEST_SKIP() << "no /proc/self/fd";
  Listener held(0);
  const long before = open_fds();
  for (int i = 0; i < 8; ++i) {
    try {
      Listener second(held.port());
      FAIL() << "binding a held port must throw";
    } catch (const NetError& e) {
      EXPECT_NE(std::string(e.what()).find("bind"), std::string::npos) << e.what();
    }
  }
  EXPECT_EQ(open_fds(), before);
}

TEST(Listener, DeadlinePassesWithoutAConnection) {
  Listener listener(0);
  const auto start = Listener::Clock::now();
  EXPECT_FALSE(listener.accept(start + std::chrono::milliseconds(300)).has_value());
  EXPECT_GE(Listener::Clock::now() - start, std::chrono::milliseconds(300));
  // A liveness probe that says stop ends the wait at once, with no deadline.
  EXPECT_FALSE(listener.accept(Listener::Clock::time_point::max(), [] { return false; }));
}

TEST(Dial, RetriesUntilTheListenerAppears) {
  // Take an ephemeral port, free it, and listen on it again only after the
  // dialer has been refused a few times.
  std::uint16_t port = 0;
  {
    Listener probe(0);
    port = probe.port();
  }
  EXPECT_THROW(domain::dial(kHost, port), NetError);  // one try: refused
  std::optional<Listener> late;
  std::thread binder([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(350));
    late.emplace(port);
  });
  FrameSocket sock = domain::dial(kHost, port, /*attempts=*/50);
  binder.join();
  ASSERT_TRUE(late.has_value());
  sock.send(wire::encode_hello(3));
  std::optional<FrameSocket> accepted = late->accept();
  ASSERT_TRUE(accepted.has_value());
  EXPECT_EQ(wire::decode_hello(accepted->recv()).rank, 3);
}

// A raw client sends `bytes` as the first frame a coordinator reads. The
// hello handshake must fail with an error naming `expected`, well before
// accept_workers' own deadline.
void expect_hello_refused(const std::vector<std::uint8_t>& bytes, const std::string& expected) {
  auto coord = domain::SocketTransport::listen(0, 1);
  std::thread client([&] {
    FrameSocket raw = domain::dial(kHost, coord->port());
    raw.send(bytes);
  });
  const auto start = std::chrono::steady_clock::now();
  try {
    coord->accept_workers(/*timeout_ms=*/5000);
    ADD_FAILURE() << "a malformed hello must fail the handshake";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("worker hello failed"), std::string::npos) << what;
    EXPECT_NE(what.find(expected), std::string::npos) << what;
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
  client.join();
}

TEST(LinkGuards, BadMagicFailsTheHelloByName) {
  expect_hello_refused(bad_magic_frame(), "bad frame magic");
}

TEST(LinkGuards, OversizedHeaderIsRefusedBeforeAllocating) {
  // Allocating the announced 1 TiB would throw bad_alloc (or worse) instead
  // of this named refusal.
  expect_hello_refused(oversized_header(), "exceeds the limit");
}

TEST(LinkGuards, JobServerKeepsServingAfterMalformedStreams) {
  serve::ServerConfig cfg;
  cfg.spool_dir = testing::TempDir();
  serve::JobServer server(cfg);
  for (const std::vector<std::uint8_t>& bytes : {bad_magic_frame(), oversized_header()}) {
    FrameSocket raw = domain::dial(kHost, server.port());
    raw.send(bytes);
    // The server drops this connection without a reply: an orderly EOF, or
    // a reset when it closed with our unread bytes still queued ...
    try {
      EXPECT_FALSE(raw.recv_or_eof().has_value());
    } catch (const NetError& e) {
      EXPECT_NE(std::string(e.what()).find("reset"), std::string::npos) << e.what();
    }
  }
  // ... and goes on serving everyone else.
  const wire::JobStatusMsg st = serve::job_status(kHost, server.port(), 12345);
  EXPECT_EQ(st.job_id, 12345);
  EXPECT_EQ(st.state, wire::JobState::kRejected);
  EXPECT_EQ(st.reason, "unknown job id");
}

TEST(LinkGuards, MismatchedLengthIsRefusedAtThePoster) {
  auto coord = domain::SocketTransport::listen(0, 1);
  std::unique_ptr<domain::SocketTransport> worker;
  std::thread t([&] { worker = domain::SocketTransport::connect(kHost, coord->port(), 0); });
  coord->accept_workers(/*timeout_ms=*/30000);
  t.join();

  for (const std::size_t size : {std::size_t{0}, std::size_t{7}, wire::kHeaderBytes + 64}) {
    std::vector<std::uint8_t> bad = wire::encode_hello(1);
    bad.resize(size, 0xab);  // header length no longer matches the size
    try {
      coord->post(domain::kCoordinatorRank, 0, bad);
      ADD_FAILURE() << "a " << size << "-byte frame with a wrong length must be refused";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("worker 0"), std::string::npos) << e.what();
    }
  }
  // Nothing reached the wire, so the link is still in sync.
  coord->post(domain::kCoordinatorRank, 0, wire::encode_hello(9));
  std::optional<std::vector<std::uint8_t>> got = worker->recv(0);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(wire::decode_hello(*got).rank, 9);
}

}  // namespace
}  // namespace bonsai
