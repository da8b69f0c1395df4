// Framed localhost TCP: the one socket layer under both socket paths, the
// cluster's rank links (SocketTransport) and the job server's client
// connections (serve/).
//
// Every link is point to point, so a frame needs no routing envelope: the
// endpoint it arrives at is its destination. The bytes on a link are exactly
// the bytes wire.cpp encodes, back to back. The 16-byte wire header is
// self-delimiting (magic, version, type, payload length): a receiver reads
// it, checks the magic and the length cap before allocating, then reads the
// payload. Everything else (version, type, payload structure) is the wire
// decoders' job on the complete buffer.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace bonsai::domain {

// Connection-level failure (dial refused, peer vanished mid-frame, bad frame
// magic, ...). Byte-level problems inside a received frame stay
// wire::WireError.
class NetError : public std::runtime_error {
 public:
  explicit NetError(const std::string& what) : std::runtime_error(what) {}
};

// Frames whose header announces a larger payload are refused before any
// allocation: a corrupt length field must not drive a multi-gigabyte resize.
inline constexpr std::uint64_t kMaxFrameBytes = std::uint64_t{1} << 31;

// The payload length the wire header at the front of `frame` announces
// (bytes [8, 16), little endian); `frame` holds at least the header.
std::uint64_t announced_payload(std::span<const std::uint8_t> frame);

// One connected stream socket moving whole wire frames.
class FrameSocket {
 public:
  explicit FrameSocket(int fd) : fd_(fd) {}
  FrameSocket(FrameSocket&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  FrameSocket& operator=(FrameSocket&& o) noexcept;
  FrameSocket(const FrameSocket&) = delete;
  FrameSocket& operator=(const FrameSocket&) = delete;
  ~FrameSocket() { close(); }

  // Write one complete frame; throws NetError on a broken connection.
  void send(std::span<const std::uint8_t> frame);

  // Read one complete frame; throws NetError on EOF, a broken connection, a
  // bad magic, a length over kMaxFrameBytes or an expired receive timeout.
  std::vector<std::uint8_t> recv();

  // Like recv(), but a clean EOF before the first header byte returns
  // nullopt instead of throwing (the way a peer ends its session).
  std::optional<std::vector<std::uint8_t>> recv_or_eof();

  // Bound every later blocking read to `seconds` (0: block indefinitely),
  // for handshakes that must not wait on a silent peer forever.
  void set_recv_timeout(int seconds);

  // Half-close both directions without releasing the fd. Safe to call from
  // another thread while this socket blocks in recv() — the blocked call
  // sees EOF and returns. (A plain close() from another thread does NOT
  // reliably unblock a pending recv on Linux.)
  void shutdown_rw();

  void close();

 private:
  int fd_ = -1;
};

// Dial HOST:PORT, making up to `attempts` tries 100 ms apart so a peer that
// is a moment away from listening is reached, not declared dead. Throws
// NetError when no try connects.
FrameSocket dial(const std::string& host, std::uint16_t port, int attempts = 1);

// Listening socket on 127.0.0.1. close() (from any thread) unblocks a
// pending accept(), which then returns nullopt.
class Listener {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Listener(std::uint16_t port, int backlog = 64);  // port 0: ephemeral
  ~Listener() { close(); }
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  std::uint16_t port() const { return port_; }

  // The next connection. Returns nullopt once close() is called, once
  // `deadline` passes, or when `keep_waiting` (polled every 200 ms while
  // waiting) returns false. Throws NetError if accepting fails.
  std::optional<FrameSocket> accept(Clock::time_point deadline = Clock::time_point::max(),
                                    const std::function<bool()>& keep_waiting = {});
  void close();

 private:
  // close() is called from a different thread than the accept loop (server
  // shutdown), so the descriptor hands over atomically: close() exchanges it
  // for -1 and is the only side that shuts down / closes the old fd.
  std::atomic<int> fd_{-1};
  std::uint16_t port_ = 0;
};

}  // namespace bonsai::domain
