#include "domain/net.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <thread>

#include "domain/wire.hpp"

namespace bonsai::domain {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw NetError(what + ": " + std::strerror(errno));
}

// fail() for a socket that is not handed out: release it first.
[[noreturn]] void fail_closing(int fd, const std::string& what) {
  const int err = errno;
  ::close(fd);
  errno = err;
  fail(what);
}

void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

sockaddr_in ipv4_addr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
    throw NetError("bad host address '" + host + "'");
  return addr;
}

std::string endpoint(const std::string& host, std::uint16_t port) {
  return host + ":" + std::to_string(port);
}

void write_all(int fd, const std::uint8_t* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("send failed");
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
}

// Read exactly `len` bytes. Returns false on EOF at the first byte when
// `eof_ok`; EOF mid-buffer is always an error (a torn frame).
bool read_all(int fd, std::uint8_t* data, std::size_t len, bool eof_ok) {
  std::size_t got = 0;
  while (got < len) {
    const ssize_t n = ::recv(fd, data + got, len - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) throw NetError("receive timed out");
      fail("recv failed");
    }
    if (n == 0) {
      if (got == 0 && eof_ok) return false;
      throw NetError("connection closed mid-frame");
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

std::uint64_t load_le(const std::uint8_t* p, int bytes) {
  std::uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace

std::uint64_t announced_payload(std::span<const std::uint8_t> frame) {
  return load_le(frame.data() + 8, 8);
}

FrameSocket& FrameSocket::operator=(FrameSocket&& o) noexcept {
  if (this != &o) {
    close();
    fd_ = o.fd_;
    o.fd_ = -1;
  }
  return *this;
}

void FrameSocket::send(std::span<const std::uint8_t> frame) {
  if (fd_ < 0) throw NetError("send on a closed socket");
  write_all(fd_, frame.data(), frame.size());
}

std::vector<std::uint8_t> FrameSocket::recv() {
  std::optional<std::vector<std::uint8_t>> frame = recv_or_eof();
  if (!frame) throw NetError("connection closed before a frame arrived");
  return std::move(*frame);
}

std::optional<std::vector<std::uint8_t>> FrameSocket::recv_or_eof() {
  if (fd_ < 0) throw NetError("recv on a closed socket");
  std::uint8_t header[wire::kHeaderBytes];
  if (!read_all(fd_, header, wire::kHeaderBytes, /*eof_ok=*/true)) return std::nullopt;
  // Magic and length are checked here so a garbage peer cannot make us
  // allocate or block arbitrarily.
  if (load_le(header, 4) != wire::kMagic)
    throw NetError("bad frame magic (stream out of sync)");
  const std::uint64_t payload = announced_payload(header);
  if (payload > kMaxFrameBytes)
    throw NetError("frame length " + std::to_string(payload) + " exceeds the limit of " +
                   std::to_string(kMaxFrameBytes) + " bytes");
  std::vector<std::uint8_t> frame(wire::kHeaderBytes + static_cast<std::size_t>(payload));
  std::memcpy(frame.data(), header, wire::kHeaderBytes);
  read_all(fd_, frame.data() + wire::kHeaderBytes, static_cast<std::size_t>(payload),
           /*eof_ok=*/false);
  return frame;
}

void FrameSocket::set_recv_timeout(int seconds) {
  const timeval tv{seconds, 0};
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

void FrameSocket::shutdown_rw() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void FrameSocket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

FrameSocket dial(const std::string& host, std::uint16_t port, int attempts) {
  const sockaddr_in addr = ipv4_addr(host, port);
  for (int attempt = 1;; ++attempt) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) fail("socket failed");
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0) {
      set_nodelay(fd);
      return FrameSocket(fd);
    }
    if (attempt >= attempts) fail_closing(fd, "connect to " + endpoint(host, port) + " failed");
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
}

Listener::Listener(std::uint16_t port, int backlog) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) fail("socket failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = ipv4_addr("127.0.0.1", port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
    fail_closing(fd, "bind to " + endpoint("127.0.0.1", port) + " failed");
  if (::listen(fd, backlog) != 0) fail_closing(fd, "listen failed");
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
    fail_closing(fd, "getsockname failed");
  port_ = ntohs(addr.sin_port);
  fd_.store(fd, std::memory_order_release);
}

std::optional<FrameSocket> Listener::accept(Clock::time_point deadline,
                                            const std::function<bool()>& keep_waiting) {
  // Without a deadline or liveness probe the accept blocks outright;
  // otherwise it waits in poll slices so either can end the wait.
  const bool bounded = deadline != Clock::time_point::max() || keep_waiting;
  while (true) {
    const int fd = fd_.load(std::memory_order_acquire);
    if (fd < 0) return std::nullopt;  // close() won the handover
    if (bounded) {
      if (Clock::now() >= deadline || (keep_waiting && !keep_waiting())) return std::nullopt;
      pollfd pfd{fd, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, 200);
      if (ready < 0 && errno != EINTR) fail("poll on listener failed");
      if (ready <= 0) continue;
    }
    const int client = ::accept4(fd, nullptr, nullptr, SOCK_CLOEXEC);
    if (client >= 0) {
      set_nodelay(client);
      return FrameSocket(client);
    }
    if (errno == EINTR || errno == ECONNABORTED) continue;
    // close() shut the listener down under us: a clean end of serving.
    if (fd_.load(std::memory_order_acquire) < 0) return std::nullopt;
    fail("accept failed");
  }
}

void Listener::close() {
  // Exchange first so exactly one caller owns the old descriptor; shutdown()
  // unblocks a concurrent accept() before the fd number can be recycled.
  const int fd = fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

}  // namespace bonsai::domain
