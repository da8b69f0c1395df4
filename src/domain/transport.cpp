#include "domain/transport.hpp"

#include <chrono>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "util/check.hpp"
#include "util/trace.hpp"

namespace bonsai::domain {

namespace {

using Clock = Listener::Clock;

// Deadline `timeout_ms` from now; none when it is not positive.
Clock::time_point deadline_after(int timeout_ms) {
  return timeout_ms > 0 ? Clock::now() + std::chrono::milliseconds(timeout_ms)
                        : Clock::time_point::max();
}

// Dial a rank endpoint; a failure names who could not be reached.
FrameSocket dial_named(const std::string& who, const std::string& host, std::uint16_t port,
                       int attempts) {
  try {
    return dial(host, port, attempts);
  } catch (const NetError& e) {
    throw std::runtime_error("SocketTransport: cannot reach " + who + " (" + e.what() + ")");
  }
}

// Read one handshake frame synchronously, before a reader thread exists. A
// connected-but-silent peer trips the receive timeout instead of blocking
// the handshake forever; any failure throws `what` with its cause.
std::vector<std::uint8_t> read_handshake(FrameSocket& sock, int timeout_s, const char* what) {
  sock.set_recv_timeout(timeout_s);
  try {
    std::vector<std::uint8_t> frame = sock.recv();
    sock.set_recv_timeout(0);  // back to blocking reads for the reader thread
    return frame;
  } catch (const NetError& e) {
    throw std::runtime_error(std::string("SocketTransport: ") + what + " (" + e.what() + ")");
  }
}

// Frame type at header bytes [6, 8) for accounting; 0 for raw payloads.
std::uint16_t peek_type(std::span<const std::uint8_t> frame) {
  return frame.size() >= wire::kHeaderBytes
             ? static_cast<std::uint16_t>(frame[6] | (std::uint16_t{frame[7]} << 8))
             : 0;
}

}  // namespace

// --- InProcTransport ---------------------------------------------------------

InProcTransport::InProcTransport(int nranks) {
  BNS_CHECK(nranks >= 1);
  mailboxes_.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r)
    mailboxes_.push_back(std::make_unique<Channel<std::vector<std::uint8_t>>>());
}

void InProcTransport::post(int src, int dst, std::vector<std::uint8_t> frame) {
  (void)src;
  BNS_CHECK(dst >= 0 && dst < num_ranks());
  mailboxes_[static_cast<std::size_t>(dst)]->send(std::move(frame));
}

std::optional<std::vector<std::uint8_t>> InProcTransport::recv(int dst) {
  BNS_CHECK(dst >= 0 && dst < num_ranks());
  return mailboxes_[static_cast<std::size_t>(dst)]->recv();
}

void InProcTransport::close(int dst) {
  BNS_CHECK(dst >= 0 && dst < num_ranks());
  mailboxes_[static_cast<std::size_t>(dst)]->close();
}

// --- TrafficRecordingTransport ----------------------------------------------

void TrafficRecordingTransport::post(int src, int dst, std::vector<std::uint8_t> frame) {
  // Locally produced frames always carry a full header, but stay defensive
  // for raw test payloads.
  trace::ScopedSpan span("transport.post", src, src);
  span.set_peer(dst);
  span.set_bytes(static_cast<std::int64_t>(frame.size()));
  record(src, dst, peek_type(frame), frame.size());
  inner_.post(src, dst, std::move(frame));
}

void TrafficRecordingTransport::record(int src, int dst, std::uint16_t type,
                                       std::uint64_t bytes) {
  std::lock_guard lock(mutex_);
  auto& cell = cells_[{src, dst, type}];
  cell.first += 1;
  cell.second += bytes;
}

std::vector<wire::PeerTraffic> TrafficRecordingTransport::take() {
  std::lock_guard lock(mutex_);
  std::vector<wire::PeerTraffic> out;
  out.reserve(cells_.size());
  for (const auto& [key, cell] : cells_)
    out.push_back({std::get<0>(key), std::get<1>(key), std::get<2>(key), cell.first,
                   cell.second});
  cells_.clear();
  return out;  // map iteration order == (src, dst, type) order
}

// --- SocketTransport ---------------------------------------------------------

struct SocketTransport::Peer {
  Peer(FrameSocket s, int r) : sock(std::move(s)), rank(r) {}

  FrameSocket sock;
  int rank;                       // remote endpoint on the other end of sock
  std::uint16_t listen_port = 0;  // coordinator: the worker's announced mesh port
  std::atomic<bool> dead{false};
  std::string error;  // first failure on this link; guarded by state_mutex_
  std::mutex write_mutex;
  std::thread reader;
};

std::string SocketTransport::peer_name(int rank) const {
  if (rank == kCoordinatorRank) return "coordinator";
  return (coordinator_ ? "worker " : "peer rank ") + std::to_string(rank);
}

SocketTransport::Peer& SocketTransport::add_peer(FrameSocket sock, int rank) {
  peers_.push_back(std::make_unique<Peer>(std::move(sock), rank));
  return *peers_.back();
}

std::unique_ptr<SocketTransport> SocketTransport::listen(std::uint16_t port, int nworkers,
                                                         SocketTopology topology) {
  BNS_CHECK(nworkers >= 1);
  auto t = std::unique_ptr<SocketTransport>(new SocketTransport());
  t->coordinator_ = true;
  t->topology_ = topology;
  t->nworkers_ = nworkers;
  t->listener_ = std::make_unique<Listener>(port, nworkers);
  t->port_ = t->listener_->port();
  t->peers_.resize(static_cast<std::size_t>(nworkers));
  return t;
}

void SocketTransport::accept_workers(int timeout_ms,
                                     const std::function<bool()>& keep_waiting) {
  BNS_CHECK(coordinator_);
  const Clock::time_point deadline = deadline_after(timeout_ms);
  for (int i = 0; i < nworkers_; ++i) {
    std::optional<FrameSocket> sock = listener_->accept(deadline, keep_waiting);
    if (!sock) {
      if (Clock::now() >= deadline)
        throw std::runtime_error("SocketTransport: timed out waiting for workers (" +
                                 std::to_string(i) + "/" + std::to_string(nworkers_) +
                                 " connected)");
      throw std::runtime_error("SocketTransport: a worker exited before connecting");
    }
    // The first frame on every worker connection is its Hello.
    const wire::Hello hello =
        wire::decode_hello(read_handshake(*sock, 30, "worker hello failed"));
    if (hello.rank < 0 || hello.rank >= nworkers_)
      throw std::runtime_error("SocketTransport: hello announced rank " +
                               std::to_string(hello.rank) + " outside [0, " +
                               std::to_string(nworkers_) + ")");
    if (topology_ == SocketTopology::kMesh && hello.listen_port == 0)
      throw std::runtime_error("SocketTransport: worker " + std::to_string(hello.rank) +
                               " announced no mesh listen port (star worker in a mesh "
                               "cluster?)");
    auto& slot = peers_[static_cast<std::size_t>(hello.rank)];
    if (slot) throw std::runtime_error("SocketTransport: duplicate worker rank " +
                                       std::to_string(hello.rank));
    slot = std::make_unique<Peer>(std::move(*sock), hello.rank);
    slot->listen_port = hello.listen_port;
  }

  if (topology_ == SocketTopology::kMesh) {
    // Rendezvous complete: hand every worker the dialable directory before
    // any other frame (the cluster driver sends Config next).
    std::vector<wire::PeerEndpoint> dir(static_cast<std::size_t>(nworkers_));
    for (int r = 0; r < nworkers_; ++r)
      dir[static_cast<std::size_t>(r)] = {"127.0.0.1",
                                          peers_[static_cast<std::size_t>(r)]->listen_port};
    const std::vector<std::uint8_t> frame = wire::encode_peer_directory(dir);
    for (auto& peer : peers_) write_frame(*peer, frame);
  }
  for (auto& peer : peers_) start_reader(*peer);
}

SocketTransport::Peer& SocketTransport::join_coordinator(const std::string& host,
                                                         std::uint16_t port,
                                                         std::span<const std::uint8_t> hello) {
  port_ = port;
  // 50 tries 100 ms apart, so externally launched workers may start a
  // moment before the coordinator is listening.
  Peer& coord = add_peer(dial_named("coordinator", host, port, /*attempts=*/50),
                         kCoordinatorRank);
  write_frame(coord, hello);
  return coord;
}

std::unique_ptr<SocketTransport> SocketTransport::connect(const std::string& host,
                                                          std::uint16_t port, int rank) {
  BNS_CHECK(rank >= 0);
  auto t = std::unique_ptr<SocketTransport>(new SocketTransport());
  t->local_rank_ = rank;
  t->start_reader(t->join_coordinator(host, port, wire::encode_hello(rank)));
  return t;
}

std::unique_ptr<SocketTransport> SocketTransport::connect_mesh(const std::string& host,
                                                               std::uint16_t port, int rank,
                                                               std::uint16_t listen_port) {
  BNS_CHECK(rank >= 0);
  auto t = std::unique_ptr<SocketTransport>(new SocketTransport());
  t->topology_ = SocketTopology::kMesh;
  t->local_rank_ = rank;

  // Bind the own listener *before* announcing it: once the coordinator's
  // directory is out, any peer may dial at any moment.
  t->listener_ = std::make_unique<Listener>(listen_port, /*backlog=*/255);
  const std::uint16_t mesh_port = t->listener_->port();
  Peer& coord = t->join_coordinator(host, port, wire::encode_hello(rank, mesh_port));

  // The directory is the first frame back on this link; read it here,
  // synchronously, before the reader thread takes the stream over. The
  // coordinator only sends it once *all* workers said hello, so the wait
  // covers the slowest externally-launched sibling, not just this link.
  t->directory_ = wire::decode_peer_directory(
      read_handshake(coord.sock, 120, "coordinator sent no peer directory"));
  t->nworkers_ = static_cast<int>(t->directory_.size());
  if (rank >= t->nworkers_)
    throw std::runtime_error("SocketTransport: rank " + std::to_string(rank) +
                             " outside the " + std::to_string(t->nworkers_) +
                             "-entry peer directory");
  t->mesh_link_.assign(static_cast<std::size_t>(t->nworkers_), nullptr);
  t->start_reader(coord);
  return t;
}

void SocketTransport::mesh_with_peers(int timeout_ms) {
  BNS_CHECK(!coordinator_ && topology_ == SocketTopology::kMesh,
                   "mesh_with_peers on a non-mesh endpoint");
  BNS_CHECK(!meshed_, "mesh already established");

  // Dial every higher-ranked peer; its listener was bound before its Hello,
  // so the connection lands in the backlog even if the peer is still busy.
  const std::size_t first_link = peers_.size();
  for (int r = local_rank_ + 1; r < nworkers_; ++r) {
    const wire::PeerEndpoint& ep = directory_[static_cast<std::size_t>(r)];
    Peer& peer = add_peer(dial_named("mesh " + peer_name(r), ep.host, ep.port, /*attempts=*/10),
                          r);
    write_frame(peer, wire::encode_peer_hello(local_rank_));
    mesh_link_[static_cast<std::size_t>(r)] = &peer;
  }

  // Accept one connection from every lower-ranked peer, identified by its
  // PeerHello. A peer that never dials must produce a timed, named failure.
  const Clock::time_point deadline = deadline_after(timeout_ms);
  for (int accepted = 0; accepted < local_rank_; ++accepted) {
    std::optional<FrameSocket> sock = listener_->accept(deadline);
    if (!sock) {
      std::string missing;
      for (int r = 0; r < local_rank_; ++r)
        if (!mesh_link_[static_cast<std::size_t>(r)])
          missing += (missing.empty() ? "" : ", ") + std::to_string(r);
      throw std::runtime_error("SocketTransport: rank " + std::to_string(local_rank_) +
                               " timed out waiting for mesh connection(s) from rank(s) " +
                               missing);
    }
    const int rank =
        wire::decode_peer_hello(read_handshake(*sock, 30, "mesh peer hello failed"));
    if (rank < 0 || rank >= local_rank_ || mesh_link_[static_cast<std::size_t>(rank)] != nullptr)
      throw std::runtime_error("SocketTransport: unexpected or duplicate mesh hello from "
                               "rank " + std::to_string(rank));
    mesh_link_[static_cast<std::size_t>(rank)] = &add_peer(std::move(*sock), rank);
  }

  // All pair links up: no further mesh connections are expected, so release
  // the listener and let the reader threads take the streams over.
  listener_.reset();
  for (std::size_t i = first_link; i < peers_.size(); ++i) start_reader(*peers_[i]);
  meshed_ = true;
}

SocketTransport::~SocketTransport() {
  for (auto& peer : peers_)
    if (peer) peer->sock.shutdown_rw();
  for (auto& peer : peers_)
    if (peer && peer->reader.joinable()) peer->reader.join();
}

void SocketTransport::fail_peer(Peer& peer, const std::string& reason) {
  {
    std::lock_guard lock(state_mutex_);
    if (peer.error.empty()) peer.error = reason;
  }
  peer.dead.store(true, std::memory_order_release);
  // Wake the peer's reader (and any blocked writer); the fd itself stays
  // open until the destructor so the reader never races an fd reuse.
  peer.sock.shutdown_rw();
}

std::string SocketTransport::peer_error(const Peer& peer) const {
  std::lock_guard lock(state_mutex_);
  return peer.error;
}

void SocketTransport::close_local(const std::string& reason) {
  {
    std::lock_guard lock(state_mutex_);
    if (close_reason_.empty()) close_reason_ = reason;
  }
  inbox_.close();
}

std::string SocketTransport::close_reason() const {
  std::lock_guard lock(state_mutex_);
  return close_reason_;
}

void SocketTransport::write_frame(Peer& peer, std::span<const std::uint8_t> frame) {
  std::lock_guard lock(peer.write_mutex);
  if (peer.dead.load(std::memory_order_acquire))
    throw std::runtime_error("SocketTransport: " + peer_name(peer.rank) + " is down (" +
                             peer_error(peer) + ")");
  try {
    peer.sock.send(frame);
  } catch (const NetError& e) {
    // Part of the frame may already be on the wire; the stream can never
    // carry another frame. Poison the peer so every later post fails fast by
    // name instead of feeding the receiver garbage.
    const std::string reason =
        "connection to " + peer_name(peer.rank) + " lost on write: " + e.what();
    fail_peer(peer, reason);
    throw std::runtime_error("SocketTransport: " + reason);
  }
}

void SocketTransport::start_reader(Peer& peer) {
  peer.reader = std::thread([this, &peer] {
    std::string reason;
    try {
      while (std::optional<std::vector<std::uint8_t>> frame = peer.sock.recv_or_eof())
        inbox_.send(std::move(*frame));
      reason = peer_name(peer.rank) + " closed connection";
    } catch (const std::exception& e) {
      reason = "link to " + peer_name(peer.rank) + " failed: " + e.what();
    } catch (...) {
      reason = "unknown reader failure on " + peer_name(peer.rank);
    }
    fail_peer(peer, reason);
    // Losing the coordinator link is fatal to the endpoint: close the mailbox
    // so blocked receivers fail fast. A worker's *mesh* link dying only
    // poisons that pair — the next post to it throws by name, and a mid-step
    // loss still unblinds everyone via the coordinator cascade (the dead
    // peer's coordinator link drops, the coordinator fails, and its teardown
    // closes every worker's coordinator link). Keeping the mailbox open here
    // avoids the shutdown race where a peer that finished first would
    // otherwise yank a still-running worker's control stream.
    if (coordinator_ || peer.rank == kCoordinatorRank) close_local(reason);
  });
}

void SocketTransport::post(int src, int dst, std::vector<std::uint8_t> frame) {
  (void)src;
  const int local = coordinator_ ? kCoordinatorRank : local_rank_;
  if (dst == local) {
    inbox_.send(std::move(frame));
    return;
  }
  Peer* peer = nullptr;
  if (coordinator_) {
    BNS_CHECK(dst >= 0 && dst < nworkers_);
    peer = peers_[static_cast<std::size_t>(dst)].get();
    BNS_CHECK(peer != nullptr, "post to a worker that never connected");
  } else if (dst == kCoordinatorRank) {
    peer = peers_[0].get();
  } else {
    // Worker↔worker frames ride the pair's own socket; nobody forwards them.
    if (dst >= 0 && static_cast<std::size_t>(dst) < mesh_link_.size())
      peer = mesh_link_[static_cast<std::size_t>(dst)];
    if (peer == nullptr)
      throw std::runtime_error("SocketTransport: no mesh link to " + peer_name(dst) +
                               " (star endpoint, or mesh_with_peers not completed)");
  }
  // The receiver delimits frames by their header alone, so a frame whose
  // length field disagrees with its size would desync the link: refuse it
  // here, before any byte is written.
  BNS_CHECK(frame.size() >= wire::kHeaderBytes &&
                announced_payload(frame) == frame.size() - wire::kHeaderBytes,
            "malformed frame for ", peer_name(dst), ": ", frame.size(),
            " bytes do not match the header's payload length");
  write_frame(*peer, frame);
}

bool SocketTransport::post_best_effort(int src, int dst,
                                       std::vector<std::uint8_t> frame) noexcept {
  try {
    post(src, dst, std::move(frame));
    return true;
  } catch (...) {
    return false;
  }
}

std::optional<std::vector<std::uint8_t>> SocketTransport::recv(int dst) {
  const int local = coordinator_ ? kCoordinatorRank : local_rank_;
  BNS_CHECK(dst == local, "recv on a non-local endpoint");
  return inbox_.recv();
}

void SocketTransport::close(int dst) {
  const int local = coordinator_ ? kCoordinatorRank : local_rank_;
  BNS_CHECK(dst == local, "close on a non-local endpoint");
  close_local("closed locally");
}

}  // namespace bonsai::domain
