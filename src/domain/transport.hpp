// Byte-oriented inter-rank transport: the seam where MPI would slot in.
//
// A Transport moves encoded wire frames (see domain/wire.hpp) between rank
// endpoints. post() is nonblocking (the MPI_Isend analogue) and recv()
// blocks until a frame addressed to the endpoint arrives — exactly the
// contract the LET exchange and the particle alltoallv are written against,
// so every backend (in-process loopback, localhost TCP, a future MPI
// subclass) is interchangeable behind this interface.
//
// Two backends ship today:
//
// * InProcTransport — per-endpoint mailboxes inside one process; frames are
//   moved, not copied, preserving the PR-2 threaded-pipeline performance.
// * SocketTransport — localhost TCP between a coordinator and its workers.
//   Every worker holds one control link to the coordinator (Hello, Config,
//   StepBegin/StepResult, Shutdown, addressed to kCoordinatorRank) and, in a
//   mesh, one socket per worker pair: each worker listens on its own port,
//   the coordinator's rendezvous hands every worker a PeerDirectory, workers
//   dial every higher-ranked peer (lower ranks accept, so each pair gets
//   exactly one connection), and post() writes worker↔worker frames directly
//   on the pair's socket — the paper's point-to-point MPI_Isend structure
//   (§III-B). The coordinator never forwards a frame between workers.
//
//   Every link is point to point, so it carries exactly the bytes wire.cpp
//   encodes, the same bytes the in-process backend moves, through the
//   framed-TCP layer of domain/net.hpp: the wire header delimits each frame
//   and the link a frame arrives on says where it came from.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "domain/channel.hpp"
#include "domain/net.hpp"
#include "domain/wire.hpp"

namespace bonsai::domain {

// Destination id of the cluster coordinator (valid rank ids are >= 0).
inline constexpr int kCoordinatorRank = -1;

class Transport {
 public:
  virtual ~Transport() = default;

  // Nonblocking post of an encoded frame from `src` to `dst`.
  virtual void post(int src, int dst, std::vector<std::uint8_t> frame) = 0;

  // Blocking receive of the next frame addressed to `dst`, in arrival order;
  // nullopt once the endpoint is closed *and* drained. `dst` must be an
  // endpoint local to this transport instance.
  virtual std::optional<std::vector<std::uint8_t>> recv(int dst) = 0;

  // Mark a local endpoint as complete: pending frames stay receivable, then
  // recv() returns nullopt. Used by failure paths to fail fast, never hang.
  virtual void close(int dst) = 0;

  // Human-readable cause of the local endpoint's closure, empty while the
  // endpoint is open or when the backend records none. Failure paths append
  // it so a worker reports "coordinator closed connection" or the socket
  // errno instead of a bare disconnect.
  virtual std::string close_reason() const { return {}; }
};

// All ranks in one process; endpoint r's mailbox is a Channel of frames.
class InProcTransport final : public Transport {
 public:
  explicit InProcTransport(int nranks);

  int num_ranks() const { return static_cast<int>(mailboxes_.size()); }

  void post(int src, int dst, std::vector<std::uint8_t> frame) override;
  std::optional<std::vector<std::uint8_t>> recv(int dst) override;
  void close(int dst) override;

 private:
  std::vector<std::unique_ptr<Channel<std::vector<std::uint8_t>>>> mailboxes_;
};

// Send-side traffic accounting decorator: every post() is recorded into a
// per-(src, dst, frame type) frames/bytes matrix — the data behind the step
// report's traffic section — and forwarded to the inner transport. recv()
// and close() pass through untouched; counting sends only means summing the
// matrix over endpoints never double-counts a frame. record() is public so a
// driver can also account frames it *receives* from endpoints that run no
// recorder of their own (the cluster coordinator books worker StepResults
// this way). Thread-safe: concurrent rank pipelines post through one
// recorder.
class TrafficRecordingTransport final : public Transport {
 public:
  explicit TrafficRecordingTransport(Transport& inner) : inner_(inner) {}

  void post(int src, int dst, std::vector<std::uint8_t> frame) override;
  std::optional<std::vector<std::uint8_t>> recv(int dst) override { return inner_.recv(dst); }
  void close(int dst) override { inner_.close(dst); }
  std::string close_reason() const override { return inner_.close_reason(); }

  void record(int src, int dst, std::uint16_t type, std::uint64_t bytes);

  // Drain the accumulated matrix, sorted by (src, dst, type).
  std::vector<wire::PeerTraffic> take();

 private:
  Transport& inner_;
  std::mutex mutex_;
  std::map<std::tuple<int, int, std::uint16_t>, std::pair<std::uint64_t, std::uint64_t>>
      cells_;
};

// Which links a SocketTransport coordinator expects its workers to hold.
enum class SocketTopology {
  kStar,  // coordinator links only: workers exchange frames with it alone
  kMesh,  // plus direct pair sockets between workers (a socket cluster)
};

// Localhost TCP: create with listen() on the coordinator (local endpoint
// kCoordinatorRank), connect() on a star worker, or connect_mesh() +
// mesh_with_peers() on a mesh worker (local endpoint = its rank id). A
// reader thread per socket delivers incoming frames to the local mailbox; a
// bad frame magic or a length over kMaxFrameBytes is stream corruption and
// fails that link. post() refuses (CheckError naming the peer) a frame whose
// header length disagrees with its size, before writing a byte, so the link
// stays usable. Posting to a worker without a pair link to it (a star
// endpoint, or before mesh_with_peers) throws an error naming that peer. Any
// mid-frame write failure poisons that peer (part of the frame may be on the
// wire, so the stream can never be trusted again): its socket is shut down
// and every later post to it throws a named error instead of desyncing the
// stream. Losing the coordinator link closes the local mailbox, so blocked
// recv() calls fail fast instead of hanging; close_reason() then says why
// ("coordinator closed connection" vs the socket errno).
class SocketTransport final : public Transport {
 public:
  // Coordinator side: bind + listen immediately (so port() is known before
  // workers are spawned); accept_workers() then blocks until all `nworkers`
  // have connected and announced their rank with a Hello frame. In mesh
  // topology every Hello must announce a listen port, and accept_workers()
  // finishes by handing each worker the PeerDirectory (before Config, which
  // the cluster driver sends next). Fail fast, never hang: with
  // timeout_ms > 0 the wait throws after that deadline, and `keep_waiting`,
  // when given, is polled between accepts — returning false (e.g. a spawned
  // worker died before connecting) aborts the wait.
  static std::unique_ptr<SocketTransport> listen(std::uint16_t port, int nworkers,
                                                 SocketTopology topology = SocketTopology::kStar);
  void accept_workers(int timeout_ms = 0, const std::function<bool()>& keep_waiting = {});

  // Worker side, star: connect to the coordinator and announce `rank`. The
  // endpoint exchanges frames with the coordinator only.
  static std::unique_ptr<SocketTransport> connect(const std::string& host,
                                                  std::uint16_t port, int rank);

  // Worker side, mesh: bind an own listener on `listen_port` (0: ephemeral),
  // connect to the coordinator, announce rank + listen port, and block until
  // the coordinator's PeerDirectory arrives. The worker↔worker links are not
  // up yet — call mesh_with_peers() next.
  static std::unique_ptr<SocketTransport> connect_mesh(const std::string& host,
                                                       std::uint16_t port, int rank,
                                                       std::uint16_t listen_port);

  // Establish the pair links: dial every higher-ranked directory entry
  // (announcing ourselves with a PeerHello) and accept one connection from
  // every lower-ranked peer. Throws a timed error naming the still-missing
  // ranks if a peer never dials — a partial mesh must fail, not hang.
  void mesh_with_peers(int timeout_ms = 30000);

  ~SocketTransport() override;

  std::uint16_t port() const { return port_; }

  void post(int src, int dst, std::vector<std::uint8_t> frame) override;
  std::optional<std::vector<std::uint8_t>> recv(int dst) override;
  void close(int dst) override;
  std::string close_reason() const override;

  // Best-effort post for teardown paths: never throws; returns false when
  // the frame could not be (fully) handed to the peer. A dead or
  // never-connected peer must not strand the remaining ranks of a broadcast.
  bool post_best_effort(int src, int dst, std::vector<std::uint8_t> frame) noexcept;

 private:
  struct Peer;  // one connected socket + its writer mutex and reader thread

  SocketTransport() = default;
  Peer& add_peer(FrameSocket sock, int rank);
  // Worker: dial the coordinator, add its link and send `hello` on it.
  Peer& join_coordinator(const std::string& host, std::uint16_t port,
                         std::span<const std::uint8_t> hello);
  void start_reader(Peer& peer);
  void write_frame(Peer& peer, std::span<const std::uint8_t> frame);
  // Poison a peer whose stream can no longer be trusted: record the first
  // reason, mark it dead and shut the socket down (waking its reader). The
  // fd stays open until the destructor so the reader thread never races a
  // reuse.
  void fail_peer(Peer& peer, const std::string& reason);
  std::string peer_error(const Peer& peer) const;
  // Close the local mailbox, recording the first reason as close_reason().
  void close_local(const std::string& reason);
  std::string peer_name(int rank) const;

  bool coordinator_ = false;
  SocketTopology topology_ = SocketTopology::kStar;
  int local_rank_ = kCoordinatorRank;  // worker: its rank id
  int nworkers_ = 0;
  std::uint16_t port_ = 0;  // coordinator listen port
  // Coordinator: for the worker hellos. Mesh worker: for the lower-ranked
  // peers' dials, released once the mesh is up.
  std::unique_ptr<Listener> listener_;
  bool meshed_ = false;
  // Coordinator: index = worker rank. Worker: [0] is the coordinator link,
  // mesh pair links append behind it (mesh_link_ maps rank -> entry).
  std::vector<std::unique_ptr<Peer>> peers_;
  std::vector<Peer*> mesh_link_;          // mesh worker: by remote rank
  std::vector<wire::PeerEndpoint> directory_;  // mesh worker: rendezvous result
  // Coordinator: one mailbox (control/result frames addressed to it).
  // Worker: one mailbox (all frames addressed to its rank).
  Channel<std::vector<std::uint8_t>> inbox_;
  mutable std::mutex state_mutex_;  // close_reason_, per-peer errors
  std::string close_reason_;
};

}  // namespace bonsai::domain
