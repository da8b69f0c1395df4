// Nonblocking point-to-point channels and the LET exchange protocol.
//
// Channel<T> is the unbounded MPSC mailbox the in-process transport is built
// on: a sender posts and keeps computing (the MPI_Isend analogue); the
// receiver drains whenever it is ready.
//
// LetExchange is the all-to-all LET protocol of one step, spoken over a
// byte-oriented Transport (domain/transport.hpp): post() serializes a
// LetTree to a versioned wire frame (domain/wire.hpp) and hands the *bytes*
// to the transport; recv() decodes and validates the next arrived frame.
// Live tree objects never cross the rank boundary, so the same protocol runs
// unchanged over the in-process loopback and over sockets between separate
// processes.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <vector>

#include "domain/wire.hpp"

namespace bonsai::domain {

class Transport;

// Unbounded multi-producer single-consumer mailbox. send() never blocks
// (the MPI_Isend analogue); recv() blocks until a message or close() arrives.
template <typename T>
class Channel {
 public:
  Channel() = default;
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  void send(T value) {
    {
      std::lock_guard lock(mutex_);
      queue_.push_back(std::move(value));
    }
    cv_.notify_one();
  }

  // Blocks until a message is available; nullopt once closed *and* drained.
  std::optional<T> recv() {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [this] { return !queue_.empty() || closed_; });
    if (queue_.empty()) return std::nullopt;
    T out = std::move(queue_.front());
    queue_.pop_front();
    return out;
  }

  // Completion signal: no further send() will follow. Pending messages stay
  // receivable; subsequent recv() on an empty mailbox returns nullopt.
  void close() {
    {
      std::lock_guard lock(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::deque<T> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool closed_ = false;
};

// Per-source LET encode buffers, owned by the driver — the Simulation
// in-proc, the worker loop in cluster mode — and lent to each step's
// ephemeral LetExchange: `scratch[src]` keeps its capacity across steps, so
// posting does not grow a fresh vector every time.
struct LetChannelState {
  int nranks = 0;
  std::vector<std::vector<std::uint8_t>> scratch;

  void init(int n) {
    nranks = n;
    scratch.assign(static_cast<std::size_t>(n), {});
  }
  // bench/ remnant: the benchmark replay passes SimConfig::let_cache and
  // SimConfig::let_churn, which src/ ignores.
  void init(int n, bool /*cache*/, double /*churn*/) { init(n); }
};

// The all-to-all LET exchange of one step over a Transport: serialized LET
// frames plus expected-arrival bookkeeping. Senders and receivers are both
// known up front (the active = non-empty ranks), so recv() can stop a
// receiver after its last expected message without any close handshake.
class LetExchange {
 public:
  // `active[r]` marks ranks that both send and receive LETs this step; an
  // active destination expects one LET from every other active rank. The
  // transport must outlive the exchange and route ids [0, active.size()).
  // `state` (optional) carries the encode scratch across steps; it must
  // outlive the exchange and match its rank count.
  LetExchange(Transport& transport, const std::vector<std::uint8_t>& active,
              LetChannelState* state = nullptr);

  int num_ranks() const { return static_cast<int>(remaining_.size()); }

  // LETs dst still has to receive; starts at (number of active ranks - 1)
  // for an active dst and counts down with each recv().
  std::size_t remaining(int dst) const;

  // Nonblocking post of src's LET for dst (called from src's driver thread):
  // encodes the frame (span wire.encode.let) and hands the bytes to the
  // transport. Returns the encoded frame size. bench/ remnant: the benchmark
  // replay passes a fourth argument, which is ignored.
  std::size_t post(int src, int dst, const LetTree& let, double = 0.0);

  // Blocking receive of dst's next LET, in arrival order; nullopt once every
  // expected LET has been delivered. Decodes + validates the frame (spans
  // let.recv.wait, wire.decode.let). Must only be called from dst's driver
  // thread (the single consumer of dst's endpoint). Throws if the endpoint
  // was close()d before all expected arrivals (fail fast, never hang).
  std::optional<wire::LetMessage> recv(int dst);

  // Failure-path escape hatch: closes dst's transport endpoint so a peer
  // blocked in recv() trips the closed-early check instead of waiting
  // forever. Works even when an empty compensation frame cannot be built.
  void close(int dst);

  // bench/ remnant: every LET ships as a full frame, so the counters are
  // always zero.
  wire::LetDeltaStats delta_stats(int /*r*/) const { return {}; }

 private:
  Transport& transport_;
  LetChannelState* state_;              // nullptr: encode into a fresh buffer
  std::vector<std::size_t> remaining_;  // per-dst, touched only by its consumer
};

// The particle alltoallv of one SPMD step over a Transport — the LET mailbox
// pattern applied to migration frames. Every rank posts exactly one
// Migration frame (its owner-changing particles, possibly none) to every
// other rank and expects nranks-1 arrivals, so recv() stops a receiver after
// its last expected batch without a close handshake. Unlike LETs, migration
// has no active set: empty ranks can gain particles, so all ranks
// participate every step.
class MigrationExchange {
 public:
  MigrationExchange(Transport& transport, int nranks);

  int num_ranks() const { return static_cast<int>(remaining_.size()); }

  // Batches dst still has to receive; starts at nranks - 1.
  std::size_t remaining(int dst) const;

  // Nonblocking post of src's emigrants bound for dst: encodes the frame
  // (span wire.encode.migration) and hands the bytes to the transport.
  // Returns the encoded frame size.
  std::size_t post(int src, int dst, const ParticleSet& parts, int step);

  // Blocking receive of dst's next inbound batch, in arrival order; nullopt
  // once every expected batch arrived. Throws if the endpoint closes early
  // (fail fast, never hang) or a frame belongs to a different step.
  std::optional<wire::MigrationMsg> recv(int dst, int step);

 private:
  Transport& transport_;
  std::vector<std::size_t> remaining_;
};

}  // namespace bonsai::domain
