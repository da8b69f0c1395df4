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

// Persistent state of the incremental LET exchange (--let-cache), owned by
// the driver — the Simulation in-proc, the worker loop in cluster mode — and
// lent to each step's ephemeral LetExchange. Caches are per directed pair:
// `send[src * nranks + dst]` is the exporter's mirror of what dst currently
// holds of src's LET, `recv[dst * nranks + src]` the importer's actual copy
// (a cluster worker only ever touches its own row of each). `scratch[src]`
// is the per-source encode buffer whose capacity persists across steps, so
// posting no longer grows a fresh vector every time. With `enabled` false
// the scratch reuse still applies but every post ships a full frame and no
// cache is consulted — the differential reference path.
struct LetChannelState {
  bool enabled = false;
  int nranks = 0;
  std::vector<wire::LetCacheEntry> send, recv;
  std::vector<std::vector<std::uint8_t>> scratch;

  void init(int n, bool on) {
    enabled = on;
    nranks = n;
    const std::size_t pairs = static_cast<std::size_t>(n) * static_cast<std::size_t>(n);
    send.assign(pairs, {});
    recv.assign(pairs, {});
    scratch.assign(static_cast<std::size_t>(n), {});
  }
  // bench/ remnant: the benchmark replay passes SimConfig::let_churn, which
  // src/ ignores; every exporter uses wire::kLetChurnRatio.
  void init(int n, bool on, double /*churn*/) { init(n, on); }

  wire::LetCacheEntry& send_entry(int src, int dst) {
    return send[static_cast<std::size_t>(src) * static_cast<std::size_t>(nranks) +
                static_cast<std::size_t>(dst)];
  }
  wire::LetCacheEntry& recv_entry(int dst, int src) {
    return recv[static_cast<std::size_t>(dst) * static_cast<std::size_t>(nranks) +
                static_cast<std::size_t>(src)];
  }
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
  // `state` (optional) carries the incremental-exchange caches and encode
  // scratch across steps; it must outlive the exchange and match its rank
  // count.
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

  // Incremental-exchange accounting: full/delta frames and bytes saved
  // posted by r, plus deltas applied (cache_hits) and cache resets
  // (invalidations) observed by r as an importer. All zero when the cache
  // is off.
  const wire::LetDeltaStats& delta_stats(int r) const;

 private:
  Transport& transport_;
  LetChannelState* state_;               // nullptr: always-full legacy path
  std::vector<std::size_t> remaining_;  // per-dst, touched only by its consumer
  std::vector<wire::LetDeltaStats> delta_;  // exporter side per-src, importer per-dst
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
