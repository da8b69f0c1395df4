#include "domain/channel.hpp"

#include <algorithm>

#include "domain/transport.hpp"
#include "util/check.hpp"
#include "util/trace.hpp"

namespace bonsai::domain {

LetExchange::LetExchange(Transport& transport, const std::vector<std::uint8_t>& active,
                         LetChannelState* state)
    : transport_(transport), state_(state) {
  const std::size_t nranks = active.size();
  BNS_CHECK(state == nullptr ||
               state->nranks == static_cast<int>(nranks));
  const auto num_active = static_cast<std::size_t>(
      std::count_if(active.begin(), active.end(), [](std::uint8_t a) { return a != 0; }));
  remaining_.reserve(nranks);
  for (std::size_t r = 0; r < nranks; ++r)
    remaining_.push_back(active[r] && num_active > 0 ? num_active - 1 : 0);
  delta_.resize(nranks);
}

std::size_t LetExchange::remaining(int dst) const {
  return remaining_[static_cast<std::size_t>(dst)];
}

std::size_t LetExchange::post(int src, int dst, const LetTree& let, double) {
  BNS_CHECK(src != dst);
  std::vector<std::uint8_t> frame;
  {
    trace::ScopedSpan span("wire.encode.let", src, src);
    span.set_peer(dst);
    if (state_ != nullptr && state_->enabled) {
      wire::LetEncodeResult res =
          wire::encode_let_cached(src, let, state_->send_entry(src, dst), wire::kLetChurnRatio,
                                  &state_->scratch[static_cast<std::size_t>(src)]);
      frame = std::move(res.frame);
      wire::LetDeltaStats& ds = delta_[static_cast<std::size_t>(src)];
      if (res.is_delta) {
        ds.delta_frames += 1;
        ds.bytes_saved += res.full_bytes - frame.size();
      } else {
        ds.full_frames += 1;
      }
    } else if (state_ != nullptr) {
      frame = wire::encode_let_scratch(src, let, state_->scratch[static_cast<std::size_t>(src)]);
    } else {
      frame = wire::encode_let(src, let);
    }
    span.set_bytes(static_cast<std::int64_t>(frame.size()));
  }
  const std::size_t bytes = frame.size();
  transport_.post(src, dst, std::move(frame));
  return bytes;
}

std::optional<wire::LetMessage> LetExchange::recv(int dst) {
  std::size_t& remaining = remaining_[static_cast<std::size_t>(dst)];
  if (remaining == 0) return std::nullopt;
  std::optional<std::vector<std::uint8_t>> frame;
  {
    trace::ScopedSpan wait("let.recv.wait", dst, dst);
    frame = transport_.recv(dst);
  }
  BNS_CHECK(frame.has_value(), "LET endpoint closed before all expected arrivals");
  trace::ScopedSpan span("wire.decode.let", dst, dst);
  span.set_bytes(static_cast<std::int64_t>(frame->size()));
  wire::LetMessage msg;
  if (state_ != nullptr && state_->enabled) {
    const int src = wire::peek_let_src(*frame);
    BNS_CHECK(src >= 0 && src < num_ranks() && src != dst,
                     "LET frame from an invalid source rank");
    wire::LetCacheEntry& entry = state_->recv_entry(dst, src);
    const bool had_cache = entry.version != 0;
    const bool is_delta = wire::frame_type(*frame) == wire::FrameType::kLetDelta;
    msg = wire::decode_let_cached(*frame, entry);
    wire::LetDeltaStats& ds = delta_[static_cast<std::size_t>(dst)];
    if (is_delta)
      ds.cache_hits += 1;
    else if (had_cache)
      ds.invalidations += 1;
  } else {
    msg = wire::decode_let(*frame);
  }
  span.set_peer(msg.src);
  --remaining;
  return msg;
}

void LetExchange::close(int dst) { transport_.close(dst); }

const wire::LetDeltaStats& LetExchange::delta_stats(int r) const {
  return delta_[static_cast<std::size_t>(r)];
}

MigrationExchange::MigrationExchange(Transport& transport, int nranks)
    : transport_(transport) {
  BNS_CHECK(nranks >= 1);
  remaining_.assign(static_cast<std::size_t>(nranks),
                    static_cast<std::size_t>(nranks - 1));
}

std::size_t MigrationExchange::remaining(int dst) const {
  return remaining_[static_cast<std::size_t>(dst)];
}

std::size_t MigrationExchange::post(int src, int dst, const ParticleSet& parts, int step) {
  BNS_CHECK(src != dst);
  std::vector<std::uint8_t> frame;
  {
    trace::ScopedSpan span("wire.encode.migration", src, src, step);
    span.set_peer(dst);
    frame = wire::encode_migration(src, step, parts);
    span.set_bytes(static_cast<std::int64_t>(frame.size()));
  }
  const std::size_t bytes = frame.size();
  transport_.post(src, dst, std::move(frame));
  return bytes;
}

std::optional<wire::MigrationMsg> MigrationExchange::recv(int dst, int step) {
  std::size_t& remaining = remaining_[static_cast<std::size_t>(dst)];
  if (remaining == 0) return std::nullopt;
  std::optional<std::vector<std::uint8_t>> frame;
  {
    trace::ScopedSpan wait("migration.recv.wait", dst, dst, step);
    frame = transport_.recv(dst);
  }
  BNS_CHECK(frame.has_value(),
                   "migration endpoint closed before all expected batches");
  wire::MigrationMsg msg;
  {
    trace::ScopedSpan span("wire.decode.migration", dst, dst, step);
    span.set_bytes(static_cast<std::int64_t>(frame->size()));
    msg = wire::decode_migration(*frame);
    span.set_peer(msg.src);
  }
  BNS_CHECK(msg.step == step, "migration batch from a different step");
  --remaining;
  return msg;
}

}  // namespace bonsai::domain
